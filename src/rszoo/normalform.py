"""Shape pipeline: problem statements to two-block normal forms.

A *problem statement* is a formula (forall X..)(exists Y..) phi with phi
internal: for every instance there is a solution.  The pipeline turns
such a statement into the two-block normal form that the witness rows
and the extractor work with:

1. ``uniformize``       - flip the quantifiers through a solution
                          functional: (exists Psi)(forall X) phi(X, Psi(X));
                          relativize both blocks to standard objects, and
                          conjoin the extensionality of Psi with its
                          modulus Xi, on initial segments.
2. ``prenex_to_normal`` - pull every standard quantifier of the
                          implication to the bounded-zero transfer target
                          to the front, flipping those in negative
                          position, consequent first.

The pipeline refuses anything outside this grammar, implication-shaped
statements (hypothesis to bounded conclusion) included.

The backward direction has a fixed source as the forward one has a
fixed target: ``normalize_backward`` relativizes the statement's blocks,
puts Feferman's specification (mu^2) of a standard least-zero functional
``mu:2`` in front of them, and calls ``prenex_to_normal``.  Each
direction's witness rows are checked against the normal form built
here, not against one that a script states.

The quantifier exchanges in step 2 are classical equivalences over
nonempty finite ranges, so the output stays truth-equivalent to its
input in any MiniModel whose standard populations at the quantified
types are nonempty; tests check this by brute force at small caps.
"""
from __future__ import annotations

from .lang.formulas import (EXTERNAL, And, Atom, Exists, ExistsSt, Forall,
                            ForallSt, Formula, Implies, Not, Or, all_names_f,
                            conj, is_internal, strip, subformulas, subst_f)
from .lang.terms import (Abs, App, Term, Var, app, fresh_name, num, INITSEG,
                         MONUS, NUNL, NUNR)
from .lang.types import Arrow, FiniteType, N, Seq, arrows, pure, show_type


class NormalFormError(Exception):
    pass


# ---------------------------------------------------------------------------
# the fixed target: bounded-zero transfer

# The target's standard table and the bound on its first zero, a
# universal and a witness slot of every forward normal form the pipeline
# builds (see ``normalize_principle``).
BZT_TABLE = Var("f", Arrow(N, N))
BZT_BOUND = Var("y", N)


def trans_instance() -> Formula:
    """The transfer statement for zeros of a standard table,

        (forall^st f:1) ((forall^st x:0) f(x) != 0) -> (forall x:0) f(x) != 0,

    in the two-block normal form it is classically equivalent to: a
    table with a zero has one at or below a standard bound."""
    f, y, x, z = BZT_TABLE, BZT_BOUND, Var("x", N), Var("z", N)
    # z <= y is monus(z, y) = 0, as in E-PA^omega
    bounded = And(Atom((app(MONUS, z, y), num(0))),
                  Atom((App(f, z), num(0))))
    matrix = Implies(Exists(x, Atom((App(f, x), num(0)))), Exists(z, bounded))
    return ForallSt(f, ExistsSt(y, matrix))


# ---------------------------------------------------------------------------
# step 1: uniformize

def _statement(base: Formula) -> tuple[list[Var], list[Var], Formula]:
    """The universals, the existentials and the internal matrix of a
    (forall X..)(exists Y..) phi problem statement."""
    xs, rest = strip(base, Forall)
    ys, matrix = strip(rest, Exists)
    if not xs:
        raise NormalFormError(
            "expected a statement opening with plain universal "
            "quantifiers")
    if not is_internal(matrix):
        bad = next(g for g in subformulas(matrix)
                   if isinstance(g, EXTERNAL))
        raise NormalFormError(
            f"matrix must be internal; found {type(bad).__name__}")
    return xs, ys, matrix


def uniformize(base: Formula) -> Formula:
    """The strong uniform variant of a (forall X..)(exists Y..) phi
    problem statement: a standard solution functional Psi for each
    existential, and the statement relativized to standard objects with
    Psi(X..) in place of that existential, in conjunction with each
    functional's extensionality clause (``_extensionality``):

        (exists^st Psi..)((forall^st X..) phi(X.., Psi(X..)) /\\ ext(Psi))

    A statement without existentials is only relativized."""
    xs, ys, matrix = _statement(base)
    taken = all_names_f(base)
    fns = [Var(fresh_name("Psi" if i == 0 else f"Psi{i + 1}", taken),
               arrows([x.ty for x in xs], y.ty)) for i, y in enumerate(ys)]
    core = subst_f(matrix, {y: app(fn, *xs) for y, fn in zip(ys, fns)})
    for x in reversed(xs):
        core = ForallSt(x, core)
    # the clauses' k, i and Xi are drawn against the names of the core:
    # a name that only the statement's existential block bound is free
    names = all_names_f(core)
    out = conj([core] + [_extensionality(fn, [x.ty for x in xs], taken,
                                         names) for fn in fns])
    for fn in reversed(fns):
        out = ExistsSt(fn, out)
    return out


def _extensionality(fn: Var, arg_tys: list[FiniteType], taken: set[str],
                    names: set[str]) -> Formula:
    """The standard extensionality of fn (for standard X.. and Y.. that
    agree at every standard argument, fn(X..) and fn(Y..) agree too),
    resolved on initial segments, with the agreement length Herbrandized
    into a modulus Xi:

        (exists^st Xi)(forall^st X.., Y.., k)
            (initseg(X, Xi(X.., Y.., k)) = initseg(Y, Xi(X.., Y.., k)) /\\ ..
             -> initseg(fn(X..), k) = initseg(fn(Y..), k))

    A side of type 0 or of a sequence type is compared by =, so k is
    dropped when the output is, and Xi when every argument is.  A
    k-argument numeric function is compared as one table along the
    diagonal (``_diag``); a side of any other type is refused.

    Herbrandized choice gives a standard W that sends each (X.., Y.., k)
    to a finite sequence of candidate lengths, one of which makes the
    implication hold; Xi takes the largest.  That collapse is sound
    because the implication gets no harder as the length grows: the
    premise only strengthens.

    X and Y are drawn against taken; k, i and Xi against names."""
    cs, ds = [], []
    for ty in arg_tys:
        cs.append(Var(fresh_name("X", taken), ty))
        ds.append(Var(fresh_name("Y", taken), ty))
    out_ty = fn.ty
    for _ in arg_tys:
        out_ty = out_ty.cod
    us, n, k = cs + ds, None, None
    if isinstance(out_ty, Arrow):
        k = Var(fresh_name("k", names), N)
        us.append(k)
    if any(isinstance(ty, Arrow) for ty in arg_tys):
        xi = Var(fresh_name("Xi", names), arrows([u.ty for u in us], N))
        n = app(xi, *us)
    prem = conj([_prefix_eq(c.ty, c, d, n, names) for c, d in zip(cs, ds)])
    ccl = _prefix_eq(out_ty, app(fn, *cs), app(fn, *ds), k, names)
    body: Formula = Implies(prem, ccl)
    for u in reversed(us):
        body = ForallSt(u, body)
    return body if n is None else ExistsSt(xi, body)


def _numeric_arity(ty: FiniteType) -> int | None:
    """k when ty is 0 -> 0 -> ... -> 0 with k arguments, else None."""
    k = 0
    while isinstance(ty, Arrow):
        if ty.dom != N:
            return None
        k += 1
        ty = ty.cod
    return k if ty == N else None


def _diag(t: Term, k: int, taken: set[str]) -> Term:
    """View a k-argument numeric function as a single table by pairing
    the arguments along the diagonal."""
    if k == 1:
        return t
    i = Var(fresh_name("i", taken), N)
    args: list[Term] = []
    cur: Term = i
    for pos in range(k - 1):
        args.append(App(NUNL, cur))
        cur = App(NUNR, cur)
    args.append(cur)
    return Abs(i, app(t, *args))


def _prefix_eq(ty: FiniteType, l: Term, r: Term, n: Term | None,
               taken: set[str]) -> Formula:
    """Compare l and r of the given type up to prefix length n, which a
    side of type 0 or of a sequence type does not read."""
    if ty == N or isinstance(ty, Seq):
        return Atom((l, r))
    k = _numeric_arity(ty)
    if k is None:
        raise NormalFormError(
            f"no prefix encoding at type {show_type(ty)}")
    dl, dr = _diag(l, k, taken), _diag(r, k, taken)
    return Atom((app(INITSEG, dl, n), app(INITSEG, dr, n)))


# ---------------------------------------------------------------------------
# step 2: prenex

def prenex_to_normal(f: Formula) -> Formula:
    """Pull all standard quantifiers to the front of an implication,
    consequent first, flipping polarity through antecedents.  The
    result is a normal form: what is left under the blocks is internal,
    and ``bind`` renames a block name that would repeat.

    Every exchange is a classical equivalence over nonempty ranges.
    A standard quantifier under a plain quantifier blocks the algorithm
    and is reported.
    """
    taken = all_names_f(f)
    blocks: set[str] = set()
    univ: list[Var] = []
    exis: list[Var] = []

    def bind(v: Var, body: Formula) -> tuple[Var, Formula]:
        if v.name in blocks:
            nv = Var(fresh_name(v.name, taken), v.ty)
            body = subst_f(body, {v: nv})
            v = nv
        blocks.add(v.name)
        return v, body

    def walk(g: Formula, pos: bool) -> Formula:
        if is_internal(g):
            return g
        if isinstance(g, (ForallSt, ExistsSt)):
            v, body = bind(g.var, g.body)
            goes_univ = (pos == isinstance(g, ForallSt))
            (univ if goes_univ else exis).append(v)
            return walk(body, pos)
        if isinstance(g, Implies):
            right = walk(g.right, pos)
            left = walk(g.left, not pos)
            return Implies(left, right)
        if isinstance(g, (And, Or)):
            return type(g)(walk(g.left, pos), walk(g.right, pos))
        if isinstance(g, Not):
            return Not(walk(g.body, not pos))
        if isinstance(g, (Forall, Exists)):
            trapped = next(h for h in subformulas(g.body)
                           if isinstance(h, EXTERNAL))
            raise NormalFormError(
                f"standard structure ({type(trapped).__name__}) trapped "
                f"under plain quantifier binding {g.var.name!r}")
        raise NormalFormError(f"cannot prenex {type(g).__name__}")

    out = walk(f, True)
    for v in reversed(exis):
        out = ExistsSt(v, out)
    for v in reversed(univ):
        out = ForallSt(v, out)
    return out


# ---------------------------------------------------------------------------
# the composed pipelines

def normalize_principle(base: Formula) -> Formula:
    """Full pipeline: problem statement to the two-block implication
    normal form against the bounded-zero transfer target.

    The result always holds the target's table ``BZT_TABLE`` among its
    universals and its bound ``BZT_BOUND`` among its existentials, and
    its consequent is the target's matrix: ``prenex_to_normal`` binds
    the consequent first, so a clashing name of the principle is
    renamed, never the target's.  The extraction (``extract.postprocess``
    and the collapse) relies on this."""
    return prenex_to_normal(Implies(uniformize(base), trans_instance()))


def normalize_backward(base: Formula) -> Formula:
    """The backward normal form of a problem statement (forall xs)(exists
    ys) phi: under Feferman's specification (mu^2) of a standard mu:2,

        (forall^st mu) ((forall h:1) (((exists x:0) h(x) = 0)
                                      -> h(mu(h)) = 0)
                        -> (forall^st xs)(exists^st ys) phi),

    brought to the front by ``prenex_to_normal``.  A statement without
    existentials has no backward content and is refused."""
    xs, ys, matrix = _statement(base)
    if not ys:
        raise NormalFormError("the backward normal form needs an "
                              "existential block")
    for y in reversed(ys):
        matrix = ExistsSt(y, matrix)
    for x in reversed(xs):
        matrix = ForallSt(x, matrix)
    mu = Var(fresh_name("mu", all_names_f(base)), pure(2))
    h, x = Var("h", pure(1)), Var("x", N)
    spec = Forall(h, Implies(Exists(x, Atom((App(h, x), num(0)))),
                             Atom((App(h, App(mu, h)), num(0)))))
    return prenex_to_normal(ForallSt(mu, Implies(spec, matrix)))
