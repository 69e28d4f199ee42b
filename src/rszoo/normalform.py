"""Shape pipeline: problem statements to two-block normal forms.

A *problem statement* is a formula (forall X..)(exists Y..) phi with phi
internal: for every instance there is a solution.  The pipeline turns
such a statement into the two-block normal form that the witness rows
and the extractor work with:

1. ``uniformize``       - flip the quantifiers through a solution
                          functional: (exists Psi)(forall X) phi(X, Psi(X));
                          then relativize both blocks to standard objects
                          and conjoin extensionality of Psi up to ``approx``.
2. ``resolve_approx``   - expand the approx-implications into explicit
                          prefix comparisons with a modulus: for each
                          output position k some agreement length N.
3. ``herbrandize_choice`` - trade the inner standard existential, of
                          type 0, for a standard functional: the
                          max-collapse of the Herbrand form.
4. ``prenex_to_normal`` - pull every standard quantifier of the final
                          implication to the front, flipping those in
                          negative position, consequent first.

The pipeline refuses anything outside this grammar, implication-shaped
statements (hypothesis to bounded conclusion) included.

The backward direction has a fixed source as the forward one has a
fixed target: ``normalize_backward`` relativizes the statement's blocks,
puts Feferman's specification (mu^2) of a standard least-zero functional
``mu:2`` in front of them, and calls ``prenex_to_normal``.  Each
direction's witness rows are checked against the normal form built
here, not against one that a script states.

The quantifier exchanges in step 4 are classical equivalences over
nonempty finite ranges, so the output stays truth-equivalent to its
input in any MiniModel whose standard populations at the quantified
types are nonempty; tests check this by brute force at small caps.
"""
from __future__ import annotations

from .lang.formulas import (EXTERNAL, And, Atom, BExists, Exists, ExistsSt,
                            Forall, ForallSt, Formula, Implies, Not, Or,
                            all_names_f, approx, approx_sides, conj,
                            is_internal, strip, subformulas, subst_f)
from .lang.terms import (Abs, App, Term, Var, app, fresh_name, num, INITSEG,
                         NUNL, NUNR)
from .lang.types import (Arrow, FiniteType, N, Seq, arrows, pure, record,
                         show_type)


class NormalFormError(Exception):
    pass


# ---------------------------------------------------------------------------
# the fixed target: bounded-zero transfer

@record
class TransferInstance:
    """The transfer statement for zeros of a standard table, in its raw
    implication shape and its two-block normal form.  The two are
    classically equivalent."""
    transfer: Formula
    normal: Formula


# The target's standard table and the bound on its first zero, a
# universal and a witness slot of every forward normal form the pipeline
# builds (see ``normalize_principle``).
BZT_TABLE = Var("f", Arrow(N, N))
BZT_BOUND = Var("y", N)


def trans_instance() -> TransferInstance:
    f, y, x, z = BZT_TABLE, BZT_BOUND, Var("x", N), Var("z", N)
    fx0 = Atom((App(f, x), num(0)))
    fz0 = Atom((App(f, z), num(0)))
    transfer = ForallSt(f, Implies(
        ForallSt(x, Not(fx0)),
        Forall(x, Not(fx0))))
    matrix = Implies(Exists(x, fx0), BExists(z, y, fz0))
    return TransferInstance(transfer, ForallSt(f, ExistsSt(y, matrix)))


# ---------------------------------------------------------------------------
# step 1: uniformize

@record
class UniformPrinciple:
    """The functional and relativized variants of a problem statement.

    ``functionals`` lists the solution functionals introduced for the
    original existentials (empty when the statement had none)."""
    uniform: Formula
    strong: Formula
    functionals: tuple[Var, ...]


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


def uniformize(base: Formula) -> UniformPrinciple:
    """Build the functional and relativized-strong variants of a
    (forall X..)(exists Y..) phi problem statement."""
    xs, ys, matrix = _statement(base)

    if not ys:
        uniform = base
        strong = matrix
        for v in reversed(xs):
            strong = ForallSt(v, strong)
        return UniformPrinciple(uniform, strong, ())

    taken = all_names_f(base)
    fns = [Var(fresh_name("Psi" if i == 0 else f"Psi{i + 1}", taken),
               arrows([x.ty for x in xs], y.ty)) for i, y in enumerate(ys)]
    inner = subst_f(matrix, {y: app(fn, *xs) for y, fn in zip(ys, fns)})

    uniform = inner
    for x in reversed(xs):
        uniform = Forall(x, uniform)
    for fn in reversed(fns):
        uniform = Exists(fn, uniform)

    core = inner
    for x in reversed(xs):
        core = ForallSt(x, core)
    ext = [_extensionality(fn, [x.ty for x in xs], taken) for fn in fns]
    strong = conj([core] + ext)
    for fn in reversed(fns):
        strong = ExistsSt(fn, strong)
    return UniformPrinciple(uniform, strong, tuple(fns))


def _extensionality(fn: Var, arg_tys: list[FiniteType],
                    taken: set[str]) -> Formula:
    """(forall^st C, D)(C approx D -> fn(C) approx fn(D)), one C/D pair
    per argument position."""
    cs, ds = [], []
    for ty in arg_tys:
        cs.append(Var(fresh_name("X", taken), ty))
        ds.append(Var(fresh_name("Y", taken), ty))
    out_ty = fn.ty
    for _ in arg_tys:
        out_ty = out_ty.cod
    prem = conj([approx(c.ty, c, d) for c, d in zip(cs, ds)])
    ccl = approx(out_ty, app(fn, *cs), app(fn, *ds))
    body: Formula = Implies(prem, ccl)
    for v in reversed(cs + ds):
        body = ForallSt(v, body)
    return body


# ---------------------------------------------------------------------------
# step 2: resolve approx

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


def _prefix_eq(ty: FiniteType, l: Term, r: Term, n: Var,
               taken: set[str]) -> tuple[Formula, bool]:
    """Compare l and r of the given type up to prefix length n; the
    second component says whether n was actually used."""
    if ty == N or isinstance(ty, Seq):
        return Atom((l, r)), False
    k = _numeric_arity(ty)
    if k is None:
        raise NormalFormError(
            f"no prefix encoding at type {show_type(ty)}")
    dl, dr = _diag(l, k, taken), _diag(r, k, taken)
    return Atom((app(INITSEG, dl, n), app(INITSEG, dr, n))), True


def _approx_leaves(f: Formula) -> list[tuple] | None:
    """``approx_sides`` of each approx in f, when f is a conjunction of
    them (as ``_extensionality`` writes a premise over several
    arguments)."""
    if isinstance(f, And):
        l = _approx_leaves(f.left)
        r = _approx_leaves(f.right)
        return l + r if l is not None and r is not None else None
    leaf = approx_sides(f)
    return None if leaf is None else [leaf]


def resolve_approx(f: Formula) -> Formula:
    """Expand approx-implications into prefix comparisons.

    An implication whose sides are conjunctions of approxes becomes

        (forall^st k)(exists^st N)(prefixes agree at N -> images agree at k)

    with k or N omitted when the corresponding side is purely numeric.
    An approx is the formula that ``approx`` builds, read back by
    ``approx_sides``.  One outside such an implication is left as it
    is: a standard quantifier, which ``prenex_to_normal`` moves like
    any other.
    """
    taken = all_names_f(f)

    def go(g: Formula) -> Formula:
        if isinstance(g, Implies) and not is_internal(g):
            prem = _approx_leaves(g.left)
            ccl = _approx_leaves(g.right)
            if prem is not None and ccl is not None:
                return rewrite(prem, ccl)
        if isinstance(g, Atom):
            return g
        if isinstance(g, Not):
            return Not(go(g.body))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(go(g.left), go(g.right))
        if isinstance(g, (Forall, Exists, ForallSt, ExistsSt)):
            return type(g)(g.var, go(g.body))
        if isinstance(g, BExists):
            return BExists(g.var, g.bound, go(g.body))
        raise NormalFormError(f"cannot resolve inside {type(g).__name__}")

    def rewrite(prem, ccl) -> Formula:
        nv = Var(fresh_name("N", taken), N)
        kv = Var(fresh_name("k", taken), N)
        ps, pused = [], False
        for ty, l, r in prem:
            g, used = _prefix_eq(ty, l, r, nv, taken)
            ps.append(g)
            pused = pused or used
        cs, cused = [], False
        for ty, l, r in ccl:
            g, used = _prefix_eq(ty, l, r, kv, taken)
            cs.append(g)
            cused = cused or used
        out: Formula = Implies(conj(ps), conj(cs))
        if pused:
            out = ExistsSt(nv, out)
        if cused:
            out = ForallSt(kv, out)
        return out

    return go(f)


# ---------------------------------------------------------------------------
# step 3: herbrandized choice

def herbrandize_choice(f: Formula) -> Formula:
    """Trade inner standard existentials for standard functionals.

    Each conjunct of shape (forall^st xs)(exists^st y:0) phi, phi
    internal, becomes

        (exists^st Xi: xs -> 0)(forall^st xs) phi[y := Xi(xs)].

    Herbrandized choice gives the Herbrand form: a standard W that
    sends each xs to a finite sequence of candidates, one of which is a
    witness y.  Xi(xs) is the largest candidate in W(xs).  That
    collapse is sound because phi gets no harder as the witness grows,
    which holds for every prefix-agreement matrix this pipeline
    produces (the premise only strengthens).  Only the collapsed form
    is built.  At any other type there is no largest candidate, and a
    standard existential of another type under standard universals is
    refused: pulled out from under them as it is, by
    ``prenex_to_normal``, it would claim one witness for every xs.
    Conjunctions and the standard-existential context are traversed;
    anything already functional is left alone.
    """
    taken = all_names_f(f)

    def go(g: Formula) -> Formula:
        if isinstance(g, ExistsSt):
            return ExistsSt(g.var, go(g.body))
        if isinstance(g, And):
            return And(go(g.left), go(g.right))
        got = _try_choice(g, taken)
        return got if got is not None else g

    return go(f)


def _try_choice(g: Formula, taken: set[str]) -> Formula | None:
    xs, rest = strip(g, ForallSt)
    if not xs or not isinstance(rest, ExistsSt):
        return None
    y, matrix = rest.var, rest.body
    if not is_internal(matrix):
        return None
    if y.ty != N:
        raise NormalFormError(
            f"no max-collapse for the standard existential {y.name!r} of "
            f"type {show_type(y.ty)}: only a type-0 witness collapses")
    xi = Var(fresh_name("Xi", taken), arrows([x.ty for x in xs], N))
    out: Formula = subst_f(matrix, {y: app(xi, *xs)})
    for x in reversed(xs):
        out = ForallSt(x, out)
    return ExistsSt(xi, out)


# ---------------------------------------------------------------------------
# step 4: prenex

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
        if isinstance(g, (Forall, Exists, BExists)):
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

def normalize_principle(base: Formula,
                        steps: list | None = None) -> Formula:
    """Full pipeline: problem statement to the two-block implication
    normal form against the bounded-zero transfer target.

    The result always holds the target's table ``BZT_TABLE`` among its
    universals and its bound ``BZT_BOUND`` among its existentials, and
    its consequent is the target's matrix: ``prenex_to_normal`` binds
    the consequent first, so a clashing name of the principle is
    renamed, never the target's.  The extraction (``extract.postprocess``
    and the collapse) relies on this."""
    if steps is not None:
        steps.append(("input", base))
    up = uniformize(base)
    if steps is not None:
        steps.append(("uniform", up.uniform))
        steps.append(("strong", up.strong))
    resolved = resolve_approx(up.strong)
    if steps is not None:
        steps.append(("prefix-resolved", resolved))
    herb = herbrandize_choice(resolved)
    if steps is not None:
        steps.append(("choice-collapsed", herb))
    imp = Implies(herb, trans_instance().normal)
    if steps is not None:
        steps.append(("implication", imp))
    nf = prenex_to_normal(imp)
    if steps is not None:
        steps.append(("normal-form", nf))
    return nf


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
