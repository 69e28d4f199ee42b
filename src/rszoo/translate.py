"""Two-block normal forms and the standardness translation.

A NormalForm packages ``(forall^st xs)(exists^st ys) matrix`` with an
internal matrix.  The translation maps every formula of the external
language to such a shape by five primitive clauses:

  (i)   internal formulas pass through untouched;
  (ii)  st(t) becomes (exists^st w)(w = t);
  (iii) negation trades the existential block for candidate
        functionals: from [xs; ys; m] to [Ys; xs; (forall ys in
        Ys[xs]) ~m], where each Y maps the old universals to a finite
        sequence of candidates;
  (iv)  disjunction concatenates blocks (renaming collisions apart);
  (v)   a plain universal quantifier weakens each existential to a
        sequence of candidates: from [xs; ys; m] to [xs; ys';
        (forall z)(exists ys in ys') m].

Everything else is derived: /\\, ->, exists, and the relativized
quantifiers unfold to the primitives.  With ``simplify_steps=True``
each intermediate result is normalized by ``simplify``, whose rule set
(negation pushing, vacuous-quantifier deletion, sequence-quantifier
collapse, singleton-membership collapse, and equality-guard
instantiation) is documented on the rule functions below; every rule
preserves truth in every model and strictly decreases term size, so
simplification terminates and is idempotent.
"""
from __future__ import annotations

from .lang.formulas import (And, Atom, BExists, BForall, BQUANTS,
                            Eq, Exists, ExistsSt, FALSE, Forall, ForallSt,
                            Formula, Implies, Not, Or, QUANTS, St, TRUE,
                            all_names_f, alpha_walk_f, canon, desugar_approx,
                            free_vars_f, is_internal, subst_f)
from .lang.parser import parse_formula, parse_type
from .lang.printer import show_formula
from .lang.terms import (App, Const, Term, Var, app, free_vars, fresh_name,
                         get_c, infer_type, len_c, seqapp_c, spine)
from .lang.types import (Arrow, FiniteType, N, Node, Seq, arrows, node,
                         show_type)


@node
class NormalForm(Node):
    """(forall^st universals)(exists^st existentials) matrix."""
    universals: tuple[Var, ...]
    existentials: tuple[Var, ...]
    matrix: Formula

    def __new__(cls, universals, existentials, matrix):
        names = [v.name for v in universals + existentials]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate names in blocks: {names}")
        return object.__new__(cls)


class TranslateError(Exception):
    pass


def nf_to_formula(nf: NormalForm) -> Formula:
    f = nf.matrix
    for v in reversed(nf.existentials):
        f = ExistsSt(v, f)
    for v in reversed(nf.universals):
        f = ForallSt(v, f)
    return f


def show_nf(nf: NormalForm) -> str:
    parts = []
    if nf.universals:
        vs = ", ".join(f"{v.name}:{show_type(v.ty)}" for v in nf.universals)
        parts.append(f"(forall^st {vs})")
    if nf.existentials:
        vs = ", ".join(f"{v.name}:{show_type(v.ty)}" for v in nf.existentials)
        parts.append(f"(exists^st {vs})")
    parts.append(show_formula(nf.matrix))
    return " ".join(parts)


def canon_nf(nf: NormalForm) -> NormalForm:
    """Canonical variable naming, for display: universals x0..,
    existentials y0.., then canonical bound names inside the matrix.
    Like every binder, a block renames its names at every type."""
    m = nf.matrix
    blocks = {v.name for v in nf.universals + nf.existentials}
    taken = {v.name for v in free_vars_f(m)} - blocks
    new: dict[str, str] = {}
    for prefix, block in (("x", nf.universals), ("y", nf.existentials)):
        for i, v in enumerate(block):
            name = f"{prefix}{i}"
            while name in taken:
                name += "_"
            new[v.name] = name
    m = subst_f(m, {v: Var(new[v.name], v.ty) for v in free_vars_f(m)
                    if v.name in new})
    return NormalForm(tuple(Var(new[v.name], v.ty) for v in nf.universals),
                      tuple(Var(new[v.name], v.ty) for v in nf.existentials),
                      canon(m))


def alpha_eq_nf(a: NormalForm, b: NormalForm) -> bool:
    """Equality up to the names of bound variables (order-sensitive):
    the blocks pairwise by type, then the matrices by ``alpha_walk_f``
    with each block name bound."""
    if (len(a.universals) != len(b.universals)
            or len(a.existentials) != len(b.existentials)):
        return False
    ma: dict[str, int] = {}
    mb: dict[str, int] = {}
    for depth, (u, v) in enumerate(zip(a.universals + a.existentials,
                                       b.universals + b.existentials)):
        if u.ty != v.ty:
            return False
        ma[u.name] = mb[v.name] = depth
    return alpha_walk_f(a.matrix, b.matrix, ma, mb, len(ma))


def nf_signature(nf: NormalForm) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Quantifier signature: the two blocks' types, sorted (tuple order
    is irrelevant for comparisons)."""
    return (tuple(sorted(show_type(v.ty) for v in nf.universals)),
            tuple(sorted(show_type(v.ty) for v in nf.existentials)))


# ---------------------------------------------------------------------------
# the translation

def sst_translate(f: Formula, simplify_steps: bool = True) -> NormalForm:
    """Translate f into a NormalForm.

    With simplify_steps the intermediate result of every combining
    clause is normalized; the raw mode keeps every Herbrand functional
    for audit.

    Internal formulas come back verbatim, with empty blocks.
    """
    if is_internal(f):
        return NormalForm((), (), f)
    f = desugar_approx(f)
    return _tr(f, simplify_steps, all_names_f(f))


def _post(nf: NormalForm, simp: bool) -> NormalForm:
    return simplify(nf) if simp else nf


def _tr(f: Formula, simp: bool, names: set[str]) -> NormalForm:
    if is_internal(f):
        return NormalForm((), (), f)
    if isinstance(f, St):
        ty = infer_type(f.arg, {})
        w = Var(fresh_name("w", names), ty)
        eq: Formula = Atom("=", (w, f.arg)) if ty == N else Eq(ty, w, f.arg)
        return NormalForm((), (w,), eq)
    if isinstance(f, Not):
        nf = _tr(f.body, simp, names)
        return _post(_negate(nf, names), simp)
    if isinstance(f, Or):
        a = _tr(f.left, simp, names)
        b = _tr(f.right, simp, names)
        return _post(_disjoin(a, b, names), simp)
    if isinstance(f, Forall):
        nf = _tr(f.body, simp, names)
        return _post(_univ(f.var, nf, names), simp)
    # derived connectives
    if isinstance(f, And):
        return _tr(Not(Or(Not(f.left), Not(f.right))), simp, names)
    if isinstance(f, Implies):
        return _tr(Or(Not(f.left), f.right), simp, names)
    if isinstance(f, Exists):
        return _tr(Not(Forall(f.var, Not(f.body))), simp, names)
    if isinstance(f, ForallSt):
        return _tr(Forall(f.var, Or(Not(St(f.var)), f.body)), simp, names)
    if isinstance(f, ExistsSt):
        return _tr(Not(Forall(f.var, Or(Not(St(f.var)), Not(f.body)))),
                   simp, names)
    if isinstance(f, BForall):
        return _tr(Forall(f.var, Or(Not(_guard(f)), f.body)), simp, names)
    if isinstance(f, BExists):
        return _tr(Not(Forall(f.var, Or(Not(_guard(f)), Not(f.body)))),
                   simp, names)
    raise TranslateError(f"cannot translate: {f!r}")


def _guard(f) -> Formula:
    if f.kind == "le":
        return Atom("<=", (f.var, f.bound))
    if f.kind == "lt":
        return Atom("<", (f.var, f.bound))
    # membership in a sequence value
    i = Var("_i", N)
    entry = app(get_c(f.var.ty), f.bound, i)
    eq: Formula = (Atom("=", (entry, f.var)) if f.var.ty == N
                   else Eq(f.var.ty, entry, f.var))
    return BExists(i, "lt", App(len_c(f.var.ty), f.bound), eq)


def _negate(nf: NormalForm, names: set[str]) -> NormalForm:
    """Clause (iii): Herbrandize the existential block."""
    xs, ys, m = nf.universals, nf.existentials, nf.matrix
    fns: list[Var] = []
    body: Formula = Not(m)
    for y in reversed(ys):
        fty = arrows([x.ty for x in xs], Seq(y.ty))
        base = y.name.upper() if y.name.upper() != y.name else "W"
        Y = Var(fresh_name(base, names), fty)
        fns.insert(0, Y)
        bound: Term = Y
        for x in xs:
            bty = infer_type(bound, {})
            assert isinstance(bty, Arrow)
            bound = app(seqapp_c(bty.dom, bty.cod), bound, x)
        body = BForall(y, "mem", bound, body)
    return NormalForm(tuple(fns), xs, body)


def _disjoin(a: NormalForm, b: NormalForm, names: set[str]) -> NormalForm:
    """Clause (iv): concatenate blocks, disjoin matrices."""
    clash = ({v.name for v in a.universals + a.existentials}
             | {v.name for v in free_vars_f(a.matrix)})
    ren = {v: Var(fresh_name(v.name, names), v.ty)
           for v in b.universals + b.existentials if v.name in clash}
    bu = tuple(ren.get(v, v) for v in b.universals)
    be = tuple(ren.get(v, v) for v in b.existentials)
    return NormalForm(a.universals + bu, a.existentials + be,
                      Or(a.matrix, subst_f(b.matrix, ren)))


def _univ(z: Var, nf: NormalForm, names: set[str]) -> NormalForm:
    """Clause (v): candidates for each existential, z universal inside."""
    if z in nf.universals + nf.existentials:
        raise TranslateError(f"shadowed quantifier variable {z.name}")
    if not nf.existentials:
        return NormalForm(nf.universals, (), Forall(z, nf.matrix))
    lifts = [Var(fresh_name(y.name + "s", names), Seq(y.ty))
             for y in nf.existentials]
    body = nf.matrix
    for y, ys in zip(reversed(nf.existentials), reversed(lifts)):
        body = BExists(y, "mem", ys, body)
    return NormalForm(nf.universals, tuple(lifts), Forall(z, body))


# ---------------------------------------------------------------------------
# the simplifier

def simplify(nf: NormalForm) -> NormalForm:
    """Normalize: push negations, then apply size-decreasing rules to a
    fixpoint (vacuous deletion, sequence collapse, singleton
    membership, equality-guard instantiation)."""
    while True:
        m = push_neg(nf.matrix)
        nf = NormalForm(nf.universals, nf.existentials, m)
        out = _step(nf)
        if out is None:
            return nf
        nf = out


def _step(nf: NormalForm) -> NormalForm | None:
    out = rule_drop_unused(nf)
    if out is not None:
        return out
    out = rule_seq_collapse(nf)
    if out is not None:
        return out
    m = _rewrite_first(nf.matrix)
    if m is not None:
        return NormalForm(nf.universals, nf.existentials, m)
    return None


def push_neg(f: Formula) -> Formula:
    """Move negations inward; leaves positive implications alone and
    stops at atoms."""
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, Not):
            return push_neg(g.body)
        if isinstance(g, And):
            return Or(push_neg(Not(g.left)), push_neg(Not(g.right)))
        if isinstance(g, Or):
            return And(push_neg(Not(g.left)), push_neg(Not(g.right)))
        if isinstance(g, Implies):
            # kept opaque so a second negation restores the displayed
            # implication verbatim
            return Not(Implies(push_neg(g.left), push_neg(g.right)))
        if isinstance(g, Forall):
            return Exists(g.var, push_neg(Not(g.body)))
        if isinstance(g, Exists):
            return Forall(g.var, push_neg(Not(g.body)))
        if isinstance(g, BForall):
            return BExists(g.var, g.kind, g.bound, push_neg(Not(g.body)))
        if isinstance(g, BExists):
            return BForall(g.var, g.kind, g.bound, push_neg(Not(g.body)))
        return Not(push_neg(g))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(push_neg(f.left), push_neg(f.right))
    if isinstance(f, QUANTS):
        return type(f)(f.var, push_neg(f.body))
    if isinstance(f, BQUANTS):
        return type(f)(f.var, f.kind, f.bound, push_neg(f.body))
    return f


def rule_drop_unused(nf: NormalForm) -> NormalForm | None:
    """Delete block variables that the matrix never mentions (every
    type is inhabited by a standard element, so this preserves truth)."""
    fv = free_vars_f(nf.matrix)
    keep_u = tuple(v for v in nf.universals if v in fv)
    keep_e = tuple(v for v in nf.existentials if v in fv)
    if keep_u != nf.universals or keep_e != nf.existentials:
        return NormalForm(keep_u, keep_e, nf.matrix)
    return None


def rule_seq_collapse(nf: NormalForm) -> NormalForm | None:
    """Collapse a candidate-sequence block variable whose only use is
    a membership bound along the root quantifier prefix:

        (forall^st W:s*) P (forall w in W) m   -->   (forall^st w:s) P m

    and dually for the existential block.  When the bound variable w
    actually occurs in m, the prefix P must consist of quantifiers of
    the same flavour only (every element of a standard sequence is
    standard, which gives the universal direction; a witness drawn
    from a standard sequence is standard, which gives the existential
    one) — across an opposite-flavour quantifier the collapse would
    trade a single candidate sequence for a per-instance choice.  When
    w does not occur in m the bounded quantifier is simply deleted,
    over any prefix: the singleton sequence <0> witnesses the block
    variable."""
    prefix: list = []
    m = nf.matrix
    names = {v.name for v in nf.universals + nf.existentials}
    while isinstance(m, (QUANTS, BQUANTS)):
        if isinstance(m, BQUANTS):
            W, v = m.bound, m.var
            is_univ = isinstance(m, BForall) and isinstance(W, Var) \
                and W in nf.universals
            is_exis = isinstance(m, BExists) and isinstance(W, Var) \
                and W in nf.existentials
            if ((is_univ or is_exis) and m.kind == "mem"
                    and W not in free_vars_f(m.body)
                    and W not in _prefix_fvs(prefix)
                    and all(p.var != W for p in prefix)):
                vacuous = v not in free_vars_f(m.body)
                flavor = (Forall, BForall) if is_univ else (Exists, BExists)
                pure = all(isinstance(p, flavor) for p in prefix)
                ok_names = (v not in free_vars_f(nf.matrix)
                            and v not in _prefix_fvs(prefix)
                            and v.name not in names - {W.name})
                if vacuous or (pure and ok_names):
                    rest = m.body
                    for p in reversed(prefix):
                        if isinstance(p, BQUANTS):
                            rest = type(p)(p.var, p.kind, p.bound, rest)
                        else:
                            rest = type(p)(p.var, rest)
                    if vacuous:
                        # W becomes unused and rule_drop_unused removes it
                        return NormalForm(nf.universals, nf.existentials,
                                          rest)
                    if is_univ:
                        us = tuple(v if u == W else u for u in nf.universals)
                        return NormalForm(us, nf.existentials, rest)
                    es = tuple(v if e == W else e for e in nf.existentials)
                    return NormalForm(nf.universals, es, rest)
        prefix.append(m)
        m = m.body
    return None


def _prefix_fvs(prefix: list) -> set[Var]:
    out: set[Var] = set()
    for p in prefix:
        if isinstance(p, BQUANTS):
            out |= set(free_vars(p.bound))
    return out


def _rewrite_first(f: Formula) -> Formula | None:
    """Apply the first applicable matrix rule anywhere in f (leftmost,
    outermost)."""
    out = _rw_here(f)
    if out is not None:
        return out
    if isinstance(f, Not):
        b = _rewrite_first(f.body)
        return Not(b) if b is not None else None
    if isinstance(f, (And, Or, Implies)):
        l = _rewrite_first(f.left)
        if l is not None:
            return type(f)(l, f.right)
        r = _rewrite_first(f.right)
        if r is not None:
            return type(f)(f.left, r)
        return None
    if isinstance(f, QUANTS):
        b = _rewrite_first(f.body)
        return type(f)(f.var, b) if b is not None else None
    if isinstance(f, BQUANTS):
        b = _rewrite_first(f.body)
        return type(f)(f.var, f.kind, f.bound, b) if b is not None else None
    return None


def _rw_here(f: Formula) -> Formula | None:
    # vacuous quantifier deletion (unbounded and <=-bounded: domains
    # are never empty)
    if isinstance(f, (Forall, Exists)) and f.var not in free_vars_f(f.body):
        return f.body
    if isinstance(f, BQUANTS) and f.kind == "le" \
            and f.var not in free_vars_f(f.body):
        return f.body
    # singleton membership collapse
    if isinstance(f, BQUANTS) and f.kind == "mem":
        t = _singleton_entry(f.bound)
        if t is not None:
            return subst_f(f.body, {f.var: t})
    # equality-guard instantiation
    if isinstance(f, Exists):
        out = _guard_exists(f)
        if out is not None:
            return out
    if isinstance(f, Forall):
        out = _guard_forall(f)
        if out is not None:
            return out
    # re-bounding: a numeric bound guard turns a plain quantifier back
    # into a bounded one.  For the universal case with a strict bound
    # the prefix must be empty: the domain below the bound may then be
    # empty, and a bounded-exists prefix would not survive that.
    if isinstance(f, Forall) and f.var.ty == N:
        prefix, core = _walk_prefix(f.body, f.var)
        if prefix is not None:
            for g in _disjuncts(core):
                kt = _is_bound_guard(g.body, f.var) \
                    if isinstance(g, Not) else None
                if kt is None or (kt[0] == "lt" and prefix):
                    continue
                if free_vars(kt[1]) & _bound_vars_of_prefix(prefix):
                    continue
                _, rest = _drop_leaf(core, g, Or)
                if rest is None:
                    rest = FALSE
                return BForall(f.var, kt[0], kt[1],
                               _rebuild_prefix(prefix, rest))
    if isinstance(f, Exists) and f.var.ty == N:
        prefix, core = _walk_prefix(f.body, f.var)
        if prefix is not None:
            for g in _conjuncts(core):
                kt = _is_bound_guard(g, f.var)
                if kt is None:
                    continue
                if free_vars(kt[1]) & _bound_vars_of_prefix(prefix):
                    continue
                _, rest = _drop_leaf(core, g, And)
                if rest is None:
                    rest = TRUE
                return BExists(f.var, kt[0], kt[1],
                               _rebuild_prefix(prefix, rest))
    return None


def _is_bound_guard(g: Formula, v: Var) -> tuple[str, Term] | None:
    """g is (v <= t) or (v < t) with v not free in t."""
    if isinstance(g, Atom) and g.rel in ("<=", "<") and g.args[0] == v:
        t = g.args[1]
        if v not in free_vars(t):
            return ("le" if g.rel == "<=" else "lt", t)
    return None


def _singleton_entry(bound: Term) -> Term | None:
    head, args = spine(bound)
    if (isinstance(head, Const) and head.name == "append" and len(args) == 2
            and isinstance(args[0], Const) and args[0].name == "empty"):
        return args[1]
    return None


def _walk_prefix(body: Formula, x: Var):
    """Quantifier prefix (not binding x, bounds avoiding x) and core."""
    prefix = []
    while True:
        if isinstance(body, QUANTS):
            if body.var == x:
                return None, None
            prefix.append(("q", body))
            body = body.body
        elif isinstance(body, BQUANTS):
            if body.var == x or x in free_vars(body.bound):
                return None, None
            prefix.append(("b", body))
            body = body.body
        else:
            return prefix, body


def _rebuild_prefix(prefix, core: Formula) -> Formula:
    for tag, p in reversed(prefix):
        if tag == "q":
            core = type(p)(p.var, core)
        else:
            core = type(p)(p.var, p.kind, p.bound, core)
    return core


def _bound_vars_of_prefix(prefix) -> set[Var]:
    return {p.var for _, p in prefix}


def _is_eq_guard(g: Formula, x: Var):
    """g is (x = t) or (t = x) with t a variable other than x; returns t."""
    if isinstance(g, Atom) and g.rel == "=":
        a, b = g.args
    elif isinstance(g, Eq):
        a, b = g.left, g.right
    else:
        return None
    for l, r in ((a, b), (b, a)):
        if l == x and isinstance(r, Var) and r != x:
            return r
    return None


def _conjuncts(f: Formula) -> list[Formula]:
    return _conjuncts(f.left) + _conjuncts(f.right) if isinstance(f, And) else [f]


def _disjuncts(f: Formula) -> list[Formula]:
    return _disjuncts(f.left) + _disjuncts(f.right) if isinstance(f, Or) else [f]


def _drop_leaf(tree: Formula, leaf: Formula, cls) -> tuple[bool, Formula | None]:
    """Remove one occurrence (by identity) of leaf from an And/Or tree,
    keeping the remaining associativity intact."""
    if tree is leaf:
        return True, None
    if isinstance(tree, cls):
        found, nl = _drop_leaf(tree.left, leaf, cls)
        if found:
            return True, tree.right if nl is None else cls(nl, tree.right)
        found, nr = _drop_leaf(tree.right, leaf, cls)
        if found:
            return True, tree.left if nr is None else cls(tree.left, nr)
    return False, tree


def _guard_exists(f: Exists) -> Formula | None:
    """(exists x) Q [(x = t) /\\ m]  ->  Q m[x := t]   (t a variable)."""
    x = f.var
    prefix, core = _walk_prefix(f.body, x)
    if prefix is None:
        return None
    bound = _bound_vars_of_prefix(prefix)
    for g in _conjuncts(core):
        t = _is_eq_guard(g, x)
        if t is not None and t not in bound:
            _, new_core = _drop_leaf(core, g, And)
            if new_core is None:
                new_core = TRUE
            return subst_f(_rebuild_prefix(prefix, new_core), {x: t})
    return None


def _guard_forall(f: Forall) -> Formula | None:
    """(forall x) Q [(x != t) \\/ m]  ->  Q m[x := t]   (t a variable)."""
    x = f.var
    prefix, core = _walk_prefix(f.body, x)
    if prefix is None:
        return None
    bound = _bound_vars_of_prefix(prefix)
    for g in _disjuncts(core):
        if not isinstance(g, Not):
            continue
        t = _is_eq_guard(g.body, x)
        if t is not None and t not in bound:
            _, new_core = _drop_leaf(core, g, Or)
            if new_core is None:
                new_core = FALSE
            return subst_f(_rebuild_prefix(prefix, new_core), {x: t})
    return None


# ---------------------------------------------------------------------------
# .nf files

def parse_nf(text: str, params: dict[str, FiniteType] | None = None
             ) -> NormalForm:
    """Parse the three-line normal-form format:

        universals: f:1, Psi:1 -> 1
        existentials: y:0
        matrix: <formula>

    Block lines may be omitted when empty; '#' starts a comment."""
    keys = {"universals": [], "existentials": [], "matrix": None}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head, _, rest = line.partition(":")
        if head.strip() in keys and _ == ":":
            current = head.strip()
            if current == "matrix":
                keys["matrix"] = rest.strip()
            else:
                keys[current].extend(
                    p.strip() for p in rest.split(",") if p.strip())
            continue
        if current == "matrix":
            keys["matrix"] = (keys["matrix"] + " " + line.strip()).strip()
        elif current is not None:
            keys[current].extend(p.strip() for p in line.split(",")
                                 if p.strip())
        else:
            raise TranslateError(f"unexpected line in normal form: {raw!r}")
    if keys["matrix"] is None:
        raise TranslateError("normal form needs a matrix: line")

    def decls(items: list[str]) -> tuple[Var, ...]:
        out = []
        for it in items:
            name, sep, ty = it.partition(":")
            if not sep:
                raise TranslateError(f"expected name:type, got {it!r}")
            out.append(Var(name.strip(), parse_type(ty.strip())))
        return tuple(out)

    us = decls(keys["universals"])
    es = decls(keys["existentials"])
    env = dict(params or {})
    env.update({v.name: v.ty for v in us + es})
    m = parse_formula(keys["matrix"], params=env)
    if not is_internal(m):
        raise TranslateError("normal-form matrix must be internal")
    return NormalForm(us, es, m)


def show_nf_file(nf: NormalForm) -> str:
    lines = []
    if nf.universals:
        lines.append("universals: " + ", ".join(
            f"{v.name}:{show_type(v.ty)}" for v in nf.universals))
    if nf.existentials:
        lines.append("existentials: " + ", ".join(
            f"{v.name}:{show_type(v.ty)}" for v in nf.existentials))
    lines.append("matrix: " + show_formula(nf.matrix))
    return "\n".join(lines) + "\n"
