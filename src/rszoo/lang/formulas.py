"""Formulas over finite-type terms.

The language distinguishes internal formulas (no standardness predicate
anywhere) from external ones.  Quantifiers come in four flavours:
plain, standard-relativized (``forall^st``), and bounded (by <=, <, or
membership in a sequence value).  ``Eq`` is extensional equality at a
type; ``ApproxEq`` is equality on standard arguments and is external.

Formula nodes, like term nodes, derive from ``terms.SyntaxNode``: they
are immutable, hold only slots, and keep their hash and free variables
once computed (see ``terms``).  ``alpha_eq_f`` is the same single walk
as ``terms.alpha_eq``.
"""
from __future__ import annotations

from typing import Iterator, Mapping, Union

from .terms import (NO_VARS, Abs, App, Prepared, Scope, Term, Var,
                    SyntaxNode, all_names, alpha_binder, alpha_walk, app,
                    drop_name, enter_binder, free_vars as term_fvs,
                    fresh_name, fst_c, keep_fvs, num, prepare, same_scope,
                    snd_c, subst_prepared, union)
from .types import Arrow, FiniteType, N, Product, Seq, node, show_type


@node
class Atom(SyntaxNode):
    rel: str  # "=" at any type; "<=", "<" on type 0; "in" for set membership
    args: tuple[Term, ...]


@node
class Eq(SyntaxNode):
    ty: FiniteType
    left: Term
    right: Term


@node
class ApproxEq(SyntaxNode):
    ty: FiniteType
    left: Term
    right: Term


@node
class St(SyntaxNode):
    arg: Term


@node
class Not(SyntaxNode):
    body: "Formula"


@node
class And(SyntaxNode):
    left: "Formula"
    right: "Formula"


@node
class Or(SyntaxNode):
    left: "Formula"
    right: "Formula"


@node
class Implies(SyntaxNode):
    left: "Formula"
    right: "Formula"


@node
class Forall(SyntaxNode):
    var: Var
    body: "Formula"


@node
class Exists(SyntaxNode):
    var: Var
    body: "Formula"


@node
class ForallSt(SyntaxNode):
    var: Var
    body: "Formula"


@node
class ExistsSt(SyntaxNode):
    var: Var
    body: "Formula"


@node
class BForall(SyntaxNode):
    var: Var
    kind: str  # "le" | "lt" | "mem"
    bound: Term
    body: "Formula"


@node
class BExists(SyntaxNode):
    var: Var
    kind: str
    bound: Term
    body: "Formula"


Formula = Union[Atom, Eq, ApproxEq, St, Not, And, Or, Implies,
                Forall, Exists, ForallSt, ExistsSt, BForall, BExists]

TRUE = Atom("=", (num(0), num(0)))
FALSE = Atom("<", (num(0), num(0)))

QUANTS = (Forall, Exists, ForallSt, ExistsSt)
BQUANTS = (BForall, BExists)


def conj(parts: list[Formula]) -> Formula:
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: list[Formula]) -> Formula:
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def foralls(vars_: list[Var], body: Formula, node=Forall) -> Formula:
    for v in reversed(vars_):
        body = node(v, body)
    return body


def is_internal(f: Formula) -> bool:
    """True iff f mentions no standardness: no st, forall^st/exists^st, approx."""
    if isinstance(f, (St, ForallSt, ExistsSt, ApproxEq)):
        return False
    if isinstance(f, (Atom, Eq)):
        return True
    if isinstance(f, Not):
        return is_internal(f.body)
    if isinstance(f, (And, Or, Implies)):
        return is_internal(f.left) and is_internal(f.right)
    if isinstance(f, (Forall, Exists)):
        return is_internal(f.body)
    if isinstance(f, BQUANTS):
        return is_internal(f.body)
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, (And, Or, Implies)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, QUANTS + BQUANTS):
        yield from subformulas(f.body)


def free_vars_f(f: Formula) -> frozenset[Var]:
    """Variables free in f; a binder removes its name (see free_vars).
    Computed once per node and kept on it."""
    try:
        return f._fvs
    except AttributeError:
        pass
    fvs = _free_vars_f(f)
    keep_fvs(f, fvs)
    return fvs


def _free_vars_f(f: Formula) -> frozenset[Var]:
    if isinstance(f, Atom):
        out = NO_VARS
        for t in f.args:
            out = union(out, term_fvs(t))
        return out
    if isinstance(f, (Eq, ApproxEq)):
        return union(term_fvs(f.left), term_fvs(f.right))
    if isinstance(f, St):
        return term_fvs(f.arg)
    if isinstance(f, Not):
        return free_vars_f(f.body)
    if isinstance(f, (And, Or, Implies)):
        return union(free_vars_f(f.left), free_vars_f(f.right))
    if isinstance(f, QUANTS):
        return drop_name(free_vars_f(f.body), f.var.name)
    if isinstance(f, BQUANTS):
        return union(term_fvs(f.bound),
                     drop_name(free_vars_f(f.body), f.var.name))
    raise TypeError(f"not a formula: {f!r}")


def all_names_f(f: Formula) -> set[str]:
    """Every variable name in f, free or bound."""
    if isinstance(f, Atom):
        return set().union(*map(all_names, f.args))
    if isinstance(f, (Eq, ApproxEq)):
        return all_names(f.left) | all_names(f.right)
    if isinstance(f, St):
        return all_names(f.arg)
    if isinstance(f, Not):
        return all_names_f(f.body)
    if isinstance(f, (And, Or, Implies)):
        return all_names_f(f.left) | all_names_f(f.right)
    if isinstance(f, QUANTS):
        return {f.var.name} | all_names_f(f.body)
    if isinstance(f, BQUANTS):
        return {f.var.name} | all_names(f.bound) | all_names_f(f.body)
    raise TypeError(f"not a formula: {f!r}")


def subst_f(f: Formula, sub: Mapping[Var, Term]) -> Formula:
    """Simultaneous capture-avoiding substitution in a formula."""
    return _subst_f(f, prepare(sub))


def _subst_f(f: Formula, sub: Prepared) -> Formula:
    if not sub:
        return f
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(subst_prepared(t, sub) for t in f.args))
    if isinstance(f, (Eq, ApproxEq)):
        return type(f)(f.ty, subst_prepared(f.left, sub),
                       subst_prepared(f.right, sub))
    if isinstance(f, St):
        return St(subst_prepared(f.arg, sub))
    if isinstance(f, Not):
        return Not(_subst_f(f.body, sub))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_subst_f(f.left, sub), _subst_f(f.right, sub))
    if isinstance(f, QUANTS):
        var, inner = enter_binder(f.var, sub, lambda: free_vars_f(f.body))
        return type(f)(var, _subst_f(f.body, inner))
    if isinstance(f, BQUANTS):
        bound = subst_prepared(f.bound, sub)
        var, inner = enter_binder(f.var, sub, lambda: free_vars_f(f.body))
        return type(f)(var, f.kind, bound, _subst_f(f.body, inner))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# typechecking

class FormulaTypeError(Exception):
    pass


def typecheck_f(f: Formula, env: dict[str, FiniteType] | None = None) -> None:
    """Check well-typedness: both sides of = at one type, the arguments
    of <= and < at type 0, bounds matching."""
    env = dict(env or {})

    def tty(t: Term) -> FiniteType:
        from .terms import infer_type, TypeCheckError
        try:
            return infer_type(t, env)
        except TypeCheckError as e:
            raise FormulaTypeError(str(e)) from None

    if isinstance(f, Atom):
        if f.rel == "=":
            lty, rty = (tty(t) for t in f.args)
            if lty != rty:
                raise FormulaTypeError(
                    f"= needs equal types, got {show_type(lty)} "
                    f"and {show_type(rty)}")
        elif f.rel in ("<=", "<"):
            for t in f.args:
                if tty(t) != N:
                    raise FormulaTypeError(
                        f"relation {f.rel} needs type-0 arguments")
        elif f.rel == "in":
            elem, s = f.args
            ety, sty = tty(elem), tty(s)
            if ety != N or sty != Arrow(N, N):
                raise FormulaTypeError("membership needs a number and a type-1 set")
        else:
            raise FormulaTypeError(f"unknown relation {f.rel}")
        return
    if isinstance(f, (Eq, ApproxEq)):
        for side in (f.left, f.right):
            got = tty(side)
            if got != f.ty:
                raise FormulaTypeError(
                    f"equality at {show_type(f.ty)} applied to {show_type(got)}")
        return
    if isinstance(f, St):
        tty(f.arg)
        return
    if isinstance(f, Not):
        typecheck_f(f.body, env)
        return
    if isinstance(f, (And, Or, Implies)):
        typecheck_f(f.left, env)
        typecheck_f(f.right, env)
        return
    if isinstance(f, QUANTS):
        env2 = dict(env)
        env2[f.var.name] = f.var.ty
        typecheck_f(f.body, env2)
        return
    if isinstance(f, BQUANTS):
        bty = tty(f.bound)
        if f.kind in ("le", "lt"):
            if f.var.ty != N or bty != N:
                raise FormulaTypeError("<=-bounded quantifier needs type 0")
        elif f.kind == "mem":
            if bty != Seq(f.var.ty):
                raise FormulaTypeError(
                    f"membership bound of type {show_type(bty)} does not match "
                    f"variable of type {show_type(f.var.ty)}")
        else:
            raise FormulaTypeError(f"unknown bound kind {f.kind}")
        env2 = dict(env)
        env2[f.var.name] = f.var.ty
        typecheck_f(f.body, env2)
        return
    raise FormulaTypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# alpha-equality and canonical renaming

def alpha_eq_f(a: Formula, b: Formula) -> bool:
    """Equality up to the names of bound variables, of quantifiers and
    of lambdas; see ``alpha_walk``."""
    return alpha_walk_f(a, b, {}, {}, 0)


def alpha_walk_f(a: Formula, b: Formula, ma: Scope, mb: Scope,
                 depth: int) -> bool:
    """``terms.alpha_walk`` on formulas: one walk, binders matched by
    name, scopes updated in place and restored."""
    if a is b and same_scope(free_vars_f(a), ma, mb):
        return True
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is Atom:
        if a.rel != b.rel or len(a.args) != len(b.args):
            return False
        for s, t in zip(a.args, b.args):
            if not alpha_walk(s, t, ma, mb, depth):
                return False
        return True
    if kind is Eq or kind is ApproxEq:
        return (a.ty == b.ty and alpha_walk(a.left, b.left, ma, mb, depth)
                and alpha_walk(a.right, b.right, ma, mb, depth))
    if kind is St:
        return alpha_walk(a.arg, b.arg, ma, mb, depth)
    if kind is Not:
        return alpha_walk_f(a.body, b.body, ma, mb, depth)
    if kind is And or kind is Or or kind is Implies:
        return (alpha_walk_f(a.left, b.left, ma, mb, depth)
                and alpha_walk_f(a.right, b.right, ma, mb, depth))
    if kind in BQUANTS and not (
            a.kind == b.kind and alpha_walk(a.bound, b.bound, ma, mb, depth)):
        return False
    return alpha_binder(a.var, b.var, alpha_walk_f, a.body, b.body,
                        ma, mb, depth)


def canon(f: Formula) -> Formula:
    """Rename all bound variables, of quantifiers and of lambdas, to v0,
    v1, ... in traversal order, for display.  A binder renames every
    occurrence of its name, whatever its type (as ``alpha_eq_f``
    matches them); a name free in f gets ``_`` suffixes, so no binder
    captures it.  Two formulas are alpha-equal iff their canonical
    forms are equal."""
    counter = [0]
    taken = {v.name for v in free_vars_f(f)}

    def fresh() -> str:
        name = f"v{counter[0]}"
        counter[0] += 1
        while name in taken:
            name += "_"
        return name

    # ren maps each name bound in scope to its new name; a new name is
    # never free in f nor given twice, so renaming in one pass captures
    # nothing
    def term(t: Term, ren: dict[str, str]) -> Term:
        if isinstance(t, Var):
            new = ren.get(t.name)
            return t if new is None else Var(new, t.ty)
        if isinstance(t, Abs):
            nv = Var(fresh(), t.var.ty)
            return Abs(nv, term(t.body, {**ren, t.var.name: nv.name}))
        if isinstance(t, App):
            return App(term(t.fn, ren), term(t.arg, ren))
        return t

    def go(g: Formula, ren: dict[str, str]) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.rel, tuple(term(t, ren) for t in g.args))
        if isinstance(g, (Eq, ApproxEq)):
            return type(g)(g.ty, term(g.left, ren), term(g.right, ren))
        if isinstance(g, St):
            return St(term(g.arg, ren))
        if isinstance(g, Not):
            return Not(go(g.body, ren))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(go(g.left, ren), go(g.right, ren))
        if isinstance(g, QUANTS):
            nv = Var(fresh(), g.var.ty)
            return type(g)(nv, go(g.body, {**ren, g.var.name: nv.name}))
        if isinstance(g, BQUANTS):
            bound = term(g.bound, ren)
            nv = Var(fresh(), g.var.ty)
            return type(g)(nv, g.kind, bound,
                           go(g.body, {**ren, g.var.name: nv.name}))
        raise TypeError(f"not a formula: {g!r}")

    return go(f, {})


# ---------------------------------------------------------------------------
# desugaring

def desugar_approx(f: Formula) -> Formula:
    """Expand ApproxEq into its standard-quantifier form, recursively."""
    if isinstance(f, ApproxEq):
        return _approx_at(f.ty, f.left, f.right)
    if isinstance(f, (Atom, Eq, St)):
        return f
    if isinstance(f, Not):
        return Not(desugar_approx(f.body))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(desugar_approx(f.left), desugar_approx(f.right))
    if isinstance(f, QUANTS):
        return type(f)(f.var, desugar_approx(f.body))
    if isinstance(f, BQUANTS):
        return type(f)(f.var, f.kind, f.bound, desugar_approx(f.body))
    raise TypeError(f"not a formula: {f!r}")


def _approx_at(ty: FiniteType, l: Term, r: Term) -> Formula:
    if ty == N:
        return Atom("=", (l, r))
    if isinstance(ty, Arrow):
        taken = {v.name for v in term_fvs(l) | term_fvs(r)}
        x = Var(fresh_name("u", taken), ty.dom)
        return ForallSt(x, _approx_at(ty.cod, App(l, x), App(r, x)))
    if isinstance(ty, Product):
        return And(_approx_at(ty.left, app(fst_c(ty.left, ty.right), l),
                              app(fst_c(ty.left, ty.right), r)),
                   _approx_at(ty.right, app(snd_c(ty.left, ty.right), l),
                              app(snd_c(ty.left, ty.right), r)))
    if isinstance(ty, Seq):
        return Eq(ty, l, r)
    raise TypeError(f"not a finite type: {ty!r}")
