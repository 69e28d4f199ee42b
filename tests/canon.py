"""Canonical renaming of bound variables: the oracle that tests compare
the single-walk alpha-equality against.  Two formulas (normal forms
among them) are alpha-equal iff their canonical forms are equal."""
from rszoo.lang import (Abs, And, App, Atom, BExists, Implies, Not, Or,
                        QUANTS, Var, free_vars_f)
from rszoo.lang.formulas import Formula
from rszoo.lang.terms import Term


def canon(f: Formula) -> Formula:
    """Rename all bound variables, of quantifiers and of lambdas, to v0,
    v1, ... in traversal order.  A binder renames every
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
            return Atom(tuple(term(t, ren) for t in g.args))
        if isinstance(g, Not):
            return Not(go(g.body, ren))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(go(g.left, ren), go(g.right, ren))
        if isinstance(g, QUANTS):
            nv = Var(fresh(), g.var.ty)
            return type(g)(nv, go(g.body, {**ren, g.var.name: nv.name}))
        if isinstance(g, BExists):
            bound = term(g.bound, ren)
            nv = Var(fresh(), g.var.ty)
            return BExists(nv, bound, go(g.body, {**ren, g.var.name: nv.name}))
        raise TypeError(f"not a formula: {g!r}")

    return go(f, {})

