"""Formulas over finite-type terms.

A formula is external when it has a standard quantifier (a node of an
``EXTERNAL`` kind); otherwise it is internal.  That a term t of type T
is standard is said ``(exists^st y:T) y = t``, and that s and t of
type 1 agree at standard arguments, ``(forall^st u:0) s(u) = t(u)``.
Quantifiers come in two flavours: plain and standard-relativized
(``forall^st``).  The one prime formula is an equation, ``s = t``, at
any type, extensional above type 0.  As in E-PA^omega, ``s <= t``
abbreviates ``monus(s, t) = 0``, so the bounded existential ``(exists
z <= t) A`` is written ``(exists z:0) monus(z, t) = 0 /\\ A``.

Formula nodes, like term nodes, derive from ``terms.SyntaxNode``: they
are immutable, hold only slots, and keep their hash and free variables
once computed (see ``terms``).
"""
from __future__ import annotations

from functools import reduce
from typing import Iterator, Mapping, Union

from .terms import (NO_VARS, Prepared, Term, Var, SyntaxNode, all_names,
                    drop_name, enter_binder, free_vars as term_fvs,
                    keep_fvs, prepare, subst_prepared, union)
from .types import node


@node
class Atom(SyntaxNode):
    args: tuple[Term, ...]  # the two sides of an equation


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


Formula = Union[Atom, Not, And, Or, Implies,
                Forall, Exists, ForallSt, ExistsSt]

QUANTS = (Forall, Exists, ForallSt, ExistsSt)
# the node kinds that make a formula external
EXTERNAL = (ForallSt, ExistsSt)


def conj(parts: list[Formula]) -> Formula:
    """The conjunction of one or more formulas, grouped to the left."""
    return reduce(And, parts)


def is_internal(f: Formula) -> bool:
    """True iff f has no node of an ``EXTERNAL`` kind."""
    if isinstance(f, EXTERNAL):
        return False
    if isinstance(f, Atom):
        return True
    if isinstance(f, (Not, Forall, Exists)):
        return is_internal(f.body)
    if isinstance(f, (And, Or, Implies)):
        return is_internal(f.left) and is_internal(f.right)
    raise TypeError(f"not a formula: {f!r}")


def strip(f: Formula, kind) -> tuple[list[Var], Formula]:
    """The variables of the ``kind`` quantifiers that open f, outermost
    first, and the formula under them."""
    out: list[Var] = []
    while isinstance(f, kind):
        out.append(f.var)
        f = f.body
    return out, f


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, (And, Or, Implies)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, QUANTS):
        yield from subformulas(f.body)


def free_vars_f(f: Formula) -> frozenset[Var]:
    """Variables free in f; a binder removes its name (see free_vars).
    Computed once per node and kept on it."""
    fvs = getattr(f, "_fvs", None)
    if fvs is not None:
        return fvs
    fvs = _free_vars_f(f)
    keep_fvs(f, fvs)
    return fvs


def _free_vars_f(f: Formula) -> frozenset[Var]:
    if isinstance(f, Atom):
        out = NO_VARS
        for t in f.args:
            out = union(out, term_fvs(t))
        return out
    if isinstance(f, Not):
        return free_vars_f(f.body)
    if isinstance(f, (And, Or, Implies)):
        return union(free_vars_f(f.left), free_vars_f(f.right))
    if isinstance(f, QUANTS):
        return drop_name(free_vars_f(f.body), f.var.name)
    raise TypeError(f"not a formula: {f!r}")


def all_names_f(f: Formula) -> set[str]:
    """Every variable name in f, free or bound."""
    if isinstance(f, Atom):
        return set().union(*map(all_names, f.args))
    if isinstance(f, Not):
        return all_names_f(f.body)
    if isinstance(f, (And, Or, Implies)):
        return all_names_f(f.left) | all_names_f(f.right)
    if isinstance(f, QUANTS):
        return {f.var.name} | all_names_f(f.body)
    raise TypeError(f"not a formula: {f!r}")


def subst_f(f: Formula, sub: Mapping[Var, Term]) -> Formula:
    """Simultaneous capture-avoiding substitution in a formula."""
    return subst_f_prepared(f, prepare(sub))


def subst_f_prepared(f: Formula, sub: Prepared) -> Formula:
    """``subst_f`` with the substitution prepared: each term rewritten by
    ``subst_prepared``, each binder entered by ``enter_binder``."""
    if not sub:
        return f
    if isinstance(f, Atom):
        return Atom(tuple(subst_prepared(t, sub) for t in f.args))
    if isinstance(f, Not):
        return Not(subst_f_prepared(f.body, sub))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(subst_f_prepared(f.left, sub),
                       subst_f_prepared(f.right, sub))
    if isinstance(f, QUANTS):
        var, inner = enter_binder(f.var, sub, lambda: free_vars_f(f.body))
        return type(f)(var, subst_f_prepared(f.body, inner))
    raise TypeError(f"not a formula: {f!r}")

