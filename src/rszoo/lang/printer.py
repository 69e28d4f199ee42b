"""Canonical display of terms and formulas.

The output re-parses to an equal (``==``) object: parentheses follow the
grammar's precedence, quantified operands of binary connectives are
always parenthesized, and polymorphic constants regain their bracketed
type index.
"""
from __future__ import annotations

from typing import Iterator

from .formulas import (And, Atom, ExistsSt, Forall, ForallSt, Formula,
                       Implies, Not, Or, QUANTS, strip)
from .terms import POLYMORPHIC, Abs, Const, Term, Var, spine
from .types import show_type


def _const_str(c: Const) -> str:
    if c.name not in POLYMORPHIC:
        return c.name
    *_, type_args = POLYMORPHIC[c.name]
    return f"{c.name}[{','.join(map(show_type, type_args(c.ty)))}]"


def show_term(t: Term) -> str:
    return "".join(_pieces(t))


def show_term_prefix(t: Term, n: int) -> str:
    """``show_term(t)[:n]``, printing only as far as the first n
    characters: the cost is bounded by n, not by the size of t."""
    out, size = [], 0
    for piece in _pieces(t):
        out.append(piece)
        size += len(piece)
        if size >= n:
            break
    return "".join(out)[:n]


def _pieces(t: Term) -> Iterator[str]:
    """``show_term(t)``, piece by piece."""
    if isinstance(t, Var):
        yield t.name
    elif isinstance(t, Const):
        yield _const_str(t)
    elif isinstance(t, Abs):
        yield _binder(t)
        yield from _pieces(t.body)
    else:
        head, args = spine(t)
        if isinstance(head, Abs):
            yield "("
            yield from _pieces(head)
            yield ")"
        else:
            yield from _pieces(head)
        yield "("
        for i, a in enumerate(args):
            if i:
                yield ", "
            yield from _pieces(a)
        yield ")"


def _binder(t: Abs) -> str:
    return f"\\{t.var.name}:{show_type(t.var.ty)}. "


def show_formula(f: Formula) -> str:
    return _show_f(f, 0)


# precedence levels: 0 = implies, 1 = or, 2 = and, 3 = unary/atom
def _show_f(f: Formula, level: int) -> str:
    if isinstance(f, Atom):
        a, b = f.args
        return f"{show_term(a)} = {show_term(b)}"
    if isinstance(f, Not) and isinstance(f.body, Atom):
        a, b = f.body.args
        return f"{show_term(a)} != {show_term(b)}"
    if isinstance(f, Not):
        return f"~{_show_f(f.body, 3)}"
    if isinstance(f, Implies):
        s = f"{_show_f(f.left, 1)} -> {_show_f(f.right, 0)}"
        return f"({s})" if level > 0 else s
    if isinstance(f, Or):
        s = f"{_show_f(f.left, 1)} \\/ {_show_f(f.right, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(f, And):
        s = f"{_show_f(f.left, 2)} /\\ {_show_f(f.right, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(f, QUANTS):
        kw = "forall" if isinstance(f, (Forall, ForallSt)) else "exists"
        st = "^st" if isinstance(f, (ForallSt, ExistsSt)) else ""
        vs, body = strip(f, type(f))
        names = ", ".join(f"{v.name}:{show_type(v.ty)}" for v in vs)
        s = f"({kw}{st} {names}) {_show_f(body, 0)}"
        return f"({s})" if level > 0 else s
    raise TypeError(f"not a formula: {f!r}")

