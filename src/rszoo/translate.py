"""Two-block normal forms: the shape, its file format, alpha-equality.

A NormalForm packages ``(forall^st xs)(exists^st ys) matrix`` with an
internal matrix: the shape that ``normalform.normalize_principle``
builds and that proof scripts conclude.  ``nf_to_formula`` and
``show_nf`` turn one back into a formula or its text, ``parse_nf``
reads the ``.nf`` file format, and ``alpha_eq_nf`` compares two normal
forms up to the names of their bound variables.
"""
from __future__ import annotations

from .lang.formulas import (ExistsSt, ForallSt, Formula, alpha_walk_f,
                            is_internal)
# parse_formula and parse_type are unused here since .nf files are read
# with the Parser, but kept as module attributes: perfbench looks the
# parser up, to trace it, at every attribute it was reached through.
from .lang.parser import (ParseError, Parser, parse_formula,  # noqa: F401
                          parse_type, tokenize)
from .lang.printer import show_formula
from .lang.terms import Var
from .lang.types import Node, node, show_type


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
    """A malformed ``.nf`` file."""


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


# ---------------------------------------------------------------------------
# .nf files

def parse_nf(text: str) -> NormalForm:
    """Parse the normal-form format, three blocks in this order:

        universals: f:1, Psi:1 -> 1
        existentials: y:0
        matrix: <formula>

    A block's binders are a quantifier's binder list (``x, y:0, f:1``);
    an empty block is left out.  The file is read with the language's
    tokenizer, so blanks, newlines and '#' comments only separate
    tokens and a block may run over lines.  The matrix is internal and
    mentions only the block variables.  Any fault is a TranslateError,
    with its line:col when it has one."""
    blocks: dict[str, tuple[Var, ...]] = {"universals": (),
                                          "existentials": ()}
    m = None
    try:
        p = Parser(tokenize(text), 0, {})
        for key in _BLOCKS:
            if p.take(key):
                p.expect_sym(":")
                if key != "matrix":
                    blocks[key] = tuple(p.binders())
                    continue
                p.env = {v.name: v for vs in blocks.values() for v in vs}
                m = p.parse_formula()
        tok = p.peek()
        if tok.text in _BLOCKS:
            p.fail(f"{tok.text} block repeated or out of order")
        if m is None and tok.kind == "eof":
            p.fail("normal form needs a matrix block")
        if m is None:
            p.expected("a universals, existentials or matrix block")
        if tok.kind != "eof":
            p.fail("trailing input after matrix")
    except ParseError as exc:
        raise TranslateError(f"{exc.msg} (at {exc.line}:{exc.col})") \
            from None
    if not is_internal(m):
        raise TranslateError("normal-form matrix must be internal")
    try:
        return NormalForm(blocks["universals"], blocks["existentials"], m)
    except ValueError as exc:
        raise TranslateError(str(exc)) from None


_BLOCKS = ("universals", "existentials", "matrix")
