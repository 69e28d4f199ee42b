"""Two-block normal forms: the shape, and its text as a formula.

A NormalForm packages ``(forall^st xs)(exists^st ys) matrix`` with an
internal matrix: the shape that ``normalform.normalize_principle``
builds and that proof scripts conclude.  A normal form is written,
read and compared as the formula it stands for: ``nf_to_formula``
builds that formula and ``formula_to_nf`` peels the two blocks off one,
so ``show_nf`` is ``show_formula``, ``parse_nf`` (the ``.nf`` file
format) is ``parse_formula``, and ``alpha_eq_nf`` is ``alpha_eq_f``.

A TranslateError is a formula that is no normal form: its matrix is not
internal, or a name is bound twice in the blocks; from ``parse_nf``
also text that does not parse as a formula, with its line:col.
"""
from __future__ import annotations

from .lang.formulas import (ExistsSt, ForallSt, Formula, alpha_eq_f,
                            is_internal, strip)
from .lang.parser import ParseError, parse_formula
# Unused here, but kept as a module attribute: perfbench looks the
# parser up, to trace it, at every attribute it was reached through.
from .lang.parser import parse_type  # noqa: F401
from .lang.printer import show_formula
from .lang.terms import Var
from .lang.types import Node, node


@node
class NormalForm(Node):
    """(forall^st universals)(exists^st existentials) matrix, with an
    internal matrix and distinct block names (else a ValueError): so a
    normal form and its formula determine each other."""
    universals: tuple[Var, ...]
    existentials: tuple[Var, ...]
    matrix: Formula

    def __new__(cls, universals, existentials, matrix):
        if not is_internal(matrix):
            raise ValueError(
                f"matrix is not internal: {show_formula(matrix)}")
        names = [v.name for v in universals + existentials]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate names in blocks: {names}")
        return object.__new__(cls)


class TranslateError(Exception):
    """A formula, or the text of one, that is no normal form."""


def nf_to_formula(nf: NormalForm) -> Formula:
    f = nf.matrix
    for v in reversed(nf.existentials):
        f = ExistsSt(v, f)
    for v in reversed(nf.universals):
        f = ForallSt(v, f)
    return f


def formula_to_nf(f: Formula) -> NormalForm:
    """Peel (forall^st)* (exists^st)* off f; a TranslateError when
    what is left is no normal form's (see ``NormalForm``)."""
    universals, rest = strip(f, ForallSt)
    existentials, matrix = strip(rest, ExistsSt)
    try:
        return NormalForm(tuple(universals), tuple(existentials), matrix)
    except ValueError as exc:
        raise TranslateError(str(exc)) from None


def show_nf(nf: NormalForm) -> str:
    return show_formula(nf_to_formula(nf))


def alpha_eq_nf(a: NormalForm, b: NormalForm) -> bool:
    """Equality up to the names of bound variables (block order
    counts)."""
    return alpha_eq_f(nf_to_formula(a), nf_to_formula(b))


def parse_nf(text: str) -> NormalForm:
    """Read a normal form written as its formula, as ``show_nf`` prints
    it; a fault is a TranslateError, with its line:col when the text
    does not parse."""
    try:
        f = parse_formula(text)
    except ParseError as exc:
        raise TranslateError(f"{exc.msg} (at {exc.line}:{exc.col})") \
            from None
    return formula_to_nf(f)
