"""Two-block normal forms, kept as the formulas they are.

A normal form is a formula ``(forall^st xs)(exists^st ys) matrix`` with
an internal matrix and no block name bound twice: the shape that
``normalform.normalize_principle`` and ``normalize_backward`` build.  It
is written with ``show_formula``, compared with ``==``, and read from a
``.nf`` file by ``parse_nf``.  ``nf_blocks`` checks the shape and splits
a formula into its two blocks and its matrix: in ``parse_nf``, and once
per script in ``extract.check_script``, whose split the later stages
read.

A TranslateError is a formula that is no normal form: its matrix is not
internal, or a name is bound twice in the blocks; from ``parse_nf``
also text that does not parse as a formula, with its line:col.
"""
from __future__ import annotations

from .lang.formulas import ExistsSt, ForallSt, Formula, is_internal, strip
from .lang.parser import ParseError, parse_formula
# Unused here, but kept as a module attribute: perfbench looks the
# parser up, to trace it, at every attribute it was reached through.
from .lang.parser import parse_type  # noqa: F401
from .lang.printer import show_formula
from .lang.terms import Var


class TranslateError(Exception):
    """A formula, or the text of one, that is no normal form."""


def nf_blocks(f: Formula) -> tuple[tuple[Var, ...], tuple[Var, ...],
                                   Formula]:
    """The universals, the existentials and the matrix of the normal
    form f, its (forall^st)* (exists^st)* peeled off; a TranslateError
    when the matrix is not internal or a block name repeats."""
    universals, rest = strip(f, ForallSt)
    existentials, matrix = strip(rest, ExistsSt)
    if not is_internal(matrix):
        raise TranslateError(
            f"matrix is not internal: {show_formula(matrix)}")
    names = [v.name for v in universals + existentials]
    if len(set(names)) != len(names):
        raise TranslateError(f"duplicate names in blocks: {names}")
    return tuple(universals), tuple(existentials), matrix


def parse_nf(text: str) -> Formula:
    """Read a normal form written as its formula, as ``show_formula``
    prints it; a fault is a TranslateError, with its line:col when the
    text does not parse."""
    try:
        f = parse_formula(text)
    except ParseError as exc:
        raise TranslateError(f"{exc.msg} (at {exc.line}:{exc.col})") \
            from None
    nf_blocks(f)
    return f
