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
from .lang.parser import parse_formula, parse_type
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
    """Parse the three-line normal-form format:

        universals: f:1, Psi:1 -> 1
        existentials: y:0
        matrix: <formula>

    Block lines may be omitted when empty, each line may continue on the
    lines below it, and '#' starts a comment.  The matrix mentions only
    the block variables."""
    keys = {"universals": [], "existentials": [], "matrix": None}
    seen: set[str] = set()
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head, _, rest = line.partition(":")
        if head.strip() in keys and _ == ":":
            current = head.strip()
            if current in seen:
                raise TranslateError(f"repeated {current} line: {raw!r}")
            seen.add(current)
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
    m = parse_formula(keys["matrix"], params={v.name: v.ty for v in us + es})
    if not is_internal(m):
        raise TranslateError("normal-form matrix must be internal")
    try:
        return NormalForm(us, es, m)
    except ValueError as exc:
        raise TranslateError(str(exc)) from None

