"""Finite simple types over the base type of natural numbers.

The hierarchy is generated by the base type 0 (naturals), function
arrows, binary products, and finite-sequence types written ``sigma*``.
Pure types are abbreviated by numerals in the concrete syntax:
``1 = 0 -> 0``, ``2 = 1 -> 0``, and so on.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class Base:
    """The type of natural numbers, written ``0``."""

    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True)
class Arrow:
    dom: "FiniteType"
    cod: "FiniteType"

    def __str__(self) -> str:
        return show_type(self)


@dataclass(frozen=True)
class Product:
    left: "FiniteType"
    right: "FiniteType"

    def __str__(self) -> str:
        return show_type(self)


@dataclass(frozen=True)
class Seq:
    elem: "FiniteType"

    def __str__(self) -> str:
        return show_type(self)


FiniteType = Union[Base, Arrow, Product, Seq]

N = Base()


def pure(n: int) -> FiniteType:
    """Pure type n: pure(0) = 0 and pure(n+1) = pure(n) -> 0."""
    if n < 0:
        raise ValueError("pure type index must be >= 0")
    ty: FiniteType = N
    for _ in range(n):
        ty = Arrow(ty, N)
    return ty


def _pure_degree(ty: FiniteType) -> Optional[int]:
    """Inverse of pure(): the numeral for ty, or None if ty is not pure."""
    n = 0
    while isinstance(ty, Arrow):
        if ty.cod != N:
            return None
        ty = ty.dom
        n += 1
    return n if ty == N else None


def arrows(doms: list[FiniteType] | tuple[FiniteType, ...], cod: FiniteType) -> FiniteType:
    """Curried arrow type doms[0] -> ... -> doms[-1] -> cod."""
    ty = cod
    for d in reversed(tuple(doms)):
        ty = Arrow(d, ty)
    return ty


def _show_atom(ty: FiniteType) -> str:
    s = show_type(ty)
    if isinstance(ty, Base) or _pure_degree(ty) is not None:
        return s
    return f"({s})"


def show_type(ty: FiniteType) -> str:
    deg = _pure_degree(ty)
    if deg is not None:
        return str(deg)
    if isinstance(ty, Arrow):
        # -> is right-associative; parenthesize non-pure arrow domains
        dom = show_type(ty.dom)
        if isinstance(ty.dom, Arrow) and _pure_degree(ty.dom) is None:
            dom = f"({dom})"
        return f"{dom} -> {show_type(ty.cod)}"
    if isinstance(ty, Product):
        l = _show_atom(ty.left) if isinstance(ty.left, (Arrow, Product)) else show_type(ty.left)
        r = _show_atom(ty.right) if isinstance(ty.right, (Arrow, Product)) else show_type(ty.right)
        return f"{l} x {r}"
    if isinstance(ty, Seq):
        inner = show_type(ty.elem)
        if isinstance(ty.elem, (Arrow, Product)) and _pure_degree(ty.elem) is None:
            inner = f"({inner})"
        return f"{inner}*"
    raise TypeError(f"not a finite type: {ty!r}")
