"""Finite simple types over the base type of natural numbers.

The hierarchy is generated by the base type 0 (naturals), function
arrows, binary products, and finite-sequence types written ``sigma*``.
Pure types are abbreviated by numerals in the concrete syntax:
``1 = 0 -> 0``, ``2 = 1 -> 0``, and so on.

Types, like terms and formulas, are immutable ``node`` dataclasses:
each node computes its hash once and keeps it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


def node(cls):
    """``@dataclass(frozen=True)``, with the hash kept on the node.

    The dataclass hash of a node hashes its fields, and so rehashes
    every subtree on every call.  Here a node computes that same value
    once, from its fields' kept hashes, and stores it on itself, so
    hashing costs once per distinct node however often a subtree is
    shared.  This relies on nodes being immutable, and a kept hash is
    valid only in the process that computed it (string hashes are
    salted per process), so nodes are not to be pickled as they are.
    """
    cls = dataclass(frozen=True)(cls)
    structural = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls._hash = None
    cls.__hash__ = __hash__
    return cls


@node
class Base:
    """The type of natural numbers, written ``0``."""

    def __str__(self) -> str:
        return "0"


@node
class Arrow:
    dom: "FiniteType"
    cod: "FiniteType"

    def __str__(self) -> str:
        return show_type(self)


@node
class Product:
    left: "FiniteType"
    right: "FiniteType"

    def __str__(self) -> str:
        return show_type(self)


@node
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
