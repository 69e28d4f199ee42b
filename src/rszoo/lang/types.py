"""Finite simple types over the base type of natural numbers.

The hierarchy is generated by the base type 0 (naturals) and function
arrows alone; a tuple of types is taken by currying.  A finite sequence
is no type of its own: as in E-PA^omega, two tables agree on an initial
segment by a bounded universal (see ``normalform._prefix_eq``).
Pure types are abbreviated by numerals in the concrete syntax:
``1 = 0 -> 0``, ``2 = 1 -> 0``, and so on.

Types, like terms and formulas, are immutable objects on the ``Node``
base, which hold their fields and the values kept from them in slots.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Optional, Union


def record(cls):
    """The class rebuilt with its annotations, in order, as its fields:
    they become its ``__slots__`` and ``_fields``, and its ``__init__``
    takes them positionally (a closure per arity, see ``_init``, not
    generated source).  Like ``dataclass(slots=True)``, this makes a
    second class; a method of the first may not call ``super()``
    without arguments."""
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    ns = {k: v for k, v in cls.__dict__.items()
          if k not in ("__dict__", "__weakref__")}
    ns["__slots__"] = fields
    cls = type(cls.__name__, cls.__bases__, ns)
    cls._fields = fields
    cls.__init__ = _init([cls.__dict__[f].__set__ for f in fields])
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


def node(cls):
    """A ``record`` of a class on the ``Node`` base that also gets
    equality by class and fields (with an identity shortcut), the hash
    ``hash(tuple(fields))`` kept in the ``_hash`` slot, and the repr
    ``Kind(field=value, ...)``."""
    cls = record(cls)
    fields = cls._fields
    values = _values(fields)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(values(self))
            keep_hash(self, h)
        return h

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(fields, values(self))) + ")"

    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    return cls


def _values(fields):
    """A function from a node to the tuple of its field values."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(*fields)
        return lambda node: (get(node),)
    return lambda node: ()


def _init(setters):
    """``__init__`` storing its positional arguments with the given slot
    setters: a closure for each arity from one to three, the arities of
    nodes built in bulk, and a loop for the others."""
    if len(setters) == 1:
        (s0,) = setters

        def __init__(self, a):
            s0(self, a)
    elif len(setters) == 2:
        s0, s1 = setters

        def __init__(self, a, b):
            s0(self, a)
            s1(self, b)
    elif len(setters) == 3:
        s0, s1, s2 = setters

        def __init__(self, a, b, c):
            s0(self, a)
            s1(self, b)
            s2(self, c)
    else:
        def __init__(self, *args):
            if len(args) != len(setters):
                raise TypeError(f"takes {len(setters)} arguments, "
                                f"got {len(args)}")
            for put, a in zip(setters, args):
                put(self, a)
    return __init__


class Node:
    """Base of types, terms and formulas.  Each kind is declared with
    ``node``, on this base or on a subclass that adds slots in its
    ``__slots__`` (for free variables and types, see ``terms``).

    Nodes are immutable: assigning or deleting an attribute raises.  A
    node computes its hash once, from its fields' kept hashes, so
    hashing costs once per distinct node however often a subtree is
    shared.  Slots that keep such derived values stay unset until first
    computed; their readers take ``getattr(node, slot, None)``, which is
    None while the slot is unset.  A kept hash is valid only in the process that computed it
    (string hashes are salted per process), so a copy or a pickle is
    rebuilt from the fields alone.
    """
    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


keep_hash = Node.__dict__["_hash"].__set__


@node
class Base(Node):
    """The type of natural numbers, written ``0``."""


@node
class Arrow(Node):
    dom: "FiniteType"
    cod: "FiniteType"


FiniteType = Union[Base, Arrow]

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
    raise TypeError(f"not a finite type: {ty!r}")
