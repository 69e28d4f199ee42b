"""The contract of syntax nodes (types, terms, formulas) on the ``Node``
base: slots only, immutable, equal by class and fields, hashed as the
tuple of their fields, printed as ``Kind(field=value, ...)``."""
import copy
import dataclasses
import pickle

import pytest

from rszoo.lang import (Abs, And, App, Arrow, Atom, Base, Const, Forall,
                        ForallSt, N, Not, Or, Seq, Var, num, parse_formula,
                        parse_term, pure)
from rszoo.lang.formulas import SyntaxNode
from rszoo.lang.types import Node

x, y = Var("x", N), Var("y", N)
a = Atom((x, num(0)))
b = Atom((y, num(1)))

SAMPLES = [
    N, Arrow(N, N), Seq(N),
    x, num(3), App(Const("succ", Arrow(N, N)), x), Abs(x, x),
    a, Not(a), And(a, b), Or(a, b), Forall(x, a), ForallSt(y, b),
    parse_formula("(forall f:1)(exists n:0) monus(n, 3) = 0 /\\ "
                  "(f(n) = 0 -> ~((exists^st g:1) g = f))"),
    parse_term("\\f:1. \\n:0. rec[0](n, \\p:0. \\i:0. f(p), n)"),
]


def node_kinds():
    """Every concrete node kind of the language."""
    out, todo = [], [Node]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if "_fields" in cls.__dict__ and cls.__module__.startswith(
                "rszoo.lang"):
            out.append(cls)
    return out


def test_every_node_kind_is_a_slots_class_and_no_dataclass():
    kinds = node_kinds()
    assert {"Base", "Arrow", "Var", "App", "Abs", "Atom", "Exists"} <= \
        {k.__name__ for k in kinds}
    assert len(kinds) == 16
    for kind in kinds:
        assert not dataclasses.is_dataclass(kind), kind
        assert "__dict__" not in dir(kind), kind
    for n in SAMPLES:
        assert not hasattr(n, "__dict__"), n


@pytest.mark.parametrize("n", SAMPLES, ids=lambda n: type(n).__name__)
def test_fields_cannot_be_assigned_or_deleted(n):
    for name in n._fields + ("_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(n, name, None)
        with pytest.raises(AttributeError):
            delattr(n, name)


@pytest.mark.parametrize("n", SAMPLES, ids=lambda n: type(n).__name__)
def test_hash_is_the_hash_of_the_field_tuple(n):
    fields = tuple(getattr(n, f) for f in n._fields)
    assert hash(n) == hash(fields)
    assert hash(n) == hash(fields)  # the kept hash


def test_equality_is_by_class_and_fields():
    assert And(a, b) != Or(a, b)
    assert And(a, b) == And(Atom((Var("x", N), num(0))), b)
    assert Var("x", N) != Var("x", pure(1))
    assert Base() == N and N != Seq(N)
    assert x != ("x", N) and (x == "x") is False


def test_copies_and_pickles_rebuild_equal_nodes():
    for n in SAMPLES:
        for twin in (copy.copy(n), copy.deepcopy(n),
                     pickle.loads(pickle.dumps(n))):
            assert twin == n and hash(twin) == hash(n)


def test_repr_is_the_record_format():
    assert repr(N) == "Base()"
    assert repr(x) == "Var(name='x', ty=Base())"
    assert repr(Abs(x, x)) == \
        "Abs(var=Var(name='x', ty=Base()), body=Var(name='x', ty=Base()))"
    assert repr(Atom((x, num(0)))) == (
        "Atom(args=(Var(name='x', ty=Base()), "
        "Const(name='0', ty=Base())))")
    assert repr(Arrow(N, N)) == "Arrow(dom=Base(), cod=Base())"


def test_formula_and_term_nodes_keep_free_variables():
    assert issubclass(Var, SyntaxNode) and issubclass(Forall, SyntaxNode)
    assert not issubclass(Arrow, SyntaxNode)
