"""Bounded evaluation of terms and formulas.

A :class:`MiniModel` interprets the language over the finite universe
{0..cap}.  Type-0 values are plain ints; products are :class:`PairV`;
sequences are :class:`SeqV`; functions are :class:`FnV` (a callable plus
its table once known).  Arithmetic saturates at ``cap`` and records the
fact in ``model.overflowed`` — values are never silently wrapped.

Standardness is a *flag*, not a derived notion: a number is standard
iff it is below ``omega``; any other object is standard iff it was
declared so in the model configuration.  ``(forall^st x)`` and
``(exists^st x)`` range over exactly the standard objects.  A plain
quantifier at type 0 ranges over {0..cap}; at higher types it ranges
over the full finite table space when that space fits in the
enumeration budget and otherwise refuses with a size estimate
(:class:`ModelRefusal`) rather than guessing.  Over ``0 -> 0`` the
tables are not listed: the body is evaluated once per prefix of cells
it reads, each evaluation deciding every table that extends the prefix
(Berger's fan functional, Escardó's exhaustive search), in the order
and with the effects of a table-by-table sweep (see ``_table_sweep``).

Evaluation is compile-once: ``eval_formula`` and ``eval_term`` turn a
formula or term into nested closures ``frame -> value`` the first time
the model sees that node object, cache them on the model keyed by the
node's identity, and call them.  A frame is a tuple, and compile time
resolves every variable to a slot of it: the node's free names, sorted,
take the first slots, and each binder (a lambda, a redex, a quantifier,
a literal ``rec`` step) runs its body on the frame extended by its
values, so the innermost binder of a name wins and a closure keeps the
frame it was made in.  ``env`` is read once, on entry, for the free
names; a name it lacks gets a placeholder slot, and its variable raises
when it is reached, not before.  Compile time also resolves what the
node alone fixes: the comparison an ``=`` makes (``==`` at type 0,
value tables at type 1, fingerprints above), each constant's
implementation (a constant applied to all its arguments calls it
directly), the expansion of ``approx``, the kind of a bound, the
relation of an atom and the range of a type-0 quantifier.  Everything
that depends on the model's state is left to run time, when a node is
reached: the population of a quantifier above type 0 (asked for on
every visit, so later declarations are seen and an empty standard
population is flagged only where it is reached), saturation (a numeral
or constant above ``cap`` sets ``overflowed`` every time it is
evaluated; function constants get a fresh :class:`FnV` per visit, so a
cached table never hides it) and the relation's errors.  Closures read
``cap`` when compiled, so a compiled node belongs to one model.

Model configurations use a line-based text format::

    cap = 4
    omega = 2
    budget = 200000
    table h0: 0 0 1 0 0 [st]
    bind Psi0: psi_theta [st]

``table`` declares a type-1 object by its value table; ``bind`` builds
an object through the construction registry (see ``constructions``),
passing previously declared names as arguments.  A trailing ``[st]``
marks the object standard.  ``budget`` may be omitted (see
:class:`MiniModel`).
"""
from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterable, Iterator

from ..lang.types import Arrow, FiniteType, N, Product, Seq, show_type
from ..lang.terms import (Abs, App, Const, Term, Var, free_vars, infer_type,
                          spine)
from ..lang.formulas import (And, ApproxEq, Atom, BExists, BForall, Exists,
                             ExistsSt, Forall, ForallSt, Formula, Implies,
                             Not, Or, St, desugar_approx, free_vars_f)
from . import machine

_TYPE1 = Arrow(N, N)


class ModelError(Exception):
    pass


class ModelRefusal(ModelError):
    """Raised when a quantifier or comparison would need more tables
    than the enumeration budget allows."""

    def __init__(self, ty: FiniteType, estimate: str):
        super().__init__(f"refusing to enumerate {show_type(ty)}: "
                         f"about {estimate} values exceeds the budget")
        self.ty = ty
        self.estimate = estimate


class PairV:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"<{self.left!r}, {self.right!r}>"


class SeqV:
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = tuple(items)

    def __repr__(self):
        return f"seq{list(self.items)!r}"


class FnV:
    """A function value: a callable and its table, once known.

    ``table`` lists outputs against the model's canonical enumeration of
    the domain; for domain type 0 that is just index order.  It is given
    at construction or filled by the first ``tabulate``; a type-1 value
    is that table as far as equality and the oracle machine are
    concerned.  ``name`` is cosmetic.
    """
    __slots__ = ("call", "table", "name")

    def __init__(self, call, table=None, name=None):
        self.call = call
        self.table = tuple(table) if table is not None else None
        self.name = name

    def __repr__(self):
        if self.name:
            return f"<fn {self.name}>"
        if self.table is not None:
            return f"<fn {list(self.table)!r}>"
        return "<fn>"


def zero_value(model: "MiniModel", ty: FiniteType):
    if ty == N:
        return 0
    if isinstance(ty, Product):
        return PairV(zero_value(model, ty.left), zero_value(model, ty.right))
    if isinstance(ty, Seq):
        return SeqV(())
    if isinstance(ty, Arrow):
        z = zero_value(model, ty.cod)
        return FnV(lambda _v, z=z: z, name="0")
    raise ModelError(f"no zero value at type {show_type(ty)}")


def table_fn(table: Iterable[int], model: "MiniModel", name=None) -> FnV:
    """Type-1 object from a value table over {0..cap}; reads beyond the
    table return 0, as the oracle machine reads them."""
    tab = tuple(table)
    if len(tab) != model.cap + 1:
        raise ModelError(f"table needs {model.cap + 1} entries, "
                         f"got {len(tab)}")
    return FnV(_indexed(tab, 0), table=tab, name=name)


def _indexed(tab: tuple, fallback):
    """Lookup in a table over {0..len(tab)-1}, ``fallback`` past it."""
    n = len(tab)

    def call(i):
        if isinstance(i, int) and 0 <= i < n:
            return tab[i]
        return fallback
    return call


class MiniModel:
    """Finite model with universe {0..cap} and standardness cut omega."""

    def __init__(self, cap: int, omega: int, budget: int = 200_000):
        if cap < 1:
            raise ModelError("cap must be at least 1")
        if not (0 < omega <= cap):
            raise ModelError("omega must satisfy 0 < omega <= cap")
        if budget < 1:
            raise ModelError("budget must be at least 1")
        self.cap = cap
        self.omega = omega
        self.budget = budget
        self.seq_limit = 4 * (cap + 1)
        self.declared: dict[str, tuple[FiniteType, object, bool]] = {}
        self.overflowed = False
        self.flags: set[str] = set()
        # id(node) -> (node, free names, closure); see _run
        self._compiled: dict[int, tuple] = {}

    # -- declarations -------------------------------------------------------

    def declare(self, name: str, ty: FiniteType, value, st: bool) -> None:
        if name in self.declared:
            raise ModelError(f"duplicate declaration {name!r}")
        self.declared[name] = (ty, value, st)

    def object(self, name: str):
        if name not in self.declared:
            raise ModelError(f"undeclared object {name!r}")
        return self.declared[name][1]

    def env(self) -> dict:
        return {name: v for name, (_t, v, _s) in self.declared.items()}

    # -- arithmetic ---------------------------------------------------------

    def sat(self, n: int) -> int:
        if n > self.cap:
            self.overflowed = True
            return self.cap
        return n

    # -- enumeration --------------------------------------------------------

    def size_log10(self, ty: FiniteType) -> float:
        if ty == N:
            return math.log10(self.cap + 1)
        if isinstance(ty, Product):
            return self.size_log10(ty.left) + self.size_log10(ty.right)
        if isinstance(ty, Seq):
            per = self.size_log10(ty.elem)
            if per * self.cap > 30:
                return per * self.cap
            n = 10 ** per
            return math.log10(sum(n ** l for l in range(self.cap + 2)))
        if isinstance(ty, Arrow):
            dome = self.size_log10(ty.dom)
            if dome > 9:
                return float("inf")
            return (10 ** dome) * self.size_log10(ty.cod)
        raise ModelError(f"cannot size type {show_type(ty)}")

    def size_estimate(self, ty: FiniteType) -> str:
        lg = self.size_log10(ty)
        if lg == float("inf"):
            return "10^(astronomical)"
        if lg <= 12:
            return str(round(10 ** lg))
        return f"10^{lg:.0f}"

    def check_enumerable(self, ty: FiniteType) -> int:
        lg = self.size_log10(ty)
        if lg > math.log10(self.budget):
            raise ModelRefusal(ty, self.size_estimate(ty))
        return round(10 ** lg)

    def enum_values(self, ty: FiniteType) -> Iterator:
        """All values of a type, in a fixed canonical order.  Callers
        must have passed check_enumerable."""
        if ty == N:
            yield from range(self.cap + 1)
            return
        if isinstance(ty, Product):
            for a in self.enum_values(ty.left):
                for b in self.enum_values(ty.right):
                    yield PairV(a, b)
            return
        if isinstance(ty, Seq):
            for length in range(self.cap + 2):
                for items in itertools.product(
                        list(self.enum_values(ty.elem)), repeat=length):
                    yield SeqV(items)
            return
        if isinstance(ty, Arrow):
            dom = list(self.enum_values(ty.dom))
            cod = list(self.enum_values(ty.cod))
            fallback = zero_value(self, ty.cod)
            if ty.dom == N:
                for outs in itertools.product(cod, repeat=len(dom)):
                    yield FnV(_indexed(outs, fallback), table=outs)
                return
            keys = [self.canon_key(ty.dom, d) for d in dom]
            for outs in itertools.product(cod, repeat=len(dom)):
                lookup = dict(zip(keys, outs))
                yield FnV(lambda v, lk=lookup, d=ty.dom:
                          lk.get(self.canon_key(d, v), fallback))
            return
        raise ModelError(f"cannot enumerate type {show_type(ty)}")

    def canon_key(self, ty: FiniteType, v):
        """Hashable extensional fingerprint of a value."""
        if ty == N:
            return v
        if isinstance(ty, Product):
            return (self.canon_key(ty.left, v.left),
                    self.canon_key(ty.right, v.right))
        if isinstance(ty, Seq):
            return tuple(self.canon_key(ty.elem, x) for x in v.items)
        if ty == _TYPE1:
            return tabulate(self, v)
        if isinstance(ty, Arrow):
            self.check_enumerable(ty.dom)
            return tuple(self.canon_key(ty.cod, v.call(d))
                         for d in self.enum_values(ty.dom))
        raise ModelError(f"cannot fingerprint type {show_type(ty)}")

    def population(self, ty: FiniteType, standard: bool) -> list:
        if standard:
            if ty == N:
                return list(range(self.omega))
            pop = [v for (t, v, st) in self.declared.values()
                   if st and t == ty]
            if not pop:
                self.flags.add("st_empty_at_" + show_type(ty))
            return pop
        if ty == N:
            return list(range(self.cap + 1))
        self.check_enumerable(ty)
        return list(self.enum_values(ty))

    def is_standard(self, ty: FiniteType, v) -> bool:
        if ty == N:
            return v < self.omega
        for (t, w, st) in self.declared.values():
            if st and t == ty and values_equal(self, ty, v, w):
                return True
        return False


def values_equal(model: MiniModel, ty: FiniteType, a, b) -> bool:
    """Extensional equality at a type: equal fingerprints."""
    return model.canon_key(ty, a) == model.canon_key(ty, b)


def least_zero(model: MiniModel, f: FnV) -> int:
    """The least i <= cap with f(i) = 0, else 0: the model's least-zero
    search, behind both ``muscan`` and the ``mu_op`` construction."""
    for i in range(model.cap + 1):
        if f.call(i) == 0:
            return i
    return 0


def tabulate(model: MiniModel, fn: FnV) -> tuple:
    """Value table of a type-1-style function over {0..cap}, kept on the
    value.  It is what the oracle machine reads: a run that should see
    cells past the cap needs a longer table from here."""
    if fn.table is None:
        fn.table = tuple(fn.call(i) for i in range(model.cap + 1))
    return fn.table


# -- compiled evaluation ------------------------------------------------------

_UNBOUND = object()    # the frame slot of a name the caller's env lacks


def eval_term(model: MiniModel, t: Term, env: dict | None = None):
    """Call-by-value evaluation in the model.  ``env`` maps variable
    names to values and defaults to the declared objects."""
    return _run(model, t, env, free_vars, _compile_term)


def eval_formula(model: MiniModel, f: Formula, env: dict | None = None) -> bool:
    """Truth of a formula in the model.  ``env`` gives values for free
    variables and defaults to the declared objects.  Types come from the
    terms themselves: every variable and constant carries its own."""
    return _run(model, f, env, free_vars_f, _compile_formula)


def _run(model: MiniModel, node, env: dict | None, free, compile_node):
    """Call the closure compiled for ``node`` in this model, compiling it
    on first use, on the values in ``env`` of the node's free names,
    sorted; a name ``env`` lacks gets ``_UNBOUND``.  The cache holds the
    node itself, so its id stays unique for as long as the entry lives."""
    hit = model._compiled.get(id(node))
    if hit is None:
        names = tuple(sorted({v.name for v in free(node)}))
        run = compile_node(model, node, _Scope(names, len(names)))
        hit = model._compiled[id(node)] = (node, names, run)
    _node, names, run = hit
    if env is None:
        env = model.env()
    return run(tuple([env.get(name, _UNBOUND) for name in names]))


def _fail(message: str):
    """A closure that raises when it is reached, not when compiled."""
    def fail(frame):
        raise ModelError(message)
    return fail


class _Scope:
    """The names of a frame's slots at compile time: the evaluated
    node's free names (``entry`` slots, which may hold ``_UNBOUND``),
    then one per binder entered."""
    __slots__ = ("names", "entry")

    def __init__(self, names: tuple, entry: int):
        self.names, self.entry = names, entry

    def enter(self, *names: str) -> "_Scope":
        return _Scope(self.names + names, self.entry)

    def read(self, name: str):
        """A closure reading the rightmost slot of ``name``, the
        innermost binder's; a binder's slot needs no check."""
        i = len(self.names) - 1 - self.names[::-1].index(name)
        if i >= self.entry:
            return itemgetter(i)

        def var(frame):
            if frame[i] is _UNBOUND:
                raise ModelError(f"unbound variable {name!r} in "
                                 "evaluation")
            return frame[i]
        return var


def _compile_term(model: MiniModel, t: Term, scope: _Scope):
    """A closure ``frame -> value`` over the slots ``scope`` names."""
    if isinstance(t, Var):
        return scope.read(t.name)
    if isinstance(t, Const):
        return _compile_const(model, t)
    if isinstance(t, Abs):
        body = _compile_term(model, t.body, scope.enter(t.var.name))
        return lambda frame: FnV(lambda v: body(frame + (v,)))
    if isinstance(t, App):
        head, args = spine(t)
        if isinstance(head, Const):
            if (head.name == "rec" and len(args) >= 3
                    and isinstance(args[1], Abs)
                    and isinstance(args[1].body, Abs)):
                return _compile_apps(model, _compile_rec(model, args, scope),
                                     args[3:], scope)
            prim = _primitive(model, head)
            if prim is not None:
                return _compile_primitive_app(model, prim, args, scope)
        if isinstance(head, Abs):
            return _compile_redex(model, head, args, scope)
        return _compile_apps(model, _compile_term(model, head, scope), args,
                             scope)
    return _fail(f"cannot evaluate term {t!r}")


def _compile_apps(model: MiniModel, fn, args, scope: _Scope):
    """Apply the value of ``fn`` to ``args`` one at a time."""
    for a in args:
        fn = _apply(fn, _compile_term(model, a, scope))
    return fn


def _apply(fn, arg):
    def apply(frame):
        f = fn(frame)
        a = arg(frame)
        if not isinstance(f, FnV):
            raise ModelError(f"applying a non-function value {f!r}")
        return f.call(a)
    return apply


def _compile_redex(model: MiniModel, head: Abs, args, scope: _Scope):
    """``(\\x1 ... xk. body)(a1, ..., ak, ...)``: the body runs on the
    frame extended by the arguments' values, with no function value
    per binder."""
    names, body = (), head
    while isinstance(body, Abs) and len(names) < len(args):
        names += (body.var.name,)
        body = body.body
    values = [_compile_term(model, a, scope) for a in args[:len(names)]]
    inner = _compile_term(model, body, scope.enter(*names))
    redex = lambda frame: inner(frame + tuple([v(frame) for v in values]))
    return _compile_apps(model, redex, args[len(names):], scope)


def _compile_rec(model: MiniModel, args, scope: _Scope):
    """``rec(b, \\p. \\i. body, n)`` with a literal two-binder step: each
    stage runs ``body`` on the frame extended by the accumulator and the
    stage number, with no function value per stage.  A step given any
    other way goes through ``rec``'s implementation in ``_primitive``."""
    step = args[1]
    base = _compile_term(model, args[0], scope)
    body = _compile_term(model, step.body.body,
                         scope.enter(step.var.name, step.body.var.name))
    stages = _compile_term(model, args[2], scope)

    def rec(frame):
        acc = base(frame)
        for i in range(stages(frame)):
            acc = body(frame + (acc, i))
        return acc
    return rec


def _compile_const(model: MiniModel, c: Const):
    name = c.name
    if name.isdigit():
        n = int(name)
        if n <= model.cap:
            return lambda frame: n
        return lambda frame: model.sat(n)
    if name == "empty":
        empty = SeqV(())
        return lambda frame: empty
    prim = _primitive(model, c)
    if prim is None:
        return _fail(f"unknown constant {name!r}")
    arity, impl = prim
    # A fresh function value per visit: tabulate keeps its table on the
    # value, and a shared one would stop a saturating constant from
    # setting ``model.overflowed`` when it is evaluated again.
    return lambda frame: _curried(impl, arity)


def _compile_primitive_app(model: MiniModel, prim, args, scope: _Scope):
    """A function constant applied to arguments: with all its arguments
    it calls its implementation directly."""
    arity, impl = prim
    if len(args) < arity:
        given = [_compile_term(model, a, scope) for a in args]
        return lambda frame: _curried(impl, arity,
                                      tuple(a(frame) for a in given))
    first = [_compile_term(model, a, scope) for a in args[:arity]]
    if arity == 1:
        a0, = first
        direct = lambda frame: impl(a0(frame))
    elif arity == 2:
        a0, a1 = first
        direct = lambda frame: impl(a0(frame), a1(frame))
    else:
        a0, a1, a2 = first
        direct = lambda frame: impl(a0(frame), a1(frame), a2(frame))
    return _compile_apps(model, direct, args[arity:], scope)


def _curried(impl, arity: int, given: tuple = ()) -> FnV:
    """The function value of a constant with ``given`` supplied, taking
    its remaining arguments one at a time."""
    def call(v):
        args = given + (v,)
        if len(args) == arity:
            return impl(*args)
        return _curried(impl, arity, args)
    return FnV(call)


def _cantor(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def _cantor_unpair(n: int) -> tuple[int, int]:
    s = int((math.isqrt(8 * n + 1) - 1) // 2)
    b = n - s * (s + 1) // 2
    return s - b, b


def _primitive(model: MiniModel, c: Const):
    """(arity, implementation) of a function constant, or None for an
    unknown name.  The implementation takes all its arguments at once."""
    name, sat = c.name, model.sat
    if name == "succ":
        return 1, lambda n: sat(n + 1)
    if name == "plus":
        return 2, lambda a, b: sat(a + b)
    if name == "monus":
        return 2, lambda a, b: max(a - b, 0)
    if name == "max":
        return 2, max
    if name == "npair":
        return 2, lambda a, b: sat(_cantor(a, b))
    if name == "nunl":
        return 1, lambda n: _cantor_unpair(n)[0]
    if name == "nunr":
        return 1, lambda n: _cantor_unpair(n)[1]
    if name == "seqmax":
        return 1, lambda s: max(s.items) if s.items else 0
    if name == "initseg":
        return 2, lambda f, n: SeqV(f.call(i) for i in range(n))
    if name == "run":
        return 3, lambda a, e, s: sat(machine.theta(tabulate(model, a), s, e))
    if name == "muscan":
        return 1, lambda f: least_zero(model, f)
    if name == "pair":
        return 2, PairV
    if name == "fst":
        return 1, lambda p: p.left
    if name == "snd":
        return 1, lambda p: p.right
    if name == "append":
        def push(s, v):
            if len(s.items) >= model.seq_limit:
                model.overflowed = True
                return s
            return SeqV(s.items + (v,))
        return 2, push
    if name == "len":
        return 1, lambda s: sat(len(s.items))
    if name == "get":
        cod = c.ty.cod.cod if isinstance(c.ty.cod, Arrow) else N
        return 2, lambda s, i: (s.items[i] if i < len(s.items)
                                else zero_value(model, cod))
    if name == "seqapp":
        return 2, lambda f, x: f.call(x)
    if name == "rec":
        def recur(base, step, n):
            acc = base
            for i in range(n):
                acc = step.call(acc).call(i)
            return acc
        return 3, recur
    return None


def _compile_formula(model: MiniModel, f: Formula, scope: _Scope):
    """A closure ``frame -> bool`` over the slots ``scope`` names."""
    if isinstance(f, Atom):
        if f.rel == "in":
            elem, seq = (_compile_term(model, a, scope) for a in f.args)

            def member(frame):
                e = elem(frame)
                return seq(frame).call(e) != 0
            return member
        a, b = (_compile_term(model, x, scope) for x in f.args)
        if f.rel == "=":
            return _equality(model, infer_type(f.args[0]), a, b)
        if f.rel == "<=":
            return lambda frame: a(frame) <= b(frame)
        if f.rel == "<":
            return lambda frame: a(frame) < b(frame)
        return _fail(f"unknown relation {f.rel!r}")
    if isinstance(f, ApproxEq):
        return _compile_formula(model, desugar_approx(f), scope)
    if isinstance(f, St):
        ty, arg = infer_type(f.arg), _compile_term(model, f.arg, scope)
        return lambda frame: model.is_standard(ty, arg(frame))
    if isinstance(f, Not):
        body = _compile_formula(model, f.body, scope)
        return lambda frame: not body(frame)
    if isinstance(f, (And, Or, Implies)):
        left = _compile_formula(model, f.left, scope)
        right = _compile_formula(model, f.right, scope)
        if isinstance(f, And):
            return lambda frame: left(frame) and right(frame)
        if isinstance(f, Or):
            return lambda frame: left(frame) or right(frame)
        return lambda frame: (not left(frame)) or right(frame)
    if isinstance(f, (Forall, Exists, ForallSt, ExistsSt)):
        ty = f.var.ty
        standard = isinstance(f, (ForallSt, ExistsSt))
        universal = isinstance(f, (Forall, ForallSt))
        body = _compile_formula(model, f.body, scope.enter(f.var.name))
        if ty == _TYPE1 and not standard:
            return _table_sweep(model, universal, body)
        over = _quantifier(universal, body)
        if ty == N:
            pop = range(model.omega if standard else model.cap + 1)
            return lambda frame: over(frame, pop)
        # A population above type 0 is asked for on every visit:
        # standard objects may be declared between evaluations, and an
        # empty standard population is flagged only where a quantifier
        # is reached.
        return lambda frame: over(frame, model.population(ty, standard))
    if isinstance(f, (BForall, BExists)):
        over = _quantifier(isinstance(f, BForall),
                           _compile_formula(model, f.body,
                                            scope.enter(f.var.name)))
        bound, cap = _compile_term(model, f.bound, scope), model.cap
        if f.kind == "le":
            return lambda frame: over(frame,
                                      range(min(bound(frame), cap) + 1))
        if f.kind == "lt":
            return lambda frame: over(frame,
                                      range(min(bound(frame), cap + 1)))
        if f.kind == "mem":
            return lambda frame: over(frame, bound(frame).items)
        return _fail(f"unknown bound kind {f.kind!r}")
    return _fail(f"cannot evaluate formula node {type(f).__name__}")


def _equality(model: MiniModel, ty: FiniteType, left, right):
    """Extensional equality of two compiled terms of type ``ty``."""
    if ty == N:
        return lambda frame: left(frame) == right(frame)
    if ty == _TYPE1:
        def eq1(frame):
            a, b = left(frame), right(frame)
            return tabulate(model, a) == tabulate(model, b)
        return eq1

    def eq(frame):
        a, b = left(frame), right(frame)
        return values_equal(model, ty, a, b)
    return eq


def _quantifier(universal: bool, body):
    """``over(frame, pop)``: the body, on the frame extended by each
    value in ``pop``, until one decides the quantifier."""
    if universal:
        def forall(frame, pop):
            for v in pop:
                if not body(frame + (v,)):
                    return False
            return True
        return forall

    def exists(frame, pop):
        for v in pop:
            if body(frame + (v,)):
                return True
        return False
    return exists


def _table_sweep(model: MiniModel, universal: bool, body):
    """A plain quantifier over the ``0 -> 0`` tables, swept by prefix.

    The body is evaluated on the frame extended by a table-less probe
    that serves cells from a prefix: reading cell ``i`` zero-extends the
    prefix up to ``i``, and a read past ``cap`` or of a non-int returns
    0, as a table does.  One evaluation therefore decides every table
    that extends the cells it read.  The next prefix drops trailing
    ``cap`` cells and bumps the last one (an odometer), so the prefixes
    cover ``enum_values``' order in contiguous blocks and the sweep
    stops in the block holding the first deciding table: same answer,
    error, ``overflowed`` and flags as evaluating each table.  A full
    read (``tabulate``, ``=`` at type 1, ``canon_key``, ``run``'s table)
    reads every cell, so its block is one table.  The budget check is
    the eager sweep's.
    """
    cap = model.cap

    def sweep(frame):
        model.check_enumerable(_TYPE1)
        cells: list[int] = []
        while True:
            probe = FnV(_prefix_reader(cells, cap))
            if bool(body(frame + (probe,))) is not universal:
                return not universal
            last = len(cells) - 1
            while last >= 0 and cells[last] == cap:
                last -= 1
            if last < 0:
                return universal
            cells = cells[:last] + [cells[last] + 1]
    return sweep


def _prefix_reader(cells: list, cap: int):
    """Cell lookup that zero-extends ``cells`` up to the cell read."""
    def call(i):
        if not isinstance(i, int) or not 0 <= i <= cap:
            return 0
        if i >= len(cells):
            cells.extend([0] * (i + 1 - len(cells)))
        return cells[i]
    return call


# -- model configuration files -------------------------------------------------

def parse_model_config(text: str) -> MiniModel:
    """Build a MiniModel from the line-based config format.  A faulty
    line is a ModelError that names it (and the declared object)."""
    settings: dict[str, int] = {}    # MiniModel's keyword arguments
    decls: list[tuple[str, str]] = []    # (line label, declaration)
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and ":" not in line:
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in ("cap", "omega", "budget"):
                raise ModelError(f"line {n}: unknown setting {key!r}")
            if key in settings:
                raise ModelError(f"line {n}: repeated setting {key!r}")
            try:
                settings[key] = int(val)
            except ValueError:
                raise ModelError(f"line {n}: {key} needs a number, got "
                                 f"{val.strip()!r}") from None
            continue
        if line.startswith("table ") or line.startswith("bind "):
            decls.append((f"line {n}", line))
            continue
        raise ModelError(f"line {n}: unrecognized model config line: "
                         f"{raw!r}")
    if "cap" not in settings or "omega" not in settings:
        raise ModelError("model config needs cap= and omega=")
    model = MiniModel(**settings)
    cap = model.cap
    from .constructions import build_construction
    for at, line in decls:
        st = False
        body = line
        if body.endswith("[st]"):
            st = True
            body = body[:-4].strip()
        head, _, rest = body.partition(":")
        kind, _, name = head.strip().partition(" ")
        name = name.strip()
        if not name or not rest.strip():
            raise ModelError(f"{at}: malformed declaration: {line!r}")
        at = f"{at}: {kind} {name!r}"
        try:
            if kind == "table":
                try:
                    entries = [int(x) for x in rest.split()]
                except ValueError:
                    raise ModelError("entries must be numbers: "
                                     f"{rest.strip()!r}") from None
                if any(e > cap or e < 0 for e in entries):
                    raise ModelError(f"entries outside 0..{cap}")
                value = table_fn(entries, model, name=name)
                ty = Arrow(N, N)
            else:
                parts = rest.split()
                cname, args = parts[0], parts[1:]
                ty, value = build_construction(cname, args, model)
                if isinstance(value, FnV) and value.name is None:
                    value.name = name
            model.declare(name, ty, value, st)
        except ModelError as exc:
            raise ModelError(f"{at}: {exc}") from None
    return model
