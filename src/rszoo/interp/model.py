"""Bounded evaluation of terms and formulas.

A :class:`MiniModel` interprets the language over the finite universe
{0..cap}.  A type-0 value is a plain int; every other value is a
function, :class:`FnV` (a callable plus its table once known).
Arithmetic saturates at ``cap`` and records the fact in
``model.overflowed`` — values are never silently wrapped.

Standardness is a *flag*, not a derived notion: a number is standard
iff it is below ``omega``; any other object is standard iff it was
declared so in the model configuration (read by ``constructions``).
``(forall^st x)`` and ``(exists^st x)`` range over exactly the standard
objects.  A plain quantifier at type 0 ranges over {0..cap}; at higher
types it ranges over the full finite table space when that space fits
in the enumeration budget and otherwise refuses with a size estimate
(:class:`ModelRefusal`) rather than guessing.  Over ``0 -> 0`` the
tables are not listed: the body is evaluated once per prefix of cells
it reads, each evaluation deciding every table that extends the prefix
(Berger's fan functional, Escardó's exhaustive search), in the order
and with the effects of a table-by-table sweep (see ``_table_sweep``).
A cell moves from 0 to one class value that stands for all of
``1..cap`` and answers only whether it is 0; any other use refines
it, and the sweep makes the cell 1 and evaluates again (Lazy
SmallCheck), so the (mu2) body, which reads cells only through
``= 0``, takes ``cap + 2`` evaluations.  The sweep keeps one prefix,
a ``dict`` of cells moved in place from prefix to prefix, and each
prefix's probe is a fresh :class:`FnV` whose call is that dict's own
lookup: a held cell is read in C, and only a miss runs Python,
zero-filling up to an in-range cell or reading 0 for anything else.
``quantifier`` gives this sweep to a formula's quantifiers and to the
candidate check's universals (``extract.check_candidates``) alike.

Evaluation is compile-once: ``eval_formula`` and ``eval_term`` turn a
formula or term into nested closures ``frame -> value`` the first time
the model sees that node or one equal to it, cache them on the model
keyed by the node's value, so equal nodes share one entry, and call
them.  A frame is a tuple, and compile time
resolves every variable to a slot of it: the node's free names, sorted,
take the first slots, and each binder (a lambda, a redex, a quantifier,
a literal ``rec`` step) runs its body on the frame extended by its
values, so the innermost binder of a name wins and a closure keeps the
frame it was made in.  A literal ``rec`` step whose body reads neither
of its binders (``rec(y, \\p. \\i. x, c)``) runs that body at most
once, on the outer frame: every stage would run the same closure on
frames that differ only in slots it never reads, and its only
observable effects, setting ``overflowed`` and adding to ``flags``, are
idempotent, so one run gives the last stage's value, the same effects
and the same first error.  ``env`` is read once, on entry, for the free
names; a name it lacks gets a placeholder slot, and its variable raises
when it is reached, not before.  Compile time also resolves what the
node alone fixes: the comparison an ``=`` makes (``==`` at type 0,
fingerprints above, which at type 1 are value tables), each constant's
implementation (a constant applied to all its arguments calls it
directly) and the range of a type-0 quantifier.  Everything that
depends on the model's state is left to run time, when a node is
reached: the population of a quantifier above type 0 (asked for on
every visit, so later declarations are seen and an empty standard
population is flagged only where it is reached) and saturation (a
numeral or constant above ``cap`` sets ``overflowed`` every time it is
evaluated; function constants get a fresh :class:`FnV` per visit, so a
cached table never hides it).  An unknown constant fails when compiled.
Closures read ``cap`` when compiled, so a compiled node belongs to one
model.
"""
from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterable, Iterator

from ..lang.types import Arrow, FiniteType, N, show_type
from ..lang.terms import Abs, Const, Term, Var, free_vars, infer_type, spine
from ..lang.formulas import (And, Atom, ExistsSt, Forall, ForallSt, Formula,
                             Implies, Not, Or, free_vars_f)
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


class FnV:
    """A function value: a callable and its table, once known.

    ``table`` lists outputs against the model's canonical enumeration of
    the domain; for domain type 0 that is just index order.  It is given
    at construction or filled by the first ``tabulate``; a type-1 value
    is that table as far as equality and the oracle machine are
    concerned.
    """
    __slots__ = ("call", "table")

    def __init__(self, call, table=None):
        self.call = call
        self.table = tuple(table) if table is not None else None


def zero_value(model: "MiniModel", ty: FiniteType):
    if ty == N:
        return 0
    z = zero_value(model, ty.cod)
    return FnV(lambda _v, z=z: z)


def table_fn(table: Iterable[int], model: "MiniModel") -> FnV:
    """Type-1 object from a value table over {0..cap}; reads beyond the
    table return 0, as the oracle machine reads them."""
    tab = tuple(table)
    if len(tab) != model.cap + 1:
        raise ModelError(f"table needs {model.cap + 1} entries, "
                         f"got {len(tab)}")
    return FnV(_indexed(tab, 0), table=tab)


def _indexed(tab: tuple, fallback):
    """Lookup in a table over {0..len(tab)-1}, ``fallback`` past it."""
    n = len(tab)

    def call(i):
        if isinstance(i, int) and 0 <= i < n:
            return tab[i]
        if isinstance(i, _Nonzero):
            i.refine()
        return fallback
    return call


class MiniModel:
    """Finite model with universe {0..cap} and standardness cut omega.
    A refused setting is a ModelError whose message starts with the
    setting's name."""

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
        self.declared: dict[str, tuple[FiniteType, object, bool]] = {}
        self.overflowed = False
        self.flags: set[str] = set()
        # node -> (free names, closure); see _run
        self._compiled: dict[object, tuple] = {}

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
        dome = self.size_log10(ty.dom)
        if dome > 9:
            return float("inf")
        return (10 ** dome) * self.size_log10(ty.cod)

    def size_estimate(self, ty: FiniteType) -> str:
        lg = self.size_log10(ty)
        if lg == float("inf"):
            return "10^(astronomical)"
        if lg <= 12:
            return str(round(10 ** lg))
        return f"10^{lg:.0f}"

    def check_enumerable(self, ty: FiniteType) -> None:
        """Refuse a type with more values than the budget: by the logs
        far above it, and by the exact count near it, where a rounded
        log can fall on either side (5^5 tables against a budget of
        3125)."""
        if (self.size_log10(ty) > math.log10(self.budget) + 1
                or self._count(ty) > self.budget):
            raise ModelRefusal(ty, self.size_estimate(ty))

    def _count(self, ty: FiniteType) -> int:
        """The number of values of a type, asked for only near the
        budget."""
        if ty == N:
            return self.cap + 1
        return self._count(ty.cod) ** self._count(ty.dom)

    def enum_values(self, ty: FiniteType) -> Iterator:
        """All values of a type, in a fixed canonical order.  Callers
        must have passed check_enumerable."""
        if ty == N:
            yield from range(self.cap + 1)
            return
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

    def canon_key(self, ty: FiniteType, v):
        """Hashable extensional fingerprint of a value."""
        if ty == N:
            return v
        if ty == _TYPE1:
            return tabulate(self, v)
        self.check_enumerable(ty.dom)
        return tuple(self.canon_key(ty.cod, v.call(d))
                     for d in self.enum_values(ty.dom))

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


def values_equal(model: MiniModel, ty: FiniteType, a, b) -> bool:
    """Extensional equality at a type: equal fingerprints."""
    return model.canon_key(ty, a) == model.canon_key(ty, b)


def tabulate(model: MiniModel, fn: FnV) -> tuple:
    """Value table of a type-1-style function over {0..cap}, kept on the
    value.  It is what the oracle machine reads: a run that should see
    cells past the cap needs a longer table from here."""
    if fn.table is None:
        fn.table = tuple(map(fn.call, range(model.cap + 1)))
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
    sorted; a name ``env`` lacks gets ``_UNBOUND``.  The cache is keyed
    on the node (whose hash is kept), so equal nodes share one entry."""
    hit = model._compiled.get(node)
    if hit is None:
        names = tuple(sorted({v.name for v in free(node)}))
        run = compile_node(model, node, _Scope(names, len(names)))
        hit = model._compiled[node] = (names, run)
    names, run = hit
    if env is None:
        env = model.env()
    return run(tuple([env.get(name, _UNBOUND) for name in names]))


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
    head, args = spine(t)       # an App
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
    per binder; for one argument, the binder of every redex that a
    script's lets keep, the extension is a tuple display, with no list
    built per call."""
    names, body = (), head
    while isinstance(body, Abs) and len(names) < len(args):
        names += (body.var.name,)
        body = body.body
    values = [_compile_term(model, a, scope) for a in args[:len(names)]]
    inner = _compile_term(model, body, scope.enter(*names))
    if len(values) == 1:
        v0, = values
        redex = lambda frame: inner(frame + (v0(frame),))
    else:
        redex = lambda frame: inner(frame + tuple([v(frame)
                                                   for v in values]))
    return _compile_apps(model, redex, args[len(names):], scope)


def _compile_rec(model: MiniModel, args, scope: _Scope):
    """``rec(b, \\p. \\i. body, n)`` with a literal two-binder step: each
    stage runs ``body`` on the frame extended by the accumulator and the
    stage number, with no function value per stage.  A body that reads
    neither ``p`` nor ``i`` is compiled in the outer scope and runs once
    when ``n != 0``, which a class value answers (see the module
    docstring); ``b`` and ``n`` are evaluated first either way.  A step
    given any other way goes through ``rec``'s ``_primitive``."""
    step = args[1]
    binders = (step.var.name, step.body.var.name)
    base = _compile_term(model, args[0], scope)
    stages = _compile_term(model, args[2], scope)
    if not any(v.name in binders for v in free_vars(step.body.body)):
        once = _compile_term(model, step.body.body, scope)

        def rec_constant(frame):
            acc = base(frame)
            if stages(frame) != 0:
                return once(frame)
            return acc
        return rec_constant
    body = _compile_term(model, step.body.body, scope.enter(*binders))

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
        cap = model.cap

        def saturated(frame):
            model.overflowed = True
            return cap
        return saturated
    prim = _primitive(model, c)
    if prim is None:
        raise ModelError(f"unknown constant {name!r}")
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
    if name == "monus":
        return 2, lambda a, b: a - b if a > b else 0
    if name == "max":
        return 2, max
    if name == "nunl":
        return 1, lambda n: _cantor_unpair(n)[0]
    if name == "nunr":
        return 1, lambda n: _cantor_unpair(n)[1]
    if name == "run":
        return 3, lambda a, e, s: sat(machine.theta(tabulate(model, a), s, e))
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
        a, b = (_compile_term(model, x, scope) for x in f.args)
        return _equality(model, infer_type(f.args[0]), a, b)
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
    # a quantifier
    standard = isinstance(f, (ForallSt, ExistsSt))
    universal = isinstance(f, (Forall, ForallSt))
    body = _compile_formula(model, f.body, scope.enter(f.var.name))
    return quantifier(model, f.var.ty, standard, universal, body)


def quantifier(model: MiniModel, ty: FiniteType, standard: bool,
               universal: bool, body):
    """A quantifier over a compiled body: ``_table_sweep`` for a plain
    ``0 -> 0``, else ``_quantifier`` over the population."""
    if ty == _TYPE1 and not standard:
        return _table_sweep(model, universal, body)
    over = _quantifier(universal, body)
    if ty == N:
        pop = range(model.omega if standard else model.cap + 1)
        return lambda frame: over(frame, pop)
    # A population above type 0 is asked for on every visit: standard
    # objects may be declared between evaluations, and an empty standard
    # population is flagged only where a quantifier is reached.
    return lambda frame: over(frame, model.population(ty, standard))


def _equality(model: MiniModel, ty: FiniteType, left, right):
    """Extensional equality of two compiled terms of type ``ty``."""
    if ty == N:
        return lambda frame: left(frame) == right(frame)

    def eq(frame):
        a, b = left(frame), right(frame)
        return values_equal(model, ty, a, b)
    return eq


def _quantifier(universal: bool, body):
    """``over(frame, pop)``: the body, on the frame extended by each
    value in ``pop``, until one decides the quantifier: a universal by
    a false body, an existential by a true one.  A formula closure
    returns a ``bool``, so ``is`` compares it."""
    def over(frame, pop):
        for v in pop:
            if body(frame + (v,)) is not universal:
                return not universal
        return universal
    return over


def _table_sweep(model: MiniModel, universal: bool, body):
    """A plain quantifier over the ``0 -> 0`` tables, swept by prefix.

    The body is evaluated on the frame extended by a table-less probe
    (``_probe``) that serves cells from one ``_Prefix``: reading cell
    ``i`` zero-extends the prefix up to ``i``, and a read past ``cap``
    or of a non-int returns 0, as a table does.  One evaluation
    therefore decides every table that extends the cells it read.  The
    next prefix drops trailing cells that are done and moves the last
    one on (an odometer): from 0 to a class value, which stands for all
    of ``1..cap`` (at cap 1 it is written as 1), and from an int to the
    next one.  A class value (``_Nonzero``, one object per cell, since
    tuple ``==`` and ``in`` match by identity first) answers ``== 0``
    and ``!= 0`` as each of its members would; any other use raises a
    ``_Refinement`` that names its prefix and cell.  The sweep catches a
    refinement of its own prefix, drops the cells after the refined
    one, sets it to 1 (the odometer then runs ``2..cap``) and evaluates
    again; a nested sweep re-raises one that is not its own, and as a
    ``BaseException`` it passes every ``except Exception``.  An
    evaluation that ends without one took the same path for every table
    of its block, so it decides them all, with the effects of the
    block's first table (its class values read as 1).  Every table that
    comes before a prefix's first table in ``enum_values``' order lies
    in a block already found not to decide (a refinement after later
    cells moved on evaluates some of them again, to the same end), so
    the sweep stops in the block holding the first deciding table: same
    answer, error, ``overflowed`` and flags as evaluating each table.
    A full read that keys a memo (``run``'s table, ``psi_theta``)
    refines every class value, so its blocks are single tables again.

    No class value outlives its sweep: the body's value is a ``bool``,
    formatting one for an error message or for a failure label of the
    candidate check, which sweeps with it too, or hashing one for a memo
    key, refines it first, and so does a table passed one.  One
    ``_Prefix`` serves the whole sweep and the odometer moves it in
    place, so a probe reads the current prefix, not the one it was made
    for; each prefix still gets a fresh probe, so the ``table`` that
    ``tabulate`` keeps on it is that prefix's.

    The budget check is the eager sweep's and counts tables, not
    evaluations: how many evaluations a body takes is known only as it
    runs, so a bound on them would refuse partway through a sweep,
    after effects that the eager sweep never has.
    """
    cap = model.cap

    def sweep(frame):
        model.check_enumerable(_TYPE1)
        cells = _Prefix(cap)
        while True:
            try:
                if body(frame + (_probe(cells),)) is not universal:
                    return not universal
            except _Refinement as refinement:
                owner, i = refinement.args
                if owner is not cells:
                    raise
                while len(cells) > i:
                    cells.popitem()
                cells[i] = 1
                continue
            while cells:
                i, v = cells.popitem()
                if v.__class__ is int and v < cap:
                    cells[i] = v + 1 if v or cap == 1 else _Nonzero(cells, i)
                    break
            else:
                return universal
    return sweep


class _Refinement(BaseException):
    """A class value was used as no single value of ``1..cap`` would
    be; its args are the prefix and the cell."""


class _Nonzero:
    """The class value of cell ``i`` of a sweep's prefix: every value
    ``1..cap``.  It answers ``== 0`` (and so ``!= 0``, from either side)
    and truth, as each member would, and refines on any other use."""
    __slots__ = ("cells", "i")

    def __init__(self, cells, i: int):
        self.cells, self.i = cells, i

    def __eq__(self, other):
        if other.__class__ is int and other == 0:
            return False
        self.refine()

    def refine(self, *_):
        raise _Refinement(self.cells, self.i)

    __hash__ = __lt__ = __le__ = __gt__ = __ge__ = __index__ = __int__ \
        = __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ \
        = __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = __neg__ \
        = __repr__ = __str__ = __format__ = __iter__ = __getattr__ = refine


class _Prefix(dict):
    """The cells of a prefix of a ``0 -> 0`` table, keyed ``0..n-1`` in
    insertion order, so ``popitem`` drops the last.  A read of a held
    cell is a dict lookup; a miss on an int in ``0..cap`` zero-fills the
    prefix up to it, and any other miss (a cell past ``cap``, a
    non-int) reads 0 and fills nothing."""
    __slots__ = ("cap",)

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def __missing__(self, i):
        if isinstance(i, int) and 0 <= i <= self.cap:
            for j in range(len(self), i + 1):
                self[j] = 0
        return 0


def _probe(cells: _Prefix) -> FnV:
    """The probe of one prefix: a fresh function value whose call is the
    prefix's own lookup.  ``_table_sweep`` calls it once per prefix."""
    return FnV(cells.__getitem__)
