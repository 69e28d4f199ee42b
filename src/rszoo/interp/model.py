"""Bounded evaluation of terms and formulas.

A :class:`MiniModel` interprets the language over the finite universe
{0..cap}.  Type-0 values are plain ints; products are :class:`PairV`;
sequences are :class:`SeqV`; functions are :class:`FnV` (a callable plus
an optional table).  Arithmetic saturates at ``cap`` and records the
fact in ``model.overflowed`` — values are never silently wrapped.

Standardness is a *flag*, not a derived notion: a number is standard
iff it is below ``omega``; any other object is standard iff it was
declared so in the model configuration.  ``(forall^st x)`` and
``(exists^st x)`` range over exactly the standard objects.  A plain
quantifier at type 0 ranges over {0..cap}; at higher types it ranges
over the full finite table space when that space fits in the
enumeration budget and otherwise refuses with a size estimate
(:class:`ModelRefusal`) rather than guessing.

Model configurations use a line-based text format::

    cap = 4
    omega = 2
    budget = 200000
    table h0: 0 0 1 0 0 [st]
    bind Psi0: psi_theta [st]

``table`` declares a type-1 object by its value table; ``bind`` builds
an object through the construction registry (see ``constructions``),
passing previously declared names or integer literals as arguments.  A
trailing ``[st]`` marks the object standard.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

from ..lang.types import Arrow, FiniteType, N, Product, Seq, show_type
from ..lang.terms import Abs, App, Const, Term, Var, infer_type
from ..lang.formulas import (And, ApproxEq, Atom, BExists, BForall, Eq,
                             Exists, ExistsSt, Forall, ForallSt, Formula,
                             Implies, Not, Or, St, desugar_approx)
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
    """A function value: a callable, optionally backed by a table.

    ``table`` (when present) lists outputs against the model's canonical
    enumeration of the domain; for domain type 0 that is just index
    order.  ``name`` is cosmetic.
    """
    __slots__ = ("call", "table", "name", "_tab_cache")

    def __init__(self, call, table=None, name=None):
        self.call = call
        self.table = tuple(table) if table is not None else None
        self.name = name
        self._tab_cache = None

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
    table return 0 (the oracle machine may look past the horizon)."""
    tab = tuple(table)
    if len(tab) != model.cap + 1:
        raise ModelError(f"table needs {model.cap + 1} entries, "
                         f"got {len(tab)}")

    def call(i, tab=tab):
        if isinstance(i, int) and 0 <= i < len(tab):
            return tab[i]
        return 0

    return FnV(call, table=tab, name=name)


class MiniModel:
    """Finite model with universe {0..cap} and standardness cut omega."""

    def __init__(self, cap: int, omega: int, budget: int = 200_000,
                 declared: list[tuple[str, FiniteType, object, bool]] | None
                 = None):
        if cap < 1:
            raise ModelError("cap must be at least 1")
        if not (0 < omega <= cap):
            raise ModelError("omega must satisfy 0 < omega <= cap")
        self.cap = cap
        self.omega = omega
        self.budget = budget
        self.seq_limit = 4 * (cap + 1)
        self.declared: dict[str, tuple[FiniteType, object, bool]] = {}
        self.decl_lines: list[str] = []
        self.overflowed = False
        self.flags: set[str] = set()
        for name, ty, value, st in declared or []:
            self.declare(name, ty, value, st)

    # -- declarations -------------------------------------------------------

    def declare(self, name: str, ty: FiniteType, value, st: bool,
                line: str | None = None) -> None:
        if name in self.declared:
            raise ModelError(f"duplicate declaration {name!r}")
        self.declared[name] = (ty, value, st)
        if line is not None:
            self.decl_lines.append(line)

    def object(self, name: str):
        if name not in self.declared:
            raise ModelError(f"undeclared object {name!r}")
        return self.declared[name][1]

    def env(self) -> dict:
        return {name: v for name, (_t, v, _s) in self.declared.items()}

    def types(self) -> dict[str, FiniteType]:
        return {name: t for name, (t, _v, _s) in self.declared.items()}

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
            keys = [self.canon_key(ty.dom, d) for d in dom]
            for outs in itertools.product(cod, repeat=len(dom)):
                lookup = dict(zip(keys, outs))
                fallback = zero_value(self, ty.cod)
                yield FnV(lambda v, lk=lookup, d=ty.dom, fb=fallback:
                          lk.get(self.canon_key(d, v), fb),
                          table=outs if ty.dom == N else None)
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


def tabulate(model: MiniModel, fn: FnV) -> tuple:
    """Value table of a type-1-style function over {0..cap} (cached)."""
    if fn.table is not None:
        return fn.table
    if fn._tab_cache is None:
        fn._tab_cache = tuple(fn.call(i) for i in range(model.cap + 1))
    return fn._tab_cache


# -- term evaluation ----------------------------------------------------------

def _cantor(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def _cantor_unpair(n: int) -> tuple[int, int]:
    s = int((math.isqrt(8 * n + 1) - 1) // 2)
    b = n - s * (s + 1) // 2
    return s - b, b


def eval_term(model: MiniModel, t: Term, env: dict | None = None):
    """Call-by-value evaluation in the model.  ``env`` maps variable
    names to values."""
    env = env if env is not None else model.env()
    return _ev(model, t, env)


def _ev(model: MiniModel, t: Term, env: dict):
    if isinstance(t, Var):
        if t.name not in env:
            raise ModelError(f"unbound variable {t.name!r} in evaluation")
        return env[t.name]
    if isinstance(t, Const):
        return _const_value(model, t)
    if isinstance(t, Abs):
        def call(v, model=model, t=t, env=env):
            inner = dict(env)
            inner[t.var.name] = v
            return _ev(model, t.body, inner)
        return FnV(call)
    if isinstance(t, App):
        fn = _ev(model, t.fn, env)
        arg = _ev(model, t.arg, env)
        if not isinstance(fn, FnV):
            raise ModelError(f"applying a non-function value {fn!r}")
        return fn.call(arg)
    raise ModelError(f"cannot evaluate term {t!r}")


def _fn2(f) -> FnV:
    return FnV(lambda a: FnV(lambda b, a=a: f(a, b)))


def _fn3(f) -> FnV:
    return FnV(lambda a: FnV(lambda b, a=a:
                             FnV(lambda c, a=a, b=b: f(a, b, c))))


def _const_value(model: MiniModel, c: Const):
    name = c.name
    if name.isdigit():
        return model.sat(int(name))
    if name == "succ":
        return FnV(lambda n: model.sat(n + 1))
    if name == "plus":
        return _fn2(lambda a, b: model.sat(a + b))
    if name == "monus":
        return _fn2(lambda a, b: max(a - b, 0))
    if name == "max":
        return _fn2(lambda a, b: max(a, b))
    if name == "npair":
        return _fn2(lambda a, b: model.sat(_cantor(a, b)))
    if name == "nunl":
        return FnV(lambda n: _cantor_unpair(n)[0])
    if name == "nunr":
        return FnV(lambda n: _cantor_unpair(n)[1])
    if name == "seqmax":
        return FnV(lambda s: max(s.items) if s.items else 0)
    if name == "initseg":
        return _fn2(lambda f, n: SeqV(f.call(i) for i in range(n)))
    if name == "run":
        def do_run(a, e, s):
            res = machine.phi(e, a.call, e, s,
                              oracle_key=tabulate(model, a))
            if isinstance(res, machine.HaltsWith):
                return model.sat(res.output + 1)
            return 0
        return _fn3(do_run)
    if name == "muscan":
        def scan(f):
            for i in range(model.cap + 1):
                if f.call(i) == 0:
                    return i
            return 0
        return FnV(scan)
    if name == "pair":
        return _fn2(PairV)
    if name == "fst":
        return FnV(lambda p: p.left)
    if name == "snd":
        return FnV(lambda p: p.right)
    if name == "empty":
        return SeqV(())
    if name == "append":
        def push(s, v):
            if len(s.items) >= model.seq_limit:
                model.overflowed = True
                return s
            return SeqV(s.items + (v,))
        return _fn2(push)
    if name == "len":
        return FnV(lambda s: model.sat(len(s.items)))
    if name == "get":
        cod = c.ty.cod.cod if isinstance(c.ty.cod, Arrow) else N
        return _fn2(lambda s, i: s.items[i] if i < len(s.items)
                    else zero_value(model, cod))
    if name == "seqapp":
        return _fn2(lambda f, x: f.call(x))
    if name == "rec":
        def recur(base, step, n):
            acc = base
            for i in range(n):
                acc = step.call(acc).call(i)
            return acc
        return _fn3(recur)
    raise ModelError(f"unknown constant {name!r}")


# -- formula evaluation --------------------------------------------------------

def eval_formula(model: MiniModel, f: Formula, env: dict | None = None) -> bool:
    """Truth of a formula in the model.  ``env`` gives values for free
    variables and defaults to the declared objects.  Types come from the
    terms themselves: every variable and constant carries its own."""
    return _evf(model, f, model.env() if env is None else env)


def _evf(model: MiniModel, f: Formula, env: dict) -> bool:
    if isinstance(f, Atom):
        if f.rel == "in":
            elem = _ev(model, f.args[0], env)
            s = _ev(model, f.args[1], env)
            return s.call(elem) != 0
        a = _ev(model, f.args[0], env)
        b = _ev(model, f.args[1], env)
        if f.rel == "=":
            return values_equal(model, infer_type(f.args[0]), a, b)
        if f.rel == "<=":
            return a <= b
        if f.rel == "<":
            return a < b
        raise ModelError(f"unknown relation {f.rel!r}")
    if isinstance(f, Eq):
        return values_equal(model, f.ty,
                            _ev(model, f.left, env), _ev(model, f.right, env))
    if isinstance(f, ApproxEq):
        return _evf(model, desugar_approx(f), env)
    if isinstance(f, St):
        return model.is_standard(infer_type(f.arg), _ev(model, f.arg, env))
    if isinstance(f, Not):
        return not _evf(model, f.body, env)
    if isinstance(f, And):
        return _evf(model, f.left, env) and _evf(model, f.right, env)
    if isinstance(f, Or):
        return _evf(model, f.left, env) or _evf(model, f.right, env)
    if isinstance(f, Implies):
        return (not _evf(model, f.left, env)) or _evf(model, f.right, env)
    if isinstance(f, (Forall, Exists, ForallSt, ExistsSt)):
        standard = isinstance(f, (ForallSt, ExistsSt))
        universal = isinstance(f, (Forall, ForallSt))
        pop = model.population(f.var.ty, standard)
        return _sweep(model, f, pop, universal, env)
    if isinstance(f, (BForall, BExists)):
        universal = isinstance(f, BForall)
        bound = _ev(model, f.bound, env)
        if f.kind == "le":
            pop = range(min(bound, model.cap) + 1)
        elif f.kind == "lt":
            pop = range(min(bound, model.cap + 1))
        elif f.kind == "mem":
            pop = list(bound.items)
        else:
            raise ModelError(f"unknown bound kind {f.kind!r}")
        return _sweep(model, f, pop, universal, env)
    raise ModelError(f"cannot evaluate formula node {type(f).__name__}")


def _sweep(model, f, pop, universal, env) -> bool:
    name = f.var.name
    inner = dict(env)
    for v in pop:
        inner[name] = v
        res = _evf(model, f.body, inner)
        if universal and not res:
            return False
        if not universal and res:
            return True
    return universal


# -- model configuration files -------------------------------------------------

def parse_model_config(text: str) -> MiniModel:
    """Build a MiniModel from the line-based config format."""
    cap = omega = None
    budget = 200_000
    decls: list[tuple[str, str]] = []  # (kind-line, raw)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and ":" not in line:
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key == "cap":
                cap = int(val)
            elif key == "omega":
                omega = int(val)
            elif key == "budget":
                budget = int(val)
            else:
                raise ModelError(f"unknown setting {key!r}")
            continue
        if line.startswith("table ") or line.startswith("bind "):
            decls.append(line)
            continue
        raise ModelError(f"unrecognized model config line: {raw!r}")
    if cap is None or omega is None:
        raise ModelError("model config needs cap= and omega=")
    model = MiniModel(cap, omega, budget=budget)
    from .constructions import build_construction
    for line in decls:
        st = False
        body = line
        if body.endswith("[st]"):
            st = True
            body = body[:-4].strip()
        head, _, rest = body.partition(":")
        kind, _, name = head.strip().partition(" ")
        name = name.strip()
        if not name or not rest.strip():
            raise ModelError(f"malformed declaration: {line!r}")
        if kind == "table":
            entries = [int(x) for x in rest.split()]
            if any(e > cap or e < 0 for e in entries):
                raise ModelError(f"table {name!r} has entries outside "
                                 f"0..{cap}")
            value = table_fn(entries, model, name=name)
            ty = Arrow(N, N)
        else:
            parts = rest.split()
            cname, args = parts[0], parts[1:]
            ty, value = build_construction(cname, args, model)
            if isinstance(value, FnV) and value.name is None:
                value.name = name
        model.declare(name, ty, value, st, line=line)
    return model


def show_model_config(model: MiniModel) -> str:
    lines = [f"cap = {model.cap}", f"omega = {model.omega}",
             f"budget = {model.budget}"]
    lines.extend(model.decl_lines)
    return "\n".join(lines) + "\n"
