"""A second statement of the model's semantics: a plain tree walker.

``rszoo.interp.model`` compiles each node once into closures over a
tuple frame, iterates literal ``rec`` steps inline, sweeps type-1
quantifiers by cell prefix, and keeps tables and runs in caches.  This
module states the same semantics again, as directly as it can:

- terms and formulas are evaluated by recursion on the node, in a dict
  environment that each binder copies;
- every constant is a curried function value, and every application
  applies one argument, so ``rec`` calls its step like any function;
- every quantifier enumerates its whole population up front;
- a ``run`` decodes its program and calls ``machine.run_program``.

Nothing is compiled and nothing is remembered between calls.  The
walker reuses the model's saturation (``sat``), enumeration,
fingerprints (``canon_key``), populations and declared objects; the
primitives are restated here.  ``tests/test_refeval.py`` runs both
evaluators on the same inputs in two fresh models and compares the
values, ``overflowed`` and ``flags``.
"""
from __future__ import annotations

import math

from rszoo.interp import FnV, ModelError, PairV, SeqV, zero_value
from rszoo.interp.machine import HaltsWith, decode_program, run_program
from rszoo.lang import (Abs, And, App, ApproxEq, Atom, BExists, BForall,
                        Const, Exists, ExistsSt, Forall, ForallSt, Implies,
                        Not, Or, St, Var, desugar_approx, infer_type, pure)

TYPE1 = pure(1)


def term(model, t, env: dict):
    """The value of term ``t`` in ``model`` under ``env``."""
    if isinstance(t, Var):
        if t.name not in env:
            raise ModelError(f"unbound variable {t.name!r} in evaluation")
        return env[t.name]
    if isinstance(t, Const):
        return constant(model, t)
    if isinstance(t, Abs):
        return FnV(lambda v: term(model, t.body, {**env, t.var.name: v}))
    if isinstance(t, App):
        fn = term(model, t.fn, env)
        arg = term(model, t.arg, env)
        if not isinstance(fn, FnV):
            raise ModelError(f"applying a non-function value {fn!r}")
        return fn.call(arg)
    raise ModelError(f"cannot evaluate term {t!r}")


def constant(model, c: Const):
    if c.name.isdigit():
        return model.sat(int(c.name))
    if c.name == "empty":
        return SeqV(())
    if c.name not in PRIMITIVES:
        raise ModelError(f"unknown constant {c.name!r}")
    arity, impl = PRIMITIVES[c.name]
    return curried(lambda *args: impl(model, c, *args), arity, ())


def curried(fn, arity: int, given: tuple) -> FnV:
    def call(v):
        args = given + (v,)
        return fn(*args) if len(args) == arity else curried(fn, arity, args)
    return FnV(call)


def unpair(n: int) -> tuple[int, int]:
    """Inverse of the Cantor pairing ``(a + b)(a + b + 1)/2 + b``."""
    s = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - s * (s + 1) // 2
    return s - b, b


def run(model, a, e, s):
    """``run(a, e, s)``: program ``e`` on input ``e`` against the table of
    ``a`` for ``s`` steps, output + 1 on a halt, else 0, saturated."""
    table = model.canon_key(TYPE1, a)
    res = run_program(decode_program(e),
                      lambda i: table[i] if i < len(table) else 0, e, s)
    return model.sat(res.output + 1 if isinstance(res, HaltsWith) else 0)


def least_zero(model, f):
    return next((i for i in range(model.cap + 1) if f.call(i) == 0), 0)


def append(model, s, v):
    if len(s.items) >= model.seq_limit:
        model.overflowed = True
        return s
    return SeqV(s.items + (v,))


def get(model, c, s, i):
    if i < len(s.items):
        return s.items[i]
    return zero_value(model, c.ty.dom.elem)


def rec(base, step, n):
    acc = base
    for i in range(n):
        acc = step.call(acc).call(i)
    return acc


# name -> (arity, implementation taking the model, the constant and
# every argument)
PRIMITIVES = {
    "succ": (1, lambda m, c, n: m.sat(n + 1)),
    "plus": (2, lambda m, c, a, b: m.sat(a + b)),
    "monus": (2, lambda m, c, a, b: max(a - b, 0)),
    "max": (2, lambda m, c, a, b: max(a, b)),
    "npair": (2, lambda m, c, a, b: m.sat((a + b) * (a + b + 1) // 2 + b)),
    "nunl": (1, lambda m, c, n: unpair(n)[0]),
    "nunr": (1, lambda m, c, n: unpair(n)[1]),
    "seqmax": (1, lambda m, c, s: max(s.items, default=0)),
    "initseg": (2, lambda m, c, f, n: SeqV(f.call(i) for i in range(n))),
    "run": (3, lambda m, c, a, e, s: run(m, a, e, s)),
    "muscan": (1, lambda m, c, f: least_zero(m, f)),
    "pair": (2, lambda m, c, a, b: PairV(a, b)),
    "fst": (1, lambda m, c, p: p.left),
    "snd": (1, lambda m, c, p: p.right),
    "append": (2, lambda m, c, s, v: append(m, s, v)),
    "len": (1, lambda m, c, s: m.sat(len(s.items))),
    "get": (2, get),
    "seqapp": (2, lambda m, c, f, x: f.call(x)),
    "rec": (3, lambda m, c, b, step, n: rec(b, step, n)),
}


def formula(model, f, env: dict) -> bool:
    """The truth of formula ``f`` in ``model`` under ``env``."""
    if isinstance(f, Atom):
        left, right = (term(model, a, env) for a in f.args)
        if f.rel == "in":
            return right.call(left) != 0
        if f.rel == "=":
            ty = infer_type(f.args[0])
            return model.canon_key(ty, left) == model.canon_key(ty, right)
        if f.rel == "<=":
            return left <= right
        if f.rel == "<":
            return left < right
        raise ModelError(f"unknown relation {f.rel!r}")
    if isinstance(f, ApproxEq):
        return formula(model, desugar_approx(f), env)
    if isinstance(f, St):
        return model.is_standard(infer_type(f.arg), term(model, f.arg, env))
    if isinstance(f, Not):
        return not formula(model, f.body, env)
    if isinstance(f, And):
        return formula(model, f.left, env) and formula(model, f.right, env)
    if isinstance(f, Or):
        return formula(model, f.left, env) or formula(model, f.right, env)
    if isinstance(f, Implies):
        return (not formula(model, f.left, env)
                or formula(model, f.right, env))
    if isinstance(f, (Forall, Exists, ForallSt, ExistsSt)):
        pop = model.population(f.var.ty, isinstance(f, (ForallSt, ExistsSt)))
        return over(model, f, env, pop, isinstance(f, (Forall, ForallSt)))
    if isinstance(f, (BForall, BExists)):
        bound = term(model, f.bound, env)
        if f.kind == "le":
            pop = range(min(bound, model.cap) + 1)
        elif f.kind == "lt":
            pop = range(min(bound, model.cap + 1))
        elif f.kind == "mem":
            pop = bound.items
        else:
            raise ModelError(f"unknown bound kind {f.kind!r}")
        return over(model, f, env, pop, isinstance(f, BForall))
    raise ModelError(f"cannot evaluate formula node {type(f).__name__}")


def over(model, f, env: dict, pop, universal: bool) -> bool:
    """The quantifier ``f`` over ``pop``, stopping at the first value
    that decides it."""
    truths = (formula(model, f.body, {**env, f.var.name: v}) for v in pop)
    return all(truths) if universal else any(truths)
