"""A second statement of the model's semantics: a plain tree walker.

``rszoo.interp.model`` compiles each node once into closures over a
tuple frame, iterates literal ``rec`` steps inline (once, for a step
that reads neither binder), sweeps type-1 quantifiers by cell prefix,
and keeps tables and runs in caches.  This
module states the same semantics again, as directly as it can:

- terms and formulas are evaluated by recursion on the node, in a dict
  environment that each binder copies;
- every constant is a curried function value, and every application
  applies one argument, so ``rec`` calls its step like any function;
- every quantifier enumerates its whole population up front;
- a ``run`` takes program number 0 as the member scan and decodes any
  other number, and calls ``machine.run_program`` (``phi``, with no
  memo).

Nothing is compiled and nothing is remembered between calls.  The
walker reuses the model's saturation (``sat``), enumeration,
fingerprints (``canon_key``), populations and declared objects; the
primitives are restated here.  ``tests/test_refeval.py`` runs both
evaluators on the same inputs in two fresh models and compares the
values, ``overflowed`` and ``flags``.

``candidates`` states ``extract.check_candidates`` again on top of the
walker: the same sweep with no memo.
"""
from __future__ import annotations

import itertools
import math

from rszoo.extract import _value_label
from rszoo.interp import FnV, ModelError
from rszoo.interp.machine import (SCAN_PROGRAM, HaltsWith, decode_program,
                                  run_program)
from rszoo.lang import (Abs, And, App, Atom, Const, Exists, ExistsSt, Forall,
                        ForallSt, Implies, Not, Or, Var, infer_type, pure)
from rszoo.translate import nf_blocks

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
    if c.name not in PRIMITIVES:
        raise ModelError(f"unknown constant {c.name!r}")
    arity, impl = PRIMITIVES[c.name]
    return curried(lambda *args: impl(model, *args), arity, ())


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


def phi(e: int, table: tuple, x: int, budget: int):
    """``machine.phi`` with no memo: program number ``e`` (0 is the
    scan) on input ``x`` against the oracle ``table``, whose cells past
    its end read 0, for at most ``budget`` steps."""
    return run_program(SCAN_PROGRAM if e == 0 else decode_program(e),
                       lambda i: table[i] if i < len(table) else 0, x, budget)


def run(model, a, e, s):
    """``run(a, e, s)``: program number ``e`` on input ``e`` against the
    table of ``a`` for ``s`` steps, output + 1 on a halt, else 0,
    saturated."""
    res = phi(e, model.canon_key(TYPE1, a), e, s)
    return model.sat(res.output + 1 if isinstance(res, HaltsWith) else 0)


def rec(base, step, n):
    acc = base
    for i in range(n):
        acc = step.call(acc).call(i)
    return acc


# name -> (arity, implementation taking the model and every argument)
PRIMITIVES = {
    "succ": (1, lambda m, n: m.sat(n + 1)),
    "monus": (2, lambda m, a, b: max(a - b, 0)),
    "max": (2, lambda m, a, b: max(a, b)),
    "nunl": (1, lambda m, n: unpair(n)[0]),
    "nunr": (1, lambda m, n: unpair(n)[1]),
    "run": (3, run),
    "rec": (3, lambda m, b, step, n: rec(b, step, n)),
}


def formula(model, f, env: dict) -> bool:
    """The truth of formula ``f`` in ``model`` under ``env``."""
    if isinstance(f, Atom):
        left, right = (term(model, a, env) for a in f.args)
        ty = infer_type(f.args[0])
        return model.canon_key(ty, left) == model.canon_key(ty, right)
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
    raise ModelError(f"cannot evaluate formula node {type(f).__name__}")


def over(model, f, env: dict, pop, universal: bool) -> bool:
    """The quantifier ``f`` over ``pop``, stopping at the first value
    that decides it."""
    truths = (formula(model, f.body, {**env, f.var.name: v}) for v in pop)
    return all(truths) if universal else any(truths)


def candidates(model, nf, rows, plans=None) -> tuple:
    """The fields of the ``CandidateReport`` that ``check_candidates``
    gives for the normal form nf, found table by table: at each
    assignment of the universals (in the order of ``itertools.product``,
    over every table where the plan is ``all``), each row's slot terms
    and then the matrix are evaluated, row by row, until one holds.  A
    row holds vacuously where the matrix is an implication whose
    antecedent is false."""
    universals, existentials, matrix = nf_blocks(nf)
    plans = plans or {}
    pools = [model.population(v.ty, plans.get(v.name, "st") == "st")
             for v in universals]
    model.overflowed = False
    checked, genuine, failures = 0, 0, []
    for combo in itertools.product(*pools):
        checked += 1
        env = {v.name: value for v, value in zip(universals, combo)}
        for row in rows:
            row_env = {**env, **{v.name: term(model, t, env)
                                 for v, t in zip(existentials, row)}}
            if formula(model, matrix, row_env):
                vacuous = (isinstance(matrix, Implies)
                           and not formula(model, matrix.left, row_env))
                genuine += not vacuous
                break
        else:
            failures.append(", ".join(
                f"{v.name}={_value_label(model, v.ty, value)}"
                for v, value in zip(universals, combo)))
    return (not failures, checked, tuple(failures[:5]),
            genuine == 0 and not failures, model.overflowed)
