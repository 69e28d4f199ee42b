"""Wall times corrected for the speed of a shared host.

On a few cores of a shared host the same pure-Python code runs between
about 0.6 and 1.0 of its best speed, in phases of a fraction of a second
to minutes, so a raw wall time says as much about the neighbours as
about the program.  :class:`Clock` therefore times a fixed kernel (a
small stack machine, independent of rszoo) just before and just after
each timed region, and every ``PERIOD_S`` seconds inside it from a
``SIGALRM`` handler.  The kernel's time inside the region is taken out
of its wall time, and the rest is scaled by the kernel's mean speed
over the region:

    normalized = (wall - kernel time inside) * mean(REF_S / kernel pass)

which is the time the region would take on a host where one kernel pass
takes ``REF_S`` seconds.  A region that does twice the work reads twice
as long whatever the host's speed at the time.
"""
from __future__ import annotations

import signal
import statistics
import time

# Seconds of one kernel pass on the reference host; about its time on a
# 2-vCPU Xeon VM in a fast phase (Python 3.11).
REF_S = 0.0015
PERIOD_S = 0.05


def _program(size: int) -> list[tuple[str, object]]:
    """A fixed postfix program of loads, constants, arithmetic and
    binds, the same on every run."""
    ops, depth, k = [], 0, 7
    for _ in range(size):
        k = (k * 1103515245 + 12345) % 2 ** 31
        if depth < 2 or k % 5 == 0:
            ops.append(("load", "xyz"[k % 3]) if k % 2 else ("const", k % 89))
            depth += 1
        elif k % 7 == 0:
            ops.append(("bind", "xyz"[k % 3]))
        else:
            ops.append((("add", "mul", "pair")[k % 3], None))
            depth -= 1
    return ops


def _const(stack, env, arg):
    stack.append(arg)
    return env


def _load(stack, env, arg):
    stack.append(env[arg])
    return env


def _add(stack, env, _arg):
    b = stack.pop()
    stack.append((stack.pop() + b) % 97)
    return env


def _mul(stack, env, _arg):
    b = stack.pop()
    stack.append((stack.pop() * b) % 97)
    return env


def _pair(stack, env, _arg):
    b = stack.pop()
    a = stack.pop()
    stack.append(sum((a, b, len((a, b)))) % 97)
    return env


def _bind(stack, env, arg):
    return {**env, arg: stack[-1]}


_OPS = {"const": _const, "load": _load, "add": _add, "mul": _mul,
        "pair": _pair, "bind": _bind}
PROGRAM = [(_OPS[op], arg) for op, arg in _program(800)]
ROUNDS = 6


def kernel() -> int:
    """One kernel pass: the program run ROUNDS times.  Iterative, so it
    adds only two frames to whatever stack it interrupts."""
    total = 0
    for r in range(ROUNDS):
        stack: list[int] = []
        env = {"x": r, "y": 1, "z": 2}
        for op, arg in PROGRAM:
            env = op(stack, env, arg)
        total += stack[-1]
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def normalize(wall: float, inside: list[float], outside: list[float]) -> float:
    """Wall seconds of a region, less the kernel passes run inside it,
    scaled to the reference speed by the mean speed of all passes."""
    passes = outside + inside
    speed = statistics.fmean(REF_S / k for k in passes)
    return (wall - sum(inside)) * speed


class Clock:
    """Times regions in wall seconds and in normalized seconds.  Owns
    ``SIGALRM`` between construction and :meth:`close`."""

    def __init__(self):
        self._inside: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.kernel_s: list[float] = []     # every pass, for the report

    def _sample(self, _signum, _frame) -> None:
        self._inside.append(kernel_seconds())

    def timed(self, fn, *args):
        """``(fn(*args), wall seconds, normalized seconds)``."""
        before = kernel_seconds()
        self._inside = []
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
            wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        inside = self._inside
        after = kernel_seconds()
        self.kernel_s += [before, *inside, after]
        return result, wall, normalize(wall, inside, [before, after])

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
