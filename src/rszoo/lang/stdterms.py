"""Closed library terms built from the primitive constants.

The terms are written with the primitives directly: a conditional is
one ``rec`` step and a comparison is a ``monus``, so that a term is
small to print and cheap to evaluate.
"""
from __future__ import annotations

from .terms import MONUS, SUCC, App, Term, Var, app, lam, num, rec_c
from .types import N, pure


def _cond(c: Term, a: Term, b: Term) -> Term:
    """``a`` when ``c`` is 0, else ``b``: ``rec[0](a, \\q j. b, c)``.
    ``b`` must not mention ``q`` or ``j``, which the step binds."""
    return app(rec_c(N), a, lam(Var("q", N), Var("j", N), b), c)


def leastz_t() -> Term:
    """leastz f y = the least i <= y with f(i) = 0, else 0: the explicit
    counterpart of the model's least-zero scanner.

    One bounded recursion ``r`` finds the least zero at or below ``y``,
    else ``y + 1``, and is bound once.  Where ``y`` is the model's cap,
    ``y + 1`` saturates to ``y``, so the result is ``r`` only when
    ``r <= y`` and ``f(r) = 0``, and 0 otherwise.
    """
    f, y, r = Var("f", pure(1)), Var("y", N), Var("r", N)
    p, i = Var("p", N), Var("i", N)
    si = App(SUCC, i)
    # step p i, with p the least zero up to i, else i + 1
    step = lam(p, i, _cond(app(MONUS, p, i), p,
                           _cond(App(f, si), si, App(SUCC, si))))
    search = app(rec_c(N), _cond(App(f, num(0)), num(0), num(1)), step, y)
    pick = _cond(app(MONUS, r, y), _cond(App(f, r), r, num(0)), num(0))
    return lam(f, y, App(lam(r, pick), search))
