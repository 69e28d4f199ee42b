"""Closed library terms built from the primitive constants.

Everything here reduces to rec/succ/cond-style primitive recursion, so
the evaluator core only has to know the primitive constants.  Naming:
COND selects its second argument when the scrutinee is 0, IFPOS its
second argument when the scrutinee is positive.
"""
from __future__ import annotations

from .terms import (App, SUCC, Term, Var, app, append_c, empty_c, get_c, lam,
                    len_c, num, rec_c)
from .types import Arrow, FiniteType, N, Seq


def _v(name: str, ty: FiniteType = N) -> Var:
    return Var(name, ty)


def _rec0(base: Term, stepfn: Term, n: Term) -> Term:
    return app(rec_c(N), base, stepfn, n)


def pred_t() -> Term:
    n, p, i = _v("n"), _v("p"), _v("i")
    return lam(n, _rec0(num(0), lam(p, i, i), n))


def monus_t() -> Term:
    a, b, p, i = _v("a"), _v("b"), _v("p"), _v("i")
    return lam(a, b, _rec0(a, lam(p, i, App(pred_t(), p)), b))


def cond_t() -> Term:
    """cond c a b = a if c = 0 else b."""
    c, a, b, p, i = _v("c"), _v("a"), _v("b"), _v("p"), _v("i")
    return lam(c, a, b, _rec0(a, lam(p, i, b), c))


def ifpos_t() -> Term:
    """ifpos c x y = x if c > 0 else y."""
    c, x, y = _v("c"), _v("x"), _v("y")
    return lam(c, x, y, app(cond_t(), c, y, x))


def iszero_t() -> Term:
    n = _v("n")
    return lam(n, app(cond_t(), n, num(1), num(0)))


def leq_t() -> Term:
    a, b = _v("a"), _v("b")
    return lam(a, b, App(iszero_t(), app(monus_t(), a, b)))


def bmin_t() -> Term:
    """bmin f n = least i <= n with f(i) = 0, else n + 1."""
    f, n, p, i = _v("f", Arrow(N, N)), _v("n"), _v("p"), _v("i")
    base = app(ifpos_t(), App(iszero_t(), App(f, num(0))), num(0), num(1))
    found = app(ifpos_t(), App(iszero_t(), App(f, App(SUCC, i))),
                App(SUCC, i), App(SUCC, App(SUCC, i)))
    step = lam(p, i, app(ifpos_t(), app(leq_t(), p, i), p, found))
    return lam(f, n, _rec0(base, step, n))


def seqmap_t(a: FiniteType, b: FiniteType) -> Term:
    g = Var("g", Arrow(a, b))
    s = Var("s", Seq(a))
    acc = Var("acc", Seq(b))
    i = _v("i")
    step = lam(acc, i, app(append_c(b), acc, App(g, app(get_c(a), s, i))))
    return lam(g, s, app(rec_c(Seq(b)), empty_c(b), step, App(len_c(a), s)))
