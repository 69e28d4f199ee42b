"""Named constructions for populating models.

Model configurations declare objects either as literal tables or through
``bind NAME: construction args...`` lines; this module is the registry
those lines resolve against.  Each construction documents its side
conditions and raises :class:`SideConditionError` when they fail —
a bad binding should be loud, not silently degenerate.

The central pair is :func:`theta` / :func:`psi_theta`: the functional
that runs program ``e`` against an oracle on input ``e`` and returns
one more than the output (0 when the run does not halt).  Adding one
is what makes the result *diagonally non-recursive relative to the
oracle*: whenever the run halts, the functional's value differs from
the run's value.  ``psi_theta`` embeds this into a model as a type-1 →
type-1 object, saturating values at the cap; the dodge property then
holds as long as outputs stay below the cap, which is why standard
oracle tables in the shipped configurations keep their entries small.
"""
from __future__ import annotations

import functools

from ..lang.types import Arrow, N, Product, pure
from . import machine
from .model import FnV, MiniModel, ModelError, PairV, table_fn, tabulate


class SideConditionError(ModelError):
    """A construction's side condition failed."""


class NoZero(Exception):
    """Raised by mu_bruteforce when the function has no zero below the cap."""


# ---------------------------------------------------------------------------
# the dodging functional

def theta(oracle, budget: int, e: int) -> int:
    """Run program ``e`` on input ``e`` against ``oracle`` for at most
    ``budget`` steps; return output+1 on halt and 0 otherwise.

    Works over unbounded integers — saturation happens only when the
    value is embedded into a model table.
    """
    call = oracle.call if isinstance(oracle, FnV) else oracle
    key = oracle.table if isinstance(oracle, FnV) else None
    res = machine.phi(e, call, e, budget, oracle_key=key)
    if isinstance(res, machine.HaltsWith):
        return res.output + 1
    return 0


def psi_theta(model: MiniModel, budget: int | None = None) -> FnV:
    """The dodge functional as a model object of type 1 -> 1.

    For each oracle table Z it returns the table
    ``e |-> sat(theta(Z, budget, e))``; the default budget is the cap,
    matching the step bounds a plain quantifier can reach.
    """
    budget = model.cap if budget is None else budget
    memo: dict[tuple, FnV] = {}

    def outer(z):
        key = tabulate(model, z)
        if key not in memo:
            tab = tuple(model.sat(theta(z, budget, e))
                        for e in range(model.cap + 1))
            memo[key] = table_fn(tab, model)
        return memo[key]

    return FnV(outer, name="psi_theta")


# ---------------------------------------------------------------------------
# extensionality witnesses

def extensionality_search(model: MiniModel, psi: FnV, x: FnV, y: FnV,
                          k: int) -> int | None:
    """Least n <= cap such that "x,y agree below n -> psi(x)(k) = psi(y)(k)"
    holds, or None when no such n exists in the model.

    n = 0 works whenever the outputs already agree; otherwise the search
    looks for the first disagreement of the tables, which falsifies the
    premise.  None means psi's value at k separates x from y even though
    every expressible initial segment of the two tables is shared —
    within this model psi admits no modulus at (x, y, k).
    """
    tx, ty = tabulate(model, x), tabulate(model, y)
    outs_agree = psi.call(x).call(k) == psi.call(y).call(k)
    for n in range(model.cap + 1):
        if outs_agree or tx[:n] != ty[:n]:
            return n
    return None


def xi_search(model: MiniModel, psi: FnV) -> FnV:
    """Modulus-of-extensionality functional derived from psi by search.

    Value at (x, y, k) is the least n found by extensionality_search;
    an unfillable triple yields 0 and sets the ``xi_incomplete`` flag,
    which leaves the corresponding premise visibly false rather than
    papering over it.
    """
    def at(x):
        def at2(y, x=x):
            def at3(k, x=x, y=y):
                n = extensionality_search(model, psi, x, y, k)
                if n is None:
                    model.flags.add("xi_incomplete")
                    return 0
                return n
            return FnV(at3)
        return FnV(at2)

    return FnV(at, name="xi_search")


# ---------------------------------------------------------------------------
# searches

def mu_bruteforce(model: MiniModel, f: FnV) -> int:
    """Least x <= cap with f(x) = 0; raises NoZero when there is none.

    This is the desk-side search the toolkit's own reasoning may use
    freely; it is *not* a term of the language, so extracted terms can
    never smuggle it in.
    """
    for x in range(model.cap + 1):
        if f.call(x) == 0:
            return x
    raise NoZero(f"no zero below {model.cap}")


def bounds_pair(model: MiniModel, f: FnV) -> PairV:
    """Pair (least zero, greatest zero) of a table, 0s when none."""
    zeros = [x for x in range(model.cap + 1) if f.call(x) == 0]
    if zeros:
        return PairV(zeros[0], zeros[-1])
    return PairV(0, 0)


def mu_op(model: MiniModel) -> FnV:
    """The least-zero search as a declared type-2 functional: maps a
    table to its least zero, 0 when there is none."""
    def mu(f):
        for x in range(model.cap + 1):
            if f.call(x) == 0:
                return x
        return 0
    return FnV(mu)


# ---------------------------------------------------------------------------
# linear orders

def _marker(model: MiniModel, h: FnV) -> int | None:
    for i in range(model.cap + 1):
        if h.call(i) != 0:
            return i
    return None


def prec_order(model: MiniModel, h: FnV) -> FnV:
    """Linear order on {0..cap} steered by the table h.

    Let m0 be the least index where h is nonzero.  Elements up to m0
    come first, in numeric order; elements above m0 come *before* all
    of them, in reverse numeric order — so the order reads
    cap, cap-1, ..., m0+1, 0, 1, ..., m0.  When h is identically zero
    the order is plain <=.  The point: below any standard cut the order
    agrees with <= whenever m0 lies beyond that cut, while globally it
    descends through every element above the marker.
    """
    m0 = _marker(model, h)

    def le(i):
        def le2(j, i=i):
            if m0 is None:
                return 1 if i <= j else 0
            if i == j:
                return 1
            if i <= m0 and j <= m0:
                return 1 if i < j else 0
            if i > m0 and j > m0:
                return 1 if i > j else 0
            return 1 if (i > m0 and j <= m0) else 0
        return FnV(le2)

    return FnV(le, name="prec")


def lt0_order(model: MiniModel) -> FnV:
    """Plain numeric order as a reflexive comparison table."""
    def le(i):
        return FnV(lambda j, i=i: 1 if i <= j else 0)
    return FnV(le, name="lt0")


def meeh_g(model: MiniModel, marker: int) -> FnV:
    """One-marker steering table: nonzero exactly at ``marker``."""
    if not (0 <= marker <= model.cap):
        raise SideConditionError(f"marker {marker} outside 0..{model.cap}")
    return table_fn([1 if i == marker else 0
                     for i in range(model.cap + 1)], model, name="g")


def order_axioms_hold(model: MiniModel, x: FnV) -> bool:
    """Reflexive + antisymmetric + transitive + total on {0..cap}."""
    r = range(model.cap + 1)
    for i in r:
        if x.call(i).call(i) == 0:
            return False
        for j in r:
            ij = x.call(i).call(j) != 0
            ji = x.call(j).call(i) != 0
            if not (ij or ji):
                return False
            if ij and ji and i != j:
                return False
            if not ij:
                continue
            for k in r:
                if x.call(j).call(k) != 0 and x.call(i).call(k) == 0:
                    return False
    return True


def uads_selector(model: MiniModel, x: FnV) -> tuple[str, tuple[int, ...]]:
    """Decide whether a linear order is enumerated bottom-up or top-down
    from its standard part.

    Sorts the universe by the order, then counts standard elements in
    the first omega positions (ascending score) and in the first omega
    positions from the top (descending score).  A bottom segment visible
    to standard elements means the ascending enumeration is the usable
    one; a standard-visible top segment means the descending one.  The
    verdict depends only on where the standard cut falls in the order —
    two orders agreeing below omega can still split.
    """
    if not order_axioms_hold(model, x):
        raise SideConditionError("selector needs a linear order")

    def cmp(a, b):
        if a == b:
            return 0
        return -1 if x.call(a).call(b) != 0 else 1

    elems = sorted(range(model.cap + 1), key=functools.cmp_to_key(cmp))
    asc = sum(1 for v in elems[:model.omega] if v < model.omega)
    desc = sum(1 for v in elems[::-1][:model.omega] if v < model.omega)
    if asc >= desc:
        return ("ASC", tuple(elems))
    return ("DESC", tuple(reversed(elems)))


# ---------------------------------------------------------------------------
# families, colourings, markers

def cohesive_Rprime(model: MiniModel, r: FnV, h: FnV, mode: str) -> FnV:
    """Derived set family for testing cohesion-style premises.

    mode "cut": member i of the family is r's member i restricted to
    points >= i (tail restriction).  mode "join": member i is r's
    member h(i) (reindexing by h).
    """
    if mode == "cut":
        def fam(i):
            def member(v, i=i):
                return 1 if v >= i and r.call(i).call(v) != 0 else 0
            return FnV(member)
    elif mode == "join":
        def fam(i):
            return r.call(h.call(i))
    else:
        raise SideConditionError(f"unknown mode {mode!r}")
    return FnV(fam, name=f"Rprime_{mode}")


def point_at_infinity_Y0(model: MiniModel, m0: int) -> FnV:
    """Constant table naming a limit stage: every entry is m0.

    Side condition: m0 must be nonstandard.  A standard m0 would name
    an ordinary point, and the constructions built on top of this one
    rely on the stage lying beyond every standard index.
    """
    if m0 < model.omega:
        raise SideConditionError(
            f"limit stage {m0} is standard (omega = {model.omega})")
    if m0 > model.cap:
        raise SideConditionError(f"limit stage {m0} outside the universe")
    return table_fn([m0] * (model.cap + 1), model, name="Y0")


def colouring_d0(model: MiniModel, m0: int) -> FnV:
    """Pair colouring by sides of the cut at m0: colour 1 when both
    points sit on the same side, 0 otherwise.  Monochromatic on every
    set contained in one side — in particular on the standard part
    whenever m0 is nonstandard."""
    if not (0 <= m0 <= model.cap):
        raise SideConditionError(f"cut {m0} outside 0..{model.cap}")

    def d(i):
        def d2(j, i=i):
            return 1 if (i < m0) == (j < m0) else 0
        return FnV(d2)

    return FnV(d, name="d0")


def udnr_counterexample_D(model: MiniModel, h: FnV, e1: int,
                          payload: int) -> FnV:
    """Counterexample oracle: a single marker cell above a nonstandard
    stage.

    The table is zero except at index m0 + e1 (m0 = least nonzero index
    of h), which holds ``payload``.  The scanning program started at e1
    walks upward, finds the marker after m0 skipped cells, and outputs
    payload - 1 — but only with a nonstandard step budget, which is the
    point of the construction.  Side conditions: h must be a declared
    standard object and m0 must be nonstandard.  When the marker index
    lands beyond the cap it is pinned to the cap and the model is
    flagged ``marker_truncated``.
    """
    if not model.is_standard(pure(1), h):
        raise SideConditionError("steering table must be standard")
    m0 = _marker(model, h)
    if m0 is None or m0 < model.omega:
        raise SideConditionError("marker stage must be nonstandard")
    if payload < 1:
        raise SideConditionError("payload must be positive")
    idx = m0 + e1
    if idx > model.cap:
        idx = model.cap
        model.flags.add("marker_truncated")
    return table_fn([model.sat(payload) if i == idx else 0
                     for i in range(model.cap + 1)], model, name="D")


# ---------------------------------------------------------------------------
# registry

_T0 = N
_T1 = pure(1)
_ORDER = Arrow(N, Arrow(N, N))
_FAMILY = Arrow(N, Arrow(N, N))


def build_construction(name: str, args: list[str], model: MiniModel):
    """Resolve a ``bind`` line: returns (type, value).

    Arguments are integer literals, mode words (cut/join), or names of
    previously declared objects.
    """
    def obj(a):
        if a.isdigit():
            return int(a)
        if a in ("cut", "join"):
            return a
        return model.object(a)

    vals = [obj(a) for a in args]
    try:
        if name == "psi_theta":
            return Arrow(_T1, _T1), psi_theta(model, *vals)
        if name == "xi_search":
            return Arrow(_T1, Arrow(_T1, Arrow(N, N))), xi_search(model, *vals)
        if name == "lt0_order":
            return _ORDER, lt0_order(model, *vals)
        if name == "prec_order":
            return _ORDER, prec_order(model, *vals)
        if name == "meeh_g":
            return _T1, meeh_g(model, *vals)
        if name == "cohesive_Rprime":
            return _FAMILY, cohesive_Rprime(model, *vals)
        if name == "point_at_infinity_Y0":
            return _T1, point_at_infinity_Y0(model, *vals)
        if name == "colouring_d0":
            return _ORDER, colouring_d0(model, *vals)
        if name == "udnr_counterexample_D":
            return _T1, udnr_counterexample_D(model, *vals)
        if name == "bounds_pair":
            return Product(N, N), bounds_pair(model, *vals)
        if name == "mu_bruteforce":
            return N, mu_bruteforce(model, *vals)
        if name == "mu_op":
            return Arrow(_T1, N), mu_op(model)
    except TypeError as exc:
        raise ModelError(f"bad arguments for {name}: {exc}") from None
    raise ModelError(f"unknown construction {name!r}")
