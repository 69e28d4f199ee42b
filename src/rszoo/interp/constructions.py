"""Named constructions for populating models.

Model configurations declare objects either as literal tables or through
``bind NAME: construction args...`` lines; this module is the registry
those lines resolve against.  It holds the three constructions the
shipped corpus binds: the dodge functional ``psi_theta``, its
extensionality modulus ``xi_search`` and the least-zero search ``mu_op``.

The dodge functional ``psi_theta`` embeds :func:`machine.theta` into
a model as a type-1 → type-1 object: for each oracle table it tabulates
the bounded diagonal run (program ``e`` on input ``e``, one more than
the output, 0 when the run does not halt), saturating values at the
cap.  Adding one is what makes the result *diagonally non-recursive
relative to the oracle*: whenever the run halts, the functional's value
differs from the run's value.  The dodge property holds as long as
outputs stay below the cap, which is why standard oracle tables in the
shipped configurations keep their entries small.
"""
from __future__ import annotations

from ..lang.types import Arrow, N, pure
from .machine import theta
from .model import FnV, MiniModel, ModelError, table_fn, tabulate


# ---------------------------------------------------------------------------
# the dodging functional

def psi_theta(model: MiniModel) -> FnV:
    """The dodge functional as a model object of type 1 -> 1.

    For each oracle table Z it returns the table
    ``e |-> sat(theta(Z, cap, e))``: the step budget is the cap,
    matching the step bounds a plain quantifier can reach.  The memo
    keeps, with each table, whether building it saturated, so every
    call on that oracle sets ``model.overflowed``, not only the first.
    """
    memo: dict[tuple, tuple[FnV, bool]] = {}

    def outer(z):
        key = tabulate(model, z)
        if key not in memo:
            runs = [theta(key, model.cap, e) for e in range(model.cap + 1)]
            memo[key] = (table_fn([min(r, model.cap) for r in runs], model),
                         max(runs) > model.cap)
        value, saturated = memo[key]
        if saturated:
            model.overflowed = True
        return value

    return FnV(outer, name="psi_theta")


# ---------------------------------------------------------------------------
# extensionality witnesses

def extensionality_search(model: MiniModel, psi: FnV, x: FnV, y: FnV,
                          k: int) -> int | None:
    """Least n <= cap such that "x, y agree below n -> psi(x), psi(y)
    agree below k" holds, or None when no such n exists in the model:
    the modulus that the normal form's clause ``initseg(X, Xi(X, Y, k))
    = initseg(Y, Xi(X, Y, k)) -> initseg(Psi(X), k) = initseg(Psi(Y),
    k)`` asks for.

    n = 0 works whenever the outputs already agree below k; otherwise
    the search looks for the first disagreement of the tables, which
    falsifies the premise.  None means the tables agree below the cap
    and differ only at cell cap, which no initial segment the model can
    express reaches.
    """
    tx, ty = tabulate(model, x), tabulate(model, y)
    outs_agree = (tabulate(model, psi.call(x))[:k]
                  == tabulate(model, psi.call(y))[:k])
    for n in range(model.cap + 1):
        if outs_agree or tx[:n] != ty[:n]:
            return n
    return None


def xi_search(model: MiniModel, psi: FnV) -> FnV:
    """Modulus-of-extensionality functional derived from psi by search.

    Value at (x, y, k) is the least n found by extensionality_search.
    An unfillable triple needs agreement on all cap + 1 cells, a number
    the model cannot hold, so it answers cap + 1 saturated: the cap,
    with ``overflowed`` set as for any number past the cap, and the
    ``xi_incomplete`` flag.  Answering 0 instead would state that no
    agreement is needed, and a term reading that value would carry no
    sign of it.
    """
    def at(x):
        def at2(y, x=x):
            def at3(k, x=x, y=y):
                n = extensionality_search(model, psi, x, y, k)
                if n is None:
                    model.flags.add("xi_incomplete")
                    return model.sat(model.cap + 1)
                return n
            return FnV(at3)
        return FnV(at2)

    return FnV(at, name="xi_search")


# ---------------------------------------------------------------------------
# searches

def mu_op(model: MiniModel) -> FnV:
    """The least-zero search as a declared type-2 functional: maps a
    table to its least zero, 0 when there is none."""
    def least_zero(f):
        for i in range(model.cap + 1):
            if f.call(i) == 0:
                return i
        return 0
    return FnV(least_zero)


# ---------------------------------------------------------------------------
# registry

_T1 = pure(1)


def build_construction(name: str, args: list[str], model: MiniModel):
    """Resolve a ``bind`` line: returns (type, value).

    Arguments are names of previously declared objects.
    """
    vals = [model.object(a) for a in args]
    try:
        if name == "psi_theta":
            return Arrow(_T1, _T1), psi_theta(model, *vals)
        if name == "xi_search":
            return Arrow(_T1, Arrow(_T1, Arrow(N, N))), xi_search(model, *vals)
        if name == "mu_op":
            return Arrow(_T1, N), mu_op(model, *vals)
    except TypeError as exc:
        raise ModelError(f"bad arguments for {name}: {exc}") from None
    raise ModelError(f"unknown construction {name!r}")
