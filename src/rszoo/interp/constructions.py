"""Model configurations, and the named constructions they bind.

A configuration sets ``cap`` and ``omega`` (see :class:`MiniModel`), and
declares the model's objects, one a line::

    cap = 4
    omega = 2
    table Z0: 0 1 0 0 0 [st]      # a type-1 object by its value table
    bind Psi0: psi_theta [st]     # an object a construction builds

A setting is ``NAME = NUMBER``; a declaration is ``table NAME: NUMBER*
[st]?`` or ``bind NAME: CONSTRUCTION NAME* [st]?``, whose arguments are
earlier declared objects, and ``[st]`` marks its object standard.  The
language's tokenizer reads the text, so comments, names and numbers are
those of formulas.  A faulty line is a :class:`ModelError` naming it.
The shipped corpus binds three constructions: the dodge functional
``psi_theta``, its extensionality modulus ``xi_search`` and the
least-zero search ``mu_op``.

The dodge functional ``psi_theta`` embeds :func:`machine.theta` into
a model as a type-1 → type-1 object: for each oracle table it tabulates
the bounded diagonal run (program number ``e`` on input ``e``, one more
than the output, 0 when the run does not halt), saturating values at
the cap; program 0 is the member scan (``machine.SCAN_PROGRAM``).
Adding one is what makes the result *diagonally non-recursive relative
to the oracle*: whenever the run halts, the functional's value differs
from the run's value.  The dodge property holds as long as outputs stay
below the cap, which is why standard oracle tables in the shipped
configurations keep their entries small.
"""
from __future__ import annotations

import itertools

from ..lang.parser import ParseError, Parser, Token, tokenize
from ..lang.types import Arrow, N, pure
from .machine import theta
from .model import FnV, MiniModel, ModelError, table_fn, tabulate


# ---------------------------------------------------------------------------
# the dodging functional

def psi_theta(model: MiniModel) -> FnV:
    """The dodge functional as a model object of type 1 -> 1.

    For each oracle table Z it returns the table
    ``e |-> sat(theta(Z, 4 * (cap + 1), e))``: the member scan, program
    0, spends 4 steps a cell, so it reaches a mark at cell cap within
    the step budget, which is above every bound ``s <= cap`` that
    ``run(Z, e, s)`` can be given.  The memo
    keeps, with each table, whether building it saturated, so every
    call on that oracle sets ``model.overflowed``, not only the first.
    """
    memo: dict[tuple, tuple[FnV, bool]] = {}
    budget = 4 * (model.cap + 1)

    def outer(z):
        key = tabulate(model, z)
        if key not in memo:
            runs = [theta(key, budget, e) for e in range(model.cap + 1)]
            memo[key] = (table_fn([min(r, model.cap) for r in runs], model),
                         max(runs) > model.cap)
        value, saturated = memo[key]
        if saturated:
            model.overflowed = True
        return value

    return FnV(outer)


# ---------------------------------------------------------------------------
# extensionality witnesses

def extensionality_search(model: MiniModel, psi: FnV, x: FnV, y: FnV,
                          k: int) -> int | None:
    """Least n <= cap such that "x, y agree below n -> psi(x), psi(y)
    agree below k" holds, or None when no such n exists in the model:
    the modulus that the normal form's clause ``((forall i:0)
    monus(Xi(X, Y, k), i) = 0 \\/ X(i) = Y(i)) -> (forall i:0) monus(k,
    i) = 0 \\/ Psi(X, i) = Psi(Y, i)`` asks for.

    n = 0 works whenever the outputs already agree below k; otherwise
    the search looks for the first disagreement of the tables, which
    falsifies the premise.  None means the tables agree below the cap
    and differ only at cell cap, which no agreement below a number the
    model can hold reaches.
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

    return FnV(at)


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
    """Resolve a ``bind`` line, whose arguments name earlier declared
    objects: returns (type, value)."""
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


# ---------------------------------------------------------------------------
# model configuration files

def parse_model_config(text: str) -> MiniModel:
    """Build a MiniModel from a configuration (see the module docstring)."""
    settings: dict[str, int] = {}
    lines: dict[str, int] = {}      # the line of each setting
    decls = []      # (line, kind, name, words, st)
    try:
        for p in _lines(text):
            word = p.next().text
            if word in ("table", "bind") and not p.at_sym("="):
                name = p.bound_name(p.expecting("a name"))
                p.expect_sym(":")
                if word == "bind" and p.peek().kind != "ident":
                    p.expected("a name")
                words = []
                while p.peek().kind != "eof" and not p.at_sym("["):
                    words.append(p.next().text)
                st = p.take("[")
                if st and not (p.take("st") and p.take("]")):
                    p.expected("'[st]'")
                decls.append((p.toks[0].line, word, name, words, st))
            else:
                if word not in ("cap", "omega"):
                    p.fail(f"unknown setting {word!r}")
                if word in settings:
                    p.fail(f"repeated setting {word!r}")
                p.expect_sym("=")
                if p.peek().kind != "num":
                    p.fail(f"{word} needs a number, got {p.peek().text!r}")
                settings[word] = p.number()
                lines[word] = p.toks[0].line
            if p.peek().kind != "eof":
                p.expected("end of line")
    except ParseError as exc:
        raise ModelError(f"line {exc.line}: {exc.msg}") from None
    if "cap" not in settings or "omega" not in settings:
        raise ModelError("model config needs cap= and omega=")
    try:
        model = MiniModel(**settings)
    except ModelError as exc:     # its message starts with the setting
        line = lines[str(exc).split()[0]]
        raise ModelError(f"line {line}: {exc}") from None
    for line, kind, name, words, st in decls:
        try:
            if kind == "table":
                if not all(w.isdecimal() for w in words):
                    raise ModelError("entries must be numbers: "
                                     f"{' '.join(words)!r}")
                if any(int(w) > model.cap for w in words):
                    raise ModelError(f"entries outside 0..{model.cap}")
                ty, value = _T1, table_fn(map(int, words), model)
            else:
                ty, value = build_construction(words[0], words[1:], model)
            model.declare(name, ty, value, st)
        except ModelError as exc:
            raise ModelError(f"line {line}: {kind} {name!r}: {exc}") from None
    return model


def _lines(text: str):
    """A Parser for each line of text that holds a token: over the
    line's tokens, then an "eof" token where they end."""
    for n, line in itertools.groupby(tokenize(text)[:-1], lambda t: t.line):
        toks = list(line)
        toks.append(Token("eof", "", n, toks[-1].col + len(toks[-1].text)))
        yield Parser(toks, 0, {})
