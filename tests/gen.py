"""Seeded random generators for property tests.

Everything draws from a caller-supplied random.Random so test runs are
reproducible; SEED is the suite-wide default.
"""
from __future__ import annotations

import random

from rszoo.lang import (INITSEG, RUN, Abs, And, Atom, Exists, Forall,
                        Formula, Implies, Not, Or, Term, Var, app, fresh_name,
                        free_vars_f, lam, num, rec_c)
from rszoo.lang import Arrow, FiniteType, N, Seq, pure
from rszoo.lang.terms import MAX2, MONUS, SUCC

SEED = 20260815

#: the only sequence type with closed terms: ``initseg(h, n)``
SEQ0 = Seq(N)


def plus(a: Term, b: Term) -> Term:
    """``a + b``, saturating at the cap: ``b`` successors of ``a``,
    ``rec[0](a, \\m:0. \\j:0. succ(m), b)``."""
    m = Var("m", N)
    return app(rec_c(N), a, lam(m, Var("j", N), app(SUCC, m)), b)


#: the 2-ary numeric operations the generators draw from
BINARY = (plus, lambda a, b: app(MONUS, a, b), lambda a, b: app(MAX2, a, b))


def default_term(ty: FiniteType) -> Term:
    """A closed inhabitant of 0, of an arrow type into one, and of 0*
    (the empty sequence ``initseg(\\_d:0. 0, 0)``)."""
    if ty == N:
        return num(0)
    if isinstance(ty, Arrow):
        return Abs(Var("_d", ty.dom), default_term(ty.cod))
    if ty == SEQ0:
        return app(INITSEG, default_term(pure(1)), num(0))
    raise ValueError(f"no default for {ty!r}")


class Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self._n = 0

    def name(self, base: str = "v") -> str:
        self._n += 1
        return f"{base}{self._n}"

    # -- types -------------------------------------------------------------

    def type(self, depth: int = 2) -> FiniteType:
        r = self.rng.random()
        if depth <= 0 or r < 0.55:
            return N
        if r < 0.85:
            return Arrow(self.type(depth - 1), self.type(depth - 1))
        return SEQ0

    def small_type(self) -> FiniteType:
        return self.rng.choice([N, N, N, pure(1), SEQ0])

    # -- terms ---------------------------------------------------------------

    def term(self, ty: FiniteType, env: dict[str, FiniteType],
             depth: int = 3) -> Term:
        candidates = [n for n, t in env.items() if t == ty]
        r = self.rng.random()
        if candidates and (depth <= 0 or r < 0.4):
            return Var(self.rng.choice(candidates), ty)
        if depth <= 0:
            return default_term(ty)
        if ty == N:
            return self._num_term(env, depth)
        if isinstance(ty, Arrow):
            x = Var(fresh_name("x", set(env)), ty.dom)
            body = self.term(ty.cod, {**env, x.name: x.ty}, depth - 1)
            return Abs(x, body)
        if ty == SEQ0:
            return app(INITSEG, self.term(pure(1), env, depth - 1),
                       self.term(N, env, depth - 1))
        return default_term(ty)

    def _num_term(self, env: dict[str, FiniteType], depth: int) -> Term:
        r = self.rng.random()
        if r < 0.3:
            return num(self.rng.randrange(0, 4))
        if r < 0.45:
            return app(SUCC, self.term(N, env, depth - 1))
        if r < 0.6:
            return self.rng.choice(BINARY)(self.term(N, env, depth - 1),
                                           self.term(N, env, depth - 1))
        if r < 0.75:
            # apply a function variable if one is around
            fns = [(n, t) for n, t in env.items()
                   if isinstance(t, Arrow) and t.cod == N]
            if fns:
                n, t = self.rng.choice(fns)
                return app(Var(n, t), self.term(t.dom, env, depth - 1))
        return num(self.rng.randrange(0, 4))

    def rec_term(self, ty: FiniteType, env: dict[str, FiniteType],
                 depth: int = 2, reads: tuple | None = None) -> Term:
        """``rec[ty](base, \\p. \\i. body, stages)`` at type 0 or 1,
        with a literal step whose body reads the binders in ``reads``
        (``"p"``, ``"i"``; drawn when None) and, often, names of ``env``.
        A binder may be named like a name of ``env``, which it shadows
        in the body; the body may bind ``p``'s name again in a redex of
        one to four arguments; ``stages`` is often 0.  No other
        generator calls this, so their seeded draws do not move."""
        rng = self.rng
        if reads is None:
            reads = rng.choice([(), (), ("p",), ("i",), ("p", "i")])
        p = rng.choice([*env]) if env and rng.random() < 0.3 else "p"
        others = [n for n in env if n != p]
        i = rng.choice(others) if others and rng.random() < 0.3 else "i"
        outer = {n: t for n, t in env.items() if n not in (p, i)}
        fns = [n for n, t in outer.items() if t == pure(1)]
        if ty == N:
            x, p_read = None, Var(p, N)
        else:
            x = fresh_name("x", {*env, p, i})
            outer[x] = N
            p_read = app(Var(p, ty), Var(x, N))
        if fns and rng.random() < 0.5:
            parts = [app(Var(rng.choice(fns), pure(1)),
                         self.term(N, outer, depth - 1))]
        else:
            parts = [self.term(N, outer, depth)]
        if "p" in reads:
            parts.append(p_read)
        if "i" in reads:
            parts.append(Var(i, N))
        rng.shuffle(parts)
        body = parts[0]
        for part in parts[1:]:
            body = rng.choice(BINARY)(body, part)
        if rng.random() < 0.3:
            body = app(SUCC, body)
        if rng.random() < 0.3:
            body = self._rebind(p, body, outer, depth)
        if x is not None:
            body = Abs(Var(x, N), body)
        step = Abs(Var(p, ty), Abs(Var(i, N), body))
        stages = (num(0) if rng.random() < 0.3
                  else self.term(N, env, depth - 1))
        return app(rec_c(ty), self.term(ty, env, depth - 1), step, stages)

    def _rebind(self, name: str, arg: Term, env: dict[str, FiniteType],
                depth: int) -> Term:
        """``(\\name. \\y2 ... yk. e)(arg, a2, ..., ak)`` for k in 1..4,
        where ``e`` reads the new ``name`` and the ``y``s."""
        ys = [Var(name, N)]
        taken = {*env, name}
        for _ in range(self.rng.randrange(4)):
            ys.append(Var(fresh_name("y", taken), N))
        e = self.term(N, env, depth - 1)
        for y in ys:
            e = self.rng.choice(BINARY)(y, e)
        fn = e
        for y in reversed(ys):
            fn = Abs(y, fn)
        return app(fn, arg, *(self.term(N, env, depth - 1) for _ in ys[1:]))

    # -- let lambdas and their arguments -------------------------------------

    #: how a let body reads a binder: not at all, once in a strict
    #: position, twice, once under a lambda, once in a ``rec`` step
    SHAPES = ("unused", "once", "twice", "lambda", "rec")

    def let_lambda(self, names: list[str]) -> tuple[Term, list[str]]:
        """A closed ``\\x1 ... xk. body`` at type 0 for k in 1..3, each
        binder of type 0 or 1 and read by the body in one of ``SHAPES``
        (the second result, per binder).  A binder may take a name of
        ``names``; a type-1 binder is read applied, ``x(t)``; the lambda
        and ``rec`` shapes bind ``z``, or ``p`` and ``i``, renamed where
        the binder read has that name.  No other generator calls this,
        so their seeded draws do not move."""
        rng = self.rng
        binders: list[Var] = []
        for _ in range(rng.randrange(1, 4)):
            name = rng.choice(["x", "y", "g", *names])
            binders.append(Var(name, rng.choice([N, N, pure(1)])))
        outer: dict[str, FiniteType] = {}
        shapes = [rng.choice(self.SHAPES) for _ in binders]
        parts = [self.term(N, outer, 2)]
        for k, (v, shape) in enumerate(zip(binders, shapes)):
            if any(w.name == v.name for w in binders[k + 1:]):
                shapes[k] = "unused"    # the inner binder of its name
                continue
            if shape == "once":
                parts.append(self._read(v, outer))
            elif shape == "twice":
                parts.append(plus(self._read(v, outer), self._read(v, outer)))
            elif shape == "lambda":
                # a run tabulates its oracle, reading v at every cell
                z = Var(fresh_name("z", {v.name}), N)
                parts.append(app(RUN, Abs(z, plus(self._read(v, outer), z)),
                                 self.term(N, outer, 1),
                                 self.term(N, outer, 1)))
            elif shape == "rec":
                p = Var(fresh_name("p", {v.name}), N)
                i = Var(fresh_name("i", {v.name}), N)
                parts.append(app(rec_c(N), self.term(N, outer, 1),
                                 lam(p, i, app(MAX2, self._read(v, outer), p)),
                                 self.term(N, outer, 1)))
        rng.shuffle(parts)
        body = parts[0]
        for part in parts[1:]:
            body = rng.choice(BINARY)(body, part)
        return lam(*binders, body), shapes

    def _read(self, v: Var, env: dict[str, FiniteType]) -> Term:
        """A read of v at type 0: v itself, or v applied."""
        if v.ty == N:
            return v
        return app(v, self.term(N, env, 1))

    def let_argument(self, ty: FiniteType, env: dict[str, FiniteType],
                     cap: int, flagging: str) -> tuple[Term, str]:
        """An argument of type ty (0 or 1) and its kind: ``"var"``,
        ``"lambda"``, ``"saturating"`` (a numeral past ``cap``),
        ``"flagging"`` (an application of the type-1 name
        ``flagging``, whose model object adds a flag) or ``"other"``."""
        rng = self.rng
        kind = rng.choice(["var", "other", "lambda" if ty != N else
                           rng.choice(["saturating", "flagging"])])
        if kind == "var":
            return Var(rng.choice([n for n, t in env.items() if t == ty]),
                       ty), kind
        if kind == "lambda":
            x = Var(fresh_name("x", set(env)), N)
            return Abs(x, self.term(N, {**env, x.name: N}, 2)), kind
        if kind == "saturating":
            return num(rng.choice([cap + 1, cap + 2, 4718456])), kind
        if kind == "flagging":
            return app(Var(flagging, pure(1)), self.term(N, env, 1)), kind
        if ty == N:
            return self.term(N, env, 2), kind
        return app(MONUS, self.term(N, env, 1)), kind    # not a lambda

    # -- internal formulas ---------------------------------------------------

    def internal_formula(self, env: dict[str, FiniteType],
                         depth: int = 6) -> Formula:
        r = self.rng.random()
        if depth <= 0 or r < 0.35:
            return self._atom(env, depth)
        r = self.rng.random()
        if r < 0.2:
            return Not(self.internal_formula(env, depth - 1))
        if r < 0.4:
            cls = self.rng.choice([And, Or, Implies])
            return cls(self.internal_formula(env, depth - 1),
                       self.internal_formula(env, depth - 1))
        if r < 0.7:
            v = Var(fresh_name("q", set(env)), self.small_type())
            cls = self.rng.choice([Forall, Exists])
            return cls(v, self.internal_formula({**env, v.name: v.ty},
                                                depth - 1))
        # (exists i <= bound) body, spelled as E-PA^omega spells it
        v = Var(fresh_name("i", set(env)), N)
        bound = self.term(N, env, 2)
        body = self.internal_formula({**env, v.name: N}, depth - 1)
        return Exists(v, And(Atom((app(MONUS, v, bound), num(0))), body))

    def _atom(self, env: dict[str, FiniteType], depth: int) -> Formula:
        ty = N if self.rng.random() < 0.75 else self.small_type()
        size = 2 if ty == N else 1
        return Atom((self.term(ty, env, size), self.term(ty, env, size)))


def generator(seed: int = SEED) -> Gen:
    return Gen(random.Random(seed))
