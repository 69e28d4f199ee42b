"""Terms of the finite-type language.

Four node kinds only: variables, constants, application, abstraction.
Numerals are constants whose name is the decimal digits; polymorphic
constants (rec, pair, ...) carry their instantiated type, and the
concrete syntax writes the type index in brackets, e.g. ``rec[0]``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Union

from .types import Arrow, Base, FiniteType, N, Product, Seq, pure, show_type


@dataclass(frozen=True)
class Var:
    name: str
    ty: FiniteType


@dataclass(frozen=True)
class Const:
    name: str
    ty: FiniteType


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Abs:
    var: Var
    body: "Term"


Term = Union[Var, Const, App, Abs]


class LangError(Exception):
    """Base error for the language layer."""


class TypeCheckError(LangError):
    pass


# ---------------------------------------------------------------------------
# constant constructors

def num(n: int) -> Const:
    if n < 0:
        raise ValueError("numerals are nonnegative")
    return Const(str(n), N)


ZERO = num(0)
SUCC = Const("succ", Arrow(N, N))
PLUS = Const("plus", Arrow(N, Arrow(N, N)))
MONUS = Const("monus", Arrow(N, Arrow(N, N)))
MAX2 = Const("max", Arrow(N, Arrow(N, N)))
NPAIR = Const("npair", Arrow(N, Arrow(N, N)))
NUNL = Const("nunl", Arrow(N, N))
NUNR = Const("nunr", Arrow(N, N))
SEQMAX = Const("seqmax", Arrow(Seq(N), N))
INITSEG = Const("initseg", Arrow(pure(1), Arrow(N, Seq(N))))
RUN = Const("run", Arrow(pure(1), Arrow(N, Arrow(N, N))))
MUSCAN = Const("muscan", Arrow(pure(1), N))


def rec_c(ty: FiniteType) -> Const:
    return Const("rec", Arrow(ty, Arrow(Arrow(ty, Arrow(N, ty)), Arrow(N, ty))))


def pair_c(a: FiniteType, b: FiniteType) -> Const:
    return Const("pair", Arrow(a, Arrow(b, Product(a, b))))


def fst_c(a: FiniteType, b: FiniteType) -> Const:
    return Const("fst", Arrow(Product(a, b), a))


def snd_c(a: FiniteType, b: FiniteType) -> Const:
    return Const("snd", Arrow(Product(a, b), b))


def empty_c(t: FiniteType) -> Const:
    return Const("empty", Seq(t))


def append_c(t: FiniteType) -> Const:
    return Const("append", Arrow(Seq(t), Arrow(t, Seq(t))))


def len_c(t: FiniteType) -> Const:
    return Const("len", Arrow(Seq(t), N))


def get_c(t: FiniteType) -> Const:
    return Const("get", Arrow(Seq(t), Arrow(N, t)))


def seqapp_c(a: FiniteType, b: FiniteType) -> Const:
    """Application combinator used to display candidate functionals as Y[x]."""
    return Const("seqapp", Arrow(Arrow(a, b), Arrow(a, b)))


#: constant names reserved by the concrete syntax
CONST_NAMES = frozenset(
    ["succ", "plus", "monus", "max", "npair", "nunl", "nunr",
     "rec", "pair", "fst", "snd", "empty", "append", "len", "get",
     "seqapp", "seqmax", "initseg", "run", "muscan"]
)


def is_numeral(t: Term) -> bool:
    return isinstance(t, Const) and t.name.isdigit()


# ---------------------------------------------------------------------------
# structural helpers

def app(fn: Term, *args: Term) -> Term:
    t = fn
    for a in args:
        t = App(t, a)
    return t


def lam(*parts) -> Term:
    """lam(x, y, ..., body): nested abstraction."""
    *vs, body = parts
    for v in reversed(vs):
        body = Abs(v, body)
    return body


def spine(t: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        yield from subterms(t.fn)
        yield from subterms(t.arg)
    elif isinstance(t, Abs):
        yield from subterms(t.body)


def free_vars(t: Term) -> frozenset[Var]:
    """Variables free in t.  A binder removes every variable of its
    name, whatever its type: the evaluator looks variables up by name."""
    if isinstance(t, Var):
        return frozenset([t])
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, App):
        return free_vars(t.fn) | free_vars(t.arg)
    if isinstance(t, Abs):
        return drop_name(free_vars(t.body), t.var.name)
    raise TypeError(f"not a term: {t!r}")


def drop_name(vs: frozenset[Var], name: str) -> frozenset[Var]:
    """``vs`` without its variables called ``name``."""
    return frozenset(v for v in vs if v.name != name)


def fresh_name(base: str, taken: set[str]) -> str:
    """A name not in taken, recorded there: base itself when it is free,
    else base1, base2, ..."""
    name, i = base, 0
    while name in taken:
        i += 1
        name = f"{base}{i}"
    taken.add(name)
    return name


def all_names(t: Term) -> set[str]:
    """Every variable name in t, free or bound."""
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, App):
        return all_names(t.fn) | all_names(t.arg)
    if isinstance(t, Abs):
        return {t.var.name} | all_names(t.body)
    return set()


#: a substitution with the names free in each replacement, computed once
#: per call: var -> (replacement, free names of the replacement)
Prepared = dict[Var, tuple[Term, frozenset[str]]]


def prepare(sub: Mapping[Var, Term]) -> Prepared:
    return {v: (r, frozenset(u.name for u in free_vars(r)))
            for v, r in sub.items()}


def enter_binder(var: Var, sub: Prepared, body_fvs: Callable[[], frozenset]
                 ) -> tuple[Var, Prepared]:
    """The binder and the substitution to carry into its body.

    An entry of the binder's name is shadowed.  The binder is renamed
    only when its name is free in the replacement of a variable free in
    the body (``body_fvs`` is called only then); the new name avoids the
    names free in the body and in those replacements.  Names, not
    variables, are compared: the evaluator looks variables up by name.
    """
    name = var.name
    if any(v.name == name for v in sub):
        sub = {v: e for v, e in sub.items() if v.name != name}
    if not any(name in names for _, names in sub.values()):
        return var, sub
    fvs = body_fvs()
    live = [names for v, (_, names) in sub.items() if v in fvs]
    if not any(name in names for names in live):
        return var, sub
    nv = Var(fresh_name(name, {v.name for v in fvs}.union(*live)), var.ty)
    return nv, {**sub, var: (nv, frozenset([nv.name]))}


def substitute(t: Term, sub: Mapping[Var, Term]) -> Term:
    """Simultaneous capture-avoiding substitution: every free occurrence
    of a key of sub becomes its replacement."""
    return subst_prepared(t, prepare(sub))


def subst_prepared(t: Term, sub: Prepared) -> Term:
    if not sub:
        return t
    if isinstance(t, Var):
        hit = sub.get(t)
        return t if hit is None else hit[0]
    if isinstance(t, Const):
        return t
    if isinstance(t, App):
        return App(subst_prepared(t.fn, sub), subst_prepared(t.arg, sub))
    if isinstance(t, Abs):
        var, inner = enter_binder(t.var, sub, lambda: free_vars(t.body))
        return Abs(var, subst_prepared(t.body, inner))
    raise TypeError(f"not a term: {t!r}")


def infer_type(t: Term, env: dict[str, FiniteType] | None = None) -> FiniteType:
    """Type of t; raises TypeCheckError on ill-formed applications.

    Variables carry their own types; env, when given, is checked for
    consistency with them.
    """
    env = env or {}
    if isinstance(t, Var):
        declared = env.get(t.name)
        if declared is not None and declared != t.ty:
            raise TypeCheckError(
                f"variable {t.name} used at type {show_type(t.ty)} "
                f"but declared at {show_type(declared)}")
        return t.ty
    if isinstance(t, Const):
        return t.ty
    if isinstance(t, App):
        fty = infer_type(t.fn, env)
        aty = infer_type(t.arg, env)
        if not isinstance(fty, Arrow):
            raise TypeCheckError(f"applied non-function of type {show_type(fty)}")
        if fty.dom != aty:
            raise TypeCheckError(
                f"argument type mismatch: expected {show_type(fty.dom)}, "
                f"got {show_type(aty)}")
        return fty.cod
    if isinstance(t, Abs):
        inner = dict(env)
        inner[t.var.name] = t.var.ty
        return Arrow(t.var.ty, infer_type(t.body, inner))
    raise TypeCheckError(f"not a term: {t!r}")


def alpha_eq(a: Term, b: Term) -> bool:
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Term, b: Term, ma: dict[str, str], mb: dict[str, str], depth: int) -> bool:
    if isinstance(a, Var) and isinstance(b, Var):
        return a.ty == b.ty and ma.get(a.name, a.name) == mb.get(b.name, b.name)
    if isinstance(a, Const) and isinstance(b, Const):
        return a == b
    if isinstance(a, App) and isinstance(b, App):
        return _alpha(a.fn, b.fn, ma, mb, depth) and _alpha(a.arg, b.arg, ma, mb, depth)
    if isinstance(a, Abs) and isinstance(b, Abs):
        if a.var.ty != b.var.ty:
            return False
        tag = f"!{depth}"
        ma2 = dict(ma); ma2[a.var.name] = tag
        mb2 = dict(mb); mb2[b.var.name] = tag
        return _alpha(a.body, b.body, ma2, mb2, depth + 1)
    return False
