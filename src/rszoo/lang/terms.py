"""Terms of the finite-type language.

Four node kinds only: variables, constants, application, abstraction.
Numerals are constants whose name is the decimal digits.  The other
constants are the ones a corpus file writes or the pipeline builds:
``succ``, ``monus``, ``max``, the unpairings ``nunl`` and ``nunr``,
``initseg``, ``run``, and the one polymorphic constant ``rec``, which
carries its instantiated type; the concrete syntax writes the type
index in brackets, ``rec[0]``.

Nodes are immutable and often shared: expanding a ``let`` puts one
subterm object at many places, so a term is a DAG that prints as a far
larger tree.  Each node therefore keeps what is computed from it alone,
its hash, its free variables and its type, in slots of its own the
first time they are asked for (which is sound only because nodes never
change); hashing, ``free_vars`` and ``infer_type`` then cost once per
distinct node, not once per occurrence.  Equality is by class and
fields (see ``types.Node``).
"""
from __future__ import annotations

from typing import Callable, Iterator, Mapping, Union

from .types import Arrow, FiniteType, N, Node, Seq, node, pure, show_type


class SyntaxNode(Node):
    """A node that also keeps its free variables (see ``free_vars``) in
    the ``_fvs`` slot: the base of the node kinds of formulas."""
    __slots__ = ("_fvs",)


class TermNode(SyntaxNode):
    """A syntax node that also keeps its type (see ``infer_type``) in
    the ``_ty`` slot: the base of the four term kinds."""
    __slots__ = ("_ty",)


keep_fvs = SyntaxNode.__dict__["_fvs"].__set__
keep_ty = TermNode.__dict__["_ty"].__set__


@node
class Var(TermNode):
    name: str
    ty: FiniteType


@node
class Const(TermNode):
    name: str
    ty: FiniteType


@node
class App(TermNode):
    fn: "Term"
    arg: "Term"


@node
class Abs(TermNode):
    var: Var
    body: "Term"


Term = Union[Var, Const, App, Abs]


class TypeCheckError(Exception):
    pass


# ---------------------------------------------------------------------------
# constant constructors

def num(n: int) -> Const:
    if n < 0:
        raise ValueError("numerals are nonnegative")
    return Const(str(n), N)


SUCC = Const("succ", Arrow(N, N))
MONUS = Const("monus", Arrow(N, Arrow(N, N)))
MAX2 = Const("max", Arrow(N, Arrow(N, N)))
NUNL = Const("nunl", Arrow(N, N))
NUNR = Const("nunr", Arrow(N, N))
INITSEG = Const("initseg", Arrow(pure(1), Arrow(N, Seq(N))))
RUN = Const("run", Arrow(pure(1), Arrow(N, Arrow(N, N))))


def rec_c(ty: FiniteType) -> Const:
    return Const("rec", Arrow(ty, Arrow(Arrow(ty, Arrow(N, ty)), Arrow(N, ty))))


#: the constants of one type, by name
MONOMORPHIC = {c.name: c for c in (SUCC, MONUS, MAX2, NUNL, NUNR, INITSEG,
                                   RUN)}

#: the polymorphic constants, by name: the constructor, the number of
#: its type arguments, and those arguments read back from the type of an
#: instance (the concrete syntax writes them in brackets, ``rec[0]``)
POLYMORPHIC = {
    "rec": (rec_c, 1, lambda ty: (ty.dom,)),
}

#: constant names reserved by the concrete syntax
CONST_NAMES = frozenset(MONOMORPHIC) | frozenset(POLYMORPHIC)


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
    """Every position of t, in preorder: a shared node once per place."""
    yield t
    if isinstance(t, App):
        yield from subterms(t.fn)
        yield from subterms(t.arg)
    elif isinstance(t, Abs):
        yield from subterms(t.body)


NO_VARS: frozenset[Var] = frozenset()


def free_vars(t: Term) -> frozenset[Var]:
    """Variables free in t.  A binder removes every variable of its
    name, whatever its type: the evaluator looks variables up by name.
    Computed once per node and kept on it."""
    if not isinstance(t, TermNode):
        raise TypeError(f"not a term: {t!r}")
    fvs = getattr(t, "_fvs", None)
    if fvs is not None:
        return fvs
    if isinstance(t, Var):
        fvs = frozenset([t])
    elif isinstance(t, Const):
        fvs = NO_VARS
    elif isinstance(t, App):
        fvs = union(free_vars(t.fn), free_vars(t.arg))
    else:
        fvs = drop_name(free_vars(t.body), t.var.name)
    keep_fvs(t, fvs)
    return fvs


def union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, reusing a or b when it already holds the other: kept
    free-variable sets are then shared rather than copied per node."""
    if b <= a:
        return a
    return b if a <= b else a | b


def drop_name(vs: frozenset[Var], name: str) -> frozenset[Var]:
    """``vs`` without its variables called ``name`` (``vs`` itself when
    it has none)."""
    if all(v.name != name for v in vs):
        return vs
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


def infer_type(t: Term) -> FiniteType:
    """Type of t (see ``kept_type``); raises TypeCheckError naming the
    first fault of an ill-typed t."""
    ty = kept_type(t)
    if ty is None:
        raise TypeCheckError(_fault(t))
    return ty


def kept_type(t: Term) -> FiniteType | None:
    """Type of t, computed once per node and kept on it; None when t is
    ill-typed or is no term.

    A variable's type is its own, and a binder checks the variables of
    its name free in its body.  Whether the variables free in t agree
    with an enclosing scope is the caller's to check, on ``free_vars``
    (as ``extract`` does for a witness term and the universals)."""
    kind = type(t)
    if kind is Var or kind is Const:
        return t.ty
    ty = getattr(t, "_ty", None)
    if ty is not None:
        return ty
    if kind is App:
        fty = kept_type(t.fn)
        if not isinstance(fty, Arrow) or fty.dom != kept_type(t.arg):
            return None
        ty = fty.cod
    elif kind is Abs:
        body = kept_type(t.body)
        v = t.var
        if body is None or any(w.name == v.name and w.ty != v.ty
                               for w in free_vars(t.body)):
            return None
        ty = Arrow(v.ty, body)
    else:
        return None
    keep_ty(t, ty)
    return ty


def _fault(t: Term) -> str:
    """Why t has no kept type: the first ill-typed part, found by
    descending through the function, then the argument, then a
    binder's body, to the node whose parts are well-typed."""
    kind = type(t)
    if kind is App:
        for part in (t.fn, t.arg):
            if kept_type(part) is None:
                return _fault(part)
        fty = kept_type(t.fn)
        if not isinstance(fty, Arrow):
            return f"applied non-function of type {show_type(fty)}"
        return (f"argument type mismatch: expected {show_type(fty.dom)}, "
                f"got {show_type(kept_type(t.arg))}")
    if kind is Abs:
        if kept_type(t.body) is None:
            return _fault(t.body)
        v = t.var
        w = next(w for w in free_vars(t.body)
                 if w.name == v.name and w.ty != v.ty)
        return (f"variable {w.name} used at type {show_type(w.ty)} "
                f"but declared at {show_type(v.ty)}")
    return f"not a term: {t!r}"
