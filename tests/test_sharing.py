"""Syntax nodes are shared, so the language layer must pay per distinct
node: hashes and free variables are kept on the node, and alpha-equality
is one walk that stops at a node shared by both sides."""
import time

import gen
from canon import canon
from rszoo.extract import show_term_brief
from rszoo.lang import (Abs, And, App, Arrow, Atom, BExists, Base, Const,
                        ExistsSt, Forall, ForallSt, Implies, N, Not, Or,
                        QUANTS, Seq, Var, alpha_eq, alpha_eq_f, app,
                        free_vars, free_vars_f, pure, subst_f)
from rszoo.lang.terms import MAX2
from rszoo.lang.types import Node


def doubled(times: int = 20):
    """App(t, t) doubled ``times`` times over x: a tree of 2^times
    leaves held by times + 1 objects."""
    t = Var("x", N)
    for _ in range(times):
        t = App(t, t)
    return t


def test_shared_dag_costs_per_distinct_node():
    # a walk of the 2^20-leaf tree takes about a second; each call below
    # gets a DAG of its own, so it pays for its first look at every node
    def timed(call):
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start

    t = doubled()
    _, took = timed(lambda: hash(t))
    assert took < 0.2, f"hash took {took:.3f} s"
    t = doubled()
    fvs, took = timed(lambda: free_vars(t))
    assert fvs == {Var("x", N)} and took < 0.2, f"free_vars took {took:.3f} s"
    t = doubled()
    same, took = timed(lambda: alpha_eq_f(Atom((t, t)),
                                          Atom((t, t))))
    assert same and took < 0.2, f"alpha_eq_f took {took:.3f} s"
    t = doubled()
    shown, took = timed(lambda: show_term_brief(t))
    assert len(shown) == 120 and shown.endswith("...")
    assert took < 0.2, f"show_term_brief took {took:.3f} s"


# ---------------------------------------------------------------------------
# seeded property test


def nodes(x):
    """Every node position of a term or formula, with repeats."""
    yield x
    for name in x._fields:
        v = getattr(x, name)
        for part in (v if isinstance(v, tuple) else (v,)):
            if isinstance(part, Node) and \
                    not isinstance(part, (Base, Arrow, Seq)):
                yield from nodes(part)


def rebuild(x):
    """A separately built equal copy: no node object is reused."""
    if isinstance(x, tuple):
        return tuple(rebuild(p) for p in x)
    if not isinstance(x, Node):
        return x
    return type(x)(*(rebuild(getattr(x, name)) for name in x._fields))


def rename(f, pick):
    """Internal formula f with each binder, of a quantifier or a lambda,
    renamed to pick(old name); a binder renames its name at every type,
    as the evaluator reads it.  A picked name may capture."""
    def term(t, ren):
        if isinstance(t, Var):
            return Var(ren.get(t.name, t.name), t.ty)
        if isinstance(t, App):
            return App(term(t.fn, ren), term(t.arg, ren))
        if isinstance(t, Abs):
            new = pick(t.var.name)
            return Abs(Var(new, t.var.ty),
                       term(t.body, {**ren, t.var.name: new}))
        return t

    def go(g, ren):
        if isinstance(g, Atom):
            return Atom(tuple(term(t, ren) for t in g.args))
        if isinstance(g, Not):
            return Not(go(g.body, ren))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(go(g.left, ren), go(g.right, ren))
        new = pick(g.var.name)
        inner = {**ren, g.var.name: new}
        if isinstance(g, BExists):
            return BExists(Var(new, g.var.ty), term(g.bound, ren),
                           go(g.body, inner))
        return type(g)(Var(new, g.var.ty), go(g.body, inner))

    return go(f, {})


def cross_type_shadowing(f) -> bool:
    """Some name occurs at two types, bound at one of them: there the
    name-keyed and the typed-variable-keyed renamings part ways."""
    binders = {(n.var.name, n.var.ty) for n in nodes(f)
               if isinstance(n, (Abs, BExists) + QUANTS)}
    names = {(n.name, n.ty) for n in nodes(f) if isinstance(n, Var)}
    return any(b != v and b[0] == v[0] for b in binders for v in names)


def test_alpha_walk_agrees_with_canonical_renaming():
    # canon rebuilds and compares; the walk must agree with it on every
    # pair.  Without cross-type shadowing, renaming by name and renaming
    # by typed variable coincide; the pairs with shadowing are where they
    # part ways, and the name is what the evaluator binds.
    g = gen.generator(gen.SEED + 9)
    x, y, p = Var("x", N), Var("y", N), Var("P", pure(1))
    outer = {"x": N, "y": N, "P": pure(1)}
    pool = ["x", "y", "P", "q", "i", "q1", "r"]
    counts = dict.fromkeys(("equal", "unequal", "shadowing", "lambda",
                            "shared"), 0)
    previous = None
    for trial in range(200):
        f = And(g.internal_formula(outer, depth=4),
                Atom((app(p, x), app(MAX2, x, y))))
        # x becomes one shared subterm object at each occurrence, and P a
        # lambda, so binders sit inside terms too
        t = g.term(N, {**outer, "q": N, "i": N}, 2)
        lam_p = Abs(Var("q", N), app(MAX2, Var("q", N), t))
        f = subst_f(f, {x: t, p: lam_p} if trial % 3 else {x: t})
        positions = [id(n) for n in nodes(f) if isinstance(n, (App, Abs))]
        counts["shared"] += len(set(positions)) < len(positions)
        counts["lambda"] += any(isinstance(n, Abs) for n in nodes(f))

        fresh = iter(f"r{k}" for k in range(10**6))
        assert alpha_eq_f(f, rename(f, lambda _: next(fresh)))
        rng = g.rng
        others = [f, rename(f, lambda _: rng.choice(pool)),
                  rename(f, lambda _: rng.choice(pool))]
        if previous is not None:
            others.append(previous)
        for h in others:
            same = alpha_eq_f(f, h)
            assert same == (canon(f) == canon(h)), (f, h)
            counts["equal" if same else "unequal"] += 1
            counts["shadowing"] += cross_type_shadowing(h)
            a = ForallSt(x, ExistsSt(y, f))
            b = ForallSt(Var("u", N), ExistsSt(Var("w", N), subst_f(
                h, {x: Var("u", N), y: Var("w", N)})))
            assert alpha_eq_f(a, b) == (canon(a) == canon(b))
        previous = f
        # one node under two binders: the walk may stop at it only when
        # its free names are bound alike on both sides
        for u, w in (("q", "r"), ("x", "y"), ("y", "y")):
            a, b = Forall(Var(u, N), f), Forall(Var(w, N), f)
            same = alpha_eq_f(a, b)
            assert same == (canon(a) == canon(b)), (u, w, f)
            counts["equal" if same else "unequal"] += 1

        copy = rebuild(f)
        assert copy == f and copy is not f
        assert hash(copy) == hash(f)
        assert free_vars_f(copy) == free_vars_f(f)
        for term, twin in zip((n for n in nodes(f)
                               if isinstance(n, (Var, Const, App, Abs))),
                              (n for n in nodes(copy)
                               if isinstance(n, (Var, Const, App, Abs)))):
            assert twin == term
            assert hash(twin) == hash(term)
            assert free_vars(twin) == free_vars(term)
            assert alpha_eq(twin, term)
    assert counts["equal"] >= 500 and counts["unequal"] >= 300, counts
    assert counts["shadowing"] >= 50, counts
    assert counts["lambda"] >= 100 and counts["shared"] >= 75, counts
