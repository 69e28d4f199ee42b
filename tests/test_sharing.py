"""Syntax nodes are shared, so the language layer must pay per distinct
node: hashes and free variables are kept on the node."""
import time

import gen
from rszoo.extract import show_term_brief
from rszoo.lang import (Abs, And, App, Arrow, Atom, Base, Const, N, Seq, Var,
                        app, free_vars, free_vars_f, pure, subst_f)
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


def test_a_rebuilt_formula_keeps_the_hash_and_free_variables_of_each_node():
    # a formula whose terms share subterm objects, and lambdas inside
    # terms, against a copy built node by node: at every node position
    # the two agree on equality, hash and free variables
    g = gen.generator(gen.SEED + 9)
    x, y, p = Var("x", N), Var("y", N), Var("P", pure(1))
    outer = {"x": N, "y": N, "P": pure(1)}
    counts = dict.fromkeys(("lambda", "shared"), 0)
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
    assert counts["lambda"] >= 100 and counts["shared"] >= 75, counts
