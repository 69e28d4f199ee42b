"""The compiled evaluator against the reference walker (``refeval.py``).

Each case is evaluated twice, in two fresh models built alike: once by
``eval_term``/``eval_formula`` and once by the reference.  The value
(compared by its fingerprint in its own model, or the error raised),
``model.overflowed`` and ``model.flags`` must agree."""
import itertools

import pytest

import gen
import refeval
from test_extract import MODEL_CAP3, udnr_entry
from rszoo.extract import rs_run
from rszoo.interp import (MiniModel, ModelError, SeqV, eval_formula,
                          eval_term, parse_model_config, table_fn)
from rszoo.lang import (Arrow, Exists, ExistsSt, Forall, ForallSt, N, Seq,
                        Var, pure, subformulas)

FREE = {"n": N, "h": pure(1), "s": Seq(N)}


def observe(model, ty, evaluate):
    """What one evaluation shows in ``model``: the overflow bit after
    it, the value's fingerprint (or the error), then the overflow bit
    after the fingerprint was read and the model's flags."""
    model.overflowed = False
    try:
        value = evaluate()
        during = model.overflowed
        shown = (during, model.canon_key(ty, value))
    except ModelError as e:
        shown = (type(e), str(e))
    return shown, model.overflowed, sorted(model.flags)


def draw(rng, cap):
    """Plain data for the names in FREE: a number, cells, items."""
    cells = cap + 1
    return (rng.randrange(cells),
            [rng.randrange(cells) for _ in range(cells)],
            [rng.randrange(cells) for _ in range(rng.randrange(cells))])


def bind(model, data):
    """The environment that ``data`` (from ``draw``) gives in ``model``."""
    n, cells, items = data
    return {"n": n, "h": table_fn(cells, model), "s": SeqV(items)}


def twin_models(rng, cap):
    """Two models built alike; half of the pairs declare one standard
    table."""
    omega = rng.randrange(1, cap + 1)
    models = MiniModel(cap, omega), MiniModel(cap, omega)
    if rng.random() < 0.5:
        cells = [rng.randrange(cap + 1) for _ in range(cap + 1)]
        for m in models:
            m.declare("T0", pure(1), table_fn(cells, m), st=True)
    return models


def quantified(g, quantifiers, ty):
    """A generated formula under one more quantifier over ``k:ty``,
    drawn from ``quantifiers``."""
    body = g.internal_formula(dict(FREE, k=ty), depth=3)
    return g.rng.choice(quantifiers)(Var("k", ty), body)


def test_generated_terms_agree_with_the_reference():
    g = gen.generator(gen.SEED + 23)
    cases = saturated = functions = 0
    for cap in (1, 2, 3):
        for _ in range(200):
            ty = g.type()
            t = g.term(ty, FREE, depth=4)
            compiled, reference = twin_models(g.rng, cap)
            data = draw(g.rng, cap)
            got = observe(compiled, ty, lambda: eval_term(
                compiled, t, bind(compiled, data)))
            want = observe(reference, ty, lambda: refeval.term(
                reference, t, bind(reference, data)))
            assert got == want, t
            cases += 1
            saturated += got[1]
            functions += isinstance(ty, Arrow)
    # 600, 101 and 150 with this seed
    assert cases == 600 and saturated >= 80 and functions >= 120, \
        (cases, saturated, functions)


def test_generated_formulas_agree_with_the_reference():
    g = gen.generator(gen.SEED + 29)
    cases = sweeps = standard = flagged = saturated = true = 0
    for cap in (1, 2, 3):
        for _ in range(150):
            r = g.rng.random()
            if r < 0.3:
                f = quantified(g, [ForallSt, ExistsSt],
                               g.rng.choice([N, pure(1)]))
            elif r < 0.6 and cap < 3:
                # at cap 3 the reference's eager nested sweeps under a
                # sweep at the top would take seconds
                f = quantified(g, [Forall, Exists], pure(1))
            else:
                f = g.internal_formula(FREE, depth=4)
            compiled, reference = twin_models(g.rng, cap)
            data = draw(g.rng, cap)
            got = observe(compiled, N, lambda: eval_formula(
                compiled, f, bind(compiled, data)))
            want = observe(reference, N, lambda: refeval.formula(
                reference, f, bind(reference, data)))
            assert got == want, f
            cases += 1
            quantifiers = [s for s in subformulas(f)
                           if isinstance(s, (Forall, Exists, ForallSt,
                                             ExistsSt))]
            sweeps += any(isinstance(s, (Forall, Exists))
                          and s.var.ty == pure(1) for s in quantifiers)
            standard += any(isinstance(s, (ForallSt, ExistsSt))
                            for s in quantifiers)
            flagged += bool(got[2])
            saturated += got[1]
            true += got[0][1] is True
    # 450, 122, 136, 41, 110 and 221 with this seed
    assert (sweeps >= 100 and standard >= 100 and flagged >= 30
            and saturated >= 80 and 100 <= true <= 350), \
        (cases, sweeps, standard, flagged, saturated, true)


@pytest.fixture(scope="module")
def udnr_terms():
    verdict = rs_run(udnr_entry(MODEL_CAP3))
    return verdict.forward_term, verdict.backward_term


def test_udnr_forward_term_agrees_with_the_reference_on_every_table(
        udnr_terms):
    forward, _backward = udnr_terms
    compiled = parse_model_config(MODEL_CAP3)
    reference = parse_model_config(MODEL_CAP3)

    def at_tables(model, evaluate):
        term = evaluate(model, forward, model.env())
        return term.call(model.object("Psi0")).call(model.object("Xi0"))

    got_fn = at_tables(compiled, eval_term)
    want_fn = at_tables(reference, refeval.term)
    cells = compiled.cap + 1
    overflowed = 0
    for table in itertools.product(range(cells), repeat=cells):
        got = observe(compiled, N,
                      lambda: got_fn.call(table_fn(table, compiled)))
        want = observe(reference, N,
                       lambda: want_fn.call(table_fn(table, reference)))
        assert got == want, table
        overflowed += got[1]
    assert overflowed == cells ** cells


@pytest.mark.parametrize("z", ["Z0", "E0"])
def test_udnr_backward_term_agrees_with_the_reference_at_mu0(udnr_terms, z):
    _forward, backward = udnr_terms
    compiled = parse_model_config(MODEL_CAP3)
    reference = parse_model_config(MODEL_CAP3)

    def at(model, evaluate):
        term = evaluate(model, backward, model.env())
        return term.call(model.object("mu0")).call(model.object(z))

    got = observe(compiled, pure(1), lambda: at(compiled, eval_term))
    want = observe(reference, pure(1), lambda: at(reference, refeval.term))
    assert got == want
