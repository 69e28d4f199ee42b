"""The compiled evaluator against the reference walker (``refeval.py``).

Each case is evaluated twice, in two fresh models built alike: once by
``eval_term``/``eval_formula`` and once by the reference.  The value
(compared by its fingerprint in its own model, or the error raised),
``model.overflowed`` and ``model.flags`` must agree."""
import collections
import itertools

import pytest

import gen
import refeval
from test_extract import MODEL_CAP3, checked_rows, udnr_entry
from test_mutants import mutated, named
from rszoo.extract import check_candidates, check_script, rs_run
from rszoo.interp import (FnV, MiniModel, ModelError, eval_formula,
                          eval_term, machine, parse_model_config, table_fn)
from rszoo.lang import (RUN, SUCC, Abs, And, Arrow, Atom, Exists, ExistsSt,
                        Forall, ForallSt, Implies, N, Or, Var, app,
                        free_vars, num, parse_term, pure, rec_c, spine,
                        subformulas, subterms)
from rszoo.lang.terms import MAX2, MONUS
from rszoo.normalform import normalize_backward, normalize_principle
from rszoo.translate import parse_nf

FREE = {"n": N, "h": pure(1)}


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
    """Plain data for the names in FREE: a number and cells."""
    cells = cap + 1
    return (rng.randrange(cells),
            [rng.randrange(cells) for _ in range(cells)])


def bind(model, data):
    """The environment that ``data`` (from ``draw``) gives in ``model``."""
    n, cells = data
    return {"n": n, "h": table_fn(cells, model)}


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
    # 600, 88 and 278 with this seed
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
            w = g.rng.randrange(cap + 1)
            got = observe(compiled, N, lambda: eval_formula(
                compiled, f, bind(compiled, data)))
            want = observe(reference, N, lambda: refeval.formula(
                reference, f, bind(reference, data)))
            assert got == want, f
            # the quantifier loops compare a body's value with ``is``
            assert isinstance(got[0][0], type) or type(got[0][1]) is bool, f
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
    # 450, 123, 151, 48, 124 and 210 with this seed
    assert (sweeps >= 100 and standard >= 100 and flagged >= 30
            and saturated >= 80 and 100 <= true <= 350), \
        (cases, sweeps, standard, flagged, saturated, true)


def rec_kinds(t):
    """The floors that the generated ``rec`` term ``t`` counts toward."""
    _head, (_base, step, stages) = spine(t)
    p, i, body = step.var.name, step.body.var.name, step.body.body
    read = {v.name for v in free_vars(body)}
    kinds = {"p" if p in read else "i_only" if i in read
             else "const0" if stages == num(0) else "const+"}
    if {p, i} & set(FREE):
        kinds.add("shadow")
    if any(isinstance(u, Abs) and u.var.name == p for u in subterms(body)):
        kinds.add("rebind")
    if step.var.ty != N:
        kinds.add("rec1")
    if "h" in read:
        kinds.add("reads_h")
    return kinds


def test_generated_recs_agree_with_the_reference():
    g = gen.generator(gen.SEED + 31)
    counts = collections.Counter()
    for cap in (1, 2, 3):
        for case in range(200):
            if case % 4 == 0:
                # a sweep over h whose matrix holds a rec with a constant
                # step, which often reads h
                env = {"n": N, "h": pure(1)}
                t = g.rec_term(N, env, reads=())
                node, ty = Forall(Var("h", pure(1)), Atom(
                    (t, g.term(N, env, 2)))), N
                compiled_eval, reference_eval = eval_formula, refeval.formula
            else:
                ty = g.rng.choice([N, N, pure(1)])
                node = t = g.rec_term(ty, FREE)
                compiled_eval, reference_eval = eval_term, refeval.term
            compiled, reference = twin_models(g.rng, cap)
            data = draw(g.rng, cap)
            got = observe(compiled, ty, lambda: compiled_eval(
                compiled, node, bind(compiled, data)))
            want = observe(reference, ty, lambda: reference_eval(
                reference, node, bind(reference, data)))
            assert got == want, node
            kinds = rec_kinds(t)
            counts.update(kinds)
            counts["saturated"] += got[1]
            counts["sweep_h"] += node is not t and "reads_h" in kinds
    # 136, 194, 182, 88, 303, 161, 181, 159 and 60 with this seed
    floors = {"const0": 80, "const+": 150, "p": 120, "i_only": 60,
              "shadow": 200, "rebind": 120, "saturated": 120, "rec1": 100,
              "sweep_h": 40}
    assert all(counts[k] >= floors[k] for k in floors), counts


# ---------------------------------------------------------------------------
# searches: a quantifier over type 0 whose body is s(x) = n, as (mu2)'s
# (exists x:0) h(x) = 0 is, with s headed by a variable and not reading
# x, and n at most the cap

# kinds of s: the last two have a lambda or a constant at the head, which
# makes the quantifier no search
SEARCH_FUNCTIONS = ["binder", "free", "unbound", "non-function", "applied",
                    "saturating", "probe", "lambda", "constant"]
SEARCH_RANGES = ["plain", "standard"]
F_TYPE = Arrow(N, pure(1))


def with_f(model, env):
    """``env`` with ``F: 0 -> 0 -> 0``, whose value at ``a`` adds a flag
    naming its argument each time it is called and saturates at the
    cap."""
    def at(a):
        def call(b):
            model.flags.add(f"F_at_{b}")
            return model.sat(a + b)
        return FnV(call)
    return dict(env, F=FnV(at))


def search_function(g, kind, cap):
    """The ``s`` of a search, of type 1: ``g`` is bound by a standard
    quantifier around the search, ``h`` given by the environment or,
    for ``probe``, swept; ``u`` is unbound and ``w`` not a function."""
    rng = g.rng
    if kind in ("binder", "free", "unbound", "non-function", "probe"):
        name = {"binder": "g", "unbound": "u", "non-function": "w"}
        return Var(name.get(kind, "h"), pure(1))
    if kind == "applied":
        return app(Var("F", F_TYPE), g.term(N, FREE, 2))
    if kind == "saturating":
        return app(Var("F", F_TYPE), num(cap + 1 + rng.randrange(3)))
    if kind == "lambda":
        return Abs(Var("y", N), g.term(N, dict(FREE, y=N), depth=3))
    if rng.random() < 0.3:
        # a rec with a literal step, given all but its stage count
        _rec, (base, step, _stages) = spine(g.rec_term(N, FREE))
        return app(rec_c(N), base, step)
    return rng.choice([SUCC, app(rng.choice([MONUS, MAX2]),
                                 g.term(N, FREE, 2))])


def search(g, kind, over, cap):
    """A quantifier over type 0 whose body is ``s(x) = n``, with ``s``
    of ``kind`` and range ``over``, in the context ``kind`` asks for,
    and whether it is a search.  The binder is ``x`` or, shadowing the
    free ``n``, ``n``; an ``s`` that reads it, an argument other than
    it or a numeral above the cap makes the quantifier no search."""
    rng, x = g.rng, Var(g.rng.choice(["x", "n"]), N)
    fn = search_function(g, kind, cap)
    arg, n = x, rng.randrange(cap + 1)
    if rng.random() < 0.1:
        arg = rng.choice([app(SUCC, x), num(0)])
    elif rng.random() < 0.1:
        n = cap + 1
    body = Atom((app(fn, arg), num(n)))
    searched = (kind not in ("lambda", "constant") and arg == x
                and n <= cap and x not in free_vars(fn))
    f = [[Exists, Forall], [ExistsSt, ForallSt]][over == "standard"][
        rng.random() < 0.5](x, body)
    if kind == "binder":
        f = rng.choice([ForallSt, ExistsSt])(Var("g", pure(1)), f)
    elif kind == "probe":
        # the shape of (mu2): a sweep whose probe is searched
        rest = g.internal_formula({"h": pure(1), "n": N}, depth=1)
        f = rng.choice([Forall, Exists])(Var("h", pure(1)), rng.choice(
            [Implies, And, Or])(f, rest))
    return f, searched


def test_searches_agree_with_the_reference():
    g = gen.generator(gen.SEED + 41)
    counts = collections.Counter()
    for cap in (1, 2, 3):
        for _ in range(300):
            kind = g.rng.choice(SEARCH_FUNCTIONS)
            over = g.rng.choice(SEARCH_RANGES)
            f, searched = search(g, kind, over, cap)
            compiled, reference = twin_models(g.rng, cap)
            data = draw(g.rng, cap)
            w = g.rng.randrange(cap + 1)
            got = observe(compiled, N, lambda: eval_formula(
                compiled, f, with_f(compiled, dict(bind(compiled, data),
                                                   w=w))))
            want = observe(reference, N, lambda: refeval.formula(
                reference, f, with_f(reference, dict(bind(reference, data),
                                                     w=w))))
            assert got == want, f
            assert isinstance(got[0][0], type) or type(got[0][1]) is bool, f
            counts[kind] += searched or kind in ("lambda", "constant")
            counts[over] += searched
            counts["no_search"] += not searched
            counts["raised"] += isinstance(got[0][0], type)
            counts["overflowed"] += got[1]
            counts["flagged"] += bool(got[2])
            counts["true"] += got[0][1] is True
    # searches: binder 93, free 94, unbound 72, non-function 90,
    # applied 57, saturating 83, probe 75; lambda 104 and constant 80
    # cases; by range 277 and 287; 336 no search, 192 raised, 218
    # overflowed, 271 flagged and 296 true with this seed
    floors = {"binder": 30, "free": 60, "unbound": 60, "non-function": 60,
              "applied": 35, "saturating": 65, "probe": 65, "lambda": 75,
              "constant": 65, "plain": 75, "standard": 90,
              "no_search": 260,
              "raised": 135, "overflowed": 180, "flagged": 170, "true": 220}
    assert all(counts[k] >= floors[k] for k in floors), counts


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
    # only a first zero at cell cap overflows: Xi0 answers cap + 1 there
    assert overflowed == compiled.cap ** compiled.cap


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


def fields(report) -> tuple:
    """What ``refeval.candidates`` gives for a ``CandidateReport``."""
    return (report.ok, report.checked, report.failures,
            report.antecedent_vacuous, report.overflowed)


@pytest.mark.parametrize("script, plan, mutant, ok", [
    ("forward", "st", None, True),
    ("forward", "all", None, True),
    ("backward", None, None, True),
    # the mark one cell late: a first zero at cell cap is refuted, at 27
    # tables, so the blocks after the fifth label stay whole
    ("forward", "all", "mark-late-1", False),
])
def test_check_candidates_agrees_with_a_sweep_without_memo(script, plan,
                                                           mutant, ok):
    # two fresh entries at cap 3: check_candidates, which sweeps a table
    # by blocks with the compiled evaluator, and the reference sweep over
    # the walker, table by table
    def entry():
        return udnr_entry() if mutant is None else mutated(named(mutant))

    compiled, reference = entry(), entry()
    build = {"forward": normalize_principle,
             "backward": normalize_backward}[script]
    nf = build(compiled.principle)
    final = check_script(getattr(compiled, script), nf)
    plans = None
    if plan is not None:
        plans = dict(compiled.plans, f=plan)
    report = check_candidates(compiled.model, final, plans)
    want = refeval.candidates(reference.model, nf, final.rows, plans)
    assert fields(report) == want
    assert sorted(compiled.model.flags) == sorted(reference.model.flags)
    assert report.ok is ok
    assert report.checked == {"st": 2, "all": 256, None: 2}[plan]


def test_check_candidates_agrees_with_a_sweep_without_memo_where_keys_matter():
    # udnr's scripts have one row each, so here two rows read the swept
    # table apart: the first row's slot terms read its cells, the second
    # row's g is the table itself, and the antecedent reads only the
    # existentials, which the two rows set apart; the second row holds
    # vacuously unless f(0) saturates succ.  48 tables fail, more than
    # the five labelled
    nf = parse_nf("(forall^st f:1) (exists^st y:0, g:1) g(0) = y -> f(y) = 0")
    params = {"f": pure(1)}
    rows = tuple(tuple(parse_term(src, params) for src in row) for row in (
        ("f(0)", "\\x:0. f(x)"), ("succ(f(0))", "f")))
    report = check_candidates(MiniModel(3, 2), checked_rows(nf, rows),
                              {"f": "all"})
    want = refeval.candidates(MiniModel(3, 2), nf, rows, {"f": "all"})
    assert fields(report) == want
    assert not report.ok and report.checked == 256


def test_candidate_report_notes_a_vacuous_antecedent():
    # succ(x) is never 0, so the row holds only vacuously, and the
    # report line says so
    nf = parse_nf("(forall^st x:0) (exists^st y:0) succ(x) = 0 -> y = x")
    rows = ((Var("x", N),),)
    report = check_candidates(MiniModel(3, 2), checked_rows(nf, rows))
    assert fields(report) == refeval.candidates(MiniModel(3, 2), nf, rows)
    assert report.line() == ("candidates ok over 2 assignment(s) "
                             "[antecedent vacuous]")


# ---------------------------------------------------------------------------
# runs of the oracle machine

def past_the_cap(cap: int) -> list[str]:
    """Oracles, as closed terms, that are nonzero only past ``cap``: a
    difference, a ``rec`` guarded by it, a successor that saturates at
    the cap in a model of that cap, and a test against a numeral far
    past the cap, which saturates."""
    return [f"\\n:0. monus(n, {cap})",
            f"\\n:0. rec[0](0, \\p:0. \\i:0. succ(i), monus(n, {cap}))",
            f"\\n:0. monus(succ(n), {cap})",
            "\\n:0. rec[0](0, \\p:0. \\i:0. 1, monus(succ(n), 4718456))"]


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_runs_on_oracles_nonzero_past_the_cap_agree_with_the_reference(cap):
    saturated = 0
    for src in past_the_cap(cap):
        oracle = parse_term(src)
        for e, s in itertools.product(range(cap + 1), repeat=2):
            t = app(RUN, oracle, num(e), num(s))
            compiled, reference = MiniModel(cap, 1), MiniModel(cap, 1)
            got = observe(compiled, N, lambda: eval_term(compiled, t, {}))
            want = observe(reference, N,
                           lambda: refeval.term(reference, t, {}))
            assert got == want, (src, e, s)
            saturated += got[1]
    # the saturating successor and the far numeral
    assert saturated == 2 * (cap + 1) ** 2


def test_phi_agrees_with_a_run_without_memo_on_tables_past_the_cap():
    # Each oracle of ``past_the_cap(3)`` tabulated at caps 1 to 3 (all
    # zeros) and at cap 8 (nonzero past 3): tables that share a prefix of
    # zeros.  machine.phi, memoised across every call, against the
    # reference's phi, which runs each time; the budgets go up and down
    # so that cached halts and cached non-halts both answer.
    tables = []
    for src in past_the_cap(3):
        for cap in (1, 2, 3, 8):
            model = MiniModel(cap, 1)
            tables.append(model.canon_key(
                pure(1), eval_term(model, parse_term(src), {})))
    # zeros of 2, 3, 4 and 9 cells, and two nonzero past cell 3
    assert len(set(tables)) == 6
    apart = 0
    for e in range(0, 200, 5):     # 0 is the scan
        for x in range(4):
            for budget in (3, 40, 1, 12, 0, 100):
                answers = set()
                for table in tables:
                    got = machine.phi(e, table, x, budget)
                    assert got == refeval.phi(e, table, x, budget), \
                        (e, table, x, budget)
                    answers.add(got)
                apart += len(answers) > 1
    # programs that halt on a long table and run off a short one (63)
    assert apart >= 45, apart
