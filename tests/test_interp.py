import pytest

import gen
import refeval
from rszoo.interp import (FnV, MiniModel, ModelError, ModelRefusal,
                          eval_formula, eval_term, model as model_mod, mu_op,
                          parse_model_config, table_fn,
                          tabulate, values_equal, zero_value)
from rszoo.lang import (And, Atom, Const, Exists, Forall, N, Var, app, num,
                        parse_formula, parse_term, parse_type, pure,
                        subformulas)


def types(m):
    """The declared objects' types, by name."""
    return {name: ty for name, (ty, _v, _st) in m.declared.items()}


def ev(m, src, params=None, env=None):
    ps = types(m)
    ps.update({k: parse_type(v) for k, v in (params or {}).items()})
    t = parse_term(src, params=ps)
    if env is None:
        return eval_term(m, t)
    return eval_term(m, t, dict(m.env(), **env))


def evf(m, src, params=None, env=None):
    ps = types(m)
    ps.update({k: parse_type(v) for k, v in (params or {}).items()})
    f = parse_formula(src, params=ps)
    if env is None:
        return eval_formula(m, f)
    return eval_formula(m, f, dict(m.env(), **env))


# -- arithmetic and saturation ----------------------------------------------

def test_numerals_and_saturation():
    m = MiniModel(cap=4, omega=2)
    assert ev(m, "3") == 3
    assert not m.overflowed
    assert ev(m, "7") == 4
    assert m.overflowed


def test_arith_constants():
    m = MiniModel(cap=20, omega=2)
    assert ev(m, "monus(3, 5)") == 0
    assert ev(m, "monus(5, 3)") == 2
    assert ev(m, "max(2, 9)") == 9
    assert ev(m, "succ(0)") == 1
    # nunl and nunr invert the Cantor pairing (a + b)(a + b + 1)/2 + b,
    # here at most 12, below the cap
    for a in range(3):
        for b in range(3):
            n = (a + b) * (a + b + 1) // 2 + b
            assert (ev(m, f"nunl({n})"), ev(m, f"nunr({n})")) == (a, b)


# -- recursion ---------------------------------------------------------------


def test_rec_iterates():
    m = MiniModel(cap=20, omega=2)
    assert ev(m, "rec[0](0, \\a:0. \\i:0. succ(succ(a)), 3)") == 6
    # the step sees the stage number: a + i, as i successors of a
    assert ev(m, "rec[0](0, \\a:0. \\i:0. "
                 "rec[0](a, \\p:0. \\j:0. succ(p), i), 4)") == 6


def test_lambda_applies():
    m = MiniModel(cap=9, omega=2)
    assert ev(m, "(\\x:0. succ(x))(3)") == 4


def test_run_is_machine_call_plus_one():
    m = MiniModel(cap=9, omega=2)
    m.declare("Z", parse_type("1"), table_fn([0] * 10, m), st=False)
    # program 1 = single oracle read: halts in one step with Z(e)
    assert ev(m, "run(Z, 1, 0)") == 0
    assert ev(m, "run(Z, 1, 1)") == 1
    # program 2 = ("halt",): halts in one step with output 0
    assert ev(m, "run(Z, 2, 0)") == 0
    assert ev(m, "run(Z, 2, 1)") == 1
    # program 0 = the member scan (machine.SCAN_PROGRAM): from cell 0 it
    # reads M(1) = 3 in its eighth step and outputs 2
    m.declare("M", parse_type("1"), table_fn([0, 3] + [0] * 8, m), st=False)
    assert ev(m, "run(M, 0, 7)") == 0
    assert ev(m, "run(M, 0, 8)") == 3
    assert ev(m, "run(Z, 0, 9)") == 0


def test_run_respects_type_one_equality():
    # a table-backed oracle and a callable with the same table over
    # 0..cap are one type-1 object, so every run gives one value; the
    # callable's nonzero cells past the cap are never read
    m = MiniModel(cap=4, omega=2)
    tab = [0, 1, 0, 2, 0]
    m.declare("T", parse_type("1"), table_fn(tab, m), st=False)
    m.declare("L", parse_type("1"),
              FnV(lambda i: tab[i] if i < len(tab) else 3), st=False)
    run = parse_term("run(A, e, s)",
                     params={"A": parse_type("1"), "e": N, "s": N})
    for e in range(m.cap + 1):
        for s in range(m.cap + 1):
            at = dict(m.env(), e=e, s=s)
            assert (eval_term(m, run, dict(at, A=m.object("T")))
                    == eval_term(m, run, dict(at, A=m.object("L"))))
    # program 11, two oracle reads, started past the cap reads a cell
    # past it, which is 0 for both: output 0, so the run is 1
    past = dict(m.env(), e=11, s=200)
    assert eval_term(m, run, dict(past, A=m.object("L"))) == 1
    assert eval_term(m, run, dict(past, A=m.object("T"))) == 1


# -- values ------------------------------------------------------------------

def test_zero_values():
    m = MiniModel(cap=4, omega=2)
    assert zero_value(m, parse_type("0")) == 0
    z1 = zero_value(m, parse_type("1"))
    assert all(z1.call(i) == 0 for i in range(5))
    z2 = zero_value(m, parse_type("0 -> 1"))
    assert z2.call(3).call(2) == 0


def test_values_equal_extensional_at_type_one():
    m = MiniModel(cap=4, omega=2)
    t = table_fn([0, 1, 2, 0, 0], m)
    c = FnV(lambda i: i if i in (1, 2) and i <= 2 else 0)
    assert values_equal(m, parse_type("1"), t, c)


def test_tabulate_caches():
    m = MiniModel(cap=4, omega=2)
    calls = []
    f = FnV(lambda i: (calls.append(i), i)[1])
    assert tabulate(m, f) == (0, 1, 2, 3, 4)
    assert tabulate(m, f) == (0, 1, 2, 3, 4)
    assert len(calls) == 5


# -- quantifiers and standardness --------------------------------------------

def test_plain_type0_quantifiers_run_to_cap():
    m = MiniModel(cap=4, omega=2)
    assert evf(m, "(exists x:0) x = 4")
    assert evf(m, "(forall x:0) (exists y:0) monus(y, 4) = 0 /\\ y = x")
    assert not evf(m, "(exists x:0) succ(x) = 0")


def test_standard_type0_quantifiers_run_to_omega():
    m = MiniModel(cap=9, omega=3)
    assert evf(m, "(forall^st x:0) (exists y:0) monus(y, 2) = 0 /\\ y = x")
    assert not evf(m, "(exists^st x:0) x = 3")
    assert evf(m, "((exists^st y:0) y = 2) /\\ ~((exists^st y:0) y = 3)")


def test_standard_higher_type_means_declared():
    m = MiniModel(cap=4, omega=2)
    m.declare("a", parse_type("1"), table_fn([1, 0, 0, 0, 0], m), st=True)
    m.declare("b", parse_type("1"), table_fn([2, 0, 0, 0, 0], m), st=False)
    assert evf(m, "(forall^st W:1) W(0) = 1")
    assert evf(m, "(exists W:1) W(0) = 2")
    assert not evf(m, "(exists^st W:1) W(0) = 2")
    assert evf(m, "(exists^st W:1) W = a", params={"a": "1"})
    assert not evf(m, "(exists^st W:1) W = b", params={"b": "1"})


def test_full_table_sweep_within_budget():
    m = MiniModel(cap=2, omega=1)
    # 27 tables at cap 2
    assert evf(m, "(forall f:1)((exists y:0) monus(y, 2) = 0 /\\ y = f(0))")
    assert evf(m, "(exists f:1)(f(0) = 2 /\\ f(1) = 0)")


def test_type_two_sweep_refused():
    m = MiniModel(cap=4, omega=2)
    with pytest.raises(ModelRefusal) as e:
        evf(m, "(forall F:2) F(\\x:0. x) = 0")
    assert "10^" in str(e.value)


@pytest.mark.parametrize("src, estimate", [
    # 5^(10^2184) type-3 functionals: the exponent's log overflows
    ("(forall F:3) F = F", "10^(astronomical)"),
    # 5^(5^5) type-2 functionals
    ("(forall F:2) F = F", "10^2184"),
])
def test_refusal_estimates_the_size_at_cap_four(src, estimate):
    m = MiniModel(cap=4, omega=2)
    with pytest.raises(ModelRefusal) as e:
        evf(m, src)
    assert str(e.value).endswith(
        f": about {estimate} values exceeds the budget")


def test_a_type_as_large_as_the_budget_is_swept():
    # 5^5 = 3125 tables at cap 4, a count whose log10 rounds above
    # log10(3125)
    src = "(forall f:1) f = f"
    assert evf(MiniModel(cap=4, omega=2, budget=3125), src)
    with pytest.raises(ModelRefusal) as e:
        evf(MiniModel(cap=4, omega=2, budget=3124), src)
    assert str(e.value).endswith(": about 3125 values exceeds the budget")


def test_plain_quantifier_above_type_one_enumerates_every_functional():
    # at cap 1 a type-1 table has 2 cells of 2 values, and a type-2
    # functional is one of 2^4 lookups keyed on those tables
    m = MiniModel(cap=1, omega=1)
    ty = pure(2)
    keys = {m.canon_key(ty, F) for F in m.enum_values(ty)}
    assert len(keys) == 16
    for src, want in [("(exists F:2) (forall h:1) F(h) = h(0)", True),
                      ("(forall F:2) (exists h:1) F(h) = h(1)", False),
                      ("(forall F:2) (exists G:2) G != F", True)]:
        f = parse_formula(src)
        assert eval_formula(m, f) is want, src
        assert refeval.formula(MiniModel(cap=1, omega=1), f, {}) is want


def test_bounded_quantifiers():
    m = MiniModel(cap=9, omega=2)
    # (exists x <= t) A is spelled (exists x:0) monus(x, t) = 0 /\ A
    assert evf(m, "(exists x:0) monus(x, 3) = 0 /\\ x = 3")
    assert not evf(m, "(exists x:0) monus(x, 2) = 0 /\\ x = 3")
    # a bound above the cap saturates, and the range stops at the cap
    assert evf(m, "(exists x:0) monus(x, 12) = 0 /\\ x = 9")
    assert m.overflowed


def test_bound_below_zero_answers_false_without_searching():
    # with k = -1 from the env, monus(z, k) is never 0: the conjunction
    # is False at every z and the unbound h is never applied, as in the
    # reference walker; from k = 0 on z = 0 reaches h and both raise
    f = parse_formula("(exists z:0) monus(z, k) = 0 /\\ h(z) = 0",
                      params={"k": N, "h": pure(1)})
    for k in (-1, 0, 2):
        got = outcome(lambda: eval_formula(MiniModel(3, 2), f, {"k": k}))
        want = outcome(lambda: refeval.formula(MiniModel(3, 2), f, {"k": k}))
        assert got == want, k
        assert (got is False) == (k < 0), k


def test_approx_at_type_one_sees_only_standard_prefix():
    m = MiniModel(cap=9, omega=2)
    m.declare("f", parse_type("1"), table_fn([0, 1, 9, 9, 9, 9, 9, 9, 9, 9], m), st=False)
    m.declare("g", parse_type("1"), table_fn([0, 1, 5, 5, 5, 5, 5, 5, 5, 5], m), st=False)
    assert evf(m, "(forall^st u:0) f(u) = g(u)", params={"f": "1", "g": "1"})
    m.declare("h", parse_type("1"), table_fn([0, 2, 5, 5, 5, 5, 5, 5, 5, 5], m), st=False)
    assert not evf(m, "(forall^st u:0) f(u) = h(u)",
                   params={"f": "1", "h": "1"})


def test_eq_at_higher_type_is_extensional():
    m = MiniModel(cap=4, omega=2)
    m.declare("f", parse_type("1"), table_fn([0, 1, 0, 0, 0], m), st=False)
    m.declare("g", parse_type("1"), FnV(lambda i: 1 if i == 1 else 0), st=False)
    assert evf(m, "f = g", params={"f": "1", "g": "1"})


def test_eq_compares_function_valued_tables_extensionally():
    # x and y come from two sweeps, so their tables hold distinct but
    # extensionally equal type-1 values
    m = MiniModel(cap=1, omega=1)
    assert evf(m, "(forall x:0->0->0)(exists y:0->0->0) x = y")
    assert not evf(m, "(exists x:0->0->0)(forall y:0->0->0) x = y")


# -- run-time semantics of a compiled formula ---------------------------------
# Each formula object below is evaluated more than once: what is decided
# when it is evaluated must not be decided once when it is compiled.

def test_saturation_is_flagged_on_every_evaluation():
    m = MiniModel(cap=4, omega=2)
    numeral = parse_formula("7 = 4")
    # succ(4) saturates, seen only when succ is tabulated under = at 1
    m.declare("f", parse_type("1"), table_fn([1, 2, 3, 4, 4], m), st=False)
    tabled = parse_formula("succ = f", params=types(m))
    for f in (numeral, tabled):
        for _ in range(2):
            m.overflowed = False
            assert eval_formula(m, f)
            assert m.overflowed


def test_empty_standard_population_flagged_only_when_reached():
    m = MiniModel(cap=4, omega=2)
    quantifier = "(forall^st W:1) W(0) = 0"
    assert not evf(m, f"0 = 1 /\\ ({quantifier})")
    assert "st_empty_at_1" not in m.flags
    assert evf(m, quantifier)
    assert "st_empty_at_1" in m.flags


def test_unbound_variable_raises_only_when_reached():
    m = MiniModel(cap=4, omega=2)
    assert not evf(m, "0 = 1 /\\ ((exists x:0) monus(x, 0) = 0 /\\ y = 0)",
                   params={"y": "0"})
    with pytest.raises(ModelError, match="'y'"):
        evf(m, "(exists x:0) monus(x, 0) = 0 /\\ y = 0", params={"y": "0"})


@pytest.mark.parametrize("src, last_unflagged", [
    # F's first argument saturates: 7 is above the cap, and the first
    # value, 0, is in every range
    ("(exists z:0) monus(z, k) = 0 /\\ F(7, z) = 0", -1),
    # its calls saturate, from z = 4 on
    ("(exists z:0) monus(z, k) = 0 /\\ F(1, z) = 0", 3),
])
def test_a_bounded_conjunction_flags_saturation_only_within_its_bound(
        src, last_unflagged):
    m = MiniModel(cap=4, omega=2)
    f = parse_formula(src, params={"k": N, "F": parse_type("0 -> 0 -> 0")})
    # a saturating sum: b successors of a
    plus = ev(m, "\\a:0. \\b:0. rec[0](a, \\p:0. \\i:0. succ(p), b)")
    for k in range(7):
        m.overflowed = False
        assert not eval_formula(m, f, {"k": k, "F": plus})
        assert m.overflowed is (k > last_unflagged), k


@pytest.mark.parametrize("n, flagged", [(0, True), (3, False)])
def test_a_search_is_flagged_only_when_it_reaches_a_saturated_value(
        n, flagged):
    # F(1, z) is 1 + z, which saturates at z = 4: a search for 0 reaches
    # it and answers False, one for 3 stops at z = 2
    m = MiniModel(cap=4, omega=2)
    f = parse_formula(f"(exists z:0) F(1, z) = {n}",
                      params={"F": parse_type("0 -> 0 -> 0")})
    plus = ev(m, "\\a:0. \\b:0. rec[0](a, \\p:0. \\i:0. succ(p), b)")
    for _ in range(2):
        m.overflowed = False
        assert eval_formula(m, f, {"F": plus}) is not flagged
        assert m.overflowed is flagged


@pytest.mark.parametrize("src, want", [
    ("(exists x:0) h(x) = 0", False),
    ("(exists x:0) monus(x, k) = 0 /\\ F(k, x) = 1", True),
    ("(exists x:0) max(k, x) = 0", False),
    ("(exists x:0) rec[0](1, \\p:0. \\i:0. 0, x) = 0", True),
    ("(exists x:0) (\\y:0. succ(y))(x) = 0", False),
    # F is the value of max: applied to its first argument it gives a
    # function value that waits for the second
    ("(exists x:0) F(x, x) = 0", True),
])
def test_a_type_zero_quantifier_over_an_application_agrees_with_the_reference(
        src, want):
    f = parse_formula(src, params={"h": pure(1), "k": N,
                                   "F": parse_type("0 -> 0 -> 0")})
    m, reference = MiniModel(cap=4, omega=2), MiniModel(cap=4, omega=2)
    got = eval_formula(m, f, {"k": 1, "h": table_fn([1] * 5, m),
                              "F": ev(m, "max")})
    assert got is want
    assert refeval.formula(reference, f, {
        "k": 1, "h": table_fn([1] * 5, reference),
        "F": refeval.term(reference, parse_term("max"), {})}) is want


def test_standard_object_declared_later_is_seen():
    m = MiniModel(cap=4, omega=2)
    f = parse_formula("(exists^st W:1) W(0) = 3")
    assert not eval_formula(m, f)
    m.declare("a", parse_type("1"), table_fn([3, 0, 0, 0, 0], m), st=True)
    assert eval_formula(m, f)


def test_compiled_formulas_and_terms_are_per_model():
    f = parse_formula("(forall x:0) (exists y:0) monus(y, 3) = 0 /\\ y = x")
    assert eval_formula(MiniModel(cap=3, omega=2), f)
    assert not eval_formula(MiniModel(cap=4, omega=2), f)
    t = parse_term("7")
    big, small = MiniModel(cap=9, omega=2), MiniModel(cap=4, omega=2)
    assert eval_term(big, t) == 7
    assert eval_term(small, t) == 4
    assert not big.overflowed and small.overflowed


# -- frames: bound variables in slots, literal rec steps inline --------------
# `Gen.term` builds no shadowing and no rec, so these are written out;
# `Gen.rec_term` draws both for tests/test_refeval.py.

def test_inner_binder_shadows_outer_one():
    m = MiniModel(cap=9, omega=2)
    assert ev(m, "(\\x:0. (\\x:0. x)(succ(x)))(2)") == 3
    assert ev(m, "\\x:0. (\\x:0. x)(succ(x))").call(5) == 6
    # a quantifier rebinds the outer x only inside its scope
    f = "((exists x:0) x = 3) /\\ x = 1"
    assert evf(m, f, params={"x": "0"}, env={"x": 1})
    assert not evf(m, "(forall x:0) x = 1", params={"x": "0"},
                   env={"x": 1})


def test_inner_n_of_the_bound_shadows_the_outer_n():
    # the shape of the golden bound: \h v n. ... (\n:0. iszero)(h(v)) ...
    m = MiniModel(cap=9, omega=2)
    term = ("(\\h:1. \\v:0. \\n:0. monus(n, "
            "(\\n:0. rec[0](1, \\p:0. \\i:0. 0, n))(h(v))))(f, 1, 2)")
    for cells, want in (([0] * 10, 1), ([0, 5] + [0] * 8, 2)):
        assert ev(m, term, params={"f": "1"},
                  env={"f": table_fn(cells, m)}) == want


def test_literal_rec_step_reads_outer_bound_and_free_variables():
    m = MiniModel(cap=20, omega=2)
    term = ("(\\a:0. rec[0](0, \\p:0. \\i:0. succ(max(p, monus(a, b))), "
            "3))(2)")
    assert ev(m, term, params={"b": "0"}, env={"b": 1}) == 4


def test_rec_step_results_keep_their_own_stage():
    # each stage returns a lambda closing over that stage's p and i
    m = MiniModel(cap=20, omega=2)
    step = "\\p:1. \\i:0. \\x:0. monus(p(x), i)"
    for n, want in ((0, 5), (1, 5), (2, 4), (3, 2), (4, 0)):
        assert ev(m, f"rec[1](\\x:0. x, {step}, {n})").call(5) == want, n


def test_rec_with_a_variable_step_takes_the_general_path(monkeypatch):
    inline = []
    compile_rec = model_mod._compile_rec

    def counted(model, args, scope):
        inline.append(args)
        return compile_rec(model, args, scope)

    monkeypatch.setattr(model_mod, "_compile_rec", counted)
    m = MiniModel(cap=20, omega=2)
    step = "\\p:0. \\i:0. monus(succ(succ(p)), i)"
    assert ev(m, f"(\\s:0 -> 0 -> 0. rec[0](1, s, 4))({step})") == 3
    assert inline == []
    assert ev(m, f"rec[0](1, {step}, 4)") == 3
    assert len(inline) == 1


def test_an_unknown_constant_raises_when_compiled():
    # unlike an unbound variable, a constant the model has no meaning for
    # is refused before anything runs, even where it is never reached
    m = MiniModel(cap=4, omega=2)
    plus = Const("plus", parse_type("0 -> 0"))
    unreached = And(Atom((num(0), num(1))), Atom((app(plus, num(0)), num(0))))
    for node, evaluate in ((plus, eval_term), (unreached, eval_formula)):
        with pytest.raises(ModelError, match="^unknown constant 'plus'$"):
            evaluate(m, node)


def test_unbound_variable_in_a_rec_step_raises_only_when_run():
    m = MiniModel(cap=4, omega=2)
    t = parse_term("rec[0](3, \\p:0. \\i:0. y, n)", params={"y": N, "n": N})
    assert eval_term(m, t, {"n": 0}) == 3
    with pytest.raises(ModelError, match="'y'"):
        eval_term(m, t, {"n": 1})


def test_saturation_inside_a_rec_step_is_flagged():
    m = MiniModel(cap=4, omega=2)
    t = parse_term("rec[0](0, \\p:0. \\i:0. succ(succ(succ(p))), n)",
                   params={"n": N})
    assert eval_term(m, t, {"n": 1}) == 3
    assert not m.overflowed
    assert eval_term(m, t, {"n": 2}) == 4
    assert m.overflowed


def test_type_one_tables_read_zero_past_the_table():
    m = MiniModel(cap=2, omega=1)
    tables = m.population(parse_type("1"), standard=False)
    assert [h.table for h in tables[:2]] == [(0, 0, 0), (0, 0, 1)]
    assert len(tables) == 27
    for h in tables:
        assert [h.call(i) for i in range(3)] == list(h.table)
        assert h.call(-1) == h.call(3) == h.call(99) == 0


def test_table_sweep_at_cap_six_is_refused():
    # 7^7 tables exceed the default budget; the sweep would read one
    # cell per prefix, but the refusal is the eager sweep's
    m = MiniModel(cap=6, omega=2)
    assert m.budget == 200_000
    with pytest.raises(ModelRefusal, match="823543"):
        evf(m, "(forall h:1) (exists y:0) monus(y, 6) = 0 /\\ y = h(0)")


def eager_sweep(m, f, visited: list, env: dict | None = None):
    """``f``, a plain quantifier over type 1, decided table by table in
    ``enum_values`` order, with ``env`` for its free names; each table
    tried is appended to ``visited``."""
    universal = isinstance(f, Forall)
    for h in m.enum_values(pure(1)):
        visited.append(h)
        if bool(eval_formula(m, f.body, {**(env or {}), f.var.name: h})) \
                is not universal:
            return not universal
    return universal


def outcome(run):
    """What ``run()`` returns, or the type and message it raises."""
    try:
        return run()
    except ModelError as e:
        return type(e), str(e)


NONZERO = "1..cap"


def shown(v):
    """``v``, or ``NONZERO`` for a sweep's class value, which refines
    when it is compared, hashed or printed outside its sweep."""
    return NONZERO if isinstance(v, model_mod._Nonzero) else v


def recorded_probes(monkeypatch) -> list:
    """Hook the sweep's per-prefix seam, ``model._probe``.  The list
    returned gets one ``(probe, reads)`` pair per probe the sweep makes:
    the function value the body sees, whose call is wrapped to record,
    per read, the argument, the value read and how many cells the
    prefix then holds, each class value as ``NONZERO``."""
    make, probes = model_mod._probe, []

    def recorded(cells):
        probe, reads = make(cells), []
        lookup = probe.call

        def call(i):
            v = lookup(i)
            reads.append((shown(i), shown(v), len(cells)))
            return v
        probe.call = call
        probes.append((probe, reads))
        return probe
    monkeypatch.setattr(model_mod, "_probe", recorded)
    return probes


def recorded_refinements(monkeypatch) -> list:
    """The cell of each refinement raised, in order: an evaluation that
    ends in one decides nothing, and the sweep evaluates again."""
    cells, init = [], model_mod._Refinement.__init__

    def recorded(self, prefix, i):
        cells.append(i)
        init(self, prefix, i)
    monkeypatch.setattr(model_mod._Refinement, "__init__", recorded)
    return cells


def sweep_both(f, cap, env=None):
    """``f`` decided by the sweep and table by table, each in a fresh
    model of its own; the tables the eager sweep tried.  The answers,
    errors, ``overflowed`` and flags must agree."""
    lazy, eager = MiniModel(cap, min(2, cap)), MiniModel(cap, min(2, cap))
    visited = []
    got = outcome(lambda: eval_formula(lazy, f, env or {}))
    want = outcome(lambda: eager_sweep(eager, f, visited, env))
    assert got == want, f
    assert lazy.overflowed == eager.overflowed, f
    assert lazy.flags == eager.flags, f
    return got, visited


def test_table_sweep_agrees_with_eager_enumeration(monkeypatch):
    probes = recorded_probes(monkeypatch)
    refined = recorded_refinements(monkeypatch)
    g = gen.generator(gen.SEED + 11)
    cases = early = fewer = refining = 0
    for cap in (1, 2, 3):
        for _ in range(150):
            body = g.internal_formula({"h": pure(1)}, depth=3)
            f = g.rng.choice([Forall, Exists])(Var("h", pure(1)), body)
            omega = g.rng.randrange(1, cap + 1)
            lazy, eager = MiniModel(cap, omega), MiniModel(cap, omega)
            del probes[:], refined[:]
            visited = []
            got = outcome(lambda: eval_formula(lazy, f, {}))
            want = outcome(lambda: eager_sweep(eager, f, visited))
            assert got == want, f
            assert lazy.overflowed == eager.overflowed, f
            assert lazy.flags == eager.flags, f
            if any(isinstance(s, (Forall, Exists)) and s.var.ty == pure(1)
                   for s in subformulas(body)):
                continue  # nested sweeps make probes of their own
            # one evaluation that decides per block of tables sharing
            # the cells read; an evaluation that ends in a refinement
            # decides none and is made again
            decided = len(probes) - len(refined)
            assert decided <= len(visited), f
            cases += 1
            early += len(visited) < (cap + 1) ** (cap + 1)
            fewer += decided < len(visited)
            refining += bool(refined)
    # 405, 246, 191 and 60 with this seed
    assert (cases >= 350 and early >= 200 and fewer >= 150
            and refining >= 50), (cases, early, fewer, refining)


def test_table_sweep_reads_zero_past_the_cap(monkeypatch):
    # g(0) is a cell past every table: the probe reads it as 0, as a
    # table does, so one probe that fills no cell decides every table
    probes = recorded_probes(monkeypatch)
    f = parse_formula("(forall h:1) h(g(0)) = 0", params={"g": pure(1)})
    g = FnV(lambda _i: 8)
    got, visited = sweep_both(f, 3, {"g": g})
    assert got is True
    assert [reads for _probe, reads in probes] == [[(8, 0, 0)]]
    assert len(visited) == 4 ** 4


@pytest.mark.parametrize("src, first, want", [
    ("(exists h:1) (h(2) = 1 /\\ h(0) = 1)", 2, True),
    ("(forall h:1) (h(3) = 0 -> h(0) = 0)", 3, False),
    ("(exists h:1) (h(3) = h(1) /\\ h(0) = 2 /\\ h(2) = 4)", 3, True),
])
def test_table_sweep_zero_fills_reads_out_of_order(monkeypatch, src, first,
                                                   want):
    # the first read, of cell ``first``, fills every cell up to it with
    # 0; cell 4 is never read, so each probe decides five tables or more
    probes = recorded_probes(monkeypatch)
    got, visited = sweep_both(parse_formula(src), 4)
    assert got is want
    assert probes[0][1][0] == (first, 0, first + 1)
    assert all(held < 5 for _probe, reads in probes for _i, _v, held in reads)
    assert len(probes) < len(visited)


@pytest.mark.parametrize("value", [FnV(lambda _i: 0), 4, -1],
                         ids=["function", "past-cap", "negative"])
def test_table_sweep_reads_zero_off_the_table_and_fills_nothing(
        monkeypatch, value):
    # h(1) fills cells 0 and 1; the read of g(0) is of no cell: it reads
    # 0 and the prefix keeps what it held.  Cell 1's class value is
    # refined at ``= 2``, so cell 1 then runs 1 and 2: four probes
    probes = recorded_probes(monkeypatch)
    f = parse_formula("(exists h:1) (h(1) = 2 /\\ h(g(0)) = 0)",
                      params={"g": pure(1)})
    got, visited = sweep_both(f, 3, {"g": FnV(lambda _i: value)})
    assert got is True
    assert len(probes) == 4 < len(visited)
    assert probes[1][1] == [(1, NONZERO, 2)]
    for _probe, reads in probes:
        (cell, _v, held), *rest = reads
        assert (cell, held) == (1, 2)
        assert rest in ([], [(value, 0, 2)])
    assert probes[-1][1][1:] == [(value, 0, 2)]


FULL_READS = {
    # = at type 1 compares the tables cell by cell, and a class value
    # against Z's 0 decides its block: 14 blocks for 74 tables
    "(exists h:1) h = Z": (False, 17, 3),
    # run's memo hashes the table, which refines every class value, one
    # per cell per prefix (1 + 4 + 16 + 64): 256 blocks of one table
    "(forall h:1) run(h, 1, 1) = succ(h(1))": (True, 341, 85),
}


@pytest.mark.parametrize("src", FULL_READS)
def test_table_sweep_gives_each_full_read_a_fresh_table(monkeypatch, src):
    # a body that reads every cell keeps on each probe the table of its
    # prefix (the run saturates at h(1) = 3); the probes whose table
    # holds no class value decide those tables in the eager order, and
    # the sweep makes ``made`` probes, ``refines`` of them refined
    per_table, made, refines = FULL_READS[src]
    probes = recorded_probes(monkeypatch)
    refined = recorded_refinements(monkeypatch)
    f = parse_formula(src, params={"Z": pure(1)})
    z = table_fn([1, 0, 2, 1], MiniModel(3, 2))
    got, visited = sweep_both(f, 3, {"Z": z})
    assert got is True
    tables = [tuple(map(shown, p.table)) for p, _reads in probes]
    assert tables == [tuple(v for _i, v, _held in reads[:4])
                      for _p, reads in probes]
    assert len({id(p) for p, _reads in probes}) == len(probes)
    concrete = [t for t in tables if NONZERO not in t]
    eager = [h.table for h in visited]
    assert concrete == [t for t in eager if t in concrete]
    assert concrete[-1] == eager[-1]
    assert (concrete == eager) is per_table
    assert (len(probes), len(refined)) == (made, refines)
    assert (made - refines == len(visited)) is per_table


def test_a_class_value_answers_only_whether_it_is_zero():
    cells = model_mod._Prefix(3)
    v, w = model_mod._Nonzero(cells, 0), model_mod._Nonzero(cells, 1)
    assert (v == 0, 0 == v, v != 0, 0 != v) == (False, False, True, True)
    assert v and v in (0, v) and v is not w
    uses = [lambda: v == 1, lambda: 1 == v, lambda: v != 2, lambda: v == w,
            lambda: hash(v), lambda: {v: 0}, lambda: v < 1, lambda: 1 <= v,
            lambda: v > 0, lambda: v >= 0, lambda: max(v, 1),
            lambda: v + 1, lambda: 1 + v, lambda: v - 1, lambda: 3 - v,
            lambda: v * 8, lambda: 8 * v, lambda: v // 2, lambda: 7 // v,
            lambda: v % 2, lambda: 7 % v, lambda: -v,
            lambda: range(v), lambda: (1, 2)[v], lambda: int(v),
            lambda: repr(v), lambda: str(v), lambda: f"{v}",
            lambda: list(v), lambda: v.call,
            lambda: table_fn([1, 2], MiniModel(1, 1)).call(v)]
    for use in uses:
        with pytest.raises(model_mod._Refinement) as caught:
            use()
        assert caught.value.args[0] is cells and caught.value.args[1] == 0
    # no except Exception swallows a refinement
    with pytest.raises(model_mod._Refinement):
        try:
            hash(w)
        except Exception:
            pass


def test_each_cell_of_a_sweep_gets_its_own_class_value():
    seen = []
    pair = FnV(lambda a: FnV(lambda b: seen.append(
        (shown(a), shown(b), a is b)) or 0))
    f = parse_formula("(forall h:1) g(h(0), h(1)) = 0",
                      params={"g": parse_type("0 -> 0 -> 0")})
    got, _visited = sweep_both(f, 3, {"g": pair})
    assert got is True
    assert (NONZERO, NONZERO, False) in seen


@pytest.mark.parametrize("src, want", [
    # the inner sweep re-raises the outer one's refinement at
    # Y(0) = X(0), and refines its own
    ("(forall X:1) (exists Y:1) Y(0) = X(0)", True),
    # two nonzero cells compared below 2 against their swap: one shared
    # class value would make h(0) = h(1)
    ("(forall h:1) (h(0) != 0 /\\ h(1) != 0) -> "
     "(forall i:0) monus(2, i) = 0 \\/ h(i) = h(monus(1, i))", False),
    # a declared table passed a class value: Z reads 2 only at cell 3
    ("(exists h:1) Z(h(0)) = 2", True),
    # a class value in an error message
    ("(forall h:1) h(0) = 0 \\/ g(h(0), 1) = 0",
     (ModelError, "applying a non-function value 1")),
])
def test_table_sweep_refines_where_the_body_tells_the_class_apart(src, want):
    f = parse_formula(src, params={"Z": pure(1),
                                   "g": parse_type("0 -> 0 -> 0")})
    env = {"Z": table_fn([1, 0, 0, 2], MiniModel(3, 2)),
           "g": FnV(lambda a: a)}
    got, _visited = sweep_both(f, 3, env)
    assert got == want


def test_mu2_sweep_takes_cap_plus_two_evaluations(monkeypatch):
    # (mu2) reads cells only through = 0: probe k < cap + 1 finds its
    # first zero at cell k, after k class values, and the last holds a
    # class value in every cell, so the count is linear in the cap
    probes = recorded_probes(monkeypatch)
    f = parse_formula("(forall h:1) (((exists x:0) h(x) = 0) -> "
                      "h(mu(h)) = 0)", params={"mu": parse_type("1 -> 0")})
    counts = []
    for cap in (3, 4, 5, 6):
        del probes[:]
        m = MiniModel(cap, 2, budget=10 ** 6)   # 7^7 tables at cap 6
        assert eval_formula(m, f, {"mu": mu_op(m)})
        counts.append(len(probes))
        assert {v for _i, v, _held in probes[-1][1]} == {NONZERO}
    assert counts == [cap + 2 for cap in (3, 4, 5, 6)]


# -- model configuration ------------------------------------------------------

GOOD_CFG = """
# comments and blank lines are fine
cap = 4
omega = 2

table Z0: 0 1 0 2 0 [st]    # a comment may end a declaration
bind Psi0: psi_theta [st]
"""


def test_parse_model_config_reads_settings_and_tables():
    m = parse_model_config(GOOD_CFG)
    assert (m.cap, m.omega, m.budget) == (4, 2, 200_000)
    assert sorted(m.declared) == ["Psi0", "Z0"]
    ty, z0, st = m.declared["Z0"]
    assert st and tabulate(m, z0) == (0, 1, 0, 2, 0)


def test_config_rejects_missing_cap():
    with pytest.raises(ModelError):
        parse_model_config("omega = 2\n")


def test_config_rejects_bad_table_width():
    with pytest.raises(ModelError):
        parse_model_config("cap = 4\nomega = 2\ntable f: 1 2 3\n")


def test_config_rejects_oversized_entries():
    with pytest.raises(ModelError):
        parse_model_config("cap = 4\nomega = 2\ntable f: 0 0 0 0 9\n")


def test_config_rejects_duplicates_and_unknowns():
    with pytest.raises(ModelError):
        parse_model_config("cap = 4\nomega = 2\ntable f: 0 0 0 0 0\n"
                           "table f: 0 0 0 0 0\n")
    with pytest.raises(ModelError):
        parse_model_config("cap = 4\nomega = 2\nbind x: no_such_thing\n")
    with pytest.raises(ModelError):
        parse_model_config("cap = 4\nomega = 2\nwibble = 3\n")


@pytest.mark.parametrize("text, message", [
    ("cap = four\nomega = 2\n", "line 1: cap needs a number, got 'four'"),
    ("cap = 3\nomega = 2\ntable h: 0 x 0 0\n",
     "line 3: table 'h': entries must be numbers: '0 x 0 0'"),
    # a repeated setting does not replace the first one
    ("cap = 3\ncap = 4\nomega = 2\n", "line 2: repeated setting 'cap'"),
    ("cap = 3\nomega = 2\n# tables\ntable h: 0 0 [st]\n",
     "line 4: table 'h': table needs 4 entries, got 2"),
    # a declared name is one the formulas can write
    ("cap = 3\nomega = 2\ntable a.b: 0 0 0 0\n",
     "line 3: expected ':', found '.'"),
    ("cap = 3\nomega = 2\ntable succ: 0 0 0 0 [st]\n",
     "line 3: 'succ' is a constant, not a variable name"),
    ("cap = 3\nomega = 2\nbind forall: mu_op [st]\n",
     "line 3: 'forall' is a keyword, not a variable name"),
    # a declaration ends with its line
    ("cap = 3\nomega = 2\ntable h: 0 0 0 0 [st\ntable g: 0 0 0 0\n",
     "line 3: expected '[st]', found 'end of input'"),
    ("cap = 3 4\nomega = 2\n", "line 1: expected end of line, found '4'"),
    ("cap = 3\nomega = 2\nbind 7: psi_theta\n",
     "line 3: expected a name, found '7'"),
    ("cap = 3\nomega = 2\nbind h: 7\n",
     "line 3: expected a name, found '7'"),
    # a setting the model refuses
    ("cap = 0\nomega = 1\n", "line 1: cap must be at least 1"),
    # an omega past the cap is omega's fault
    ("cap = 3\n# the cut\nomega = 5\n",
     "line 3: omega must satisfy 0 < omega <= cap"),
    # the enumeration budget is the model's default
    ("budget = 0\ncap = 3\nomega = 2\n", "line 1: unknown setting 'budget'"),
])
def test_config_errors_name_the_line(text, message):
    with pytest.raises(ModelError) as info:
        parse_model_config(text)
    assert str(info.value) == message


def test_omega_must_sit_inside_universe():
    with pytest.raises(ModelError):
        MiniModel(cap=4, omega=5)
    with pytest.raises(ModelError):
        MiniModel(cap=4, omega=0)


@pytest.mark.parametrize("budget, message", [
    pytest.param(0, "line 3: unknown setting 'budget'", id="0"),
    # "-" is no token
    pytest.param(-5, "line 3: unexpected character '-'", id="-5"),
])
def test_budget_must_be_positive(budget, message):
    with pytest.raises(ModelError, match="budget must be at least 1"):
        MiniModel(cap=2, omega=1, budget=budget)
    # a configuration sets no budget
    with pytest.raises(ModelError) as info:
        parse_model_config(f"cap = 2\nomega = 1\nbudget = {budget}\n")
    assert str(info.value) == message
