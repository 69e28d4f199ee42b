import pytest

import gen
from rszoo.interp import (FnV, MiniModel, ModelError, ModelRefusal, PairV,
                          SeqV, eval_formula, eval_term, model as model_mod,
                          parse_model_config, table_fn,
                          tabulate, values_equal, zero_value)
from rszoo.interp.machine import SCAN_INDEX
from rszoo.lang import (Exists, Forall, N, Var, parse_formula, parse_term,
                        parse_type, pure, subformulas)


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
    assert ev(m, "plus(3, 4)") == 7
    assert ev(m, "monus(3, 5)") == 0
    assert ev(m, "monus(5, 3)") == 2
    assert ev(m, "max(2, 9)") == 9
    assert ev(m, "succ(0)") == 1


def test_pairing_roundtrip():
    m = MiniModel(cap=50, omega=2)
    # npair(1,1) = 4 on the diagonal enumeration
    assert ev(m, "npair(1, 1)") == 4
    for a in range(4):
        for b in range(4):
            n = ev(m, f"npair({a}, {b})")
            assert ev(m, f"nunl({n})") == a
            assert ev(m, f"nunr({n})") == b


def test_plus_saturates_with_flag():
    m = MiniModel(cap=4, omega=2)
    assert ev(m, "plus(3, 3)") == 4
    assert m.overflowed


# -- sequences, products, recursion ------------------------------------------

def test_seq_ops():
    m = MiniModel(cap=9, omega=2)
    s = ev(m, "append[0](append[0](empty[0], 4), 7)")
    assert s.items == (4, 7)
    assert ev(m, "len[0](append[0](empty[0], 4))") == 1
    assert ev(m, "get[0](append[0](empty[0], 4), 0)") == 4
    # out-of-range reads give the zero value of the element type
    assert ev(m, "get[0](append[0](empty[0], 4), 3)") == 0
    assert ev(m, "seqmax(append[0](append[0](empty[0], 4), 7))") == 7
    assert ev(m, "seqmax(empty[0])") == 0


def test_initseg_tabulates_prefix():
    m = MiniModel(cap=9, omega=2)
    m.declare("f", parse_type("1"), table_fn([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], m), st=False)
    s = ev(m, "initseg(f, 4)")
    assert s.items == (3, 1, 4, 1)


def test_product_ops():
    m = MiniModel(cap=9, omega=2)
    p = ev(m, "pair[0,0](2, 5)")
    assert isinstance(p, PairV) and (p.left, p.right) == (2, 5)
    assert ev(m, "fst[0,0](pair[0,0](2, 5))") == 2
    assert ev(m, "snd[0,0](pair[0,0](2, 5))") == 5


def test_rec_iterates():
    m = MiniModel(cap=20, omega=2)
    assert ev(m, "rec[0](0, \\a:0. \\i:0. plus(a, 2), 3)") == 6
    # the step sees the stage number
    assert ev(m, "rec[0](0, \\a:0. \\i:0. plus(a, i), 4)") == 6


def test_lambda_and_seqapp():
    m = MiniModel(cap=9, omega=2)
    assert ev(m, "(\\x:0. succ(x))(3)") == 4
    m.declare("Y", parse_type("0 -> 0"), table_fn([9] + [0] * 9, m), st=False)
    assert ev(m, "Y[0]") == 9


def test_muscan_least_zero_else_zero():
    m = MiniModel(cap=4, omega=2)
    m.declare("f", parse_type("1"), table_fn([3, 2, 0, 1, 0], m), st=False)
    m.declare("g", parse_type("1"), table_fn([1, 1, 1, 1, 1], m), st=False)
    assert ev(m, "muscan(f)") == 2
    assert ev(m, "muscan(g)") == 0


def test_run_is_machine_call_plus_one():
    m = MiniModel(cap=9, omega=2)
    m.declare("Z", parse_type("1"), table_fn([0] * 10, m), st=False)
    # program 1 = single oracle read: halts in one step with Z(e)
    assert ev(m, "run(Z, 1, 0)") == 0
    assert ev(m, "run(Z, 1, 1)") == 1
    # program 0 = empty program: halts at once with output 0
    assert ev(m, "run(Z, 0, 0)") == 1


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
    # the scan program started past the cap reads only cells past it
    past = dict(m.env(), e=SCAN_INDEX, s=200)
    assert eval_term(m, run, dict(past, A=m.object("L"))) == 0
    assert eval_term(m, run, dict(past, A=m.object("T"))) == 0


# -- values ------------------------------------------------------------------

def test_zero_values():
    m = MiniModel(cap=4, omega=2)
    assert zero_value(m, parse_type("0")) == 0
    z1 = zero_value(m, parse_type("1"))
    assert all(z1.call(i) == 0 for i in range(5))
    zp = zero_value(m, parse_type("0 x 0*"))
    assert zp.left == 0 and zp.right.items == ()


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
    assert evf(m, "(forall x:0) x <= 4")
    assert not evf(m, "(exists x:0) succ(x) = 0")


def test_standard_type0_quantifiers_run_to_omega():
    m = MiniModel(cap=9, omega=3)
    assert evf(m, "(forall^st x:0) x <= 2")
    assert not evf(m, "(exists^st x:0) x = 3")
    assert evf(m, "st(2) /\\ ~st(3)")


def test_standard_higher_type_means_declared():
    m = MiniModel(cap=4, omega=2)
    m.declare("a", parse_type("1"), table_fn([1, 0, 0, 0, 0], m), st=True)
    m.declare("b", parse_type("1"), table_fn([2, 0, 0, 0, 0], m), st=False)
    assert evf(m, "(forall^st W:1) W(0) = 1")
    assert evf(m, "(exists W:1) W(0) = 2")
    assert not evf(m, "(exists^st W:1) W(0) = 2")
    assert evf(m, "st(a)", params={"a": "1"})
    assert not evf(m, "st(b)", params={"b": "1"})


def test_full_table_sweep_within_budget():
    m = MiniModel(cap=2, omega=1)
    # 27 tables at cap 2
    assert evf(m, "(forall f:1)(f(0) <= 2)")
    assert evf(m, "(exists f:1)(f(0) = 2 /\\ f(1) = 0)")


def test_type_two_sweep_refused():
    m = MiniModel(cap=4, omega=2)
    with pytest.raises(ModelRefusal) as e:
        evf(m, "(forall F:2) F(\\x:0. x) = 0")
    assert "10^" in str(e.value)


def test_bounded_quantifiers():
    m = MiniModel(cap=9, omega=2)
    assert evf(m, "(forall x <= 3) x <= 3")
    assert evf(m, "(exists x < 3) x = 2")
    assert not evf(m, "(exists x < 2) x = 2")
    m.declare("s", parse_type("0*"), SeqV((5, 1)), st=False)
    assert evf(m, "(forall x in s) 1 <= x")
    assert evf(m, "(exists x in s) x = 5")


def test_membership_atom_is_nonzero_test():
    m = MiniModel(cap=4, omega=2)
    m.declare("X", parse_type("1"), table_fn([0, 3, 0, 1, 0], m), st=False)
    assert evf(m, "1 in X /\\ 3 in X")
    assert not evf(m, "0 in X")


def test_approx_at_type_one_sees_only_standard_prefix():
    m = MiniModel(cap=9, omega=2)
    m.declare("f", parse_type("1"), table_fn([0, 1, 9, 9, 9, 9, 9, 9, 9, 9], m), st=False)
    m.declare("g", parse_type("1"), table_fn([0, 1, 5, 5, 5, 5, 5, 5, 5, 5], m), st=False)
    assert evf(m, "approx[1](f, g)", params={"f": "1", "g": "1"})
    m.declare("h", parse_type("1"), table_fn([0, 2, 5, 5, 5, 5, 5, 5, 5, 5], m), st=False)
    assert not evf(m, "approx[1](f, h)", params={"f": "1", "h": "1"})


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
    assert not evf(m, "(exists x < 0) y = 0", params={"y": "0"})
    with pytest.raises(ModelError, match="'y'"):
        evf(m, "(exists x <= 0) y = 0", params={"y": "0"})


def test_standard_object_declared_later_is_seen():
    m = MiniModel(cap=4, omega=2)
    f = parse_formula("(exists^st W:1) W(0) = 3")
    assert not eval_formula(m, f)
    m.declare("a", parse_type("1"), table_fn([3, 0, 0, 0, 0], m), st=True)
    assert eval_formula(m, f)


def test_compiled_formulas_and_terms_are_per_model():
    f = parse_formula("(forall x:0) x <= 3")
    assert eval_formula(MiniModel(cap=3, omega=2), f)
    assert not eval_formula(MiniModel(cap=4, omega=2), f)
    t = parse_term("7")
    big, small = MiniModel(cap=9, omega=2), MiniModel(cap=4, omega=2)
    assert eval_term(big, t) == 7
    assert eval_term(small, t) == 4
    assert not big.overflowed and small.overflowed


# -- frames: bound variables in slots, literal rec steps inline --------------
# The generated terms have no shadowing and no rec, so these are written
# out.

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
    term = ("(\\h:1. \\v:0. \\n:0. plus(n, "
            "(\\n:0. rec[0](1, \\p:0. \\i:0. 0, n))(h(v))))(f, 1, 2)")
    for cells, want in (([0] * 10, 3), ([0, 5] + [0] * 8, 2)):
        assert ev(m, term, params={"f": "1"},
                  env={"f": table_fn(cells, m)}) == want


def test_literal_rec_step_reads_outer_bound_and_free_variables():
    m = MiniModel(cap=20, omega=2)
    term = "(\\a:0. rec[0](0, \\p:0. \\i:0. plus(p, plus(a, b)), 3))(2)"
    assert ev(m, term, params={"b": "0"}, env={"b": 1}) == 9


def test_rec_step_results_keep_their_own_stage():
    # each stage returns a lambda closing over that stage's p and i
    m = MiniModel(cap=20, omega=2)
    step = "\\p:1. \\i:0. \\x:0. plus(p(x), i)"
    for n, want in ((0, 5), (1, 5), (2, 6), (3, 8), (4, 11)):
        assert ev(m, f"rec[1](\\x:0. x, {step}, {n})").call(5) == want, n


def test_rec_with_a_variable_step_takes_the_general_path(monkeypatch):
    inline = []
    compile_rec = model_mod._compile_rec

    def counted(model, args, scope):
        inline.append(args)
        return compile_rec(model, args, scope)

    monkeypatch.setattr(model_mod, "_compile_rec", counted)
    m = MiniModel(cap=20, omega=2)
    step = "\\p:0. \\i:0. plus(p, i)"
    assert ev(m, f"(\\s:0 -> 0 -> 0. rec[0](1, s, 4))({step})") == 7
    assert inline == []
    assert ev(m, f"rec[0](1, {step}, 4)") == 7
    assert len(inline) == 1


def test_unbound_variable_in_a_rec_step_raises_only_when_run():
    m = MiniModel(cap=4, omega=2)
    t = parse_term("rec[0](3, \\p:0. \\i:0. y, n)", params={"y": N, "n": N})
    assert eval_term(m, t, {"n": 0}) == 3
    with pytest.raises(ModelError, match="'y'"):
        eval_term(m, t, {"n": 1})


def test_saturation_inside_a_rec_step_is_flagged():
    m = MiniModel(cap=4, omega=2)
    t = parse_term("rec[0](0, \\p:0. \\i:0. plus(p, 3), n)", params={"n": N})
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
        evf(m, "(forall h:1) h(0) <= 6")


def eager_sweep(m, f, visited: list):
    """``f``, a plain quantifier over type 1, decided table by table in
    ``enum_values`` order; each table tried is appended to ``visited``."""
    universal = isinstance(f, Forall)
    for h in m.enum_values(pure(1)):
        visited.append(h)
        if bool(eval_formula(m, f.body, {f.var.name: h})) is not universal:
            return not universal
    return universal


def outcome(run):
    """What ``run()`` returns, or the type and message it raises."""
    try:
        return run()
    except ModelError as e:
        return type(e), str(e)


def test_table_sweep_agrees_with_eager_enumeration(monkeypatch):
    probes = []
    reader = model_mod._prefix_reader

    def counted(cells, cap):
        probes.append(cells)
        return reader(cells, cap)

    monkeypatch.setattr(model_mod, "_prefix_reader", counted)
    g = gen.generator(gen.SEED + 11)
    cases = early = fewer = 0
    for cap in (1, 2, 3):
        for _ in range(150):
            body = g.internal_formula({"h": pure(1)}, depth=3)
            f = g.rng.choice([Forall, Exists])(Var("h", pure(1)), body)
            omega = g.rng.randrange(1, cap + 1)
            lazy, eager = MiniModel(cap, omega), MiniModel(cap, omega)
            del probes[:]
            visited = []
            got = outcome(lambda: eval_formula(lazy, f, {}))
            want = outcome(lambda: eager_sweep(eager, f, visited))
            assert got == want, f
            assert lazy.overflowed == eager.overflowed, f
            assert lazy.flags == eager.flags, f
            if any(isinstance(s, (Forall, Exists)) and s.var.ty == pure(1)
                   for s in subformulas(body)):
                continue  # nested sweeps make probes of their own
            # one evaluation per block of tables sharing the cells read
            assert len(probes) <= len(visited), f
            cases += 1
            early += len(visited) < (cap + 1) ** (cap + 1)
            fewer += len(probes) < len(visited)
    # 417, 252 and 195 with this seed
    assert cases >= 350 and early >= 200 and fewer >= 150, \
        (cases, early, fewer)


# -- model configuration ------------------------------------------------------

GOOD_CFG = """
# comments and blank lines are fine
cap = 4
omega = 2
budget = 150000

table Z0: 0 1 0 2 0 [st]
bind Psi0: psi_theta [st]
"""


def test_parse_model_config_reads_settings_and_tables():
    m = parse_model_config(GOOD_CFG)
    assert (m.cap, m.omega, m.budget) == (4, 2, 150000)
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


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_must_be_positive(budget):
    with pytest.raises(ModelError, match="budget must be at least 1"):
        parse_model_config(f"cap = 2\nomega = 1\nbudget = {budget}\n")
