import gen
from rszoo.lang import (Arrow, N, Not, Seq, Var, all_names_f, parse_formula,
                        parse_type, pure, show_formula)
from rszoo.translate import (NormalForm, _negate, _rewrite_first, _univ,
                             alpha_eq_nf, canon_nf, nf_signature,
                             nf_to_formula, parse_nf, push_neg, show_nf,
                             show_nf_file, simplify, sst_translate)


def tr(src: str, params: dict | None = None, **kw) -> str:
    ps = {k: parse_type(v) for k, v in (params or {}).items()}
    return show_nf(sst_translate(parse_formula(src, params=ps), **kw))


def test_internal_formula_comes_back_verbatim():
    f = parse_formula("(forall n:0) ((exists k <= n) k = n)")
    nf = sst_translate(f)
    assert nf.universals == () and nf.existentials == ()
    assert nf.matrix is f


def test_st_becomes_existential_witness():
    assert tr("st(y)", {"y": "0"}) == "(exists^st w:0) w = y"
    # higher type: extensional equality wrapper
    assert tr("st(f)", {"f": "1"}) == "(exists^st w:1) eq[1](w, f)"


def test_negation_herbrandizes_and_collapses():
    raw = tr("~st(y)", {"y": "0"}, simplify_steps=False)
    assert raw == "(forall^st W:0*) (forall w in W) w != y"
    assert tr("~st(y)", {"y": "0"}) == "(forall^st w:0) w != y"


def test_herbrand_functionals_depend_on_universals():
    # negating a two-block form makes each candidate sequence a
    # functional of the old universals, applied with bracket syntax
    inner = parse_formula(
        "(forall^st x:0) (exists^st y:0) Q(x, y) = 0",
        params={"Q": parse_type("0 -> 0 -> 0")})
    raw = sst_translate(Not(inner), simplify_steps=False)
    shown = show_nf(raw)
    assert "[" in shown and "]" in shown  # candidate application Y[x]
    Y = raw.universals[-1]
    assert isinstance(Y.ty, Arrow) and isinstance(Y.ty.cod, Seq)


def test_disjunction_freshens_collisions():
    nf = sst_translate(parse_formula("st(a) \\/ st(b)",
                                     params={"a": N, "b": N}))
    w1, w2 = nf.existentials
    assert w1.name != w2.name
    assert show_nf(nf) == "(exists^st w:0, w1:0) w = a \\/ w1 = b"


def test_forall_st_over_internal():
    assert tr("(forall^st n:0) f(n) = 0", {"f": "1"}) == \
        "(forall^st w:0) f(w) = 0"


def test_exists_st_over_internal():
    assert tr("(exists^st n:0) f(n) = 0", {"f": "1"}) == \
        "(exists^st w:0) f(w) = 0"


def test_transfer_shape():
    nf = sst_translate(parse_formula(
        "(forall^st f:1) (((forall^st n:0) f(n) = 0)"
        " -> (forall m:0) f(m) = 0)"))
    assert show_nf(canon_nf(nf)) == (
        "(forall^st x0:1) (exists^st y0:0)"
        " x0(y0) != 0 \\/ ((forall v0:0) x0(v0) = 0)")


def test_bounded_quantifier_with_external_body_desugars():
    got = tr("(forall i <= 2) st(i)")
    assert got == "(exists^st ws:0*) (forall i <= 2) (exists w in ws) w = i"


# -- the worked chain ---------------------------------------------------------

def golden_chain_check() -> list[dict]:
    """Trace the translation through a fixed ladder of formulas about a
    unary predicate P(.) = 0 and check every stage against a frozen
    expectation.

    Stages marked ``raw`` apply a single translation clause without
    simplification, stages marked ``mid`` apply one named simplifier
    rule, and unmarked stages are the fully simplified output; the
    ladder ends by checking that the closed two-block form is a
    fixpoint of the whole translation.  Returns one record per stage
    with the computed and expected forms and an ``ok`` flag."""
    P1 = {"P": parse_type("1")}
    P2 = {"Q": parse_type("0 -> 0 -> 0")}
    y0 = {"y": N}
    x0 = {"x": N}

    def nf(us: str, es: str, m: str, params: dict) -> NormalForm:
        text = ""
        if us:
            text += f"universals: {us}\n"
        if es:
            text += f"existentials: {es}\n"
        text += f"matrix: {m}\n"
        return parse_nf(text, params)

    records: list[dict] = []

    def check(name: str, got: NormalForm, expected: NormalForm,
              shown: str) -> None:
        records.append({
            "name": name,
            "source": shown,
            "got": show_nf(got),
            "expected": show_nf(expected),
            "ok": alpha_eq_nf(got, expected),
        })

    # 1. a bare standardness assertion
    f1 = parse_formula("st(y)", params=y0)
    check("st", sst_translate(f1), nf("", "w:0", "w = y", y0),
          show_formula(f1))

    # 2. its negation: the raw form quantifies over candidate
    #    sequences, the simplified form collapses the sequence to a
    #    single excluded point
    f2 = parse_formula("~st(y)", params=y0)
    check("not-st-raw", sst_translate(f2, simplify_steps=False),
          nf("W:0*", "", "(forall w in W) w != y", y0), show_formula(f2))
    check("not-st", sst_translate(f2), nf("w:0", "", "w != y", y0),
          show_formula(f2))

    # 3. disjunction with an internal side
    f3 = parse_formula("~st(y) \\/ ~(P(y) = 0)", params={**y0, **P1})
    nf3 = sst_translate(f3)
    check("or", nf3, nf("w:0", "", "w != y \\/ P(y) != 0", {**y0, **P1}),
          show_formula(f3))

    # 4. a plain universal over the disjunction.  There is no witness
    #    block to lift, so the clause output is already the readable
    #    excluded-point form; the full simplifier goes one step further
    #    and instantiates the guard.
    f4 = parse_formula("(forall y:0) (~st(y) \\/ ~(P(y) = 0))", params=P1)
    supply4 = (all_names_f(f4)
               | {v.name for v in nf3.universals + nf3.existentials})
    raw4 = _univ(Var("y", N), nf3, supply4)
    check("forall-mid", raw4,
          nf("w:0", "", "(forall y:0) (w != y \\/ P(y) != 0)", P1),
          show_formula(f4))
    check("forall", sst_translate(f4), nf("w:0", "", "P(w) != 0", P1),
          show_formula(f4))

    # 5. a relativized existential: negating stage forall-mid swaps the
    #    blocks, and pushing the negation inward exposes an equality
    #    guard that instantiation then removes
    f5 = parse_formula("(exists^st y:0) P(y) = 0", params=P1)
    neg5 = _negate(raw4, {"y", "w", "P"})
    mid5 = NormalForm(neg5.universals, neg5.existentials,
                      push_neg(neg5.matrix))
    check("exists-st-mid", mid5,
          nf("", "w:0", "(exists y:0) (w = y /\\ P(y) = 0)", P1),
          show_formula(f5))
    check("exists-st", sst_translate(f5), nf("", "w:0", "P(w) = 0", P1),
          show_formula(f5))

    # 6. the body of a relativized universal
    f6 = parse_formula("~st(x) \\/ ((exists^st y:0) Q(x, y) = 0)",
                       params={**x0, **P2})
    nf6 = sst_translate(f6)
    check("body", nf6,
          nf("v:0", "w:0", "v != x \\/ Q(x, w) = 0", {**x0, **P2}),
          show_formula(f6))

    # 7. closing the universal: raw lift, one guard instantiation
    #    (take x equal to the excluded point), and the final sequence
    #    collapse, which lands back on the shape we started from
    f7 = parse_formula(
        "(forall x:0) (~st(x) \\/ ((exists^st y:0) Q(x, y) = 0))",
        params=P2)
    supply = (all_names_f(f7)
              | {v.name for v in nf6.universals + nf6.existentials})
    raw7 = _univ(Var("x", N), nf6, supply)
    check("close-raw", raw7,
          nf("v:0", "ws:0*",
             "(forall x:0) (exists w in ws) (v != x \\/ Q(x, w) = 0)",
             P2),
          show_formula(f7))
    mid_m = _rewrite_first(push_neg(raw7.matrix))
    assert mid_m is not None
    mid7 = NormalForm(raw7.universals, raw7.existentials, mid_m)
    check("close-mid", mid7,
          nf("v:0", "ws:0*", "(exists w in ws) Q(v, w) = 0", P2),
          show_formula(f7))
    final7 = simplify(mid7)
    check("close", final7, nf("v:0", "w:0", "Q(v, w) = 0", P2),
          show_formula(f7))
    check("close-direct", sst_translate(f7), final7, show_formula(f7))

    # the closed form is a fixpoint: translating it again changes
    # nothing
    back = sst_translate(nf_to_formula(final7))
    check("fixpoint", back, final7, show_nf(final7))

    return records


def test_golden_chain_all_green():
    records = golden_chain_check()
    assert len(records) == 14
    for r in records:
        assert r["ok"], f"{r['name']}: got {r['got']}, want {r['expected']}"


def test_golden_chain_stage_names():
    names = [r["name"] for r in golden_chain_check()]
    assert names == ["st", "not-st-raw", "not-st", "or", "forall-mid",
                     "forall", "exists-st-mid", "exists-st", "body",
                     "close-raw", "close-mid", "close", "close-direct",
                     "fixpoint"]


def test_simplify_is_idempotent_on_samples():
    g = gen.generator(7)
    for _ in range(150):
        nf = simplify(g.normal_form({"P": pure(1)}))
        assert alpha_eq_nf(simplify(nf), nf)


def test_internal_formulas_pass_through_1000():
    g = gen.generator(gen.SEED)
    for _ in range(1000):
        f = g.internal_formula({"P": pure(1), "a": N}, depth=6)
        nf = sst_translate(f)
        assert nf.universals == ()
        assert nf.existentials == ()
        assert nf.matrix is f


def test_normal_forms_are_fixpoints_1000():
    g = gen.generator(gen.SEED + 1)
    for _ in range(1000):
        nf = simplify(g.normal_form({"P": pure(1)}))
        back = sst_translate(nf_to_formula(nf))
        assert alpha_eq_nf(back, nf), show_nf(nf)


def test_canonical_renaming_is_stable():
    nf = parse_nf("universals: b:0, a:0\nexistentials: c:1\n"
                  "matrix: c(a) = b")
    c = canon_nf(nf)
    assert show_nf(c) == "(forall^st x0:0, x1:0) (exists^st y0:1) y0(x1) = x0"
    assert show_nf(canon_nf(c)) == show_nf(c)


def test_alpha_eq_nf_respects_block_order():
    a = parse_nf("universals: u:0, v:0\nmatrix: u <= v")
    b = parse_nf("universals: v:0, u:0\nmatrix: v <= u")
    c = parse_nf("universals: u:0, v:0\nmatrix: v <= u")
    assert alpha_eq_nf(a, b)  # same modulo renaming
    assert not alpha_eq_nf(a, c)


def test_signature_sorts_types():
    nf = parse_nf("universals: f:1, n:0\nexistentials: g:1\n"
                  "matrix: f(n) = g(n)")
    assert nf_signature(nf) == (("0", "1"), ("1",))


def test_nf_file_round_trip():
    text = ("universals: f:1, Psi:1 -> 1\n"
            "existentials: y:0, k:0\n"
            "matrix: Psi(f, k) = y -> f(y) = 0\n")
    nf = parse_nf(text)
    assert show_nf_file(nf) == text
    assert alpha_eq_nf(parse_nf(show_nf_file(nf)), nf)


def test_guard_instantiation_under_bounded_prefix():
    # (forall x) (exists w in ws) [x != v \/ m(x, w)]
    # instantiates x := v and then collapses the candidate sequence
    nf = parse_nf(
        "universals: v:0\nexistentials: ws:0*\n"
        "matrix: (forall x:0) (exists w in ws) (x != v \\/ Q(x, w) = 0)",
        {"Q": parse_type("0 -> 0 -> 0")})
    got = simplify(nf)
    want = parse_nf("universals: v:0\nexistentials: w:0\n"
                    "matrix: Q(v, w) = 0",
                    {"Q": parse_type("0 -> 0 -> 0")})
    assert alpha_eq_nf(got, want)


def test_seq_collapse_blocked_across_opposite_flavour():
    # the candidate sequence cannot be collapsed through an
    # existential quantifier: the result would pick per-instance
    nf = parse_nf(
        "universals: W:0*\nmatrix: (exists u:0) (forall w in W) w <= u")
    got = simplify(nf)
    assert got.universals[0].ty == parse_type("0*")
    assert "forall w in W" in show_nf(got)


def test_singleton_candidate_collapses():
    nf = parse_nf(
        "universals: v:0\n"
        "matrix: (exists w in append[0](empty[0], v)) w = v")
    got = simplify(nf)
    assert show_nf(got) == "(forall^st v:0) v = v"


def test_vacuous_quantifiers_dropped():
    nf = parse_nf("matrix: (forall x:0) ((exists i <= 3) 0 = 0)")
    assert show_nf(simplify(nf)) == "0 = 0"


def test_unused_block_variables_dropped():
    nf = parse_nf("universals: x:0, f:1\nexistentials: y:0\n"
                  "matrix: f(f(0)) = 0")
    got = simplify(nf)
    assert show_nf(got) == "(forall^st f:1) f(f(0)) = 0"


def test_matrix_implication_survives_round_trip():
    nf = simplify(parse_nf(
        "universals: x:0\nexistentials: u:0\n"
        "matrix: x = 0 -> u = 1"))
    back = sst_translate(nf_to_formula(nf))
    assert alpha_eq_nf(back, nf)
    assert "->" in show_formula(back.matrix)


def test_approx_at_type_one_unfolds_pointwise():
    nf = sst_translate(parse_formula("approx[1](f, g)",
                                     params={"f": pure(1), "g": pure(1)}))
    assert show_nf(nf) == "(forall^st w:0) f(w) = g(w)"
