from pathlib import Path

import pytest

import refeval
import rszoo
from rszoo.interp import eval_formula, parse_model_config
from rszoo.lang import (ExistsSt, ForallSt, parse_formula, parse_type,
                        show_formula, show_type, strip)
from rszoo.normalform import (BZT_BOUND, BZT_TABLE, NormalFormError,
                              herbrandize_choice, normalize_backward,
                              normalize_principle, prenex_to_normal,
                              resolve_approx, trans_instance, uniformize)
from rszoo.translate import nf_blocks, parse_nf

UDNR = Path(rszoo.__file__).parent / "corpus_data" / "udnr"
DNR_BASE = ("(forall Z:1)(exists d:1)(forall e:0)(forall s:0)"
            "(run(Z, e, s) = 0 \\/ ~(succ(d(e)) = run(Z, e, s)))")


def small_model(extra=""):
    return parse_model_config(
        "cap = 3\nomega = 2\n"
        "table Z0: 0 1 0 0 [st]\n"
        "bind Psi0: psi_theta [st]\n"
        "bind Xi0: xi_search Psi0 [st]\n" + extra)


# -- uniformize ---------------------------------------------------------------

def test_uniformize_flips_quantifiers():
    up = uniformize(parse_formula(DNR_BASE))
    assert show_formula(up.uniform) == (
        "(exists Psi:1 -> 1) (forall Z:1, e:0, s:0) run(Z, e, s) = 0 "
        "\\/ succ(Psi(Z, e)) != run(Z, e, s)")
    assert [v.name for v in up.functionals] == ["Psi"]


def test_uniformize_strong_adds_extensionality():
    # approx[1](X, Y) is (forall^st u:0) X(u) = Y(u)
    up = uniformize(parse_formula(DNR_BASE))
    assert show_formula(up.strong) == (
        "(exists^st Psi:1 -> 1) ((forall^st Z:1) (forall e:0, s:0) "
        "run(Z, e, s) = 0 \\/ succ(Psi(Z, e)) != run(Z, e, s)) /\\ "
        "((forall^st X:1, Y:1) ((forall^st u:0) X(u) = Y(u)) -> "
        "(forall^st u:0) Psi(X, u) = Psi(Y, u))")


def test_uniformize_without_existential_degenerates():
    up = uniformize(parse_formula(
        "(forall X:1)(forall n:0) (exists z <= 1) z = X(n)"))
    assert up.functionals == ()
    assert show_formula(up.strong) == \
        "(forall^st X:1, n:0) (exists z <= 1) z = X(n)"


def test_uniformize_rejects_other_shapes():
    with pytest.raises(NormalFormError,
                       match="opening with plain universal quantifiers"):
        uniformize(parse_formula("(exists y:0) y = 0"))
    with pytest.raises(NormalFormError,
                       match="opening with plain universal quantifiers"):
        uniformize(parse_formula(
            "((forall n:0) n = 1) -> (exists y:0) y = 0"))
    with pytest.raises(NormalFormError, match="internal"):
        uniformize(parse_formula(
            "(forall X:1)(exists d:1) (exists^st y:0) y = d(0)"))
    with pytest.raises(NormalFormError,
                       match="^matrix must be internal; found ForallSt$"):
        uniformize(parse_formula("(forall X:1)(exists d:1) approx[1](X, d)"))


# -- resolve_approx -----------------------------------------------------------

def test_resolve_approx_type_one():
    up = uniformize(parse_formula(DNR_BASE))
    out = resolve_approx(up.strong)
    assert show_formula(out).endswith(
        "((forall^st X:1, Y:1, k:0) (exists^st N:0) "
        "initseg(X, N) = initseg(Y, N) -> "
        "initseg(Psi(X), k) = initseg(Psi(Y), k))")


def test_resolve_approx_under_a_bounded_quantifier():
    t1 = parse_type("1")
    f = parse_formula("(exists n <= 3) (approx[1](f, g) -> approx[1](h, j))",
                      params=dict.fromkeys("fghj", t1))
    assert show_formula(resolve_approx(f)) == (
        "(exists n <= 3) (forall^st k:0) (exists^st N:0) "
        "initseg(f, N) = initseg(g, N) -> initseg(h, k) = initseg(j, k)")


def test_resolve_approx_type_zero_is_plain_equality():
    f = parse_formula(
        "(forall^st a:0, b:0)(approx[0](a, b) -> approx[0](a, b))")
    out = resolve_approx(f)
    assert show_formula(out) == "(forall^st a:0, b:0) a = b -> a = b"


def test_resolve_approx_diagonalizes_two_argument_tables():
    base = parse_formula(
        "(forall R:0 -> 0 -> 0)(exists d:1)(forall i:0)(R(i, d(i)) = 1)")
    out = show_formula(resolve_approx(uniformize(base).strong))
    assert "initseg(\\i1:0. X(nunl(i1), nunr(i1)), N)" in out


def test_resolve_approx_rejects_unencodable_types():
    f = parse_formula(
        "(forall^st F:2, G:2)(approx[2](F, G) -> approx[0](F(\\x:0. x), "
        "G(\\x:0. x)))")
    with pytest.raises(NormalFormError, match="no prefix encoding"):
        resolve_approx(f)
    # a sequence type under an arrow has none either
    up = uniformize(parse_formula(
        "(forall P:0 -> 0*)(exists y:0) P(y) = P(0)"))
    with pytest.raises(NormalFormError,
                       match="^no prefix encoding at type 0 -> 0\\*$"):
        resolve_approx(up.strong)


def test_resolve_approx_rejects_stray_approx():
    # an approx outside an extensionality implication is not rewritten:
    # it stays the standard quantifier it is, for prenex_to_normal
    f = parse_formula("approx[1](f, g)",
                      params={"f": parse_type("1"), "g": parse_type("1")})
    assert resolve_approx(f) == f


# -- herbrandize_choice ---------------------------------------------------------

def test_herbrandize_collapses_numeric_witness():
    f = parse_formula(
        "(forall^st X:1, k:0)(exists^st N:0)"
        "(initseg(X, N) = initseg(X, N))")
    out = herbrandize_choice(f)
    assert show_formula(out) == (
        "(exists^st Xi:1 -> 1) (forall^st X:1, k:0) "
        "initseg(X, Xi(X, k)) = initseg(X, Xi(X, k))")


def test_herbrandize_refuses_a_witness_above_type_0():
    # type-1 candidates have no maximum, and pulling g out from under X
    # as it stands would claim one g for every X
    f = parse_formula("(forall^st X:1)(exists^st g:1)(g(0) = X(0))")
    with pytest.raises(NormalFormError, match=(
            "^no max-collapse for the standard existential 'g' of type 1: "
            "only a type-0 witness collapses$")):
        herbrandize_choice(f)


def test_herbrandize_leaves_an_external_matrix_alone():
    # the existential's body is no internal matrix, so there is nothing
    # to collapse
    f = parse_formula(
        "(forall^st X:1)(exists^st N:0)((forall^st u:0) X(u) = N)")
    assert herbrandize_choice(f) is f


# -- prenex ---------------------------------------------------------------------

def test_prenex_consequent_first_order():
    base = parse_formula(DNR_BASE)
    universals, existentials, _ = nf_blocks(normalize_principle(base))
    assert [v.name for v in universals] == ["f", "Psi", "Xi"]
    assert [v.name for v in existentials] == ["y", "Z", "X", "Y", "k"]
    assert [show_type(v.ty) for v in universals] == [
        "1", "1 -> 1", "1 -> 1 -> 1"]
    assert [show_type(v.ty) for v in existentials] == [
        "0", "1", "1", "1", "0"]


def test_prenex_renames_clashes():
    f = parse_formula(
        "((exists^st x:0) x = 0) -> (forall^st x:0)(exists^st y:0) y = x")
    universals, existentials, _ = nf_blocks(prenex_to_normal(f))
    names = [v.name for v in universals + existentials]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("src, kind", [
    ("(forall n:0)(exists^st y:0) y = n", "ExistsSt"),
    # approx[1](n, n) is (forall^st u:0) n(u) = n(u)
    ("(forall n:1) approx[1](n, n)", "ForallSt"),
    ("(exists n <= 3) (exists^st y:0) y = n", "ExistsSt"),
])
def test_prenex_reports_trapped_standard_structure(src, kind):
    with pytest.raises(NormalFormError, match=(
            rf"^standard structure \({kind}\) trapped under plain "
            "quantifier binding 'n'$")):
        prenex_to_normal(parse_formula(src))


def test_prenex_leaves_internal_matrix_alone():
    f = parse_formula("(forall^st w:0)(forall n:0)(exists m:0) m = n")
    universals, _, matrix = nf_blocks(prenex_to_normal(f))
    assert [v.name for v in universals] == ["w"]
    assert show_formula(matrix) == "(forall n:0) (exists m:0) m = n"


# -- the composed pipeline --------------------------------------------------------

EXPECTED_DNR_NF = (
    "(forall^st f:1, Psi:1 -> 1, Xi:1 -> 1 -> 1) "
    "(exists^st y:0, Z:1, X:1, Y:1, k:0) "
    "((forall e:0, s:0) run(Z, e, s) = 0 \\/ succ(Psi(Z, e)) != "
    "run(Z, e, s)) /\\ (initseg(X, Xi(X, Y, k)) = initseg(Y, Xi(X, Y, k)) "
    "-> initseg(Psi(X), k) = initseg(Psi(Y), k)) -> "
    "((exists x:0) f(x) = 0) -> (exists z <= y) f(z) = 0")


def test_pipeline_output_frozen():
    nf = normalize_principle(parse_formula(DNR_BASE))
    assert show_formula(nf) == EXPECTED_DNR_NF


@pytest.mark.parametrize("build", [
    lambda: normalize_principle(parse_formula(
        (UDNR / "principle.fml").read_text())),
    lambda: normalize_principle(parse_formula(DNR_BASE)),
    lambda: trans_instance().normal,
    lambda: normalize_backward(parse_formula(
        (UDNR / "principle.fml").read_text())),
], ids=["udnr", "dnr", "transfer", "udnr-backward"])
def test_pipeline_output_is_a_normal_form(build):
    # the formula prenex_to_normal builds has an internal matrix and
    # distinct block names, so it reads back as itself
    nf = build()
    universals, existentials, _ = nf_blocks(nf)
    assert universals and existentials
    assert parse_nf(show_formula(nf)) == nf


@pytest.mark.parametrize("principle", [
    (UDNR / "principle.fml").read_text(),
    DNR_BASE,
    "(forall f:1)(exists y:0) f(y) = 0",
    "(forall y:1)(exists f:1)(forall e:0) f(e) = y(e)",
], ids=["udnr", "dnr", "binds-f-and-y", "binds-y-and-f"])
def test_forward_normal_form_holds_the_target(principle):
    # postprocess and the collapse read the target's bound y and table f
    # off the built form unchecked: the blocks hold both, and the
    # consequent is the target's.  A principle that binds f or y itself
    # has its own name renamed (f1, y1), never the target's
    universals, existentials, matrix = nf_blocks(
        normalize_principle(parse_formula(principle)))
    assert BZT_TABLE in universals and BZT_BOUND in existentials
    assert matrix.right == nf_blocks(trans_instance().normal)[2]


def test_pipeline_stage_labels():
    steps = []
    normalize_principle(parse_formula(DNR_BASE), steps=steps)
    assert [l for l, _ in steps] == [
        "input", "uniform", "strong", "prefix-resolved",
        "choice-collapsed", "implication", "normal-form"]


def test_pipeline_truth_equivalent_when_true():
    steps = []
    nf = normalize_principle(parse_formula(DNR_BASE), steps=steps)
    imp = dict(steps)["implication"]
    m = small_model()
    assert eval_formula(m, imp) is True
    assert eval_formula(m, nf) is True


def test_pipeline_truth_equivalent_when_false():
    # a standard table whose only zero lies beyond the standard cut
    # falsifies the bounded-zero target, hence both forms
    steps = []
    nf = normalize_principle(parse_formula(DNR_BASE), steps=steps)
    imp = dict(steps)["implication"]
    m = small_model("table f0: 1 1 1 0 [st]\n")
    assert eval_formula(m, imp) is False
    assert eval_formula(m, nf) is False


# -- the backward normal form -------------------------------------------------

EXPECTED_DNR_BACKWARD_NF = (
    "(forall^st mu:2, Z:1) (exists^st d:1) ((forall h:1) ((exists x:0) "
    "h(x) = 0) -> h(mu(h)) = 0) -> (forall e:0, s:0) run(Z, e, s) = 0 \\/ "
    "succ(d(e)) != run(Z, e, s)")


def test_backward_output_frozen():
    # Feferman's (mu^2) for a standard mu:2 in front of the relativized
    # statement, brought to the front
    nf = normalize_backward(parse_formula(DNR_BASE))
    assert show_formula(nf) == EXPECTED_DNR_BACKWARD_NF


def test_backward_takes_a_fresh_name_for_mu():
    nf = normalize_backward(parse_formula(
        "(forall mu:1)(exists d:0) d = mu(0)"))
    assert show_formula(nf) == (
        "(forall^st mu1:2, mu:1) (exists^st d:0) ((forall h:1) "
        "((exists x:0) h(x) = 0) -> h(mu1(h)) = 0) -> d = mu(0)")


def test_backward_rejects_other_shapes():
    # a statement without existentials has no backward content; other
    # shapes are refused as uniformize refuses them
    with pytest.raises(NormalFormError, match="^the backward normal form "
                       "needs an existential block$"):
        normalize_backward(parse_formula(
            "(forall X:1)(forall n:0) (exists z <= 1) z = X(n)"))
    with pytest.raises(NormalFormError,
                       match="opening with plain universal quantifiers"):
        normalize_backward(parse_formula("(exists y:0) y = 0"))


# -- transfer target ---------------------------------------------------------------

def test_transfer_normal_shape():
    ti = trans_instance()
    assert show_formula(ti.normal) == (
        "(forall^st f:1) (exists^st y:0) ((exists x:0) f(x) = 0) -> "
        "(exists z <= y) f(z) = 0")
    assert show_formula(ti.transfer) == (
        "(forall^st f:1) ((forall^st x:0) f(x) != 0) -> "
        "(forall x:0) f(x) != 0")


def both_shapes(ti, model) -> tuple[bool, bool]:
    return (eval_formula(model, ti.transfer),
            eval_formula(model, ti.normal))


def test_transfer_equivalence_holds_in_models():
    ti = trans_instance()
    assert both_shapes(ti, small_model()) == (True, True)
    # still agree when both shapes go false
    assert both_shapes(ti, small_model("table f0: 1 1 1 0 [st]\n")) == (
        False, False)


def test_transfer_equivalence_compiles_each_shape_once():
    ti = trans_instance()
    model = small_model()
    both_shapes(ti, model)
    cached = len(model._compiled)
    for _ in range(3):
        assert both_shapes(ti, model) == (True, True)
    assert len(model._compiled) == cached


def test_prenex_under_negation_flips_the_blocks():
    # ~ turns the standard exists into the universal block and the
    # forall into the existential one; both shapes agree in the model
    f = parse_formula("~((exists^st x:0) (forall^st y:0) succ(y) = x)")
    nf = prenex_to_normal(f)
    assert show_formula(nf) == \
        "(forall^st x:0) (exists^st y:0) succ(y) != x"
    model = small_model()
    assert eval_formula(model, f) is eval_formula(model, nf)
    assert refeval.formula(small_model(), nf, {}) is \
        refeval.formula(small_model(), f, {})


def test_resolve_approx_expands_a_premise_of_two_approx_atoms():
    # two universals give Psi two arguments, so its extensionality
    # premise is a conjunction of two approx atoms: both compare
    # prefixes up to one N
    up = uniformize(parse_formula(
        "(forall f:1, g:1) (exists y:0) f(y) = g(y)"))
    ext = strip(strip(up.strong, ExistsSt)[1].right, ForallSt)[1]
    assert show_formula(ext) == (
        "((forall^st u:0) X(u) = Y(u)) /\\ ((forall^st u:0) X1(u) = Y1(u)) "
        "-> Psi(X, X1) = Psi(Y, Y1)")
    resolved = strip(strip(resolve_approx(up.strong), ExistsSt)[1].right,
                     ForallSt)[1]
    assert show_formula(resolved) == (
        "(exists^st N:0) initseg(X, N) = initseg(Y, N) /\\ "
        "initseg(X1, N) = initseg(Y1, N) -> Psi(X, X1) = Psi(Y, Y1)")
