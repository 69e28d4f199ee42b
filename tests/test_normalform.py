import itertools
from pathlib import Path

import pytest

import refeval
import rszoo
from rszoo.interp import (FnV, MiniModel, eval_formula, parse_model_config,
                          table_fn)
from rszoo.lang import (ForallSt, Implies, parse_formula, pure, show_formula,
                        show_type, strip)
from rszoo.normalform import (BZT_BOUND, BZT_TABLE, NormalFormError,
                              normalize_backward, normalize_principle,
                              prenex_to_normal, trans_instance, uniformize)
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
    # the existential d becomes the standard functional Psi, applied to
    # the universals
    assert show_formula(uniformize(parse_formula(DNR_BASE))).startswith(
        "(exists^st Psi:1 -> 1) ((forall^st Z:1) (forall e:0, s:0) "
        "run(Z, e, s) = 0 \\/ succ(Psi(Z, e)) != run(Z, e, s)) /\\ ")


def test_uniformize_strong_adds_extensionality():
    # Psi's extensionality on initial segments, with its modulus Xi
    assert show_formula(uniformize(parse_formula(DNR_BASE))).endswith(
        "/\\ ((exists^st Xi:1 -> 1 -> 1) (forall^st X:1, Y:1, k:0) "
        "((forall i:0) monus(Xi(X, Y, k), i) = 0 \\/ X(i) = Y(i)) -> "
        "(forall i:0) monus(k, i) = 0 \\/ Psi(X, i) = Psi(Y, i))")


def test_uniformize_without_existential_degenerates():
    assert show_formula(uniformize(parse_formula(
        "(forall X:1)(forall n:0) monus(X(n), 1) = 0"))) == \
        "(forall^st X:1, n:0) monus(X(n), 1) = 0"


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
        uniformize(parse_formula(
            "(forall X:1)(exists d:1) (forall^st u:0) X(u) = d(u)"))


# -- the extensionality comparison ------------------------------------------------

def test_resolve_approx_type_one():
    # type-1 sides agree on an initial segment: the argument's up to Xi,
    # the output's up to k
    out = show_formula(uniformize(parse_formula(
        "(forall X:1)(exists d:1) d(0) = X(0)")))
    assert out.endswith(
        "((exists^st Xi:1 -> 1 -> 1) (forall^st X1:1, Y:1, k:0) "
        "((forall i:0) monus(Xi(X1, Y, k), i) = 0 \\/ X1(i) = Y(i)) -> "
        "(forall i:0) monus(k, i) = 0 \\/ Psi(X1, i) = Psi(Y, i))")


def test_resolve_approx_diagonalizes_two_argument_tables():
    base = parse_formula(
        "(forall R:0 -> 0 -> 0)(exists d:1)(forall i:0)(R(i, d(i)) = 1)")
    out = show_formula(uniformize(base))
    # the statement binds i, so the clause's index is i1
    assert ("(forall i1:0) monus(Xi(X, Y, k), i1) = 0 \\/ "
            "X(nunl(i1), nunr(i1)) = Y(nunl(i1), nunr(i1))") in out


@pytest.mark.parametrize("cap", [2, 3])
def test_agreement_below_n_reads_only_the_cells_below_n(cap):
    # the premise of a type-1 argument's clause, with Xi answering n,
    # holds iff the tables agree on their first n cells; i < n spelled
    # with succ would read cell cap at n = cap, where succ(cap) saturates
    clause = uniformize(parse_formula(
        "(forall X:1)(exists c:0) c = X(0)")).body.right
    (x, y), body = strip(clause.body, ForallSt)
    agree = body.left
    m = MiniModel(cap, 1)
    for cells in itertools.product(range(cap + 1), repeat=cap + 1):
        # the same table, and each table that differs from it in one cell
        others = [cells] + [cells[:j] + ((cells[j] + 1) % (cap + 1),)
                            + cells[j + 1:] for j in range(cap + 1)]
        for other, n in itertools.product(others, range(cap + 1)):
            env = {x.name: table_fn(cells, m), y.name: table_fn(other, m),
                   clause.var.name: FnV(lambda _x, n=n: FnV(lambda _y: n))}
            assert eval_formula(m, agree, env) == (cells[:n] == other[:n])
            assert not m.overflowed


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
    ("(forall n:1) (forall^st u:0) n(u) = n(u)", "ForallSt"),
    ("(exists n:0) monus(n, 3) = 0 /\\ ((exists^st y:0) y = n)",
     "ExistsSt"),
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
    "run(Z, e, s)) /\\ "
    "(((forall i:0) monus(Xi(X, Y, k), i) = 0 \\/ X(i) = Y(i)) -> "
    "(forall i:0) monus(k, i) = 0 \\/ Psi(X, i) = Psi(Y, i)) -> "
    "((exists x:0) f(x) = 0) -> "
    "(exists z:0) monus(z, y) = 0 /\\ f(z) = 0")


def test_pipeline_output_frozen():
    nf = normalize_principle(parse_formula(DNR_BASE))
    assert show_formula(nf) == EXPECTED_DNR_NF


# each functional's extensionality clause, with its modulus Xi, in the
# normal form: a principle and its normal form, or the refusal's message
FROZEN = {
    # one Xi over a conjunction; the output is a number, so there is no k
    "two-type-1-arguments": (
        "(forall f:1, g:1) (exists y:0) f(y) = g(y)",
        "(forall^st f:1, Psi:1 -> 2, Xi:1 -> 1 -> 1 -> 2) "
        "(exists^st y:0, f1:1, g:1, X:1, X1:1, Y:1, Y1:1) "
        "f1(Psi(f1, g)) = g(Psi(f1, g)) /\\ "
        "(((forall i:0) monus(Xi(X, X1, Y, Y1), i) = 0 \\/ X(i) = Y(i)) /\\ "
        "((forall i:0) monus(Xi(X, X1, Y, Y1), i) = 0 \\/ X1(i) = Y1(i)) -> "
        "Psi(X, X1) = Psi(Y, Y1)) -> ((exists x:0) f(x) = 0) -> "
        "(exists z:0) monus(z, y) = 0 /\\ f(z) = 0"),
    # a 0 -> 0 -> 0 argument is compared along the diagonal
    "two-argument-table": (
        "(forall R:0 -> 0 -> 0)(exists d:1)(forall i:0) R(i, d(i)) = 1",
        "(forall^st f:1, Psi:(0 -> 1) -> 1, Xi:(0 -> 1) -> (0 -> 1) -> 1) "
        "(exists^st y:0, R:0 -> 1, X:0 -> 1, Y:0 -> 1, k:0) "
        "((forall i:0) R(i, Psi(R, i)) = 1) /\\ "
        "(((forall i1:0) monus(Xi(X, Y, k), i1) = 0 \\/ "
        "X(nunl(i1), nunr(i1)) = Y(nunl(i1), nunr(i1))) -> "
        "(forall i1:0) monus(k, i1) = 0 \\/ Psi(X, i1) = Psi(Y, i1)) -> "
        "((exists x:0) f(x) = 0) -> "
        "(exists z:0) monus(z, y) = 0 /\\ f(z) = 0"),
    # numbers throughout: neither Xi nor k
    "type-0-only": (
        "(forall a:0, b:0)(exists c:0) c = b",
        "(forall^st f:1, Psi:0 -> 1) "
        "(exists^st y:0, a:0, b:0, X:0, X1:0, Y:0, Y1:0) Psi(a, b) = b /\\ "
        "(X = Y /\\ X1 = Y1 -> Psi(X, X1) = Psi(Y, Y1)) -> "
        "((exists x:0) f(x) = 0) -> "
        "(exists z:0) monus(z, y) = 0 /\\ f(z) = 0"),
    # number arguments: k but no Xi
    "type-0-arguments": (
        "(forall a:0)(exists c:1) c(0) = a",
        "(forall^st f:1, Psi:0 -> 1) "
        "(exists^st y:0, a:0, X:0, Y:0, k:0) Psi(a, 0) = a /\\ (X = Y -> "
        "(forall i:0) monus(k, i) = 0 \\/ Psi(X, i) = Psi(Y, i)) -> "
        "((exists x:0) f(x) = 0) -> "
        "(exists z:0) monus(z, y) = 0 /\\ f(z) = 0"),
    "type-0-output": (
        "(forall X:1)(exists c:0) c = X(0)",
        "(forall^st f:1, Psi:2, Xi:1 -> 2) "
        "(exists^st y:0, X:1, X1:1, Y:1) Psi(X) = X(0) /\\ "
        "(((forall i:0) monus(Xi(X1, Y), i) = 0 \\/ X1(i) = Y(i)) -> "
        "Psi(X1) = Psi(Y)) -> ((exists x:0) f(x) = 0) -> "
        "(exists z:0) monus(z, y) = 0 /\\ f(z) = 0"),
    # the first clause's output is a number, so only the second takes k
    "two-functionals": (
        "(forall X:1)(exists a:0, b:1) a = b(0)",
        "(forall^st f:1, Psi:2, Psi2:1 -> 1, Xi:1 -> 2, Xi1:1 -> 1 -> 1) "
        "(exists^st y:0, X:1, X1:1, Y:1, X2:1, Y1:1, k:0) "
        "Psi(X) = Psi2(X, 0) /\\ "
        "(((forall i:0) monus(Xi(X1, Y), i) = 0 \\/ X1(i) = Y(i)) -> "
        "Psi(X1) = Psi(Y)) /\\ "
        "(((forall i1:0) monus(Xi1(X2, Y1, k), i1) = 0 \\/ "
        "X2(i1) = Y1(i1)) -> (forall i1:0) monus(k, i1) = 0 \\/ "
        "Psi2(X2, i1) = Psi2(Y1, i1)) -> ((exists x:0) f(x) = 0) -> "
        "(exists z:0) monus(z, y) = 0 /\\ f(z) = 0"),
    # a name that only the existential block binds is free for Xi
    "binds-Xi": (
        "(forall X:1, Y:1)(exists Psi:1, Xi:0) Psi(Xi) = X(Xi)",
        "(forall^st f:1, Psi1:1 -> 1 -> 1, Psi2:1 -> 2, "
        "Xi:1 -> 1 -> 1 -> 1 -> 1, Xi1:1 -> 1 -> 1 -> 2) "
        "(exists^st y:0, X:1, Y:1, X1:1, X2:1, Y1:1, Y2:1, k:0, X3:1, X4:1, "
        "Y3:1, Y4:1) Psi1(X, Y, Psi2(X, Y)) = X(Psi2(X, Y)) /\\ "
        "(((forall i:0) monus(Xi(X1, X2, Y1, Y2, k), i) = 0 \\/ "
        "X1(i) = Y1(i)) /\\ "
        "((forall i:0) monus(Xi(X1, X2, Y1, Y2, k), i) = 0 \\/ "
        "X2(i) = Y2(i)) -> (forall i:0) monus(k, i) = 0 \\/ "
        "Psi1(X1, X2, i) = Psi1(Y1, Y2, i)) /\\ "
        "(((forall i1:0) monus(Xi1(X3, X4, Y3, Y4), i1) = 0 \\/ "
        "X3(i1) = Y3(i1)) /\\ "
        "((forall i1:0) monus(Xi1(X3, X4, Y3, Y4), i1) = 0 \\/ "
        "X4(i1) = Y4(i1)) -> Psi2(X3, X4) = Psi2(Y3, Y4)) -> "
        "((exists x:0) f(x) = 0) -> "
        "(exists z:0) monus(z, y) = 0 /\\ f(z) = 0"),
    # a universal k keeps its name, so the clause's is k1; the first
    # clause's output is a number, so it takes none
    "binds-N-and-k": (
        "(forall N:1, k:1)(exists i:0, Xi:1) Xi(i) = N(i)",
        "(forall^st f:1, Psi:1 -> 2, Psi2:1 -> 1 -> 1, "
        "Xi:1 -> 1 -> 1 -> 2, Xi1:1 -> 1 -> 1 -> 1 -> 1) "
        "(exists^st y:0, N:1, k:1, X:1, X1:1, Y:1, Y1:1, X2:1, X3:1, Y2:1, "
        "Y3:1, k1:0) Psi2(N, k, Psi(N, k)) = N(Psi(N, k)) /\\ "
        "(((forall i:0) monus(Xi(X, X1, Y, Y1), i) = 0 \\/ X(i) = Y(i)) /\\ "
        "((forall i:0) monus(Xi(X, X1, Y, Y1), i) = 0 \\/ X1(i) = Y1(i)) -> "
        "Psi(X, X1) = Psi(Y, Y1)) /\\ "
        "(((forall i1:0) monus(Xi1(X2, X3, Y2, Y3, k1), i1) = 0 \\/ "
        "X2(i1) = Y2(i1)) /\\ "
        "((forall i1:0) monus(Xi1(X2, X3, Y2, Y3, k1), i1) = 0 \\/ "
        "X3(i1) = Y3(i1)) -> (forall i1:0) monus(k1, i1) = 0 \\/ "
        "Psi2(X2, X3, i1) = Psi2(Y2, Y3, i1)) -> ((exists x:0) f(x) = 0) -> "
        "(exists z:0) monus(z, y) = 0 /\\ f(z) = 0"),
    # no initial segments above type 1, nor of a function from numbers
    # to type-2 functionals
    "type-2-argument": (
        "(forall F:2)(exists c:0) c = F(\\x:0. x)",
        "no prefix encoding at type 2"),
    "type-0-to-2-argument": (
        "(forall P:0 -> 2)(exists y:0) P(y) = P(0)",
        "no prefix encoding at type 0 -> 2"),
}


@pytest.mark.parametrize("principle, expected", FROZEN.values(),
                         ids=FROZEN.keys())
def test_normalize_principle_frozen(principle, expected):
    base = parse_formula(principle)
    if not expected.startswith("(forall^st"):
        with pytest.raises(NormalFormError) as e:
            normalize_principle(base)
        assert str(e.value) == expected
        return
    assert show_formula(normalize_principle(base)) == expected


@pytest.mark.parametrize("build", [
    lambda: normalize_principle(parse_formula(
        (UDNR / "principle.fml").read_text())),
    lambda: normalize_principle(parse_formula(DNR_BASE)),
    trans_instance,
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
    assert matrix.right == nf_blocks(trans_instance())[2]


def test_pipeline_truth_equivalent_when_true():
    base = parse_formula(DNR_BASE)
    imp = Implies(uniformize(base), trans_instance())
    nf = normalize_principle(base)
    m = small_model()
    assert eval_formula(m, imp) is True
    assert eval_formula(m, nf) is True
    assert refeval.formula(small_model(), imp, {}) is True
    assert refeval.formula(small_model(), nf, {}) is True


def test_pipeline_truth_equivalent_when_false():
    # a standard table whose only zero lies beyond the standard cut
    # falsifies the bounded-zero target, hence both forms
    base = parse_formula(DNR_BASE)
    imp = Implies(uniformize(base), trans_instance())
    nf = normalize_principle(base)
    extra = "table f0: 1 1 1 0 [st]\n"
    m = small_model(extra)
    assert eval_formula(m, imp) is False
    assert eval_formula(m, nf) is False
    assert refeval.formula(small_model(extra), imp, {}) is False
    assert refeval.formula(small_model(extra), nf, {}) is False


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
            "(forall X:1)(forall n:0) monus(X(n), 1) = 0"))
    with pytest.raises(NormalFormError,
                       match="opening with plain universal quantifiers"):
        normalize_backward(parse_formula("(exists y:0) y = 0"))


# -- transfer target ---------------------------------------------------------------

def test_transfer_normal_shape():
    assert show_formula(trans_instance()) == (
        "(forall^st f:1) (exists^st y:0) ((exists x:0) f(x) = 0) -> "
        "(exists z:0) monus(z, y) = 0 /\\ f(z) = 0")


def test_transfer_consequent_means_a_bounded_zero():
    # monus(z, y) = 0 is z <= y: at cap 3, for every table f and every
    # y, the consequent holds iff some z <= y has f(z) = 0
    consequent = nf_blocks(trans_instance())[2].right
    model = MiniModel(cap=3, omega=2)
    for f in model.enum_values(pure(1)):
        for y in range(model.cap + 1):
            want = any(f.table[z] == 0 for z in range(y + 1))
            env = {"f": f, "y": y}
            assert eval_formula(model, consequent, env) is want, (f.table, y)
            assert refeval.formula(model, consequent, env) is want


# the transfer statement in its raw implication shape
TRANSFER = ("(forall^st f:1) ((forall^st x:0) f(x) != 0) -> "
            "(forall x:0) f(x) != 0")


def both_shapes(model) -> tuple[bool, bool]:
    return (eval_formula(model, parse_formula(TRANSFER)),
            eval_formula(model, trans_instance()))


def test_transfer_equivalence_holds_in_models():
    assert both_shapes(small_model()) == (True, True)
    # still agree when both shapes go false
    assert both_shapes(small_model("table f0: 1 1 1 0 [st]\n")) == (
        False, False)


def test_transfer_equivalence_compiles_each_shape_once():
    model = small_model()
    both_shapes(model)
    cached = len(model._compiled)
    for _ in range(3):
        assert both_shapes(model) == (True, True)
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
