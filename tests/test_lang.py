import itertools
from pathlib import Path

import pytest

import gen
import rszoo
from canon import canon, canon_nf
from rszoo.extract import parse_script
from rszoo.interp import MiniModel, eval_formula, eval_term
from rszoo.lang import (Abs, And, App, Arrow, Atom, BForall, Eq, Exists, Forall,
                        N, Not, ParseError, Seq, TypeCheckError, Var,
                        all_names_f, alpha_eq, alpha_eq_f, app, free_vars,
                        free_vars_f, infer_type, is_internal, lam, num,
                        parse_formula, parse_term, parse_type, pure,
                        show_formula, show_term, show_type, subst_f,
                        substitute)
from rszoo.lang.parser import Parser
from rszoo.lang.terms import PLUS, all_names
from rszoo.translate import NormalForm, alpha_eq_nf, parse_nf

UDNR = Path(rszoo.__file__).parent / "corpus_data" / "udnr"


def test_pure_types_round_trip():
    for n in range(5):
        assert parse_type(str(n)) == pure(n)
        assert show_type(pure(n)) == str(n)


def test_type_printer_structure():
    assert show_type(parse_type("1 -> 1")) == "1 -> 1"
    # pure types print as their numeral
    assert show_type(parse_type("(0 -> 0) -> 0")) == "2"
    assert show_type(Arrow(pure(1), N)) == "2"
    assert show_type(parse_type("0 x 1*")) == "0 x 1*"
    assert show_type(parse_type("(0 x 1)*")) == "(0 x 1)*"
    assert show_type(parse_type("(0 -> 1) -> 1 x 1")) == "(0 -> 1) -> 1 x 1"


def test_type_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_type("0 -> ")
    assert "1:" in str(e.value)


def test_a_digit_that_is_no_decimal_digit_is_a_parse_error():
    # "²" tokenizes as a number (str.isdigit), but int() rejects it
    for parse in (parse_term, parse_type):
        with pytest.raises(ParseError) as e:
            parse("²")
        assert (e.value.msg, e.value.line, e.value.col) == \
            ("bad number '²'", 1, 1)


def test_term_application_display():
    f = Var("f", parse_type("0 -> 0 -> 0"))
    t = app(f, num(1), num(2))
    assert show_term(t) == "f(1, 2)"
    assert parse_term("f(1, 2)", params={"f": f.ty}) == t


def test_lambda_round_trip():
    src = "\\x:0. succ(x)"
    t = parse_term(src)
    assert show_term(t) == src
    assert infer_type(t, {}) == parse_type("0 -> 0")


def test_infer_type_checks_free_variables_against_the_env():
    # the type kept on the node is the type in any env that agrees with
    # the free variables; a disagreeing env or an ill-typed term raises
    # the error of the full walk
    x0, x1, f = Var("x", N), Var("x", pure(1)), Var("f", pure(1))
    t = Abs(Var("y", N), App(f, x0))
    assert infer_type(t) == pure(1)
    assert infer_type(t, {"x": N, "f": pure(1), "z": N}) == pure(1)
    assert infer_type(Abs(x1, App(x1, num(0))), {"x": N}) == pure(2)
    with pytest.raises(TypeCheckError,
                       match="^variable x used at type 0 but declared at 1$"):
        infer_type(t, {"x": pure(1)})
    with pytest.raises(TypeCheckError,
                       match="^variable x used at type 1 but declared at 0$"):
        infer_type(Abs(x0, App(f, App(x1, num(0)))))
    with pytest.raises(TypeCheckError,
                       match="^argument type mismatch: expected 0, got 1$"):
        infer_type(App(f, f))
    with pytest.raises(TypeCheckError,
                       match="^applied non-function of type 0$"):
        infer_type(App(x0, x0))
    # the walk meets the variable before the application
    with pytest.raises(TypeCheckError,
                       match="^variable x used at type 0 but declared at 1$"):
        infer_type(App(x0, x0), {"x": pure(1)})


def test_candidate_application_brackets():
    Y = Var("Y", parse_type("0 -> 0*"))
    src = "Y[3]"
    t = parse_term(src, params={"Y": Y.ty})
    assert show_term(t) == src
    assert infer_type(t, {}) == Seq(N)


def test_substitution_avoids_capture():
    # (\y:0. plus(x, y))[x := y] must rename the binder
    t = parse_term("\\y:0. plus(x, y)", params={"x": N})
    s = substitute(t, {Var("x", N): Var("y", N)})
    assert alpha_eq(s, parse_term("\\z:0. plus(y, z)", params={"y": N}))
    assert not alpha_eq(s, parse_term("\\y:0. plus(y, y)"))


def test_alpha_eq_distinguishes_shadowing():
    a = lam(Var("x", N), lam(Var("x", N), Var("x", N)))
    b = lam(Var("x", N), lam(Var("y", N), Var("x", N)))
    assert not alpha_eq(a, b)
    c = lam(Var("u", N), lam(Var("v", N), Var("v", N)))
    assert alpha_eq(a, c)


def test_formula_round_trip_and_alpha():
    src = "(forall x:0) (exists y:0) plus(x, y) = 3"
    f = parse_formula(src)
    assert show_formula(f) == src
    g = parse_formula("(forall u:0) (exists v:0) plus(u, v) = 3")
    assert alpha_eq_f(f, g)


def test_alpha_eq_avoids_capturing_free_names():
    x, y = Var("x", N), Var("y", N)
    free = parse_formula("(forall x:0) x = v0", params={"v0": N})
    bound = parse_formula("(forall y:0) y = y")
    assert not alpha_eq_f(free, bound)
    assert alpha_eq_f(free, parse_formula("(forall z:0) z = v0",
                                          params={"v0": N}))
    # the same pair as a matrix, and with the binder in a universal block
    assert not alpha_eq_nf(NormalForm((), (), free), NormalForm((), (), bound))
    assert not alpha_eq_nf(NormalForm((x,), (), free.body),
                           NormalForm((y,), (), bound.body))


def test_alpha_eq_renames_lambda_binders():
    x = Var("x", N)
    a = parse_formula("(\\y:0. y)(x) = 0", params={"x": N})
    b = parse_formula("(\\z:0. z)(x) = 0", params={"x": N})
    assert alpha_eq_f(a, b)
    assert alpha_eq_nf(NormalForm((x,), (), a), NormalForm((x,), (), b))
    # a lambda binder does not capture a free name either
    free = parse_formula("(\\y:0. v0)(x) = 0", params={"x": N, "v0": N})
    bound = parse_formula("(\\y:0. y)(x) = 0", params={"x": N})
    assert not alpha_eq_f(free, bound)
    assert not alpha_eq_nf(NormalForm((), (), free), NormalForm((), (), bound))
    # nor does a quantifier capture a name bound by a lambda inside it
    nested = parse_formula("(forall v0:0) (\\y:0. y)(v0) = 0")
    assert alpha_eq_f(nested,
                      parse_formula("(forall w:0) (\\v0:0. v0)(w) = 0"))
    assert not alpha_eq_f(nested,
                          parse_formula("(forall w:0) (\\v0:0. w)(w) = 0"))


def test_neq_display():
    f = parse_formula("x != 0", params={"x": N})
    assert f == Not(Atom("=", (Var("x", N), num(0))))
    assert show_formula(f) == "x != 0"


def test_internal_flag():
    assert is_internal(parse_formula("(forall x:0) x = x"))
    assert not is_internal(parse_formula("st(0)"))
    assert not is_internal(parse_formula("(forall^st x:0) x = x"))
    assert not is_internal(
        parse_formula("(forall x:1) approx[1](x, x)"))


def test_bounded_quantifier_kinds():
    f = parse_formula("(forall i <= 4) (exists j < i) j != i")
    bf = f
    assert isinstance(bf, BForall)
    assert bf.kind == "le"
    assert show_formula(f) == "(forall i <= 4) (exists j < i) j != i"


def test_membership_bound_takes_type_from_sequence():
    f = parse_formula("(exists v in s) v = 0", params={"s": Seq(N)})
    assert show_formula(f) == "(exists v in s) v = 0"


def test_quantifier_scope_is_maximal():
    f = parse_formula("(forall x:0) x = 0 -> x = 1")
    # the implication is inside the quantifier
    assert isinstance(f, Forall)
    assert show_formula(f) == "(forall x:0) x = 0 -> x = 1"


def test_ambiguous_quantifier_operand_rejected():
    with pytest.raises(ParseError) as e:
        parse_formula("x = 0 /\\ (forall y:0) y = y", params={"x": N})
    assert "parenthesize" in str(e.value)
    with pytest.raises(ParseError):
        parse_formula("~(forall y:0) y = y")
    # parenthesized versions are fine
    parse_formula("x = 0 /\\ ((forall y:0) y = y)", params={"x": N})
    parse_formula("~((forall y:0) y = y)")


def test_grouped_binders_share_and_split_types():
    f = parse_formula("(forall x, y:0, f:1) f(x) = y")
    assert show_formula(f) == "(forall x:0, y:0, f:1) f(x) = y"


def test_typecheck_rejects_ill_typed_atoms():
    # each error names the rule broken, at the token that breaks it
    params = {"f": pure(1), "g": pure(1), "h": parse_type("0 -> 1"), "x": N}
    for src, at, msg in [
            ("f = 0", 3, "= needs equal types, got 1 and 0"),
            ("x != f", 3, "!= needs equal types, got 0 and 1"),
            ("f <= f", 1, "relation <= needs type-0 arguments"),
            ("x < f", 5, "relation < needs type-0 arguments"),
            ("f(g) = 0", 1, "argument type mismatch: expected 0, got 1"),
            ("(f)(g) = 0", 1, "argument type mismatch: expected 0, got 1"),
            ("x in x", 3, "membership needs a number and a type-1 set"),
            ("x = 0 /\\ (f = 0)", 13, "= needs equal types, got 1 and 0"),
            ("eq[1](f, x)", 10, "equality at 1 applied to 0"),
            ("approx[0](x, f)", 14, "equality at 0 applied to 1"),
            ("st(f(g))", 4, "argument type mismatch: expected 0, got 1"),
            ("(forall n <= f) n = n", 14,
             "<=-bounded quantifier needs type 0"),
            ("(exists n < h(x)) n = n", 13,
             "<=-bounded quantifier needs type 0")]:
        with pytest.raises(ParseError) as e:
            parse_formula(src, params=params)
        assert (e.value.msg, e.value.line, e.value.col) == (msg, 1, at), src


def test_typecheck_accepts_equality_at_sequence_type():
    # the shipped udnr matrix compares initseg(..) = initseg(..) at 0*
    nf = parse_nf((UDNR / "expect.nf").read_text())
    assert "initseg(X, Xi(X, Y, k)) = initseg(Y, Xi(X, Y, k))" in \
        show_formula(nf.matrix)
    s = Var("s", Seq(N))
    assert parse_formula("s = s", params={"s": s.ty}) == Atom("=", (s, s))


def test_parenthesized_terms_and_formulas_parse_in_one_pass(monkeypatch):
    # the token after the matching ')' tells a parenthesized term from a
    # parenthesized formula, so no relation is attempted and given up
    x, f = Var("x", N), Var("f", pure(1))
    ps = {"x": N, "f": pure(1), "s": pure(1)}
    cases = {
        "(x) = 0": Atom("=", (x, num(0))),
        "((x)) <= x": Atom("<=", (x, x)),
        "(f)(x) != 0": Not(Atom("=", (App(f, x), num(0)))),
        "(x) in s": Atom("in", (x, Var("s", pure(1)))),
        "((x = 0))": Atom("=", (x, num(0))),
        "((x) = 0) /\\ ((\\y:0. y)(x) < 1)": And(
            Atom("=", (x, num(0))),
            Atom("<", (App(Abs(Var("y", N), Var("y", N)), x), num(1)))),
    }
    failed = []
    relation = Parser._f_relation

    def counted(self):
        try:
            return relation(self)
        except ParseError:
            failed.append(self.pos)
            raise

    monkeypatch.setattr(Parser, "_f_relation", counted)
    for src, want in cases.items():
        assert parse_formula(src, params=ps) == want, src
    parse_formula((UDNR / "principle.fml").read_text())
    parse_nf((UDNR / "expect.nf").read_text())
    for name in ("forward.prf", "backward.prf"):
        parse_script((UDNR / name).read_text())
    assert failed == []
    with pytest.raises(ParseError, match="expected '\\)', found 'end of "):
        parse_formula("(x = 0", params=ps)


def test_higher_type_equality_wrapper():
    f = parse_formula("eq[1](f, g)", params={"f": pure(1), "g": pure(1)})
    assert isinstance(f, Eq)
    assert f.ty == pure(1)
    assert show_formula(f) == "eq[1](f, g)"


def test_unbound_variable_is_an_error():
    with pytest.raises(ParseError) as e:
        parse_formula("zz = 0")
    assert "zz" in str(e.value)


def test_subst_f_capture_avoiding():
    f = parse_formula("(exists y:0) y = x", params={"x": N})
    g = subst_f(f, {Var("x", N): Var("y", N)})
    assert alpha_eq_f(g, parse_formula("(exists z:0) z = y",
                                       params={"y": N}))


def test_substitution_compares_binder_names_across_types():
    # y:1 and y:0 are one variable to the evaluator, which looks names up
    x, y0 = Var("x", N), Var("y", N)
    f = parse_formula("(exists y:1) x = 0", params={"x": N})
    g = subst_f(f, {x: y0})
    assert g.var.name != "y" and g.body.args[0] == y0
    assert eval_formula(MiniModel(cap=2, omega=2), g, {"y": 0}) is True
    t = substitute(parse_term("\\y:1. x", params={"x": N}), {x: y0})
    assert t.var.name != "y" and t.body == y0


def test_simultaneous_substitution_swaps():
    x, y = Var("x", N), Var("y", N)
    f = parse_formula("x < y", params={"x": N, "y": N})
    assert subst_f(f, {x: y, y: x}) == parse_formula(
        "y < x", params={"x": N, "y": N})


def test_substitution_agrees_with_the_evaluator():
    # f[sub] holds at env iff f holds where each substituted variable
    # takes its replacement's value.  Replacements may mention q and i,
    # the names the generator gives to quantified variables, so binders
    # of f get renamed, also across types.
    g = gen.generator(gen.SEED + 5)
    model = MiniModel(cap=2, omega=2)
    outer = {"x": N, "y": N, "P": pure(1)}
    scope = {**outer, "q": N, "i": N}
    x, y, q, i = (Var(name, N) for name in "xyqi")
    tables = model.population(pure(1), standard=False)
    renamed = 0
    for trial in range(300):
        f = g.internal_formula(outer, depth=3)
        t, u = g.term(N, scope, 2), g.term(N, scope, 2)
        for sub in ({x: t}, {x: y, y: x},
                    {x: app(PLUS, q, t), y: app(PLUS, i, u)}):
            got = subst_f(f, sub)
            mentioned = set().union(*map(all_names, sub.values()))
            renamed += bool(all_names_f(got) - all_names_f(f) - mentioned)
            for vals in itertools.islice(
                    itertools.product(range(3), repeat=4), trial % 7, None, 9):
                env = dict(zip(("x", "y", "q", "i"), vals),
                           P=tables[trial % len(tables)])
                moved = {**env, **{v.name: eval_term(model, r, env)
                                   for v, r in sub.items()}}
                assert eval_formula(model, got, env) \
                    == eval_formula(model, f, moved), (show_formula(f), sub)
    assert renamed >= 50


def test_free_vars_of_formula():
    f = parse_formula("(forall x:0) P(x) = y", params={"P": pure(1),
                                                       "y": N})
    assert free_vars_f(f) == {Var("P", pure(1)), Var("y", N)}


def test_binders_remove_free_variables_by_name():
    # y:0 under a y:1 binder reads the bound y, as the evaluator does:
    # the formula is closed, and false since no table equals 0
    f = Exists(Var("y", pure(1)), Atom("=", (Var("y", N), num(0))))
    assert free_vars_f(f) == frozenset()
    assert eval_formula(MiniModel(cap=2, omega=1), f, {}) is False
    t = Abs(Var("y", pure(1)), Var("y", N))
    assert free_vars(t) == frozenset()
    # a bound lies outside its binder's scope
    g = BForall(Var("y", N), "le", Var("y", N),
                Atom("=", (Var("y", pure(1)), num(0))))
    assert free_vars_f(g) == {Var("y", N)}


def test_alpha_eq_binds_names_across_types():
    # y:0 under a y:1 binder is bound (see above), under a z:1 binder
    # free: the first formula is closed and false, the second true at y=0
    y1, z1, y0 = Var("y", pure(1)), Var("z", pure(1)), Var("y", N)
    matrix = Atom("=", (y0, num(0)))
    closed, open_ = Exists(y1, matrix), Exists(z1, matrix)
    model = MiniModel(cap=2, omega=1)
    assert eval_formula(model, closed, {}) is False
    assert eval_formula(model, open_, {"y": 0}) is True
    assert not alpha_eq_f(closed, open_)
    assert canon(closed) != canon(open_)
    bare = NormalForm((), (), closed), NormalForm((), (), open_)
    assert not alpha_eq_nf(*bare)
    assert canon_nf(bare[0]) != canon_nf(bare[1])
    # the same binders as a universal block, and as lambdas
    blocks = NormalForm((y1,), (), matrix), NormalForm((z1,), (), matrix)
    assert not alpha_eq_nf(*blocks)
    assert canon_nf(blocks[0]) != canon_nf(blocks[1])
    assert not alpha_eq(Abs(y1, y0), Abs(z1, y0))
    # binding across types on both sides is alpha-equal
    renamed = Exists(z1, Atom("=", (Var("z", N), num(0))))
    assert alpha_eq_f(closed, renamed)
    assert canon(closed) == canon(renamed)
    assert alpha_eq_nf(blocks[0],
                       NormalForm((z1,), (), renamed.body))
