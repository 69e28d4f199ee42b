import itertools
from pathlib import Path

import pytest

import gen
import rszoo
from rszoo.extract import parse_script
from rszoo.interp import MiniModel, eval_formula, eval_term
from rszoo.lang import (Abs, And, App, Arrow, Atom, CONST_NAMES, Exists,
                        Forall, N, Not, ParseError,
                        TypeCheckError, Var, all_names_f, app, free_vars,
                        free_vars_f, infer_type, is_internal, num,
                        parse_formula, parse_term, parse_type, pure, rec_c,
                        show_formula, show_term, show_type, subst_f)
from rszoo.lang.parser import Parser
from rszoo.lang.terms import (MAX2, MONOMORPHIC, POLYMORPHIC, all_names,
                              prepare, subst_prepared)
from rszoo.translate import parse_nf

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
    assert show_type(parse_type("(0 -> 1) -> 1")) == "(0 -> 1) -> 1"
    assert show_type(parse_type("0 -> (0 -> 1)")) == "0 -> 0 -> 1"


def test_numerals_and_pure_types_are_nonnegative():
    with pytest.raises(ValueError, match="numerals are nonnegative"):
        num(-1)
    with pytest.raises(ValueError, match="pure type index must be >= 0"):
        pure(-1)


def test_type_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_type("0 -> ")
    assert "1:" in str(e.value)


def test_a_digit_that_is_no_decimal_digit_is_a_parse_error():
    # "²" is a digit to str.isdigit, but a number is ASCII digits
    for parse in (parse_term, parse_type):
        with pytest.raises(ParseError) as e:
            parse("²")
        assert (e.value.msg, e.value.line, e.value.col) == \
            ("unexpected character '²'", 1, 1)


def test_term_application_display():
    f = Var("f", parse_type("0 -> 0 -> 0"))
    t = app(f, num(1), num(2))
    assert show_term(t) == "f(1, 2)"
    assert parse_term("f(1, 2)", params={"f": f.ty}) == t


def test_lambda_round_trip():
    src = "\\x:0. succ(x)"
    t = parse_term(src)
    assert show_term(t) == src
    assert infer_type(t) == parse_type("0 -> 0")


def test_infer_type_checks_free_variables_against_the_env():
    # the type kept on the node; an ill-typed term raises its first
    # fault, a variable checked against the binder of its name included
    x0, x1, f = Var("x", N), Var("x", pure(1)), Var("f", pure(1))
    t = Abs(Var("y", N), App(f, x0))
    assert infer_type(t) == pure(1)
    assert infer_type(Abs(x1, App(x1, num(0)))) == pure(2)
    with pytest.raises(TypeCheckError,
                       match="^variable x used at type 1 but declared at 0$"):
        infer_type(Abs(x0, App(f, App(x1, num(0)))))
    with pytest.raises(TypeCheckError,
                       match="^argument type mismatch: expected 0, got 1$"):
        infer_type(App(f, f))
    with pytest.raises(TypeCheckError,
                       match="^applied non-function of type 0$"):
        infer_type(App(x0, x0))
    # the fault inside a part is found before the node's own
    with pytest.raises(TypeCheckError,
                       match="^applied non-function of type 0$"):
        infer_type(Abs(x1, App(f, App(x0, x0))))
    with pytest.raises(TypeCheckError,
                       match="^argument type mismatch: expected 0, got 1$"):
        infer_type(App(App(MAX2, App(f, f)), x1))


def test_substitution_avoids_capture():
    # (\y:0. max(x, y))[x := y] must rename the binder
    t = parse_term("\\y:0. max(x, y)", params={"x": N})
    s = subst_prepared(t, prepare({Var("x", N): Var("y", N)}))
    assert s == parse_term("\\y1:0. max(y, y1)", params={"y": N})


def test_formula_round_trip():
    src = "(forall x:0) (exists y:0) max(x, y) = 3"
    f = parse_formula(src)
    assert show_formula(f) == src
    assert parse_formula(show_formula(f)) == f


def test_neq_display():
    f = parse_formula("x != 0", params={"x": N})
    assert f == Not(Atom((Var("x", N), num(0))))
    assert show_formula(f) == "x != 0"


def test_internal_flag():
    assert is_internal(parse_formula("(forall x:0) x = x"))
    assert not is_internal(parse_formula("(exists^st y:0) y = 0"))
    assert not is_internal(parse_formula("(forall^st x:0) x = x"))
    assert not is_internal(
        parse_formula("(forall x:1) (forall^st u:0) x(u) = x(u)"))


def test_bounded_quantifier_kinds():
    # no kind: (exists i <= t) A is spelled (exists i:0) monus(i, t) = 0
    # /\ A, and every bounded form is refused at its bound
    src = ("(exists i:0) monus(i, 4) = 0 /\\ "
           "((exists j:0) monus(j, i) = 0 /\\ j != i)")
    assert show_formula(parse_formula(src)) == src
    for src, at, msg in [
            ("(exists i <= 4) i = i", 11, "unexpected character '<'"),
            ("(forall i <= 4) i = i", 11, "unexpected character '<'"),
            ("(exists^st i <= 4) i = i", 14, "unexpected character '<'"),
            ("(exists i < 4) i = i", 11, "unexpected character '<'"),
            ("(exists v in s) v = 0", 11, "expected ':', found 'in'")]:
        with pytest.raises(ParseError) as e:
            parse_formula(src, params={"s": pure(1)})
        assert (e.value.msg, e.value.col) == (msg, at), src


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


def test_a_name_bound_twice_in_one_prefix_stays_in_its_scope():
    # the inner x:1 shadows x:0 in the body; after the body neither is
    # in scope, so the x after the conjunction is unbound
    f = parse_formula("(forall x:0, x:1) x = x")
    assert f.body.body.args[0].ty == pure(1)
    with pytest.raises(ParseError) as e:
        parse_formula("((forall x:0, x:1) x = x) /\\ x = 0")
    assert (e.value.msg, e.value.col) == ("unbound variable 'x'", 30)


@pytest.mark.parametrize("read, src, name, at", [
    (parse_term, "\\succ:0. succ", "succ", 2),
    (parse_formula, "(forall nunl:1) nunl = nunl", "nunl", 9),
    (parse_formula, "(exists run:0) run = run", "run", 9),
])
def test_a_binder_may_not_take_a_constants_name(read, src, name, at):
    # the constant would take every read of the name, so the body could
    # never read the variable
    with pytest.raises(ParseError) as e:
        read(src)
    assert (e.value.msg, e.value.line, e.value.col) == (
        f"{name!r} is a constant, not a variable name", 1, at)


@pytest.mark.parametrize("read, src, name, at", [
    (parse_formula, "(forall^st exists:0) 0 = 0", "exists", 12),
    (parse_formula, "(forall forall:0) 0 = 0", "forall", 9),
    (parse_formula, "(exists exists:0) 0 = 0", "exists", 9),
    (parse_term, "\\forall:0. 0", "forall", 2),
])
def test_a_binder_may_not_take_a_keywords_name(read, src, name, at):
    # a keyword is reserved as a constant is: the parser reads it as the
    # keyword wherever it may stand
    with pytest.raises(ParseError) as e:
        read(src)
    assert (e.value.msg, e.value.line, e.value.col) == (
        f"{name!r} is a keyword, not a variable name", 1, at)


@pytest.mark.parametrize("read, name, kind", [
    (parse_formula, "succ", "a constant"),
    (parse_term, "exists", "a keyword"),
])
def test_a_parameter_may_not_take_a_reserved_name(read, name, kind):
    # the parameter would be unreadable: its name reads as the constant
    # or the keyword
    with pytest.raises(ParseError) as e:
        read(f"{name} = 0" if read is parse_formula else name,
             params={name: N})
    assert (e.value.msg, e.value.line, e.value.col) == (
        f"{name!r} is {kind}, not a variable name", 1, 1)


def test_typecheck_rejects_ill_typed_atoms():
    # each error names the rule broken, at the token that breaks it
    params = {"f": pure(1), "g": pure(1), "h": parse_type("0 -> 1"), "x": N}
    for src, at, msg in [
            ("f = 0", 3, "= needs equal types, got 1 and 0"),
            ("x != f", 3, "!= needs equal types, got 0 and 1"),
            ("x <= x", 3, "unexpected character '<'"),
            ("f(g) = 0", 1, "argument type mismatch: expected 0, got 1"),
            ("(f)(g) = 0", 1, "argument type mismatch: expected 0, got 1"),
            ("x = 0 /\\ (f = 0)", 13, "= needs equal types, got 1 and 0"),
            ("(forall^st u:0) f(u) = h(u)", 22,
             "= needs equal types, got 0 and 1"),
            ("(exists^st y:0) y = f(g)", 21,
             "argument type mismatch: expected 0, got 1"),
            ("(exists v:0) monus(v, f(g)) = 0 /\\ v = v", 14,
             "argument type mismatch: expected 0, got 1"),
            # and so does each syntax error
            ("(forall x, :0) x = x", 12, "expected a variable, found ':'"),
            ("f = \\3", 6, "expected a variable after '\\'"),
            ("rec[0, 0](x, \\a:0. \\i:0. a, x) = x", 1,
             "rec takes 1 type argument(s)"),
            ("x = exists", 5, "keyword 'exists' is not a term"),
            ("x 0", 3, "expected a relation, found '0'"),
            # types are built from 0 by -> alone, with no product and no
            # sequence type
            ("(forall p:0 x 1) p = p", 13, "expected ')', found 'x'"),
            ("(forall s:0*) s = s", 12, "unexpected character '*'"),
            # and a name is a constant only if a corpus file or the
            # pipeline uses it
            ("plus(x, 0) = x", 1, "unbound variable 'plus'")]:
        with pytest.raises(ParseError) as e:
            parse_formula(src, params=params)
        assert (e.value.msg, e.value.line, e.value.col) == (msg, 1, at), src


def test_parenthesized_terms_and_formulas_parse_in_one_pass(monkeypatch):
    # the token after the matching ')' tells a parenthesized term from a
    # parenthesized formula, so no relation is attempted and given up
    x, f = Var("x", N), Var("f", pure(1))
    ps = {"x": N, "f": pure(1)}
    cases = {
        "(x) = 0": Atom((x, num(0))),
        "((x)) != x": Not(Atom((x, x))),
        "(f)(x) != 0": Not(Atom((App(f, x), num(0)))),
        "((x = 0))": Atom((x, num(0))),
        "((x) = 0) /\\ ((\\y:0. y)(x) = 1)": And(
            Atom((x, num(0))),
            Atom((App(Abs(Var("y", N), Var("y", N)), x), num(1)))),
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



def test_every_constant_prints_and_reparses_at_nontrivial_indices():
    # the printer writes a polymorphic constant's type index and the
    # parser reads it back, both through the table in terms
    indices = (pure(1), pure(2), parse_type("0 -> 1"))
    for name in sorted(CONST_NAMES):
        if name in MONOMORPHIC:
            consts = [MONOMORPHIC[name]]
        else:
            make, arity, args_of = POLYMORPHIC[name]
            consts = []
            for args in itertools.product(indices, repeat=arity):
                c = make(*args)
                assert args_of(c.ty) == args, (name, args)
                consts.append(c)
        for c in consts:
            text = show_term(c)
            assert parse_term(text) == c, text
    assert show_term(rec_c(parse_type("0 -> 1"))) == "rec[0 -> 1]"


def test_unbound_variable_is_an_error():
    with pytest.raises(ParseError) as e:
        parse_formula("zz = 0")
    assert "zz" in str(e.value)


def test_subst_f_capture_avoiding():
    f = parse_formula("(exists y:0) y = x", params={"x": N})
    g = subst_f(f, {Var("x", N): Var("y", N)})
    assert g == parse_formula("(exists y1:0) y1 = y", params={"y": N})


def test_subst_f_stops_where_a_binder_shadows_the_substituted_name():
    # inside (forall x:0) nothing is left to substitute, so the body is
    # the same object
    f = parse_formula("(forall x:0) x = 0")
    g = subst_f(f, {Var("x", N): num(1)})
    assert g == f and g.body is f.body


def test_substitution_compares_binder_names_across_types():
    # y:1 and y:0 are one variable to the evaluator, which looks names up
    x, y0 = Var("x", N), Var("y", N)
    f = parse_formula("(exists y:1) x = 0", params={"x": N})
    g = subst_f(f, {x: y0})
    assert g.var.name != "y" and g.body.args[0] == y0
    assert eval_formula(MiniModel(cap=2, omega=2), g, {"y": 0}) is True
    t = subst_prepared(parse_term("\\y:1. x", params={"x": N}),
                       prepare({x: y0}))
    assert t.var.name != "y" and t.body == y0


def test_simultaneous_substitution_swaps():
    x, y = Var("x", N), Var("y", N)
    f = parse_formula("x = succ(y)", params={"x": N, "y": N})
    assert subst_f(f, {x: y, y: x}) == parse_formula(
        "y = succ(x)", params={"x": N, "y": N})


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
                    {x: app(MAX2, q, t), y: app(MAX2, i, u)}):
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
    f = Exists(Var("y", pure(1)), Atom((Var("y", N), num(0))))
    assert free_vars_f(f) == frozenset()
    assert eval_formula(MiniModel(cap=2, omega=1), f, {}) is False
    t = Abs(Var("y", pure(1)), Var("y", N))
    assert free_vars(t) == frozenset()
