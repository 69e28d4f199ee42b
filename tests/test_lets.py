"""Let expansion in scripts: the reducing walk of ``extract.parse_script``
against plain substitution (``plainlets.py``), the oracle.

A reduced term must have the value (or error), ``overflowed`` bit and
flags of the substituted one: both are evaluated by the reference walker
(``refeval``) in fresh models built alike, and the reduced one by the
compiled evaluator too."""
import collections
import itertools

import pytest

import gen
import plainlets
import refeval
from test_extract import MODEL_CAP3, UDNR
from test_refeval import observe
from rszoo.extract import (_mu_collapse, check_script, parse_script,
                           postprocess)
from rszoo.interp import (FnV, MiniModel, eval_term, parse_model_config,
                          table_fn)
from rszoo.lang import (Abs, App, N, Var, app, free_vars, infer_type, lam,
                        parse_formula, pure, show_term, stdterms, subterms)
from rszoo.normalform import normalize_principle
from rszoo.lang.terms import all_names


def expansions(lets: str, use: str, universals: str = "k:0, x:0, p:0"):
    """The term ``use`` read under ``lets`` by the reducing walk and by
    plain substitution, as the slot of a row under the universals
    ``universals``."""
    text = f"script lets\n{lets}\n(forall^st {universals})\n({use})\n"
    return [parse(text).rows[0][0]
            for parse in (parse_script, plainlets.parse_script)]


@pytest.mark.parametrize("lets, use, want", [
    # read once, strictly: substituted
    ("let inc := \\n:0. succ(n)", "inc(max(k, 1))", "succ(max(k, 1))"),
    # read twice: a variable is substituted, anything else stays a let
    ("let dbl := \\n:0. max(n, n)", "dbl(k)", "max(k, k)"),
    ("let dbl := \\n:0. max(n, n)", "dbl(succ(k))",
     "(\\n:0. max(n, n))(succ(k))"),
    # unread: the argument is still evaluated
    ("let first := \\a:0. \\b:0. a", "first(k, succ(k))",
     "(\\b:0. k)(succ(k))"),
    # read in a rec step, which runs any number of times
    ("let cond := \\c:0. \\x:0. rec[0](0, \\p:0. \\i:0. x, c)",
     "cond(k, succ(k))", "(\\x:0. rec[0](0, \\p:0. \\i:0. x, k))(succ(k))"),
    # a lambda read once lands in head position and is reduced in turn
    ("let at2 := \\g:1. g(2)", "at2(\\m:0. succ(m))", "succ(2)"),
    # a partial application reads every binder under a lambda
    ("let add := \\a:0. \\b:0. max(a, b)", "initseg(add(succ(k)), 2)",
     "initseg((\\a:0. \\b:0. max(a, b))(succ(k)), 2)"),
    # a let inside a let was reduced when it was defined
    ("let inc := \\n:0. succ(n)\nlet inc2 := \\n:0. inc(inc(n))",
     "inc2(k)", "succ(succ(k))"),
    # a kept binder named like a free variable of an argument is renamed
    ("let c := \\x:0. \\y:0. max(y, max(x, x))", "c(succ(x), x)",
     "(\\x1:0. max(x, max(x1, x1)))(succ(x))"),
    # and so is a binder of the body that would capture an argument
    ("let r := \\v:0. rec[0](0, \\p:0. \\i:0. v, 3)", "r(p)",
     "rec[0](0, \\p1:0. \\i:0. p, 3)"),
    # a read of an inner binder of the same name is not a read
    ("let sh := \\x:0. max(x, (\\x:0. x)(1))", "sh(succ(k))",
     "max(succ(k), (\\x:0. x)(1))"),
    # a let defined later is not the variable an earlier let bound
    ("let g := \\a:0. succ(a)\nlet f := \\v:0. g(v)\nlet v := 3", "g(v)",
     "succ(3)"),
    # a redex written by hand is left alone
    ("let inc := \\n:0. succ(n)", "(\\n:0. inc(n))(k)",
     "(\\n:0. succ(n))(k)"),
    # ap returns its binder, which takes the let lambda inc; the
    # argument left over is then applied to inc in turn
    ("let inc := \\n:0. succ(n)\nlet ap := \\g:1. g", "ap(inc, k)",
     "succ(k)"),
])
def test_let_applications_reduce_by_the_rule(lets, use, want):
    reduced, plain = expansions(lets, use)
    assert show_term(reduced) == want
    model, again = MiniModel(3, 2), MiniModel(3, 2)
    env = {"k": 2, "x": 3, "p": 1}
    ty = infer_type(reduced)
    assert infer_type(plain) == ty
    assert (observe(model, ty, lambda: refeval.term(model, reduced, env))
            == observe(again, ty, lambda: refeval.term(again, plain, env)))


def test_a_step_universal_shadows_a_let_in_its_witness_groups():
    # the parser reads the x of a witness group as the universal of the
    # script's step, its prefix, so the expansion must not replace it
    # with the let of that name
    script = parse_script(
        "script shadow\nlet x := 0\n(forall^st x:0)\n(x)\n")
    assert script.rows == ((Var("x", N),),)


def test_equal_let_applications_are_one_object():
    # the row's three dmark applications, and the one inside its y slot
    (row,) = parse_script((UDNR / "forward.prf").read_text()).rows
    dodge = row[1]
    assert isinstance(dodge, App)
    assert row[3] is dodge
    shared = [s for s in subterms(row[0]) if s == dodge]
    assert shared and all(s is dodge for s in shared)


# ---------------------------------------------------------------------------
# the property test

FREE = {"n": N, "p": N, "h": pure(1), "F": pure(1)}


def bind(model, data):
    """The environment for ``data``, with ``F`` declared in the model: a
    type-1 object that adds a flag naming its argument and whose value
    saturates at the cap."""
    def flagged(v):
        model.flags.add(f"F_at_{v}")
        return model.sat(v + 2)
    model.declare("F", pure(1), FnV(flagged), st=True)
    n, p, cells = data
    return {**model.env(), "n": n, "p": p, "h": table_fn(cells, model)}


def test_reduced_lets_agree_with_plain_substitution():
    g = gen.generator(gen.SEED + 37)
    rng = g.rng
    counts = collections.Counter()
    for cap in (1, 2, 3):
        for _ in range(200):
            fn, shapes = g.let_lambda([*FREE])
            binders = []
            body = fn
            while isinstance(body, Abs):
                binders.append(body.var)
                body = body.body
            if len(binders) > 1 and binders[-1].ty == N and rng.random() < 0.2:
                binders.pop()       # a partial application
            args, kinds = zip(*(g.let_argument(v.ty, FREE, cap, "F")
                                for v in binders))
            use = show_term(app(Var("L", infer_type(fn)), *args))
            text = (f"script lets\nlet L := {show_term(fn)}\n"
                    f"(forall^st n:0, p:0, h:1, F:1)\n({use})\n")
            reduced, plain = (parse(text).rows[0][0]
                              for parse in (parse_script,
                                            plainlets.parse_script))
            ty = infer_type(reduced)
            data = (rng.randrange(cap + 1), rng.randrange(cap + 1),
                    [rng.randrange(cap + 1) for _ in range(cap + 1)])
            seen = []
            for t, evaluate in ((plain, refeval.term),
                                (reduced, refeval.term),
                                (reduced, eval_term)):
                model = MiniModel(cap, 1)
                seen.append(observe(model, ty, lambda: evaluate(
                    model, t, bind(model, data))))
            assert seen[0] == seen[1] == seen[2], text

            named = {v.name for a in args for v in free_vars(a)}
            partial = len(binders) < len(shapes)
            for v, shape, kind in zip(binders, shapes, kinds):
                counts[shape] += 1
                counts["arg_" + kind] += 1
                counts["head"] += (v.ty != N and kind == "lambda"
                                   and shape not in ("unused", "twice"))
            counts["capture"] += bool(named & all_names(fn))
            counts["renamed"] += bool(all_names(reduced) - all_names(plain))
            counts["partial"] += partial
            counts["reduced"] += show_term(reduced) != show_term(plain)
            counts["kept"] += any(isinstance(s, App)
                                  and isinstance(s.fn, Abs)
                                  for s in subterms(reduced))
            counts["overflowed"] += seen[0][1]
            counts["flagged"] += bool(seen[0][2])
    # 328, 190, 198, 207, 131, 124, 57, 245, 123, 51, 517, 378, 483 and
    # 177 with this seed
    floors = {"unused": 220, "twice": 125, "lambda": 135, "rec": 130,
              "arg_saturating": 80, "arg_flagging": 85, "head": 45,
              "capture": 160, "renamed": 80, "partial": 30, "reduced": 340,
              "kept": 260, "overflowed": 300, "flagged": 110}
    assert all(counts[k] >= floors[k] for k in floors), counts


# ---------------------------------------------------------------------------
# the udnr forward term


@pytest.mark.parametrize("cap", [3, 4])
def test_forward_term_agrees_with_substituted_lets_on_every_table(cap):
    # the forward term as it was built before lets were reduced: the
    # script's lets substituted, and leastz applied to f and the bound
    model_text = MODEL_CAP3 if cap == 3 else (UDNR / "model.cfg").read_text()
    text = (UDNR / "forward.prf").read_text()
    nf = normalize_principle(parse_formula(
        (UDNR / "principle.fml").read_text()))
    terms = []
    for parse in (parse_script, plainlets.parse_script):
        final = check_script(parse(text), nf)
        terms.append((final, postprocess(final)))
    (final, bound), (_final, plain_bound) = terms
    f, psi, xi = final.universals
    forward = _mu_collapse(final.universals, bound)
    before = lam(psi, xi, f, app(stdterms.leastz_t(), f,
                                 plain_bound.body.body.body))
    assert sum(1 for _ in subterms(forward)) < sum(
        1 for _ in subterms(before))
    shown = []
    for term in (forward, before):
        model = parse_model_config(model_text)
        at_tables = eval_term(model, term, model.env()).call(
            model.object("Psi0")).call(model.object("Xi0"))
        cells = model.cap + 1
        shown.append([observe(model, N, lambda: at_tables.call(
            table_fn(table, model)))
            for table in itertools.product(range(cells), repeat=cells)])
    assert shown[0] == shown[1]
    assert len(shown[0]) == (cap + 1) ** (cap + 1)
