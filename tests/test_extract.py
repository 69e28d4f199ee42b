import itertools
from pathlib import Path
from types import SimpleNamespace

import pytest

import rszoo.interp
from rszoo import extract
from rszoo.extract import (ScriptError, check_candidates, check_script,
                           discharge_obligations, extract_function,
                           extract_terms, parse_script, rs_run)
from rszoo.interp import (FnV, MiniModel, eval_term, parse_model_config,
                          table_fn)
from rszoo.lang import N, Var, parse_formula, pure, subterms
from rszoo.translate import parse_nf

UDNR = Path(extract.__file__).parent / "corpus_data" / "udnr"

# The shipped udnr model at cap 3: tables cut to 4 cells, [st] kept.
MODEL_CAP3 = """\
cap = 3
omega = 2
budget = 200000
table Z0: 0 1 0 0 [st]
table E0: 0 0 0 0 [st]
bind Psi0: psi_theta [st]
bind Xi0: xi_search Psi0 [st]
bind mu0: mu_op [st]
"""


def udnr_entry():
    def read(name):
        return (UDNR / name).read_text()
    return SimpleNamespace(
        ident="udnr", source="UDNR", target="BZT", witness="y",
        mode="direct",
        principle=parse_formula(read("principle.fml")),
        expect=parse_nf(read("expect.nf")),
        forward=parse_script(read("forward.prf")),
        backward=parse_script(read("backward.prf")),
        model=parse_model_config(MODEL_CAP3),
        plans={"f": "st", "Psi": "st", "Xi": "st"},
        plans_backward={"mu": "st", "Z": "st"},
    )


@pytest.fixture(scope="module")
def udnr_run():
    """One rs_run of udnr at cap 3, counting the script replays."""
    entry = udnr_entry()
    replays = []

    def counted(script, model=None):
        replays.append(script.name)
        return check_script(script, model)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extract, "check_script", counted)
        verdict = rs_run(entry)
    return entry, verdict, replays


def test_rs_run_udnr_candidates_hold(udnr_run):
    _entry, verdict, _replays = udnr_run
    assert verdict.forward_term is not None
    assert verdict.backward_term is not None
    stages = dict(verdict.stages)
    for tag in ("candidates-forward", "candidates-backward"):
        assert stages[tag].startswith("candidates ok over 2 assignment(s)")


def test_rs_run_replays_each_script_once(udnr_run):
    _entry, _verdict, replays = udnr_run
    assert replays == ["udnr-forward", "udnr-backward"]


def test_rs_run_forward_term_is_least_zero(udnr_run):
    entry, verdict, _replays = udnr_run
    model = entry.model
    term = eval_term(model, verdict.forward_term, model.env())
    at_table = term.call(model.object("Psi0")).call(model.object("Xi0"))
    n = model.cap + 1
    checked = 0
    for table in itertools.product(range(n), repeat=n):
        if 0 not in table:
            continue
        assert at_table.call(table_fn(table, model)) == table.index(0), table
        checked += 1
    assert checked == n ** n - (n - 1) ** n


def test_rs_run_term_sizes(udnr_run):
    _entry, verdict, _replays = udnr_run
    nodes = sum(1 for t in (verdict.forward_term, verdict.backward_term)
                for _ in subterms(t))
    assert nodes == 1293


def test_rs_run_sweeps_all_tables_twice(monkeypatch):
    # one full type-1 sweep per candidate stage: the backward antecedent
    # "(forall h:1) ..." is evaluated once per candidate, not twice
    sweeps = []
    population = MiniModel.population

    def counted(model, ty, standard):
        if ty == pure(1) and not standard:
            sweeps.append(ty)
        return population(model, ty, standard)

    monkeypatch.setattr(MiniModel, "population", counted)
    rs_run(udnr_entry())
    assert len(sweeps) == 2


@pytest.mark.parametrize("matrix, vacuous, evaluated", [
    ("x < 0 -> y = x", True, ["x < 0"]),
    ("x <= x -> y = x", False, ["x <= x", "y = x"]),
    ("y = x", False, ["y = x"]),
])
def test_check_candidates_evaluates_antecedent_once(monkeypatch, matrix,
                                                    vacuous, evaluated):
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf(f"universals: x:0\nexistentials: y:0\nmatrix: {matrix}")
    seen = []
    eval_formula = rszoo.interp.eval_formula

    def recorded(model, f, env=None):
        seen.append(f)
        return eval_formula(model, f, env)

    monkeypatch.setattr(rszoo.interp, "eval_formula", recorded)
    report = check_candidates(model, nf, ((Var("x", N),),))
    assert report.ok and report.checked == 2
    assert report.antecedent_vacuous is vacuous
    params = {"x": N, "y": N}
    want = [parse_formula(src, params=params) for src in evaluated]
    assert seen == want * 2


def test_extract_function_needs_one_candidate():
    entry = udnr_entry()
    report = check_script(entry.forward, entry.model)
    assert len(report.final.rows) == 3
    with pytest.raises(ScriptError, match="exactly one candidate"):
        extract_function(report)


def test_extract_terms_needs_existentials():
    report = check_script(parse_script(
        "script plain\n"
        "step 1: NF-AXIOM internal conclude (forall^st x:0) x = x\n"))
    with pytest.raises(ScriptError, match="no existentials"):
        extract_terms(report)


def test_extraction_rejects_unmet_obligation():
    report = check_script(parse_script(
        "script choice\n"
        "step 1: NF-AXIOM qf-ac conclude (forall^st x:0) (exists^st g:1)"
        " g(x) = x\n"))
    assert report.obligations == ("g",)
    for extractor in (extract_terms, extract_function):
        with pytest.raises(ScriptError, match=r"unmet obligations \['g'\]"):
            extractor(report)


def test_discharge_obligations_builds_each_formula_once(monkeypatch):
    # one closed formula per obligation, evaluated for every candidate
    report = check_script(parse_script(
        "script choice\n"
        "step 1: NF-AXIOM qf-ac conclude (forall^st x:0) (exists^st g:1)"
        " g(x) = x\n"))
    model = parse_model_config("cap = 3\nomega = 2\n"
                               "table zero: 0 0 0 0 [st]\n"
                               "table ident: 0 1 2 3 [st]\n")
    seen = []
    eval_formula = rszoo.interp.eval_formula

    def recorded(model, f, env=None):
        seen.append(f)
        return eval_formula(model, f, env)

    monkeypatch.setattr(rszoo.interp, "eval_formula", recorded)
    found = discharge_obligations(model, report)
    assert found == {"g": model.object("ident")}
    assert len(seen) == 2 and seen[0] is seen[1]


def test_value_label_falls_back_only_on_model_errors():
    model = MiniModel(cap=4, omega=2, budget=100)
    # fingerprinting a type-2 value enumerates 3125 type-1 tables,
    # more than the budget allows
    assert extract._value_label(model, pure(2), FnV(lambda f: 0)) \
        == "<value>"
    assert extract._value_label(model, pure(1),
                                table_fn([0, 1, 0, 0, 0], model)) \
        == "(0, 1, 0, 0, 0)"
    # a value of the wrong shape is a programming error, not a label
    with pytest.raises(AttributeError):
        extract._value_label(model, pure(1), 3)
