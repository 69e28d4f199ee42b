import itertools
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import rszoo.interp
from rszoo import extract
from rszoo.extract import (CheckedRows, ProofScript, ScriptError,
                           check_candidates, check_script, extract_function,
                           parse_script, postprocess, rs_run)
from rszoo.interp import (FnV, MiniModel, ModelError, eval_term,
                          parse_model_config, table_fn)
from rszoo.lang import (SUCC, Forall, N, Var, app, num, parse_formula,
                        pure, show_formula, show_term, stdterms, subterms)
from rszoo.normalform import normalize_backward
from rszoo.translate import TranslateError, nf_blocks, parse_nf

UDNR = Path(extract.__file__).parent / "corpus_data" / "udnr"
GOLDEN_CAP3 = Path(__file__).parent / "golden" / "udnr_cap3.txt"


def resized_model(cap: int) -> str:
    """The shipped udnr model at another cap: every table cut or padded
    with zeros to cap + 1 cells, every other line kept."""
    out = []
    for line in (UDNR / "model.cfg").read_text().splitlines():
        words = line.split()
        if words[:1] == ["cap"]:
            line = f"cap = {cap}"
        elif words[:1] == ["table"]:
            st = words[-1] == "[st]"
            cells = (words[2:len(words) - st] + ["0"] * (cap + 1))[:cap + 1]
            line = " ".join(words[:2] + cells + ["[st]"] * st)
        out.append(line)
    return "\n".join(out) + "\n"


MODEL_CAP3 = resized_model(3)
MODEL_CAP5 = resized_model(5)


def udnr_entry(model: str = MODEL_CAP3, f_plan: str = "st"):
    def read(name):
        return (UDNR / name).read_text()
    return SimpleNamespace(
        ident="udnr",
        principle=parse_formula(read("principle.fml")),
        expect=parse_nf(read("expect.nf")),
        forward=parse_script(read("forward.prf")),
        backward=parse_script(read("backward.prf")),
        model=parse_model_config(model),
        plans={"f": f_plan, "Psi": "st", "Xi": "st"},
    )


def checked_rows(nf, rows) -> CheckedRows:
    """``rows`` for the normal form nf, split as ``check_script`` splits
    it, for a stage that reads checked rows."""
    return CheckedRows(rows, *nf_blocks(nf))


@pytest.fixture(scope="module")
def udnr_run():
    """One rs_run of udnr at cap 3, counting the script checks."""
    entry = udnr_entry()
    replays = []

    def counted(script, nf):
        replays.append(script)
        return check_script(script, nf)

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


@pytest.mark.parametrize("cap", [3, 4, 5])
def test_rs_run_udnr_holds_without_a_flag_at_every_cap(cap):
    model = {3: MODEL_CAP3, 4: (UDNR / "model.cfg").read_text(),
             5: MODEL_CAP5}[cap]
    verdict = rs_run(udnr_entry(model))
    stages = dict(verdict.stages)
    for tag in ("candidates-forward", "candidates-backward"):
        assert stages[tag] == "candidates ok over 2 assignment(s)"
    assert verdict.flags == ()


def test_rs_run_udnr_forward_sweep_over_every_cap4_table():
    # cap 3's sweep is a golden; only the tables whose first zero is
    # cell cap saturate, where Xi0 answers cap + 1
    verdict = rs_run(udnr_entry((UDNR / "model.cfg").read_text(), "all"))
    assert dict(verdict.stages)["candidates-forward"] == (
        "candidates ok over 3125 assignment(s) [overflow]")
    assert verdict.flags == ("overflowed",)


def test_rs_run_replays_each_script_once(udnr_run):
    entry, _verdict, replays = udnr_run
    assert len(replays) == 2
    assert replays[0] is entry.forward and replays[1] is entry.backward


def test_rs_run_splits_each_script_step_once(monkeypatch):
    # a script is checked in one step: check_script splits the normal
    # form it checks the script against, and the model checks, the bound,
    # the collapse and the extraction read the checked rows: one split per
    # direction
    split = []

    def counted(f):
        split.append(f)
        return nf_blocks(f)

    monkeypatch.setattr(extract, "nf_blocks", counted)
    rs_run(udnr_entry())
    assert len(split) == 2


def test_rs_run_names_the_stage_of_a_model_refusal():
    # no ScriptError: _stage names the exception's class and the stage
    entry = udnr_entry()
    entry.plans["Psi"] = "all"
    assert rs_run_fails_at(entry, "candidates-forward") == (
        "udnr/candidates-forward: ModelRefusal: refusing to enumerate "
        "1 -> 1: about 10^617 values exceeds the budget")


def test_rs_run_forward_term_is_least_zero(udnr_run):
    # every table at cap 3 (256) and at the shipped cap 4 (3,125): the
    # least zero where there is one, else 0
    cap4 = udnr_entry((UDNR / "model.cfg").read_text())
    assert cap4.model.cap == 4
    for entry, verdict in (udnr_run[:2], (cap4, rs_run(cap4))):
        model = entry.model
        term = eval_term(model, verdict.forward_term, model.env())
        at_table = term.call(model.object("Psi0")).call(model.object("Xi0"))
        n = model.cap + 1
        for table in itertools.product(range(n), repeat=n):
            want = table.index(0) if 0 in table else 0
            assert at_table.call(table_fn(table, model)) == want, table


def test_forward_term_makes_at_most_215_python_calls_per_table(udnr_run):
    # A deterministic guard on the evaluator's cost: Python-level calls
    # in a warm pass (every cache filled by a first pass) of the forward
    # term at (Psi0, Xi0) over the 175 cap-3 tables with a zero.  The
    # evaluator made 292.9 a table before it ran constant rec steps once
    # and built small redex frames without a list, 222.6 after, and
    # 206.6 once the script's let applications were reduced when read.
    # The one-row script, whose bound is Xi's value alone, makes 172.7.
    entry, verdict, _replays = udnr_run
    model = entry.model
    term = eval_term(model, verdict.forward_term, model.env())
    at_table = term.call(model.object("Psi0")).call(model.object("Xi0"))
    tables = [table_fn(t, model)
              for t in itertools.product(range(4), repeat=4) if 0 in t]
    for h in tables:
        at_table.call(h)
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        for h in tables:
            at_table.call(h)
    finally:
        sys.setprofile(None)
    assert len(tables) == 175
    assert calls / len(tables) <= 215, calls / len(tables)


def test_rs_run_bound_is_a_max_over_the_target_slot(udnr_run):
    entry, verdict, _replays = udnr_run
    # the script has one row, so the max over the rows is its y
    dmark = show_term(entry.forward.rows[0][1])
    assert show_term(verdict.bound_term) == (
        "\\f:1. \\Psi:1 -> 1. \\Xi:1 -> 1 -> 1. "
        f"Xi(\\n:0. 0, {dmark}, 1)")


def udnr_transcript(verdict) -> str:
    """Stage lines, flags and the printed forward, backward and bound
    terms of an rs_run verdict."""
    lines = verdict.stage_lines()
    lines.append("flags: " + " ".join(verdict.flags))
    for tag in ("forward", "backward", "bound"):
        lines.append(f"{tag}: " + show_term(getattr(verdict, f"{tag}_term")))
    return "\n".join(lines) + "\n"


def test_rs_run_matches_golden_transcript(udnr_run):
    _entry, verdict, _replays = udnr_run
    assert udnr_transcript(verdict) == GOLDEN_CAP3.read_text()


@pytest.mark.parametrize("golden, model, f_plan", [
    ("udnr_cap5.txt", MODEL_CAP5, "st"),
    ("udnr_cap3_fall.txt", MODEL_CAP3, "all"),
], ids=["udnr_cap5", "udnr_cap3_fall"])
def test_rs_run_matches_golden_transcript_on_other_paths(golden, model,
                                                         f_plan):
    # the other two benchmarked paths: cap 5 (the table-1 sweep of the
    # backward antecedent) and a forward sweep over every table at cap 3
    entry = udnr_entry(model, f_plan)
    verdict = rs_run(entry)
    transcript = (udnr_transcript(verdict) + "model flags: "
                  + " ".join(sorted(entry.model.flags)) + "\n")
    assert transcript == (GOLDEN_CAP3.parent / golden).read_text()


def test_rs_run_term_sizes(udnr_run):
    _entry, verdict, _replays = udnr_run
    nodes = sum(1 for t in (verdict.forward_term, verdict.backward_term)
                for _ in subterms(t))
    assert nodes == 175


def test_rs_run_again_compiles_nothing_new():
    # the model caches compiled closures by node; a second and third run
    # on the same entry reuse the first run's nodes instead of adding more
    entry = udnr_entry()
    sizes = []
    for _ in range(3):
        rs_run(entry)
        sizes.append(len(entry.model._compiled))
    assert sizes == [sizes[0]] * 3 and sizes[0] > 0


def test_fresh_entries_on_one_model_compile_nothing_new():
    # the cache is keyed on nodes, not on their ids: a freshly read
    # entry's nodes equal the last one's and find its closures, so the
    # cache does not grow with each entry run on the model
    model = udnr_entry().model
    sizes = []
    for _ in range(4):
        entry = udnr_entry()
        entry.model = model
        rs_run(entry)
        sizes.append(len(model._compiled))
    assert sizes == [sizes[0]] * 4 and sizes[0] > 0


def rs_run_fails_at(entry, stage: str) -> str:
    """The message of the ScriptError that rs_run raises at ``stage``."""
    with pytest.raises(ScriptError) as info:
        rs_run(entry)
    message = str(info.value)
    assert message.startswith(f"udnr/{stage}: "), message
    return message


def test_rs_run_fails_at_expect_on_another_normal_form():
    entry = udnr_entry()
    text = (UDNR / "expect.nf").read_text()
    assert "monus(z, y)" in text
    entry.expect = parse_nf(text.replace("monus(z, y)", "monus(z, k)"))
    rs_run_fails_at(entry, "expect")


def test_rs_run_fails_at_check_forward_on_the_backward_script():
    # a prefix mismatch names both blocks
    entry = udnr_entry()
    entry.forward = entry.backward
    assert rs_run_fails_at(entry, "check-forward") == (
        "udnr/check-forward: script prefix (forall^st mu:2, Z:1) is not the "
        "normal form's (forall^st f:1, Psi:1 -> 1, Xi:1 -> 1 -> 1)")


def test_rs_run_names_the_stage_row_and_slot_of_a_row_error():
    entry = udnr_entry()
    text = (UDNR / "forward.prf").read_text()
    row_y = "(Xi(empty1, dmark(f, Psi(empty1, 0)), 1);"
    assert text.count(row_y) == 1
    entry.forward = parse_script(text.replace(row_y, "(empty1;"))
    assert rs_run_fails_at(entry, "check-forward") == (
        "udnr/check-forward: row 1, slot y: witness has type 1, expected 0")
    entry = udnr_entry()
    entry.backward = parse_script((UDNR / "backward.prf").read_text()
                                  .replace("(\\e:0. run(", "(\\e:1. run("))
    assert rs_run_fails_at(entry, "check-backward").startswith(
        "udnr/check-backward: row 1, slot d: ")


def test_rs_run_fails_at_candidates_backward_naming_declared_objects():
    # a backward witness that ignores the oracle dodges neither standard
    # table; the failing assignments print by their declared names, not
    # by mu0's fingerprint over every type-1 table
    entry = udnr_entry()
    witness = r"\e:0. run(Z, e, mu(\s:0. iszero(run(Z, e, s))))"
    text = (UDNR / "backward.prf").read_text()
    assert text.count(witness) == 1
    entry.backward = parse_script(text.replace(witness, r"\e:0. 0"))
    assert rs_run_fails_at(entry, "candidates-backward") == (
        "udnr/candidates-backward: candidates FAIL over 2 assignment(s) "
        "mu=mu0, Z=Z0; mu=mu0, Z=E0")


def test_rs_run_flags_a_saturated_backward_sweep():
    # max(.., monus(9, 9)) keeps the witness's value, but the numeral 9
    # saturates at cap 3 on every evaluation of the backward slot term;
    # the forward check saturates nothing
    entry = udnr_entry()
    witness = r"run(Z, e, mu(\s:0. iszero(run(Z, e, s))))"
    text = (UDNR / "backward.prf").read_text()
    assert text.count(witness) == 1
    entry.backward = parse_script(
        text.replace(witness, f"max({witness}, monus(9, 9))"))
    verdict = rs_run(entry)
    assert dict(verdict.stages)["candidates-backward"] == (
        "candidates ok over 2 assignment(s) [overflow]")
    assert verdict.flags == ("backward-overflowed",)


@pytest.mark.parametrize("cap, failing", [(3, 128), (4, 1625)])
def test_backward_row_fails_on_a_recorded_count_of_tables(cap, failing):
    # a record for ROADMAP item 19, not a verdict: with Z swept over
    # every table, the backward row's dodge clause is false on this many
    # tables, where succ(d(e)) and run(Z, e, s) both read the cap; at
    # cap 4, 375 of them have the scan (program 0) halt on cell 0 = cap
    entry = udnr_entry(resized_model(cap))
    model = entry.model
    final = check_script(entry.backward, normalize_backward(entry.principle))
    clause = final.matrix.right     # mu0 meets the antecedent
    refuted = 0
    for table in itertools.product(range(cap + 1), repeat=cap + 1):
        env = {"mu": model.object("mu0"), "Z": table_fn(list(table), model)}
        env["d"] = eval_term(model, final.rows[0][0], env)
        refuted += not rszoo.interp.eval_formula(model, clause, env)
    assert refuted == failing


def test_rs_run_rejects_a_sweep_plan_naming_an_object():
    entry = udnr_entry()
    entry.plans["f"] = "Z0"
    assert rs_run_fails_at(entry, "candidates-forward") == (
        "udnr/candidates-forward: unknown sweep plan 'Z0' for f")


def test_rs_run_rejects_a_sweep_plan_for_no_universal():
    # "F" is no universal: the plan would sweep nothing, and the forward
    # check would read ok over the two standard tables of "f"
    entry = udnr_entry()
    entry.plans = {"F": "all", "Psi": "st", "Xi": "st"}
    assert rs_run_fails_at(entry, "candidates-forward") == (
        "udnr/candidates-forward: sweep plan names no universal: ['F']")


def test_rs_run_fails_at_check_forward_when_the_script_renames_the_table():
    # with f renamed g the script's rows are rows for the normal form
    # up to the names of its universals.  The sweep plans and the
    # collapse read the table by its name f, so the prefix must be ==,
    # even with no plan naming f
    entry = udnr_entry()
    text = (UDNR / "forward.prf").read_text()
    entry.forward = parse_script(re.sub(r"\bf\b", "g", text))
    entry.plans = {"Psi": "st", "Xi": "st"}
    assert rs_run_fails_at(entry, "check-forward") == (
        "udnr/check-forward: script prefix (forall^st g:1, Psi:1 -> 1, "
        "Xi:1 -> 1 -> 1) is not the normal form's (forall^st f:1, "
        "Psi:1 -> 1, Xi:1 -> 1 -> 1)")


def record_formulas(monkeypatch) -> list:
    seen, eval_formula = [], rszoo.interp.eval_formula

    def recorded(model, f, env=None):
        seen.append(f)
        return eval_formula(model, f, env)

    monkeypatch.setattr(rszoo.interp, "eval_formula", recorded)
    return seen


def record_populations(monkeypatch) -> list:
    seen, population = [], MiniModel.population

    def recorded(model, ty, standard):
        seen.append((ty, standard))
        return population(model, ty, standard)

    monkeypatch.setattr(MiniModel, "population", recorded)
    return seen


def test_rs_run_evaluates_backward_antecedent_once(monkeypatch):
    # The backward antecedent "(forall h:1) ..." mentions only mu, and it
    # is evaluated once per (mu0, Z) assignment: two sweeps, one per
    # standard Z.  Each sweep reads table cells instead of listing the
    # tables, and lets a nonzero cell stand for every value 1..cap: it
    # takes cap + 2 = 5 evaluations, and mu0 is applied in the 4 whose
    # search finds a zero.  With the 18 applications where the
    # consequent's witness reads it, that is 2 * 4 + 18 = 26 in all.
    entry = udnr_entry()
    mu0 = entry.model.object("mu0")
    applied, apply = [], mu0.call

    def counted_apply(h):
        applied.append(h)
        return apply(h)

    monkeypatch.setattr(mu0, "call", counted_apply)
    populations = record_populations(monkeypatch)
    seen = record_formulas(monkeypatch)
    verdict = rs_run(entry)
    assert dict(verdict.stages)["candidates-backward"].startswith(
        "candidates ok over 2 assignment(s)")
    sweeps = [f for f in seen if isinstance(f, Forall)
              and f.var.ty == pure(1)]
    assert len(sweeps) == 2 and sweeps[0] == sweeps[1]
    assert "mu" in show_formula(sweeps[0])
    assert (pure(1), False) not in populations
    assert len(applied) == 26


@pytest.mark.parametrize("cap", [3, 4, 5])
def test_forward_check_over_every_table_takes_a_probe_per_zero_pattern(
        monkeypatch, cap):
    # Under f: all the forward rows read the swept table f only through
    # zero tests, so each evaluation decides every table with one
    # pattern of zero cells: 2^(cap + 1) evaluations for (cap + 1)^(cap
    # + 1) tables.  A constant rec step asks whether its stage count is
    # != 0, which a nonzero cell answers; asking > 0 would refine every
    # cell (341 evaluations at cap 3).  The backward check's two (mu2)
    # sweeps take cap + 2 each.  No path lists the 0 -> 0 tables.
    probes, counts, checks = [], [], extract.check_candidates
    probe = rszoo.interp.model._probe

    def counted_probe(cells):
        probes.append(cells)
        return probe(cells)

    def counted_check(model, final, plans):
        probes.clear()
        report = checks(model, final, plans)
        counts.append(len(probes))
        return report

    monkeypatch.setattr(rszoo.interp.model, "_probe", counted_probe)
    monkeypatch.setattr(extract, "check_candidates", counted_check)
    populations = record_populations(monkeypatch)
    verdict = rs_run(udnr_entry(resized_model(cap), "all"))
    assert dict(verdict.stages)["candidates-forward"] == (
        f"candidates ok over {(cap + 1) ** (cap + 1)} assignment(s) "
        "[overflow]")
    assert counts == [2 ** (cap + 1), 2 * (cap + 2)]
    assert (pure(1), False) not in populations


@pytest.mark.parametrize("matrix, vacuous, evaluated", [
    ("succ(x) = 0 -> y = x", True, ["succ(x) = 0"]),
    ("x = x -> y = x", False, ["x = x", "y = x"]),
    ("y = x", False, ["y = x"]),
])
def test_check_candidates_evaluates_antecedent_once(monkeypatch, matrix,
                                                    vacuous, evaluated):
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf(f"(forall^st x:0) (exists^st y:0) {matrix}")
    seen = record_formulas(monkeypatch)
    report = check_candidates(model, checked_rows(nf, ((Var("x", N),),)))
    assert report.ok and report.checked == 2
    assert report.antecedent_vacuous is vacuous
    params = {"x": N, "y": N}
    want = [parse_formula(src, params=params) for src in evaluated]
    assert seen == want * 2


def test_check_candidates_shows_a_failing_number_as_itself():
    # no row holds: each failure names the type-0 universal's value
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf("(forall^st x:0) (exists^st y:0) y = succ(x)")
    report = check_candidates(model, checked_rows(nf, ((Var("x", N),),)))
    assert not report.ok and report.failures == ("x=0", "x=1")
    assert report.line().endswith("FAIL over 2 assignment(s) x=0; x=1")


def test_check_candidates_evaluates_existential_antecedent_per_candidate(
        monkeypatch):
    # the antecedent mentions y, which each candidate sets: the first
    # candidate's consequent fails, so the second candidate's antecedent
    # is evaluated too (and is false)
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf("(forall^st x:0) (exists^st y:0) succ(x) = y -> y = x")
    x = Var("x", N)
    seen = record_formulas(monkeypatch)
    report = check_candidates(model, checked_rows(nf, ((app(SUCC, x),), (x,))))
    assert report.ok and report.checked == 2
    params = {"x": N, "y": N}
    ante, cons = (parse_formula(src, params=params)
                  for src in ("succ(x) = y", "y = x"))
    assert seen == [ante, cons, ante] * 2


def test_check_candidates_keys_antecedent_on_universals_read_through_slots(
        monkeypatch):
    # the antecedent reads x only through the slot term of y, so it is
    # evaluated at each value of x: true at x = 0, false at x = 1
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf("(forall^st x:0) (exists^st y:0) y = 0 -> x = 0")
    seen = record_formulas(monkeypatch)
    report = check_candidates(model, checked_rows(nf, ((Var("x", N),),)))
    assert report.ok and report.checked == 2
    ante = parse_formula("y = 0", params={"y": N})
    assert seen.count(ante) == 2


def test_check_candidates_keeps_the_overflow_bit_when_the_sweep_raises():
    # the slot term reads u, which no universal binds: the check raises
    # at the first assignment, after the overflow bit was cleared for
    # the sweep, and the bit the model had before comes back
    model = MiniModel(cap=3, omega=2)
    model.overflowed = True
    nf = parse_nf(ONE_SLOT)
    with pytest.raises(ModelError, match="unbound variable 'u'"):
        check_candidates(model, checked_rows(nf, ((Var("u", N),),)))
    assert model.overflowed is True


# ---------------------------------------------------------------------------
# checking rows against a normal form


ONE_SLOT = "(forall^st x:0) (exists^st y:0) y = x"
ROWS = "(forall^st x:0)\n(x) (succ(x))"


def check(text: str = ROWS, nf: str = ONE_SLOT, rows=None) -> CheckedRows:
    """``check_script`` of the script ``text`` against the normal form
    ``nf``; ``rows``, when given, replaces the script's rows."""
    script = parse_script(text)
    if rows is not None:
        script = ProofScript(script.universals, rows)
    return check_script(script, parse_nf(nf))


def test_import_loads_neither_dataclasses_nor_inspect():
    # the script records are slots classes: importing the pipeline
    # generates no dataclass
    src = str(Path(extract.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import rszoo.extract; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"


def test_exists_witness_introduces_rows():
    # the rows witness the normal form's existentials, and the checked
    # rows carry its blocks
    final = check()
    x = Var("x", N)
    assert final.rows == ((x,), (app(SUCC, x),))
    assert final.universals == (x,)
    assert final.existentials == (Var("y", N),)
    assert show_formula(final.matrix) == "y = x"
    assert final.line() == "2 witness row(s) fit the normal form"


@pytest.mark.parametrize("text, nf, message", [
    # the prefix is the universal block: names, types and order
    ("(forall^st z:0)\n(z)", ONE_SLOT,
     "script prefix (forall^st z:0) is not the normal form's "
     "(forall^st x:0)"),
    ("(forall^st x:1)\n(x(0))", ONE_SLOT,
     "script prefix (forall^st x:1) is not the normal form's "
     "(forall^st x:0)"),
    ("(forall^st z:0, x:0)\n(x)",
     "(forall^st x:0, z:0) (exists^st y:0) y = x",
     "script prefix (forall^st z:0, x:0) is not the normal form's "
     "(forall^st x:0, z:0)"),
    ("(forall^st x:0)\n(x)",
     "(forall^st x:0, z:0) (exists^st y:0) y = x",
     "script prefix (forall^st x:0) is not the normal form's "
     "(forall^st x:0, z:0)"),
    # one slot per existential, each well-typed at its type
    ("(forall^st x:0)\n(x; x)", ONE_SLOT,
     "row 1 has 2 slot(s), the normal form 1 existential(s)"),
    ("(forall^st x:0)\n(x) (\\n:0. n)", ONE_SLOT,
     "row 2, slot y: witness has type 1, expected 0"),
    ("(forall^st x:0)\n(x; x) (x)",
     "(forall^st x:0) (exists^st y:0, g:1) g(y) = x",
     "row 1, slot g: witness has type 0, expected 1"),
    # the reader binds x at type 0; applying it is check_script's to refuse
    ("(forall^st x:0)\n(x) (x(0))", ONE_SLOT,
     "row 2, slot y: applied non-function of type 0"),
])
def test_check_script_rejects(text, nf, message):
    with pytest.raises(ScriptError, match=f"^{re.escape(message)}$"):
        check(text, nf)


def test_nf_axiom_starts_with_one_empty_row():
    # a normal form without existentials, an internal axiom, is witnessed
    # by one row of no slots; built in code, as a row holds a slot
    final = check(rows=((),), nf="(forall^st x:0) x = x \\/ succ(x) = x")
    assert final.rows == ((),)
    assert final.existentials == ()
    assert [v.name for v in final.universals] == ["x"]
    assert final.line() == "1 witness row(s) fit the normal form"


def test_nf_blocks_splits_the_blocks():
    universals, existentials, matrix = nf_blocks(parse_formula(
        "(forall^st x:0) (exists^st y:0, g:1) g(y) = x"))
    assert [v.name for v in universals] == ["x"]
    assert [v.name for v in existentials] == ["y", "g"]
    assert show_formula(matrix) == "g(y) = x"


@pytest.mark.parametrize("src", [
    "(forall^st x:0) (exists^st y:0) (((exists^st z:0) z = y) -> x = y)",
    # a standard quantifier after the existential block is not peeled
    "(exists^st y:0) (forall^st x:0) x = y",
])
def test_nf_blocks_rejects_external_matrices(src):
    with pytest.raises(TranslateError, match="matrix is not internal"):
        nf_blocks(parse_formula(src))


# ---------------------------------------------------------------------------
# script syntax


def test_parse_script_reads_lets_and_steps():
    # the steps of a script: its lets, its prefix and its rows
    script = parse_script(
        "# a comment\n"
        "let two := succ(succ(0))\n"
        "(forall^st x:0)\n"
        "(two)\n"
        "  (x)\n")
    two = app(SUCC, app(SUCC, num(0)))
    x = Var("x", N)
    assert script.universals == (x,)
    assert script.rows == ((two,), (x,))
    assert check_script(script, parse_nf(ONE_SLOT)).rows == ((two,), (x,))


BODY = "(forall^st x:0)\n(x)"
# the retired step format: its 'NF-AXIOM' holds a '-'
STEP_FORMAT = ("step 1: NF-AXIOM conclude (forall^st x:0) "
               "x = x \\/ succ(x) = x")


@pytest.mark.parametrize("text, message", [
    ("  x = x\n" + BODY,
     "expected 'let' or '(forall^st', found 'x' (at 1:3)"),
    # ``param`` is no directive, and nor is ``script``: a script has no
    # name line
    ("param p : 1\n" + BODY,
     "expected 'let' or '(forall^st', found 'param' (at 1:1)"),
    ("script s\nparam p : 1\n" + BODY,
     "expected 'let' or '(forall^st', found 'script' (at 1:1)"),
    # an error before the body is named there, whatever the body is
    ("let q z\n" + BODY, "let q: expected ':=', found 'z' (at 1:7)"),
    ("", "expected 'let' or '(forall^st', found 'end of input' (at 1:1)"),
    # the prefix is a standard universal block
    ("(x)", "prefix: expected 'forall^st', found 'x' (at 1:2)"),
    ("(forall x:0)\n(x)",
     "prefix: expected 'forall^st', found 'x' (at 1:9)"),
    ("(forall^st x:q)\n(x)",
     "prefix: expected a type, found 'q' (at 1:14)"),
    ("(forall^st succ:0)\n(0)",
     "prefix: 'succ' is a constant, not a variable name (at 1:12)"),
    # at least one row, and nothing but rows after the prefix
    ("(forall^st x:0)\n",
     "row 1: expected '(', found 'end of input' (at 2:1)"),
    ("(forall^st x:0)\n(x)\nlet q := 0",
     "row 2: expected '(', found 'let' (at 3:1)"),
    ("(forall^st x:0)\n(x]",
     "row 1, slot 1: expected ')', found ']' (at 2:3)"),
    ("(forall^st x:0)\n(x) (succ(x)",
     "row 2, slot 1: expected ')', found 'end of input' (at 2:13)"),
    # a let binds one name, and no constant's or keyword's; '-' is no
    # token, so it stops the script wherever it is
    ("let succ := 0\n" + BODY,
     "'succ' is a constant, not a variable name (at 1:5)"),
    ("let forall := 0\n" + BODY,
     "'forall' is a keyword, not a variable name (at 1:5)"),
    ("let a-b := 0\n" + BODY, "unexpected character '-' (at 1:6)"),
    # the retired header and step lines meet the same refusal
    ("script 3\n" + STEP_FORMAT, "unexpected character '-' (at 2:11)"),
    ("script s\n" + STEP_FORMAT, "unexpected character '-' (at 2:11)"),
    ("script udnr -forward\n" + BODY, "unexpected character '-' (at 1:13)"),
])
def test_parse_script_rejects(text, message):
    with pytest.raises(ScriptError, match=re.escape(message)):
        parse_script(text)


@pytest.mark.parametrize("text, message", [
    ("let q := succ(z)\n" + BODY, "let q: unbound variable 'z' (at 1:15)"),
    ("(forall^st x:0)\n(z)", "row 1, slot 1: unbound variable 'z' (at 2:2)"),
    ("(forall^st x:0)\n(x) (succ(x); z)",
     "row 2, slot 2: unbound variable 'z' (at 2:15)"),
    # rows may run over lines
    ("(forall^st x:0)\n  (x)  # the first row\n  (succ(x);\n   z)\n",
     "row 2, slot 2: unbound variable 'z' (at 4:4)"),
])
def test_parse_errors_name_the_let_row_and_slot(text, message):
    with pytest.raises(ScriptError, match=re.escape(message)):
        parse_script(text)


# ---------------------------------------------------------------------------
# postprocess and extraction


def test_postprocess_bounds_the_target_slot():
    bound = postprocess(check())
    model = MiniModel(cap=5, omega=2)
    value = eval_term(model, bound, model.env())
    assert [value.call(n) for n in range(4)] == [1, 2, 3, 4]


@pytest.mark.parametrize("cap", [3, 4])
def test_leastz_is_the_least_zero_up_to_y_else_zero(cap):
    # y = cap included: there the search's "y + 1" saturates to y
    model = MiniModel(cap=cap, omega=2)
    leastz = eval_term(model, stdterms.leastz_t())
    for table in itertools.product(range(cap + 1), repeat=cap + 1):
        at_table = leastz.call(table_fn(table, model))
        for y in range(cap + 1):
            want = table.index(0) if 0 in table[:y + 1] else 0
            assert at_table.call(y) == want, (table, y)


def test_extract_function_needs_one_candidate():
    final = check()
    assert len(final.rows) == 2
    with pytest.raises(ScriptError, match="exactly one candidate"):
        extract_function(final)


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


def test_value_label_names_declared_objects():
    model = MiniModel(cap=4, omega=2)
    z0 = table_fn([0, 1, 0, 0, 0], model)
    model.declare("Z0", pure(1), z0, st=True)
    assert extract._value_label(model, pure(1), z0) == "Z0"
    # the same table under another object is not the declared one
    assert extract._value_label(model, pure(1),
                                table_fn([0, 1, 0, 0, 0], model)) \
        == "(0, 1, 0, 0, 0)"
