import itertools
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import rszoo.interp
from rszoo import extract
from rszoo.extract import (ProofScript, ProofStep, ScriptError,
                           check_candidates, check_script, extract_function,
                           extract_terms, parse_script, postprocess, rs_run)
from rszoo.interp import (FnV, MiniModel, eval_term, parse_model_config,
                          table_fn)
from rszoo.lang import (SUCC, Forall, N, Var, app, num, parse_formula, pure,
                        show_formula, show_term, subterms)
from rszoo.translate import parse_nf

UDNR = Path(extract.__file__).parent / "corpus_data" / "udnr"
GOLDEN_CAP3 = Path(__file__).parent / "golden" / "udnr_cap3.txt"

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


# The same model at cap 5: tables padded with zeros to 6 cells.
MODEL_CAP5 = MODEL_CAP3.replace("cap = 3", "cap = 5").replace(
    "0 0 [st]", "0 0 0 0 [st]")


def udnr_entry(model: str = MODEL_CAP3, f_plan: str = "st"):
    def read(name):
        return (UDNR / name).read_text()
    return SimpleNamespace(
        ident="udnr", source="UDNR", target="BZT", witness="y",
        principle=parse_formula(read("principle.fml")),
        expect=parse_nf(read("expect.nf")),
        forward=parse_script(read("forward.prf")),
        backward=parse_script(read("backward.prf")),
        model=parse_model_config(model),
        plans={"f": f_plan, "Psi": "st", "Xi": "st"},
    )


@pytest.fixture(scope="module")
def udnr_run():
    """One rs_run of udnr at cap 3, counting the script replays."""
    entry = udnr_entry()
    replays = []

    def counted(script):
        replays.append(script.name)
        return check_script(script)

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
])
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
    assert nodes == 1293


def test_rs_run_again_compiles_nothing_new():
    # the model caches compiled closures by node; a second and third run
    # on the same entry reuse the first run's nodes instead of adding more
    entry = udnr_entry()
    sizes = []
    for _ in range(3):
        rs_run(entry)
        sizes.append(len(entry.model._compiled))
    assert sizes == [sizes[0]] * 3 and sizes[0] > 0


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
    assert "(exists z <= y)" in text
    entry.expect = parse_nf(text.replace("(exists z <= y)", "(exists z < y)"))
    rs_run_fails_at(entry, "expect")


def test_rs_run_fails_at_align_on_a_forward_script_for_another_form():
    entry = udnr_entry()
    entry.forward = entry.backward
    rs_run_fails_at(entry, "align")


def test_rs_run_fails_at_candidates_backward_naming_declared_objects():
    # a backward witness that ignores the oracle dodges neither standard
    # table; the failing assignments print by their declared names, not
    # by mu0's fingerprint over every type-1 table
    entry = udnr_entry()
    witness = r"\e:0. run(Z, e, mu(\s:0. iszero(run(Z, e, s))))"
    text = (UDNR / "backward.prf").read_text()
    assert text.count(witness) == 2
    entry.backward = parse_script(text.replace(witness, r"\e:0. 0"))
    assert rs_run_fails_at(entry, "candidates-backward") == (
        "udnr/candidates-backward: candidates FAIL over 2 assignment(s) "
        "mu=mu0, Z=Z0; mu=mu0, Z=E0")


def test_rs_run_rejects_a_sweep_plan_naming_an_object():
    entry = udnr_entry()
    entry.plans["f"] = "Z0"
    assert rs_run_fails_at(entry, "candidates-forward") == (
        "udnr/candidates-forward: unknown sweep plan 'Z0' for f")


def record_formulas(monkeypatch) -> list:
    seen, eval_formula = [], rszoo.interp.eval_formula

    def recorded(model, f, env=None):
        seen.append(f)
        return eval_formula(model, f, env)

    monkeypatch.setattr(rszoo.interp, "eval_formula", recorded)
    return seen


def record_terms(monkeypatch) -> list:
    seen, eval_term = [], rszoo.interp.eval_term

    def recorded(model, t, env=None):
        seen.append((t, env))
        return eval_term(model, t, env)

    monkeypatch.setattr(rszoo.interp, "eval_term", recorded)
    return seen


def test_rs_run_evaluates_backward_antecedent_once(monkeypatch):
    # The backward antecedent "(forall h:1) ..." mentions only mu, so it
    # is evaluated once across the two (mu0, Z) assignments.  Its sweep
    # reads table cells instead of listing the tables: mu0 is applied
    # once per prefix read, 66 times in all (376 with two eager sweeps).
    entry = udnr_entry()
    mu0 = entry.model.object("mu0")
    applied, apply = [], mu0.call

    def counted_apply(h):
        applied.append(h)
        return apply(h)

    populations, population = [], MiniModel.population

    def counted_population(model, ty, standard):
        populations.append((ty, standard))
        return population(model, ty, standard)

    monkeypatch.setattr(mu0, "call", counted_apply)
    monkeypatch.setattr(MiniModel, "population", counted_population)
    seen = record_formulas(monkeypatch)
    verdict = rs_run(entry)
    assert dict(verdict.stages)["candidates-backward"].startswith(
        "candidates ok over 2 assignment(s)")
    sweeps = [f for f in seen if isinstance(f, Forall)
              and f.var.ty == pure(1)]
    assert len(sweeps) == 1 and "mu" in show_formula(sweeps[0])
    assert (pure(1), False) not in populations
    assert len(applied) == 66


@pytest.mark.parametrize("matrix, vacuous, evaluated", [
    ("x < 0 -> y = x", True, ["x < 0"]),
    ("x <= x -> y = x", False, ["x <= x", "y = x"]),
    ("y = x", False, ["y = x"]),
])
def test_check_candidates_evaluates_antecedent_once(monkeypatch, matrix,
                                                    vacuous, evaluated):
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf(f"universals: x:0\nexistentials: y:0\nmatrix: {matrix}")
    seen = record_formulas(monkeypatch)
    report = check_candidates(model, nf, ((Var("x", N),),))
    assert report.ok and report.checked == 2
    assert report.antecedent_vacuous is vacuous
    params = {"x": N, "y": N}
    want = [parse_formula(src, params=params) for src in evaluated]
    assert seen == want * 2


def test_check_candidates_hoists_antecedent_over_unmentioned_universals(
        monkeypatch):
    # the antecedent mentions x but neither z nor an existential: one
    # evaluation per value of x serves both values of z
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf("universals: x:0, z:0\nexistentials: y:0\n"
                  "matrix: x <= x -> y = x")
    seen = record_formulas(monkeypatch)
    report = check_candidates(model, nf, ((Var("x", N),),))
    assert report.ok and report.checked == 4
    params = {"x": N, "y": N}
    ante, cons = (parse_formula(src, params=params)
                  for src in ("x <= x", "y = x"))
    assert seen == [ante, cons, cons, ante, cons, cons]


def test_check_candidates_evaluates_existential_antecedent_per_candidate(
        monkeypatch):
    # the antecedent mentions y, which each candidate sets: the first
    # candidate's consequent fails, so the second candidate's antecedent
    # is evaluated too (and is false)
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf("universals: x:0\nexistentials: y:0\n"
                  "matrix: x < y -> y = x")
    x = Var("x", N)
    seen = record_formulas(monkeypatch)
    report = check_candidates(model, nf, ((app(SUCC, x),), (x,)))
    assert report.ok and report.checked == 2
    params = {"x": N, "y": N}
    ante, cons = (parse_formula(src, params=params)
                  for src in ("x < y", "y = x"))
    assert seen == [ante, cons, ante] * 2


def test_check_candidates_keys_antecedent_on_universals_read_through_slots(
        monkeypatch):
    # the antecedent reads x only through the slot term of y: a key
    # without x would reuse "y = 0" from x = 0 at x = 1 and fail there
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf("universals: x:0\nexistentials: y:0\n"
                  "matrix: y = 0 -> x = 0")
    seen = record_formulas(monkeypatch)
    report = check_candidates(model, nf, ((Var("x", N),),))
    assert report.ok and report.checked == 2
    ante = parse_formula("y = 0", params={"y": N})
    assert seen.count(ante) == 2


def test_check_candidates_shares_a_slot_term_across_rows(monkeypatch):
    # succ(x) fills both slots of the first row and y of the second; it
    # is evaluated once per value of x, as is x
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf("universals: x:0\nexistentials: y:0, z:0\n"
                  "matrix: z = x")
    x = Var("x", N)
    sx = app(SUCC, x)
    seen = record_terms(monkeypatch)
    report = check_candidates(model, nf, ((sx, sx), (sx, x)))
    assert report.ok and report.checked == 2
    assert [t for t, _env in seen] == [sx, x, sx, x]


def test_check_candidates_evaluates_closed_slot_term_once(monkeypatch):
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf("universals: x:0\nexistentials: y:0\nmatrix: y <= x")
    seen = record_terms(monkeypatch)
    report = check_candidates(model, nf, ((num(0),),))
    assert report.ok and report.checked == 2
    assert [t for t, _env in seen] == [num(0)]


def test_check_candidates_evaluates_udnr_slot_terms_once_per_table(
        monkeypatch):
    # udnr's forward rows over all 256 tables f at cap 3: the two slot
    # terms that read f are evaluated once per table, and the closed
    # ones once in all
    entry = udnr_entry()
    model = entry.model
    final = check_script(entry.forward).final
    seen = record_terms(monkeypatch)
    report = check_candidates(model, final.nf, final.rows,
                              {"f": "all", "Psi": "st", "Xi": "st"})
    assert report.ok and report.checked == 256
    per_table = Counter((t, model.canon_key(pure(1), env["f"]))
                        for t, env in seen)
    assert max(per_table.values()) == 1
    per_term = Counter(t for t, _env in seen)
    assert sorted(per_term.values(), reverse=True)[:2] == [256, 256]
    assert set(per_term.values()) == {1, 256}


def test_check_candidates_evaluates_slot_naming_an_existential_per_candidate(
        monkeypatch):
    # the second slot reads the first existential, so it is evaluated in
    # each candidate's environment, after the first slot
    model = MiniModel(cap=3, omega=2)
    nf = parse_nf("universals: x:0\nexistentials: y:0, z:0\n"
                  "matrix: z = x")
    x, y = Var("x", N), Var("y", N)
    seen = record_terms(monkeypatch)
    report = check_candidates(model, nf, ((app(SUCC, x), y), (x, y)))
    assert report.ok and report.checked == 2
    assert [t for t, _env in seen].count(y) == 4
    assert [env["y"] for t, env in seen if t == y] == [1, 0, 2, 1]


# ---------------------------------------------------------------------------
# rules EXISTS-WITNESS and WEAKEN


AXIOM = ("step 1: NF-AXIOM conclude (forall^st x:0) "
         "x = x \\/ succ(x) = x")
ONE_SLOT = "(forall^st x:0) (exists^st y:0) y = x"
WITNESS = f"step 2: EXISTS-WITNESS 1 with (x) (succ(x)) conclude {ONE_SLOT}"


def replay(*steps: str, groups=None):
    """Replay the axiom above followed by ``steps``; ``groups``, when
    given, replaces the witness tuples of the last step."""
    script = parse_script("\n".join(("script rules", AXIOM) + steps))
    if groups is not None:
        last = script.steps[-1]
        last = ProofStep(last.index, last.rule, last.premises, groups,
                         last.conclusion)
        script = ProofScript(script.name, script.steps[:-1] + (last,))
    return check_script(script)


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
    final = replay(WITNESS).final
    x = Var("x", N)
    assert final.rows == ((x,), (app(SUCC, x),))
    assert final.nf.existentials == (Var("y", N),)


def test_weaken_appends_rows():
    final = replay(WITNESS,
                   f"step 3: WEAKEN 2 with (0) (x) conclude {ONE_SLOT}").final
    x = Var("x", N)
    assert final.rows == ((x,), (app(SUCC, x),), (num(0),), (x,))


EW = "step 2 (EXISTS-WITNESS): "
WK = "step 3 (WEAKEN): "


@pytest.mark.parametrize("steps, message", [
    ((f"step 2: EXISTS-WITNESS with (x) (succ(x)) conclude {ONE_SLOT}",),
     EW + "needs exactly one premise"),
    ((WITNESS, "step 3: EXISTS-WITNESS 2 with (x; x) conclude "
               "(forall^st x:0) (exists^st y:0, z:0) y = x /\\ z = x"),
     "step 3 (EXISTS-WITNESS): premise must be existential-free"),
    (("step 2: EXISTS-WITNESS 1 with (x) conclude (forall^st x:0) x = x",),
     EW + "conclusion introduces no existentials"),
    (("step 2: EXISTS-WITNESS 1 with (z) (succ(z)) conclude "
      "(forall^st z:0) (exists^st y:0) y = z",),
     EW + "universal block must match the premise"),
    ((f"step 2: EXISTS-WITNESS 1 conclude {ONE_SLOT}",),
     EW + "needs at least one witness tuple"),
    ((f"step 2: EXISTS-WITNESS 1 with (x; x) conclude {ONE_SLOT}",),
     EW + "witness tuple has 2 slots, conclusion has 1 existentials"),
    ((f"step 2: EXISTS-WITNESS 1 with (\\n:0. n) conclude {ONE_SLOT}",),
     EW + "witness for y has type 1, expected 0"),
    ((f"step 2: EXISTS-WITNESS 1 with (muscan(\\n:0. x)) "
      f"conclude {ONE_SLOT}",),
     EW + "muscan is not permitted in witness terms"),
    ((f"step 2: EXISTS-WITNESS 1 with (x) conclude {ONE_SLOT}",),
     EW + "premise matrix is not the disjunction of the instantiated "
          "conclusion matrix"),
    ((WITNESS, f"step 3: WEAKEN with (0) conclude {ONE_SLOT}"),
     WK + "needs exactly one premise"),
    ((WITNESS, "step 3: WEAKEN 2 with (0) conclude "
               "(forall^st x:0) (exists^st y:0) x = y"),
     WK + "conclusion must repeat the premise normal form"),
    ((WITNESS, f"step 3: WEAKEN 2 conclude {ONE_SLOT}"),
     WK + "needs at least one tuple to add"),
    ((WITNESS, f"step 3: WEAKEN 2 with (0; 0) conclude {ONE_SLOT}"),
     WK + "witness tuple has 2 slots, conclusion has 1 existentials"),
    ((WITNESS, f"step 3: WEAKEN 2 with (\\n:0. n) conclude {ONE_SLOT}"),
     WK + "witness for y has type 1, expected 0"),
    ((WITNESS, f"step 3: WEAKEN 2 with (muscan(\\n:0. x)) "
               f"conclude {ONE_SLOT}"),
     WK + "muscan is not permitted in witness terms"),
])
def test_witness_rules_reject(steps, message):
    with pytest.raises(ScriptError, match=re.escape(message)):
        replay(*steps)


@pytest.mark.parametrize("steps", [
    (WITNESS,),
    (WITNESS, f"step 3: WEAKEN 2 with (0) conclude {ONE_SLOT}"),
])
def test_witness_rules_reject_open_terms(steps):
    # the parser already refuses unbound names, so the term is put into
    # the parsed step directly
    with pytest.raises(ScriptError, match=re.escape(
            "open witness term for y: unbound ['z']")):
        replay(*steps, groups=((Var("z", N),),))


# ---------------------------------------------------------------------------
# rule NF-AXIOM, formula_to_nf and the replay order


def test_nf_axiom_starts_with_one_empty_row():
    final = replay().final
    assert final.rows == ((),)
    assert final.nf.existentials == ()
    assert [v.name for v in final.nf.universals] == ["x"]


AX = "step 2 (NF-AXIOM): "


@pytest.mark.parametrize("steps, message", [
    (("step 2: NF-AXIOM 1 conclude (forall^st x:0) x = x",),
     AX + "axioms take no premises"),
    # the block shape is checked before the rule: a standard universal
    # after the existential block stays in the matrix
    (("step 2: NF-AXIOM conclude (exists^st y:0) (forall^st x:0) x = y",),
     AX + "matrix is not internal: (forall^st x:0) x = y"),
    ((f"step 2: NF-AXIOM conclude {ONE_SLOT}",),
     AX + "internal axiom cannot introduce existentials"),
    (("step 2: NF-AXIOM conclude (forall^st x:0) st(x)",),
     AX + "matrix is not internal: st(x)"),
    ((f"step 1: WEAKEN 1 with (0) conclude {ONE_SLOT}",),
     "duplicate step index 1"),
    ((f"step 2: WEAKEN 3 with (0) conclude {ONE_SLOT}",
      WITNESS.replace("step 2:", "step 3:")),
     "step 2 (WEAKEN): premise 3 not yet derived"),
])
def test_replay_rejects(steps, message):
    with pytest.raises(ScriptError, match=re.escape(message)):
        replay(*steps)


def test_formula_to_nf_splits_the_blocks():
    nf = extract.formula_to_nf(parse_formula(
        "(forall^st x:0) (exists^st y:0, g:1) g(y) = x"))
    assert [v.name for v in nf.universals] == ["x"]
    assert [v.name for v in nf.existentials] == ["y", "g"]
    assert show_formula(nf.matrix) == "g(y) = x"


@pytest.mark.parametrize("src", [
    "(forall^st x:0) (exists^st y:0) (st(y) -> x = y)",
    # a standard quantifier after the existential block is not peeled
    "(exists^st y:0) (forall^st x:0) x = y",
])
def test_formula_to_nf_rejects_external_matrices(src):
    with pytest.raises(ScriptError, match="matrix is not internal"):
        extract.formula_to_nf(parse_formula(src))


# ---------------------------------------------------------------------------
# script syntax


def test_parse_script_reads_lets_and_steps():
    script = parse_script(
        "script udnr-demo-2  # a comment\n"
        "let two := succ(succ(0))\n"
        "step 1: NF-AXIOM conclude (forall^st x:0)\n"
        "  x = two \\/ x = x\n"
        "step 2: EXISTS-WITNESS 1 with (two) (x)\n"
        "  conclude (forall^st x:0) (exists^st y:0) x = y\n")
    assert script.name == "udnr-demo-2"
    two = app(SUCC, app(SUCC, num(0)))
    first, second = script.steps
    assert (first.index, first.rule, first.premises) == (1, "NF-AXIOM", ())
    assert show_formula(first.conclusion) == \
        "(forall^st x:0) x = succ(succ(0)) \\/ x = x"
    assert (second.rule, second.premises) == ("EXISTS-WITNESS", (1,))
    assert second.groups == ((two,), (Var("x", N),))
    final = check_script(script).final
    assert final.rows == ((two,), (Var("x", N),))


STEP1 = AXIOM.replace("step 1: ", "")


@pytest.mark.parametrize("text, message", [
    ("  x = x\nscript s\n" + AXIOM,
     "expected 'script', 'let' or 'step', found 'x' (at 1:3)"),
    # ``param`` is no directive
    ("script s\nparam p : 1\n" + AXIOM,
     "expected 'script', 'let' or 'step', found 'param' (at 2:1)"),
    ("script s\nlet q z\n" + AXIOM,
     "let q: expected ':=', found 'z' (at 2:7)"),
    ("script s\n", "script has no steps"),
    # a directive runs up to the next one, so a stray line after a step
    # is named where it stands, not glued onto the step
    ("script s\nstep 1: NF-AXIOM conclude (forall^st x:0) x = x\n"
     "param p : 1",
     "expected 'script', 'let' or 'step', found 'param' (at 3:1)"),
    ("script s\nstep 1 NF-AXIOM",
     "step needs 'step <n>: <rule> ...': expected ':', found 'NF' (at 2:8)"),
    ("script s\nstep one: " + STEP1,
     "step needs 'step <n>: <rule> ...': expected a number, found 'one' "
     "(at 2:6)"),
    ("script s\nstep 1: NF-AXIOM (forall^st x:0) x = x",
     "step 1: expected a premise, 'with' or 'conclude', found '(' (at 2:18)"),
    ("script s\nstep 1: conclude (forall^st x:0) x = x",
     "step 1: expected a rule, found 'conclude' (at 2:9)"),
    ("script s\nstep 1: NF-AXIM conclude (forall^st x:0) x = x",
     "step 1: unknown rule 'NF-AXIM' (at 2:9)"),
    # blanks around '-' end a name
    ("script s\nstep 1: NF -AXIOM conclude (forall^st x:0) x = x",
     "step 1: unknown rule 'NF' (at 2:9)"),
    ("script s\nstep 1: NF-AXIOM x conclude (forall^st x:0) x = x",
     "step 1: expected a premise, 'with' or 'conclude', found 'x' (at 2:18)"),
    # the axiom takes no kind word
    ("script s\nstep 1: NF-AXIOM internal conclude (forall^st x:0) x = x",
     "step 1: expected a premise, 'with' or 'conclude', found 'internal' "
     "(at 2:18)"),
    (f"script s\n{AXIOM}\nstep 2: EXISTS-WITNESS 1 with x conclude "
     f"{ONE_SLOT}",
     "step 2: expected '(' opening a witness group, found 'x' (at 3:31)"),
    (f"script s\n{AXIOM}\nstep 2: EXISTS-WITNESS 1 with (x] conclude "
     f"{ONE_SLOT}",
     "step 2: witness group 1, slot 1: expected ')', found ']' (at 3:33)"),
])
def test_parse_script_rejects(text, message):
    with pytest.raises(ScriptError, match=re.escape(message)):
        parse_script(text)


@pytest.mark.parametrize("text, message", [
    ("script s\nlet q := succ(z)\n" + AXIOM,
     "let q: unbound variable 'z' (at 2:15)"),
    ("script s\nstep 1: NF-AXIOM conclude (forall^st x:0) x = z",
     "step 1: conclusion: unbound variable 'z' (at 2:47)"),
    (f"script s\n{AXIOM}\nstep 2: EXISTS-WITNESS 1 with (z) conclude "
     f"{ONE_SLOT}",
     "step 2: witness group 1, slot 1: unbound variable 'z' (at 3:32)"),
    (f"script s\n{AXIOM}\nstep 2: EXISTS-WITNESS 1 with (x) (succ(x); z) "
     f"conclude {ONE_SLOT}",
     "step 2: witness group 2, slot 2: unbound variable 'z' (at 3:45)"),
    # groups and the conclusion may run over lines
    (f"script s\n{AXIOM}\nstep 2: EXISTS-WITNESS 1 with\n"
     "  (x)  # the first candidate\n  (succ(x);\n   z)\n"
     f"  conclude {ONE_SLOT}\n",
     "step 2: witness group 2, slot 2: unbound variable 'z' (at 6:4)"),
])
def test_parse_errors_name_the_step_and_part(text, message):
    with pytest.raises(ScriptError, match=re.escape(message)):
        parse_script(text)


def test_every_rule_is_used_by_a_shipped_script():
    # a rule that no corpus script reaches is dead code: delete it, or
    # ship the entry that needs it
    rules = set()
    scripts = sorted(UDNR.parent.glob("*/*.prf"))
    assert scripts
    for path in scripts:
        for step in parse_script(path.read_text()).steps:
            rules.add(step.rule)
    assert set(extract.RULES) <= rules


# ---------------------------------------------------------------------------
# postprocess and extraction


def test_postprocess_bounds_the_target_slot():
    report = replay(WITNESS)
    nf = report.final.nf
    bound = postprocess(extract_terms(report), nf, "y").bound
    model = MiniModel(cap=5, omega=2)
    value = eval_term(model, bound, model.env())
    assert [value.call(n) for n in range(4)] == [1, 2, 3, 4]


@pytest.mark.parametrize("matrix, target, message", [
    ("g(x) = 0 -> y = x", "w", "'w' is not a witness slot of the normal form"),
    ("g(x) = 0 -> y = x", "g", "non-numeric target slot 'g': 1"),
    ("y = x -> g(y) = 0", "y",
     "consequent mentions witness slots other than the target: ['g']"),
])
def test_postprocess_rejects(matrix, target, message):
    nf = parse_nf("universals: x:0\nexistentials: y:0, g:1\n"
                  f"matrix: {matrix}")
    t = Var("t", pure(0))   # never inspected: the checks come first
    with pytest.raises(ScriptError, match=re.escape(message)):
        postprocess(t, nf, target)


def test_extract_function_needs_one_candidate():
    entry = udnr_entry()
    report = check_script(entry.forward)
    assert len(report.final.rows) == 3
    with pytest.raises(ScriptError, match="exactly one candidate"):
        extract_function(report)


def test_extract_terms_needs_existentials():
    report = check_script(parse_script(
        "script plain\n"
        "step 1: NF-AXIOM conclude (forall^st x:0) x = x\n"))
    with pytest.raises(ScriptError, match="no existentials"):
        extract_terms(report)


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
