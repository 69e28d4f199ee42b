"""The mutants of ``mutants.py`` through ``rs_run`` at cap 3: each is
killed or survives exactly as the list says.  The forward row mutants
also fail at cap 5 with the table ``f`` swept over every table."""
import re

import pytest

import rszoo.interp.model
from rszoo.extract import ScriptError, parse_script, rs_run
from rszoo.interp.model import zero_value

from mutants import MUTANTS
from test_extract import MODEL_CAP3, MODEL_CAP5, UDNR, udnr_entry


def mutated(mutant, model=MODEL_CAP3, f_plan="st"):
    """The udnr entry with the mutant's edits made."""
    entry = udnr_entry(model, f_plan)
    if mutant.file == "model.cfg":
        model = entry.model
        for name, _zero, _once in mutant.edits:
            ty, _, st = model.declared[name]
            model.declared[name] = (ty, zero_value(model, ty), st)
    else:   # a script: entry.forward or entry.backward
        text = mutant.apply((UDNR / mutant.file).read_text())
        setattr(entry, mutant.file.removesuffix(".prf"), parse_script(text))
    return entry


def killed(entry, shipped_flags) -> bool:
    try:
        verdict = rs_run(entry)
    except ScriptError:
        return True
    return not set(verdict.flags) <= set(shipped_flags)


def test_mutants_die_or_survive_as_listed():
    shipped = rs_run(udnr_entry()).flags
    outcome = {m.name: killed(mutated(m), shipped) for m in MUTANTS}
    assert outcome == {m.name: m.survives is None for m in MUTANTS}
    survivors = [m for m in MUTANTS if m.survives is not None]
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survive:",
          ", ".join(f"{m.name} (item {m.survives})" for m in survivors))


def named(name):
    return next(m for m in MUTANTS if m.name == name)


@pytest.mark.parametrize("model", [MODEL_CAP3, MODEL_CAP5], ids=["3", "5"])
@pytest.mark.parametrize("name", ["every-y-0", "dmark-offset-7", "xi-k-0"])
def test_forward_mutants_fail_at_a_standard_table(name, model):
    # killed by a FAIL, not by a flag, at both caps: E0's first zero is
    # cell 2, which each mutant's bound or mark misses
    with pytest.raises(ScriptError) as info:
        rs_run(mutated(named(name), model))
    assert str(info.value).startswith(
        "udnr/candidates-forward: candidates FAIL over 2 assignment(s)")
    assert str(info.value).endswith(" f=E0, Psi=Psi0, Xi=Xi0")


def test_a_renamed_table_fails_at_check_forward():
    # rows for the normal form up to the names of its universals are
    # not enough: the sweep plans and the collapse read the table by the
    # name f
    with pytest.raises(ScriptError) as info:
        rs_run(mutated(named("rename-f")))
    assert str(info.value).startswith(
        "udnr/check-forward: script prefix (forall^st g:1, ")


def test_the_trivial_backward_row_fails_at_a_standard_table():
    # checked against the built backward normal form, the zero function
    # dodges neither Z0 nor E0
    with pytest.raises(ScriptError) as info:
        rs_run(mutated(named("backward-trivial")))
    assert str(info.value) == (
        "udnr/candidates-backward: candidates FAIL over 2 assignment(s) "
        "mu=mu0, Z=Z0; mu=mu0, Z=E0")


def test_the_late_mark_is_no_equivalent_mutant():
    # the standard tables' first zeros are not in the last cell, so only
    # a sweep over every table shows that the proof with the mark one
    # cell late does not hold
    with pytest.raises(ScriptError) as info:
        rs_run(mutated(named("mark-late-1"), f_plan="all"))
    assert str(info.value).startswith(
        "udnr/candidates-forward: candidates FAIL over 256 assignment(s) "
        "[overflow] f=(1, 1, 1, 0), Psi=Psi0, Xi=Xi0;")


@pytest.mark.parametrize("name, first", [
    ("every-y-0", "(1, 0, 0, 0, 0, 0)"),
    ("dmark-offset-7", "(1, 0, 0, 0, 0, 0)"),
    ("mark-late-1", "(1, 1, 1, 1, 1, 0)"),
    ("xi-k-0", "(1, 0, 0, 0, 0, 0)"),
])
def test_forward_mutants_fail_at_cap_five_over_every_table(name, first):
    # killed by a FAIL once f ranges over every table, not only over the
    # standard ones; mark-late-1 survives the standard tables at cap 5,
    # and fails first where the first zero is the last cell
    with pytest.raises(ScriptError) as info:
        rs_run(mutated(named(name), MODEL_CAP5, "all"))
    failed = re.fullmatch(r"udnr/candidates-forward: candidates FAIL over "
                          r"46656 assignment\(s\)(?: \[[^]]*\])? (.*)",
                          str(info.value))
    assert failed is not None
    assert failed[1].split("; ")[0] == f"f={first}, Psi=Psi0, Xi=Xi0"


def test_a_failing_sweep_keeps_the_blocks_after_the_fifth_label_whole(
        monkeypatch):
    # mark-late-1 under f: all at cap 3 fails at the 27 tables (a, b, c,
    # 0) with a, b, c nonzero.  A label refines its failing block down
    # to the block's first table; past the fifth label no label is made,
    # and the blocks stay whole: 41 evaluations, where a label for every
    # failing table would take 92
    probes, probe = [], rszoo.interp.model._probe

    def counted_probe(cells):
        probes.append(cells)
        return probe(cells)

    monkeypatch.setattr(rszoo.interp.model, "_probe", counted_probe)
    with pytest.raises(ScriptError) as info:
        rs_run(mutated(named("mark-late-1"), f_plan="all"))
    assert str(info.value).endswith(
        "f=(1, 1, 3, 0), Psi=Psi0, Xi=Xi0")  # the line shows three labels
    assert len(probes) == 41
