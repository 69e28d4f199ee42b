"""The mutants of ``mutants.py`` through ``rs_run`` at cap 3: each is
killed or survives exactly as the list says."""
from rszoo.extract import ScriptError, parse_script, rs_run
from rszoo.interp.model import zero_value

from mutants import MUTANTS
from test_extract import UDNR, udnr_entry


def mutated(mutant):
    """The udnr entry with the mutant's edits made."""
    entry = udnr_entry()
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
