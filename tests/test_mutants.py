"""The forward-script mutants of ``mutants.py`` through ``rs_run`` at
cap 3: each is killed or survives exactly as the list says."""
from rszoo.extract import ScriptError, parse_script, rs_run

from mutants import MUTANTS
from test_extract import UDNR, udnr_entry


def killed(entry, shipped_flags) -> bool:
    try:
        verdict = rs_run(entry)
    except ScriptError:
        return True
    return not set(verdict.flags) <= set(shipped_flags)


def test_mutants_die_or_survive_as_listed():
    shipped = rs_run(udnr_entry()).flags
    text = (UDNR / "forward.prf").read_text()
    outcome = {}
    for mutant in MUTANTS:
        entry = udnr_entry()
        entry.forward = parse_script(mutant.apply(text))
        outcome[mutant.name] = killed(entry, shipped)
    assert outcome == {m.name: m.survives is None for m in MUTANTS}
    survivors = [m for m in MUTANTS if m.survives is not None]
    print(f"{len(survivors)} of {len(MUTANTS)} forward mutants survive:",
          ", ".join(f"{m.name} (item {m.survives})" for m in survivors))
