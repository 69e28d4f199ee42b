"""Mutants of the shipped udnr forward script, for ``test_mutants.py``.

A check is as strong as the mutants it kills (DeMillo, Lipton and
Sayward, 1978).  Each mutant is a list of text edits of
``forward.prf``; an edit names how often its text occurs, so an edit
that no longer applies fails instead of leaving the script unchanged.
A mutant is killed when ``rs_run`` fails on it, or when its verdict
carries a flag that the shipped entry's does not.  A mutant that
survives names the ROADMAP item that is to kill it; a killed one names
none.
"""
from __future__ import annotations

from typing import NamedTuple

# the slot terms of the forward rows, as the script writes them
DMARK = "dmark(f, Psi(empty1, 4718456))"
ROW1_Y = f"Xi(empty1, {DMARK}, 4718457)"


class Mutant(NamedTuple):
    name: str
    edits: tuple[tuple[str, str, int], ...]   # (text, replacement, count)
    survives: str | None                      # the item to kill it

    def apply(self, text: str) -> str:
        for old, new, count in self.edits:
            found = text.count(old)
            if found != count:
                raise ValueError(f"{self.name}: {old!r} occurs {found} "
                                 f"time(s), not {count}")
            text = text.replace(old, new)
        return text


MUTANTS = [
    # the bound max(0, max(0, 0)); step 1's axiom stays the disjunction
    # of the rows, as EXISTS-WITNESS demands
    Mutant("every-y-0", (
        (f"(exists z <= {ROW1_Y}) f(z) = 0", "(exists z <= 0) f(z) = 0", 1),
        (f"({ROW1_Y}; ", "(0; ", 1),
        ("WEAKEN 2 with (4718456; ", "WEAKEN 2 with (0; ", 1)),
        survives="3"),
    Mutant("fallback-y-0", (
        ("WEAKEN 2 with (4718456; ", "WEAKEN 2 with (0; ", 1),),
        survives="10"),
    # the marker's offset, in both places the let reads it
    Mutant("dmark-offset-7", (
        ("leq(4718456, n), flag(firstz(h, monus(n, 4718456))",
         "leq(7, n), flag(firstz(h, monus(n, 7))", 1),),
        survives="3"),
    # every place the script passes k, Xi's last argument
    Mutant("xi-k-0", (("4718457", "0", 12),), survives="4"),
    # a row edited without the axiom: the replay refuses step 2
    Mutant("row-without-axiom", ((f"({ROW1_Y}; ", "(0; ", 1),),
           survives=None),
]
