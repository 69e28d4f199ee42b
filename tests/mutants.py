"""Mutants of the shipped udnr entry, for ``test_mutants.py``.

A check is as strong as the mutants it kills (DeMillo, Lipton and
Sayward, 1978).  A mutant names the entry file it edits and lists its
edits.  A text edit of a proof script names how often its text occurs,
so an edit that no longer applies fails instead of leaving the script
unchanged.  An edit of ``model.cfg`` is made in the model loaded from
it, since the file's constructions cannot write the mutated object:
``(name, "0", 1)`` replaces the one object declared as ``name`` by the
constant-0 value of its type.  A mutant is killed when ``rs_run`` fails
on it, or when its verdict carries a flag that the shipped entry's does
not.  A mutant that survives names the ROADMAP item that is to kill it;
a killed one names none.

Not here yet: a mutant of a returned bound.  No stage reads the terms
``rs_run`` returns, so it would survive unseen; it waits for item 4,
which checks them.
"""
from __future__ import annotations

from typing import NamedTuple

# the slot terms of the forward rows, as the script writes them
DMARK = "dmark(f, Psi(empty1, 4718456))"
ROW1_Y = f"Xi(empty1, {DMARK}, 4718457)"


class Mutant(NamedTuple):
    name: str
    file: str                                 # the entry file it edits
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
    Mutant("every-y-0", "forward.prf", (
        (f"(exists z <= {ROW1_Y}) f(z) = 0", "(exists z <= 0) f(z) = 0", 1),
        (f"({ROW1_Y}; ", "(0; ", 1),
        ("WEAKEN 2 with (4718456; ", "WEAKEN 2 with (0; ", 1)),
        survives="3"),
    Mutant("fallback-y-0", "forward.prf", (
        ("WEAKEN 2 with (4718456; ", "WEAKEN 2 with (0; ", 1),),
        survives="10"),
    # the marker's offset, in both places the let reads it
    Mutant("dmark-offset-7", "forward.prf", (
        ("leq(4718456, n), flag(firstz(h, monus(n, 4718456))",
         "leq(7, n), flag(firstz(h, monus(n, 7))", 1),),
        survives="3"),
    # every place the script passes k, Xi's last argument
    Mutant("xi-k-0", "forward.prf", (("4718457", "0", 12),), survives="4"),
    # a row edited without the axiom: the replay refuses step 2
    Mutant("row-without-axiom", "forward.prf",
           ((f"({ROW1_Y}; ", "(0; ", 1),), survives=None),
    # the backward witness searches for no halting stage: mu of the
    # constant 0, in the step and in the axiom it must match
    Mutant("backward-mu-0", "backward.prf", (
        ("mu(\\s:0. iszero(run(Z, e, s)))", "mu(\\s:0. 0)", 2),),
        survives=None),
    # the model's modulus answers 0 everywhere: the forward candidates
    # still hold at the declared tables, with only the overflow that
    # the shipped run also has
    Mutant("xi0-zero", "model.cfg", (("Xi0", "0", 1),), survives="4"),
    # the model's least-zero search answers 0 everywhere: the backward
    # candidates then hold only where the antecedent fails, and the
    # verdict gains backward-antecedent-vacuous
    Mutant("mu0-zero", "model.cfg", (("mu0", "0", 1),), survives=None),
    # the dodge functional answers the constant-0 table everywhere: the
    # forward candidates then hold only where the antecedent fails, and
    # the verdict gains antecedent-vacuous
    Mutant("psi0-zero", "model.cfg", (("Psi0", "0", 1),), survives=None),
]
