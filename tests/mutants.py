"""Mutants of the shipped udnr entry, for ``test_mutants.py``.

A check is as strong as the mutants it kills (DeMillo, Lipton and
Sayward, 1978).  A mutant names the entry file it edits and lists its
edits.  A text edit of a witness-row script names how often its text occurs,
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

# the slot term y of the forward row, as the script writes it
ROW_Y = "Xi(empty1, dmark(f, Psi(empty1, 0)), 1)"
# the backward row's slot term d
ROW_D = "\\e:0. run(Z, e, mu(\\s:0. iszero(run(Z, e, s))))"


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
    # the bound 0
    Mutant("every-y-0", "forward.prf", ((f"({ROW_Y};", "(0;", 1),),
           survives=None),
    # the mark 7 cells late, behind the guard that keeps the shifted
    # index inside the table
    Mutant("dmark-offset-7", "forward.prf", (
        ("flag(firstz(h, n), succ(v), 0)",
         "flag(iszero(monus(7, n)), flag(firstz(h, monus(n, 7)), succ(v), "
         "0), 0)", 1),),
        survives=None),
    # the mark 1 cell late.  A first zero at cell cap - 1 (E0's, at cap
    # 3) is marked at cap, where Xi0 answers cap + 1, saturated, so the
    # verdict gains overflowed; one at cell cap is marked past the
    # table, which refutes the row (test_mutants.py, under f: all)
    Mutant("mark-late-1", "forward.prf", (
        ("firstz(h, n)", "firstz(h, monus(n, 1))", 1),), survives=None),
    # every place the row passes k: Xi's last argument in y, and k's own
    # slot
    Mutant("xi-k-0", "forward.prf", (
        (")), 1);", ")), 0);", 1), ("; 1)", "; 0)", 1)), survives=None),
    # the universal f renamed g in the prefix and in the row, which are
    # then rows for the normal form up to the names of its universals;
    # the sweep plans and the collapse read the table by its name f, so
    # the prefix check of check-forward refuses it
    Mutant("rename-f", "forward.prf", (
        ("(forall^st f:1, ", "(forall^st g:1, ", 1),
        ("dmark(f, ", "dmark(g, ", 3)),
        survives=None),
    # the backward witness searches for no halting stage: mu of the
    # constant 0
    Mutant("backward-mu-0", "backward.prf", (
        ("mu(\\s:0. iszero(run(Z, e, s)))", "mu(\\s:0. 0)", 1),),
        survives=None),
    # the backward witness ignores the oracle: the zero function, which
    # dodges neither standard table
    Mutant("backward-trivial", "backward.prf", (
        (f"({ROW_D})", "(\\e:0. 0)", 1),), survives=None),
    # the model's modulus answers 0 everywhere: the forward candidates
    # then hold only where the antecedent fails, and the verdict gains
    # antecedent-vacuous
    Mutant("xi0-zero", "model.cfg", (("Xi0", "0", 1),), survives=None),
    # the model's least-zero search answers 0 everywhere: the backward
    # candidates then hold only where the antecedent fails, and the
    # verdict gains backward-antecedent-vacuous
    Mutant("mu0-zero", "model.cfg", (("mu0", "0", 1),), survives=None),
    # the dodge functional answers the constant-0 table everywhere: the
    # forward candidates then hold only where the antecedent fails, and
    # the verdict gains antecedent-vacuous
    Mutant("psi0-zero", "model.cfg", (("Psi0", "0", 1),), survives=None),
]
