"""Let expansion by plain substitution: the oracle for the reducing walk.

``extract.parse_script`` expands a script's lets in one walk that also
beta-reduces each application of a let lambda.  ``parse_script`` here
reads a script the same way, with that walk swapped for plain
capture-avoiding substitution, which is what a let means.  Every term
the two give must have the same value, ``overflowed`` bit and flags
(``tests/test_lets.py``).
"""
from __future__ import annotations

from rszoo import extract
from rszoo.lang.terms import subst_prepared


class PlainLets:
    """``extract._Lets`` with substitution for its walk: no memo, no
    reduction."""

    def __init__(self):
        self.sub = {}

    def define(self, v, body):
        self.sub = {**self.sub,
                    v: (subst_prepared(body, self.sub), frozenset())}

    def scope(self, names):
        return {v: e for v, e in self.sub.items() if v.name not in names}

    def term(self, t, sub):
        return subst_prepared(t, sub)


def parse_script(text: str) -> extract.ProofScript:
    """``extract.parse_script`` with the lets substituted, not reduced."""
    walk = extract._Lets
    extract._Lets = PlainLets
    try:
        return extract.parse_script(text)
    finally:
        extract._Lets = walk
