"""The shipped udnr corpus entry, loaded at a chosen model cap, and a
reference check of its extracted forward term.

rszoo has no corpus loader of its own yet, so this module reads the
five entry files and fixes what the entry leaves implicit: source and
target names, the witness slot, the acceptance mode and the sweep plans.
"""
from __future__ import annotations

import itertools
import re
from pathlib import Path
from types import SimpleNamespace

ENTRY_DIR = Path("src") / "rszoo" / "corpus_data" / "udnr"
ENTRY_FILES = ("principle.fml", "expect.nf", "forward.prf", "backward.prf",
               "model.cfg")

# Sweep plans per universal.  "st" ranges over the declared standard
# objects (Z0 and E0 at type 1); "all" over every table of the type.
FORWARD_PLANS = {
    "st": {"f": "st", "Psi": "st", "Xi": "st"},
    "all": {"f": "all", "Psi": "st", "Xi": "st"},
}
BACKWARD_PLANS = {"mu": "st", "Z": "st"}
STANDARD_TABLES = 2

_CAP = re.compile(r"^\s*cap\s*=")
_TABLE = re.compile(r"^(\s*table\s+[^\s:]+\s*:)([\d\s]*?)\s*(\[st\])?\s*$")


class LoadError(Exception):
    pass


def resize_table(entries: list[str], cap: int) -> list[str]:
    """A value table cut or zero-padded to the cap + 1 cells of a model
    with the given cap."""
    return entries[:cap + 1] + ["0"] * (cap + 1 - len(entries))


def resize_config(text: str, cap: int) -> str:
    """The model configuration with its cap replaced and every declared
    table resized to it; ``[st]`` marks and other lines are kept."""
    out = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].rstrip()
        if _CAP.match(body):
            line = f"cap = {cap}"
        elif (m := _TABLE.match(body)):
            cells = resize_table(m.group(2).split(), cap)
            line = f"{m.group(1)} {' '.join(cells)}"
            if m.group(3):
                line += " [st]"
        out.append(line)
    return "\n".join(out) + "\n"


def read_entry(root: Path) -> dict[str, str]:
    """The entry's files by name."""
    texts = {}
    for name in ENTRY_FILES:
        path = root / ENTRY_DIR / name
        if not path.is_file():
            raise LoadError(f"missing corpus file {path}")
        texts[name] = path.read_text()
    return texts


def load_entry(rz, texts: dict[str, str], cap: int, forward_plan: str):
    """Parse the entry into the shape ``rszoo.extract.rs_run`` reads.
    ``rz`` holds the rszoo modules ``lang``, ``translate``, ``extract``
    and ``interp``, looked up at call time so that traced wrappers apply."""
    return SimpleNamespace(
        ident="udnr",
        source="UDNR",
        target="BZT",
        witness="y",
        mode="direct",
        principle=rz.lang.parse_formula(texts["principle.fml"]),
        expect=rz.translate.parse_nf(texts["expect.nf"]),
        forward=rz.extract.parse_script(texts["forward.prf"]),
        backward=rz.extract.parse_script(texts["backward.prf"]),
        model=rz.interp.parse_model_config(
            resize_config(texts["model.cfg"], cap)),
        plans=dict(FORWARD_PLANS[forward_plan]),
        plans_backward=dict(BACKWARD_PLANS),
    )


def expected_checked(cap: int, forward_plan: str) -> tuple[int, int]:
    """Assignments each candidate sweep must visit: (forward, backward)."""
    forward = (cap + 1) ** (cap + 1) if forward_plan == "all" \
        else STANDARD_TABLES
    return forward, STANDARD_TABLES


_CANDIDATES = re.compile(r"candidates ok over (\d+) assignment")


def verdict_problems(verdict, model, cap: int, forward_plan: str) -> list[str]:
    """Reasons a successful ``rs_run`` verdict still does not count: a
    standard population that came out empty, a candidate sweep that
    visited another number of assignments than the plan fixes, or a
    missing extracted term."""
    problems = sorted(f"model flag {f}" for f in model.flags
                      if f.startswith("st_empty_at_"))
    stages = dict(verdict.stages)
    for tag, want in zip(("candidates-forward", "candidates-backward"),
                         expected_checked(cap, forward_plan)):
        m = _CANDIDATES.search(stages.get(tag, ""))
        got = int(m.group(1)) if m else None
        if got != want:
            problems.append(f"{tag} checked {got} assignment(s), "
                            f"expected {want}")
    if verdict.forward_term is None or verdict.backward_term is None:
        problems.append("an extracted term is missing")
    return problems


# ---------------------------------------------------------------------------
# reference check


def least_zero(table) -> int | None:
    """Index of the first zero cell, or None when the table has none."""
    for i, v in enumerate(table):
        if v == 0:
            return i
    return None


def check_tables(cap: int, sample: int | None, rng) -> list[tuple[int, ...]]:
    """Type-1 tables of a cap-``cap`` model: all of them in a seeded
    order when ``sample`` is None, otherwise ``sample`` distinct ones
    drawn with ``rng``."""
    n = cap + 1     # cells per table, and values per cell
    if sample is None:
        tables = list(itertools.product(range(n), repeat=n))
        rng.shuffle(tables)
        return tables
    out = []
    for index in rng.sample(range(n ** n), sample):
        cells = []
        for _ in range(n):
            index, cell = divmod(index, n)
            cells.append(cell)
        out.append(tuple(reversed(cells)))
    return out
