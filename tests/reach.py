"""The statements of ``src/rszoo`` that nothing runs.

Run from the repository root:

    PYTHONPATH=src python tests/reach.py

Under ``sys.settrace`` it runs the tier-1 suite (pytest, in this
process) and then ``rs_run`` on the udnr entry at caps 3, 4 and 5 and
at cap 3 with the forward plan ``f: all``.  It prints, per module, the
statements that neither run executed, with their line numbers, and the
totals.  It exits with pytest's status when the suite fails, since a
listing from a failing suite is not one of the suite, and with status 1
when more statements run nowhere than ``CEILING``, so new code that
nothing runs fails it.  Docstrings are not counted, nor statements that
compile to no code (``global``, ``nonlocal``).  Code run in a subprocess
(the benchmark smoke tests start one) is not traced.

A statement counts as run when a line event fires on one of its own
lines: from its first line to the line before its first nested
statement, or to its last line when it nests none, and its decorators.
pytest does not collect this file: its name has no ``test_`` prefix.
"""
from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rszoo"
TESTS = ROOT / "tests"
# the count of statements that ran nowhere when it was last lowered
CEILING = 12


def statements(path: Path) -> dict[int, tuple[int, ...]]:
    """Each counted statement of the module, by its first line, with
    the lines that are its own."""
    tree = ast.parse(path.read_text(), str(path))
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or _is_docstring(node) or \
                isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        nested = [child.lineno for child in ast.iter_child_nodes(node)
                  if isinstance(child, ast.stmt)]
        last = min(nested) - 1 if nested else node.end_lineno
        own = set(range(node.lineno, max(last, node.lineno) + 1))
        own.update(d.lineno for d in getattr(node, "decorator_list", ()))
        out[node.lineno] = tuple(sorted(own))
    return out


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


class Tracer:
    """Line events in files under ``PACKAGE``.  A code object stops
    being traced once every line it has has fired."""

    def __init__(self):
        self.seen: dict[str, set[int]] = defaultdict(set)
        self.done: set = set()
        self.prefix = str(PACKAGE)

    def call(self, frame, event, arg):
        code = frame.f_code
        if code in self.done or not code.co_filename.startswith(self.prefix):
            return None
        lines = self.seen[code.co_filename]
        todo = {line for _, _, line in code.co_lines() if line}

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
                if todo <= lines:
                    self.done.add(code)
                    frame.f_trace_lines = False
            return local
        return local


def run_all() -> tuple[dict[str, set[int]], int]:
    """The lines that tier 1 and the shipped pipeline run, and pytest's
    exit status."""
    import pytest

    tracer = Tracer()
    sys.settrace(tracer.call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors",
                              "--rootdir", str(ROOT)])
        sys.path.insert(0, str(TESTS))
        from rszoo.extract import rs_run
        from test_extract import MODEL_CAP3, MODEL_CAP5, UDNR, udnr_entry
        for model, plan in ((MODEL_CAP3, "st"),
                            ((UDNR / "model.cfg").read_text(), "st"),
                            (MODEL_CAP5, "st"), (MODEL_CAP3, "all")):
            rs_run(udnr_entry(model, plan))
    finally:
        sys.settrace(None)
    return tracer.seen, int(status)


def main() -> int:
    # read before the run, so that an edit made while it goes cannot
    # shift the listing off the code that ran
    modules = [(path, statements(path), path.read_text().splitlines())
               for path in sorted(PACKAGE.rglob("*.py"))]
    seen, status = run_all()
    total = missed_total = 0
    for path, stmts, source in modules:
        lines = seen.get(str(path), set())
        missed = sorted(first for first, own in stmts.items()
                        if not lines.intersection(own))
        total += len(stmts)
        missed_total += len(missed)
        if not missed:
            continue
        print(f"{path.relative_to(PACKAGE)}: {len(missed)} of "
              f"{len(stmts)} statements run nowhere")
        for line in missed:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"total: {missed_total} of {total} statements run nowhere")
    if status:
        print(f"pytest exited with status {status}, so this listing does "
              "not describe the suite")
        return status
    if missed_total > CEILING:
        print(f"more than the ceiling of {CEILING}: run the new statements "
              "or remove them")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
