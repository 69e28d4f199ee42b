"""Every name that ``rszoo.lang``, ``rszoo.translate`` and ``rszoo.interp``
export is used: library code that nothing reaches does not stay."""
import ast
import inspect
from pathlib import Path

import rszoo.interp
import rszoo.lang
import rszoo.translate

ROOT = Path(__file__).parents[1]


def exported() -> set[str]:
    names = set(rszoo.interp.__all__)
    names |= {name for name, obj in vars(rszoo.lang).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    names |= {name for name, obj in vars(rszoo.translate).items()
              if getattr(obj, "__module__", None) == "rszoo.translate"}
    return names


class Uses(ast.NodeVisitor):
    """The names a module reads: as a variable, as an attribute, or as a
    string that is a whole identifier (``getattr`` lookups).  The import
    and ``__all__`` lines that export a name do not read it, and neither
    does its definition, recursion included."""

    def __init__(self):
        self.used: set[str] = set()
        self.inside: list[str] = []

    def use(self, name: str) -> None:
        if name not in self.inside:
            self.used.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.use(node.id)

    def visit_Attribute(self, node):
        self.use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.use(node.value)

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets):
            self.generic_visit(node)

    def visit_definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_ClassDef = visit_definition


def test_every_exported_name_is_referenced():
    uses = Uses()
    for tree in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            uses.visit(ast.parse(path.read_text(), str(path)))
    assert sorted(exported() - uses.used) == []
