"""Every name that ``rszoo.lang`` and ``rszoo.interp`` export, and every
public name that ``rszoo.translate``, ``rszoo.normalform`` and
``rszoo.extract`` define, is read by the library (``src``) or the
benchmark (``perfbench``): a name that only tests read is library code
that nothing reaches, and does not stay.  So is every private name that
a module of ``src`` defines at its top level.  A constant of the language,
and a kind of formula node, stays only if a corpus file writes it or
the pipeline builds it.  And no module imports a name it never
reads."""
import ast
import inspect
from pathlib import Path

import rszoo.extract
import rszoo.interp
import rszoo.lang
import rszoo.normalform
import rszoo.translate
from rszoo.lang import formulas, parse_formula, parser, subformulas, terms
from rszoo.lang.parser import tokenize
from rszoo.normalform import normalize_backward, normalize_principle
from rszoo.translate import parse_nf

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "rszoo"


def top_level(path: Path) -> set[str]:
    """The names the module at ``path`` defines at its top level:
    functions, classes and assigned names, not the names it imports."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets
                         if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                            ast.Name):
            names.add(stmt.target.id)
    return names


def defined(module) -> set[str]:
    """The public names a module defines at its top level."""
    return {name for name in top_level(Path(module.__file__))
            if not name.startswith("_")}


def exported() -> set[str]:
    names = {name for package in (rszoo.lang, rszoo.interp)
             for name, obj in vars(package).items()
             if not name.startswith("_") and not inspect.ismodule(obj)}
    for module in (rszoo.translate, rszoo.normalform, rszoo.extract):
        names |= defined(module)
    return names


class Uses(ast.NodeVisitor):
    """The names a module reads: as a variable, as an attribute, or as a
    string that is a whole identifier (``getattr`` lookups).  The import
    line that exports a name does not read it, and neither does its
    definition, recursion included."""

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

    def visit_definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_ClassDef = visit_definition


def library_uses() -> set[str]:
    """The names that ``src`` and ``perfbench`` read."""
    uses = Uses()
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            uses.visit(ast.parse(path.read_text(), str(path)))
    return uses.used


def test_every_exported_name_is_referenced():
    assert sorted(exported() - library_uses()) == []


def test_every_private_name_is_referenced():
    # a module-level _name that only its own definition reads, such as a
    # helper whose caller is gone, is code that nothing reaches
    used = library_uses()
    unread = sorted(f"{path.relative_to(ROOT)}: {name}"
                    for path in sorted((ROOT / "src").rglob("*.py"))
                    for name in top_level(path)
                    if name.startswith("_") and not name.startswith("__")
                    and name not in used)
    assert unread == []


def test_every_constant_is_written_by_the_corpus_or_built_in_src():
    # stricter than the test above, which counts reads from perfbench
    # and from terms itself: a constant stays only if a corpus file
    # writes it as a token, or a module of src other than terms reads
    # its Const or its constructor
    written = {tok.text for path in sorted(PACKAGE.glob("corpus_data/*/*"))
               for tok in tokenize(path.read_text())}
    uses = Uses()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path != PACKAGE / "lang" / "terms.py":
            uses.visit(ast.parse(path.read_text(), str(path)))

    def builders(name: str) -> set[str]:
        if name in terms.POLYMORPHIC:
            return {terms.POLYMORPHIC[name][0].__name__}
        return {attr for attr, obj in vars(terms).items()
                if obj is terms.MONOMORPHIC[name]}

    assert sorted(name for name in terms.CONST_NAMES
                  if name not in written
                  and not builders(name) & uses.used) == []


def test_every_symbol_is_read_outside_the_symbol_list():
    # a symbol that no string of src names, outside the list itself, is
    # a token that the tokenizer makes and no rule takes
    read = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        listed = {id(node) for stmt in tree.body
                  if isinstance(stmt, ast.Assign) and any(
                      isinstance(t, ast.Name) and t.id == "_SYMBOLS"
                      for t in stmt.targets)
                  for node in ast.walk(stmt.value)}
        read |= {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, str) and id(node) not in listed}
    assert sorted(set(parser._SYMBOLS) - read) == []


def corpus_formulas():
    """The formulas that the corpus files write, and the normal forms the
    pipeline builds from them: each principle with its forward and
    backward normal form, and each stored normal form."""
    corpus = PACKAGE / "corpus_data"
    for path in sorted(corpus.glob("*/*.fml")):
        principle = parse_formula(path.read_text())
        yield principle
        yield normalize_principle(principle)
        yield normalize_backward(principle)
    for path in sorted(corpus.glob("*/*.nf")):
        yield parse_nf(path.read_text())


def test_every_formula_node_is_written_by_the_corpus_or_built_in_src():
    # as for constants: a kind of formula node stays only if a corpus
    # file writes it, or a module of src calls its constructor by name.
    # formulas defines and rebuilds the kinds, and the parser builds
    # whatever is written, so neither counts
    written = {type(g).__name__ for f in corpus_formulas()
               for g in subformulas(f)}
    lang = PACKAGE / "lang"
    built = {call.func.id for path in sorted(PACKAGE.rglob("*.py"))
             if path not in (lang / "formulas.py", lang / "parser.py")
             for call in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
    kinds = {name for name, obj in vars(formulas).items()
             if isinstance(obj, type) and issubclass(obj, terms.SyntaxNode)
             and obj.__module__ == formulas.__name__}
    assert {"Atom", "Not", "ForallSt", "Exists"} <= kinds and len(kinds) == 9
    assert sorted(kinds - written - built) == []


def imports(path: Path) -> tuple[ast.Module, set[str], set[str]]:
    """The module at ``path`` parsed, the names it imports, and those
    of them whose import lines carry ``# noqa: F401``: kept on purpose,
    as module attributes that something looks up."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    imported, kept = set(), set()
    for stmt in ast.walk(tree):
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or getattr(
                stmt, "module", None) == "__future__":
            continue
        names = {(alias.asname or alias.name).split(".")[0]
                 for alias in stmt.names}
        imported |= names
        if any("# noqa: F401" in line
               for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            kept |= names
    return tree, imported, kept


def unread_imports(path: Path) -> list[str]:
    """The names that the module at ``path`` imports and never reads,
    those it keeps on purpose not counted."""
    tree, imported, kept = imports(path)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - kept - read)


def test_no_module_imports_a_name_it_never_reads():
    # package __init__ modules import to re-export, so they are not asked
    unread = {str(path.relative_to(ROOT)): unread_imports(path)
              for path in sorted((ROOT / "src").rglob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unread.items() if names} == {}


def perfbench_value(name: str):
    """The literal that ``perfbench/run.py`` assigns to ``name`` at its
    top level, read without importing the harness."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise LookupError(name)


def test_every_kept_import_is_a_traced_parser_attribute():
    # the benchmark traces the parser at each module attribute it lists
    # in LANG_PARSE; a name imported unread with ``# noqa: F401`` is kept
    # for that alone, so it goes when the benchmark stops looking it up
    keys = {module: key
            for key, module in perfbench_value("RSZOO_MODULES").items()}
    traced = {tuple(pair) for pair in perfbench_value("LANG_PARSE")}
    kept = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        kept |= {(keys.get(module, module), name)
                 for name in imports(path)[2]}
    assert sorted(kept - traced) == []


def record_fields() -> dict[str, set[str]]:
    """The fields that each ``@record`` or ``@node`` class in ``src``
    declares, by class name."""
    fields = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(cls, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id in ("record", "node")
                    for d in cls.decorator_list):
                fields[cls.name] = {
                    stmt.target.id for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)}
    return fields


class AttributeReads(ast.NodeVisitor):
    """The attribute names a module reads, each with the classes whose
    bodies the read is in."""

    def __init__(self):
        self.reads: dict[str, list[tuple[str, ...]]] = {}
        self.inside: list[str] = []

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.reads.setdefault(node.attr, []).append(tuple(self.inside))
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()


def test_every_record_field_is_read_outside_its_class():
    # a field that only its own class reads, or nothing, is state that
    # is set and never used; fields are matched by name, as Uses matches
    reads = AttributeReads()
    for tree in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            reads.visit(ast.parse(path.read_text(), str(path)))
    unread = sorted(
        f"{cls}.{field}" for cls, fields in record_fields().items()
        for field in fields
        if not any(cls not in inside for inside in reads.reads.get(field, ())))
    assert unread == []
