"""Witness rows over two-block normal forms, and term extraction.

The paper's algorithm RS turns a proof into explicit terms.  Here RS's
proof is the rows; the model judges them.  A script gives, for a normal
form ``(forall^st xs)(exists^st ys) matrix`` that the pipeline builds
(``normalform.normalize_principle`` forward, ``normalize_backward``
backward), a finite list of witness rows, one term per existential,
which claims that at every assignment of the universals some row
satisfies the matrix: a Herbrand disjunction in the sense of van den
Berg, Briseid and Safarik (APAL 2012).  ``check_script`` checks that the
rows fit the normal form, and ``check_candidates`` sweeps the universals
in a finite model, which is the claim's one judge.

A script is read with the language's tokenizer and ``Parser``, so
blanks, newlines and ``#`` comments only separate tokens:

  script  :=  ('script' NAME | 'let' VAR ':=' term)* prefix group+
  prefix  :=  '(' 'forall' '^st' binders ')'
  group   :=  '(' term (';' term)* ')'

A NAME may join its parts with '-', no blanks around it: ``script
udnr-backward``.  A VAR, the name a let binds, is one name and not a
reserved one, as for every binder.  The prefix writes the universals of
the normal form, so that the rows can be read (and typed) with the text
alone; ``check_script`` demands that it be the built form's universal
block, names, types and order.  A group is one row, its slots separated
by ';' in the order of the existentials; a slot may name the universals,
which shadow the lets.  An error gives its line:col in the script and
names the let, or the row and slot, it is in.

A ``let`` term may use the lets above it.  Each let is expanded in every
later term as it is read, in one walk (``_Lets``) that also reduces each
application of a let lambda, ``(\\x1 ... xk. b)(a1, ..., an)``: a binder
``xi`` takes its argument ``ai`` when ``ai`` is a variable, when ``ai``
is a lambda and ``b`` reads ``xi`` at most once, or when ``b`` reads
``xi`` exactly once in a strict position, one evaluated once whenever
``b`` is (not under a lambda, so not in a ``rec`` step's body, and not
in a partial application).  Any other binder stays a one-binder redex
``(\\xi. ...)(ai)``, so under call-by-value the values, ``overflowed``
and the flags are those of the substituted term.  A lambda argument
that lands in head position is reduced in turn; a redex written in the
script is left as written.

The checked rows (``CheckedRows``) keep the normal form's blocks, and
the model check and extraction read them.  ``extract_function`` gives
``\\xs. witness`` for one row of one slot.  For the target's bound slot
``y``, ``postprocess`` gives the bound ``\\xs. max(r1[y], max(r2[y],
...))`` straight from the rows, and the explicit content of the
implication applies the least-zero search ``stdterms.leastz_t`` to that
bound, by the same rule.  The terms are built small, from the
primitives and the reduced lets, with no rewriting pass afterwards.
"""
from __future__ import annotations

from .interp import ModelError
from .lang import (Abs, App, Arrow, Const, Formula, Implies, N, ParseError,
                   Term, TypeCheckError, Var, app, free_vars, fresh_name,
                   infer_type, lam, show_formula, show_type, spine, stdterms)
# Unused here since scripts are read with the Parser, but kept as
# module attributes: perfbench looks the parser up, to trace it, at
# every attribute it was reached through.
from .lang import parse_formula, parse_term, parse_type  # noqa: F401
from .lang.parser import Parser, tokenize
from .lang.printer import show_term_prefix
from .lang.terms import MAX2, Prepared, all_names, enter_binder, prepare
from .lang.types import record
from .normalform import (BZT_BOUND, BZT_TABLE, normalize_backward,
                         normalize_principle)
from .translate import nf_blocks


class ScriptError(Exception):
    pass


Row = tuple[Term, ...]


# ---------------------------------------------------------------------------
# script surface syntax


@record
class ProofScript:
    name: str
    universals: tuple[Var, ...]     # the prefix
    rows: tuple[Row, ...]


def parse_script(text: str) -> ProofScript:
    """Read a script (grammar in the module docstring).  A ParseError
    becomes a ScriptError that gives its line:col in the text and names
    the let, or the row and slot, it is in."""
    name = "script"
    lets = _Lets()
    where = ""                    # the let or slot being read, for errors
    try:
        p = Parser(tokenize(text), 0, {})
        while not p.at_sym("("):
            if p.take("script"):
                name = _name(p)
            elif p.take("let"):
                lname = p.bound_name(p.expecting("a name"))
                where = f"let {lname}: "
                p.expect_sym(":=")
                body, ty = p.typed_term()
                v = Var(lname, ty)
                lets.define(v, body)
                p.env[lname] = v
                where = ""
            else:
                p.expected("'script', 'let' or '(forall^st'")
        where = "prefix: "
        p.next()
        if not (p.take("forall") and p.take("^st")):
            p.expected("'forall^st'")
        universals = p.binders()
        p.expect_sym(")")
        names = {v.name: v for v in universals}
        p.env.update(names)
        sub = lets.scope(names)
        rows: list[Row] = []
        while not rows or p.peek().kind != "eof":
            where = f"row {len(rows) + 1}: "
            p.expect_sym("(")
            row: list[Term] = []
            while not row or p.take(";"):
                where = f"row {len(rows) + 1}, slot {len(row) + 1}: "
                row.append(lets.term(p.parse_term(), sub))
            p.expect_sym(")")
            rows.append(tuple(row))
    except ParseError as exc:
        raise ScriptError(f"{where}{exc.msg} (at {exc.line}:{exc.col})") \
            from None
    return ProofScript(name, tuple(universals), tuple(rows))


class _Lets:
    """The lets of one script and the walk that expands them, by the rule
    of the module docstring.  ``sub`` maps each let's variable to its
    value, which is closed.  One memo serves the script: keyed on node
    value, it makes equal let applications one reduced object, so the
    expanded terms stay a DAG.  It holds for ``sub`` alone, not under a
    binder or universals that shadow a let, nor inside a reduction.
    What each let lambda's body reads of its binders (``_profile``) is
    worked out once, when the let is defined."""
    __slots__ = ("sub", "memo", "profiles")

    def __init__(self):
        self.sub: Prepared = {}
        self.memo: dict[Term, Term] = {}
        self.profiles: dict[Abs, list] = {}

    def define(self, v: Var, body: Term) -> None:
        value = self.term(body, self.sub)
        if type(value) is Abs:
            self.profiles[value] = _profile(value)
        self.sub = {**self.sub, v: (value, frozenset())}
        self.memo.clear()   # v may be free in a term read under a binder

    def scope(self, names) -> Prepared:
        """``sub`` without the lets that ``names`` shadow."""
        sub = {v: e for v, e in self.sub.items() if v.name not in names}
        return self.sub if len(sub) == len(self.sub) else sub

    def term(self, t: Term, sub: Prepared) -> Term:
        """t with each variable of ``sub`` replaced, and each application
        of a replacing lambda reduced; t itself where nothing changes."""
        kind = type(t)
        if kind is Var:
            hit = sub.get(t)
            return t if hit is None else hit[0]
        if kind is Const or not sub:
            return t
        if kind is Abs:
            var, inner = enter_binder(t.var, sub, lambda: free_vars(t.body))
            body = self.term(t.body, inner)
            return t if var is t.var and body is t.body else Abs(var, body)
        head = t.fn
        while type(head) is App:
            head = head.fn
        hit = sub.get(head) if type(head) is Var else None
        if hit is None or type(hit[0]) is not Abs:
            fn, arg = self.term(t.fn, sub), self.term(t.arg, sub)
            return t if fn is t.fn and arg is t.arg else App(fn, arg)
        memo = self.memo if sub is self.sub else {}
        out = memo.get(t)
        if out is None:
            out = memo[t] = self.apply(hit[0], [self.term(a, sub)
                                                for a in spine(t)[1]])
        return out

    def apply(self, fn: Abs, args: list[Term]) -> Term:
        """``fn(args)``, the arguments expanded, reduced by the rule; a
        kept binder that an argument names is renamed."""
        profile = self.profiles.get(fn)
        if profile is None:
            profile = _profile(fn)
        sub: dict[Var, Term] = {}
        kept = []
        body: Term = fn
        for a, reads in zip(args, profile):
            x, body = body.var, body.body
            if (type(a) is Var or (type(a) is Abs and len(reads) < 2) or
                    (reads == [False] and len(args) >= len(profile))):
                sub[x] = a
                continue
            named = {v.name for b in args for v in free_vars(b)}
            sub[x] = y = (Var(fresh_name(x.name, named | all_names(fn)), x.ty)
                          if x.name in named else x)
            kept.append((y, a))
        out = self.term(body, prepare(sub))
        for y, a in reversed(kept):
            out = App(Abs(y, out), a)
        rest = args[len(profile):]
        if rest and type(out) is Abs:
            return self.apply(out, rest)
        return app(out, *rest)


def _profile(fn: Abs) -> list[list[bool]]:
    """For each binder that opens fn, one entry per read of it in the
    body under them: whether the read is lazy, under a lambda (as in a
    ``rec`` step), so not evaluated once whenever the body is.  Of two
    binders with one name, the body reads the inner one."""
    names = []
    while type(fn) is Abs:
        names.append(fn.var.name)
        fn = fn.body
    reads: dict[str, list[bool]] = {x: [] for x in names}
    _reads(fn, reads, False)
    return [[] if x in names[i + 1:] else reads[x]
            for i, x in enumerate(names)]


def _reads(t: Term, reads: dict[str, list[bool]], lazy: bool) -> None:
    kind = type(t)
    if kind is Var:
        if t.name in reads:
            reads[t.name].append(lazy)
    elif kind is App:
        _reads(t.fn, reads, lazy)
        _reads(t.arg, reads, lazy)
    elif kind is Abs:
        shadowed = reads.pop(t.var.name, None)
        _reads(t.body, reads, True)
        if shadowed is not None:
            reads[t.var.name] = shadowed


def _name(p: Parser) -> str:
    """A script's name, whose parts may be joined by '-' with no blanks
    around it: ``udnr-forward``."""
    tok = p.peek()
    if tok.kind != "ident":
        p.expected("a name")
    p.next()
    text, end = tok.text, tok.col + len(tok.text)
    while p.at_sym("-"):
        dash, part = p.peek(), p.peek(1)
        if not (dash.line == part.line == tok.line and dash.col == end
                and part.col == end + 1 and part.kind in ("ident", "num")):
            break
        p.pos += 2
        text += "-" + part.text
        end = part.col + len(part.text)
    return text


# ---------------------------------------------------------------------------
# checking


@record
class CheckedRows:
    """A script's rows, checked against a normal form, and the normal
    form's blocks."""
    rows: tuple[Row, ...]
    universals: tuple[Var, ...]
    existentials: tuple[Var, ...]
    matrix: Formula

    def line(self) -> str:
        return f"{len(self.rows)} witness row(s) fit the normal form"


def _block(vs: tuple[Var, ...]) -> str:
    """A universal block as a script's prefix writes it."""
    return ("(forall^st "
            + ", ".join(f"{v.name}:{show_type(v.ty)}" for v in vs) + ")")


def check_script(script: ProofScript, nf: Formula) -> CheckedRows:
    """The script's rows against the normal form nf, split by
    ``nf_blocks``: the script's prefix must be nf's universal block
    (names, types and order), and each row fit nf's existentials
    (``_check_rows``).  A ScriptError names the row and slot, or both
    blocks."""
    universals, existentials, matrix = nf_blocks(nf)
    if script.universals != universals:
        raise ScriptError(f"script prefix {_block(script.universals)} is "
                          f"not the normal form's {_block(universals)}")
    _check_rows(script.rows, existentials, universals)
    return CheckedRows(script.rows, universals, existentials, matrix)


def _check_rows(rows: tuple[Row, ...], existentials: tuple[Var, ...],
                universals: tuple[Var, ...]) -> None:
    """Each row has one slot per existential, and each slot term is
    well-typed at its existential's type and closed up to the
    universals: a variable free in it is one of them, by name and
    type."""
    scope = {u.name: u.ty for u in universals}
    for i, row in enumerate(rows, 1):
        if len(row) != len(existentials):
            raise ScriptError(f"row {i} has {len(row)} slot(s), the normal "
                              f"form {len(existentials)} existential(s)")
        for v, t in zip(existentials, row):
            where = f"row {i}, slot {v.name}: "
            fvs = free_vars(t)
            loose = {w.name for w in fvs if w.name not in scope}
            if loose:
                raise ScriptError(f"{where}open witness term: unbound "
                                  f"{sorted(loose)}")
            for w in sorted(fvs, key=lambda w: w.name):
                if w.ty != scope[w.name]:
                    raise ScriptError(
                        f"{where}variable {w.name} used at type "
                        f"{show_type(w.ty)} but declared at "
                        f"{show_type(scope[w.name])}")
            try:
                ty = infer_type(t)
            except TypeCheckError as exc:
                raise ScriptError(f"{where}{exc}") from None
            if ty != v.ty:
                raise ScriptError(f"{where}witness has type {show_type(ty)}, "
                                  f"expected {show_type(v.ty)}")


# ---------------------------------------------------------------------------
# extraction


def extract_function(final: CheckedRows) -> Term:
    """Single-witness extraction from checked rows: ``\\xs. witness``.
    Demands exactly one row with one slot."""
    if len(final.rows) != 1 or len(final.existentials) != 1:
        raise ScriptError("function extraction needs exactly one candidate "
                          "and one witness slot; got "
                          f"{len(final.rows)} candidate(s) over "
                          f"{len(final.existentials)} slot(s)")
    return lam(*final.universals, final.rows[0][0])


# The benchmark's tracer looks this name up to time it; nothing calls it.
# ROADMAP item 8 removes it with the ``extract.extract_terms.self_s`` span.
extract_terms = extract_function


# ---------------------------------------------------------------------------
# post-processing: the bound over the candidates' target slot


def postprocess(final: CheckedRows) -> Term:
    """The closed bound term ``\\xs. max(r1[y], max(r2[y], ...))`` over
    the slot ``y`` (``BZT_BOUND``) of checked forward rows, with the
    ``max`` primitive.  The forward normal form always holds that slot,
    and its consequent is the target's, which mentions no other witness
    slot, so the bound stands in for the target alone."""
    idx = final.existentials.index(BZT_BOUND)
    rows = final.rows
    body = rows[-1][idx]
    for row in reversed(rows[:-1]):
        body = app(MAX2, row[idx], body)
    return lam(*final.universals, body)


# ---------------------------------------------------------------------------
# candidate checking in a model


@record
class CandidateReport:
    ok: bool
    checked: int
    failures: tuple[str, ...]
    antecedent_vacuous: bool
    overflowed: bool

    def line(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        notes = []
        if self.antecedent_vacuous:
            notes.append("antecedent vacuous")
        if self.overflowed:
            notes.append("overflow")
        tail = f" [{'; '.join(notes)}]" if notes else ""
        if not self.ok:
            tail += " " + "; ".join(self.failures[:3])
        return f"candidates {verdict} over {self.checked} assignment(s){tail}"


def _value_label(model, ty, v) -> str:
    """A swept value as a failure shows it: a number, the name of the
    declared object it is, or else its fingerprint."""
    if ty == N:
        return str(v)
    for name, (_ty, value, _st) in model.declared.items():
        if value is v:
            return name
    try:
        return str(model.canon_key(ty, v))
    except ModelError:
        return "<value>"


def check_candidates(model, final: CheckedRows,
                     plans: dict[str, str] | None = None) -> CandidateReport:
    """Sweep the universals of checked rows and test that some
    candidate row satisfies its matrix at every assignment.

    ``plans`` maps a universal name to ``"all"`` (every value) or
    ``"st"`` (declared/standard population, the default — the block is
    a forall^st); any other plan, or a key that names no universal, is
    a ScriptError.  The blocks and the rows come from ``check_script``,
    which checked them: a slot term is well-typed and names no variable but
    the universals, and the matrix names only the two blocks'
    variables, whose names differ.  So an assignment's environment
    holds the universals and each row sets its existentials there.

    When the matrix is an implication, its consequent is evaluated only
    where the antecedent holds.

    The model's quantifiers (``interp.quantifier``) sweep the
    universals, outermost first, around a check that always holds, so
    a ``0 -> 0`` one with plan ``"all"`` is swept by blocks of tables.
    ``checked`` is the product of the population sizes.  Formatting a
    class value refines it, so each of the at most five failure labels
    names its block's first table; past the fifth, blocks stay whole.
    """
    # Read from rszoo.interp per call: the benchmark's tracer counts these
    # calls by wrapping the package's attributes once it is imported.
    from .interp import eval_formula, eval_term, quantifier

    universals, existentials, matrix = (final.universals, final.existentials,
                                        final.matrix)
    plans = plans or {}
    names = {v.name for v in universals}
    stray = sorted(plans.keys() - names)
    if stray:
        raise ScriptError(f"sweep plan names no universal: {stray}")
    checked = 1
    for v in universals:
        plan = plans.get(v.name, "st")
        if plan not in ("st", "all"):
            raise ScriptError(f"unknown sweep plan {plan!r} for {v.name}")
        if plan == "all" and v.ty == Arrow(N, N):
            model.check_enumerable(v.ty)
            checked *= (model.cap + 1) ** (model.cap + 1)
        else:
            checked *= len(model.population(v.ty, standard=(plan == "st")))

    antecedent, consequent = ((matrix.left, matrix.right)
                              if isinstance(matrix, Implies)
                              else (None, matrix))
    genuine, failures = False, []

    def check(frame) -> bool:
        nonlocal genuine
        env = {v.name: val for v, val in zip(universals, frame)}
        for row in final.rows:
            for v, t in zip(existentials, row):
                env[v.name] = eval_term(model, t, env)
            vacuous = (antecedent is not None
                       and not eval_formula(model, antecedent, env))
            if vacuous or eval_formula(model, consequent, env):
                genuine = genuine or not vacuous
                return True
        if len(failures) < 5:
            failures.append(", ".join(
                f"{v.name}={_value_label(model, v.ty, val)}"
                for v, val in zip(universals, frame)))
        return True

    sweep = check
    for v in reversed(universals):
        sweep = quantifier(model, v.ty, plans.get(v.name, "st") == "st",
                           True, sweep)
    was_overflowed, model.overflowed = model.overflowed, False
    try:
        sweep(())
        overflowed = model.overflowed
    finally:
        model.overflowed = was_overflowed or model.overflowed
    return CandidateReport(not failures, checked, tuple(failures),
                           not genuine and not failures, overflowed)


# ---------------------------------------------------------------------------
# explicit implications


@record
class ExplicitImplication:
    """A proved implication together with its explicit term content."""
    forward_term: Term
    backward_term: Term
    bound_term: Term
    flags: tuple[str, ...]
    stages: tuple[tuple[str, str], ...]

    def stage_lines(self) -> list[str]:
        return [f"{tag}: {line}" for tag, line in self.stages]


def _stage(entry_id: str, tag: str, fn):
    try:
        return fn()
    except ScriptError as exc:
        raise ScriptError(f"{entry_id}/{tag}: {exc}") from None
    except Exception as exc:
        raise ScriptError(f"{entry_id}/{tag}: {type(exc).__name__}: {exc}") \
            from None


def rs_run(entry) -> ExplicitImplication:
    """Drive one corpus entry end to end: build the forward normal form
    and compare it with the stored expectation, check the forward rows
    against it and in the entry's model, build the bound and the forward
    term; then build the backward normal form, check the backward rows
    against it and in the model, and extract the backward term.  Errors
    carry the failing stage tag.

    The entry fields read are ``ident``, ``principle``, ``expect``,
    ``forward``, ``backward``, ``model`` and ``plans`` (the forward sweep
    plans); the backward sweep ranges over the standard objects.  The
    target's table and bound are those of ``normalform``; the sweep
    plans name the built form's universals, so a script's prefix must
    be ``==`` to them."""
    eid = entry.ident
    stages: list[tuple[str, str]] = []
    flags: set[str] = set()

    def checked(direction: str, script: ProofScript, nf: Formula):
        """The script's rows checked against nf, and the stage line."""
        tag = "check-" + direction
        rows = _stage(eid, tag, lambda: check_script(script, nf))
        stages.append((tag, rows.line()))
        return rows

    def candidates(tag: str, prefix: str, final: CheckedRows, plans):
        """Check the rows in the model; a failure raises, and a vacuous
        antecedent or saturation sets a flag."""
        cand = _stage(eid, tag, lambda: check_candidates(entry.model, final,
                                                         plans))
        stages.append((tag, cand.line()))
        if not cand.ok:
            raise ScriptError(f"{eid}/{tag}: {cand.line()}")
        if cand.antecedent_vacuous:
            flags.add(prefix + "antecedent-vacuous")
        if cand.overflowed:
            flags.add(prefix + "overflowed")

    nf = _stage(eid, "normalize",
                lambda: normalize_principle(entry.principle))
    stages.append(("normalize", show_formula(nf)))

    if nf != entry.expect:
        raise ScriptError(f"{eid}/expect: normal form differs from the "
                          f"stored expectation:\n  got  {show_formula(nf)}\n"
                          f"  want {show_formula(entry.expect)}")
    stages.append(("expect", "normal form matches stored expectation"))

    forward = checked("forward", entry.forward, nf)
    candidates("candidates-forward", "", forward, entry.plans)
    bound = _stage(eid, "postprocess", lambda: postprocess(forward))
    stages.append(("postprocess", f"bound {show_term_brief(bound)}"))
    forward_term = _stage(eid, "collapse",
                          lambda: _mu_collapse(forward.universals, bound))
    stages.append(("collapse", show_term_brief(forward_term)))

    nf = _stage(eid, "normalize-backward",
                lambda: normalize_backward(entry.principle))
    stages.append(("normalize-backward", show_formula(nf)))
    backward = checked("backward", entry.backward, nf)
    candidates("candidates-backward", "backward-", backward, None)
    backward_term = _stage(eid, "extract-backward",
                           lambda: extract_function(backward))

    return ExplicitImplication(forward_term, backward_term, bound,
                               tuple(sorted(flags)), tuple(stages))


def _mu_collapse(universals: tuple[Var, ...], bound: Term) -> Term:
    """Reshape the bound ``\\xs. b`` over the universals xs as (other
    universals) -> f -> ``leastz(f, b)``, the explicit forward content
    against the zero-transfer target, whose table ``f`` (``BZT_TABLE``)
    the forward normal form always holds among its universals."""
    others = [v for v in universals if v != BZT_TABLE]
    for _ in universals:        # the bound's binders are the universals
        bound = bound.body
    # by the let rule: leastz takes the table, a variable, and keeps the
    # bound, which it reads twice, as a redex
    return lam(*others, BZT_TABLE, _Lets().apply(stdterms.leastz_t(),
                                                 [BZT_TABLE, bound]))


def show_term_brief(t: Term) -> str:
    """The term's text, cut to 120 characters."""
    s = show_term_prefix(t, 121)
    return s if len(s) <= 120 else s[:117] + "..."
