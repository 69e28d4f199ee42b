"""Proof scripts over two-block normal forms, and term extraction.

A script is a list of steps, each applying one rule of a small
candidate-tuple calculus.  A step's conclusion is a normal form
``(forall^st xs)(exists^st ys) matrix``, split into its blocks by
``translate.nf_blocks`` once, when the step is replayed (a conclusion
that is no normal form fails its step), and the checker threads a
finite list of witness tuples (candidates) alongside it: the step is
sound when the premise guarantees that, for every assignment of the
universals, at least one candidate tuple satisfies the matrix.  A
witness term is well-typed and names no variable but the conclusion's
universals, each at its own type.  The rules:

  NF-AXIOM      trusted starting point with an internal matrix; it takes
                no premises and no witness tuples, and may not introduce
                existentials.
  EXISTS-WITNESS  introduce existentials; the premise matrix must be
                exactly the disjunction of the instantiated conclusion
                matrix, one disjunct per tuple.

A script is read with the language's tokenizer and ``Parser``, so
blanks, newlines and ``#`` comments only separate tokens and a directive
may run over lines until the next one starts:

  script    :=  ('script' NAME | 'let' VAR ':=' term | step)*
  step      :=  'step' NUM ':' RULE NUM* ('with' group+)? 'conclude' formula
  group     :=  '(' term (';' term)* ')'

A NAME (and a RULE) may join its parts with '-', no blanks around it:
``script udnr-backward``, ``step 1: NF-AXIOM``.  A VAR, the name a
let binds, is one name and no constant's, as for every binder.  A group
is one candidate tuple, its slots separated by ';'.  The ``with`` groups
come before the conclusion but are scoped by it: their terms may name
its ``forall^st`` universals, which shadow the lets, so the conclusion
is read first.  An error gives its line:col in the script and names the
let or the step (and the conclusion or the group and slot) it is in.

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

A replayed step (``StepResult``) keeps its checked rows and its
conclusion's blocks, and the model check and extraction read them from
it.  A report lists the steps in script order, and its final step is
the script's last one.  Extraction reads that step's rows back as closed terms.
``extract_function`` gives ``\\xs. witness`` for a step with one row
of one slot.  For a numeric target slot ``y``, ``postprocess`` gives
the bound ``\\xs. max(r1[y], max(r2[y], ...))`` straight from the rows,
and the explicit content of the implication applies the least-zero
search ``stdterms.leastz_t`` to that bound, by the same rule.  The
terms are built small, from the primitives and the reduced lets, with
no rewriting pass afterwards.
"""
from __future__ import annotations

import itertools

from .interp import ModelError
from .lang import (Abs, App, Const, ForallSt, Formula, Implies, N,
                   ParseError, Term, TypeCheckError, Var, alpha_eq_f, app,
                   disj, free_vars, free_vars_f, fresh_name, infer_type,
                   lam, show_formula, show_type, spine, stdterms, strip,
                   subst_f)
# Unused here since scripts are read with the Parser, but kept as
# module attributes: perfbench looks the parser up, to trace it, at
# every attribute it was reached through.
from .lang import parse_formula, parse_term, parse_type  # noqa: F401
from .lang.formulas import subst_f_prepared
from .lang.parser import Parser, tokenize
from .lang.printer import show_term_prefix
from .lang.terms import MAX2, Prepared, all_names, enter_binder, prepare
from .lang.types import record
from .normalform import BZT_BOUND, BZT_TABLE, normalize_principle
from .translate import TranslateError, nf_blocks


class ScriptError(Exception):
    pass


RULES = ("NF-AXIOM", "EXISTS-WITNESS")

Row = tuple[Term, ...]


# ---------------------------------------------------------------------------
# script surface syntax


@record
class ProofStep:
    index: int
    rule: str
    premises: tuple[int, ...]
    groups: tuple[Row, ...]   # term tuples following ``with``
    conclusion: Formula


@record
class ProofScript:
    name: str
    steps: tuple[ProofStep, ...]


def parse_script(text: str) -> ProofScript:
    """Read a script (grammar in the module docstring).  A ParseError
    becomes a ScriptError that gives its line:col in the text and names
    the let or step it is in."""
    name = "script"
    lets = _Lets()
    steps: list[ProofStep] = []
    where = ""                    # the let being read, for errors
    try:
        p = Parser(tokenize(text), 0, {})
        while p.peek().kind != "eof":
            where = ""
            if p.take("script"):
                name = _name(p)
            elif p.take("let"):
                lname = p.bound_name(p.expecting("a name"))
                where = f"let {lname}: "
                p.expect_sym(":=")
                body, ty, _ = p.typed_term()
                v = Var(lname, ty)
                lets.define(v, body)
                p.env[lname] = v
            elif p.take("step"):
                steps.append(_parse_step(p, lets))
            else:
                p.expected("'script', 'let' or 'step'")
    except ParseError as exc:
        raise _script_error(where, exc) from None
    if not steps:
        raise ScriptError("script has no steps")
    return ProofScript(name, tuple(steps))


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


def _script_error(where: str, exc: ParseError) -> ScriptError:
    return ScriptError(f"{where}{exc.msg} (at {exc.line}:{exc.col})")


def _name(p: Parser) -> str:
    """A name whose parts may be joined by '-' with no blanks around
    it: ``udnr-forward``, ``NF-AXIOM``."""
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


def _parse_step(p: Parser, lets: _Lets) -> ProofStep:
    """A step, the cursor past its ``step`` keyword."""
    where = "step needs 'step <n>: <rule> ...': "
    try:
        index = p.number()
        p.expect_sym(":")
        where = f"step {index}: "
        tok = p.peek()
        if tok.kind != "ident" or tok.text in ("with", "conclude"):
            p.expected("a rule")
        rule = _name(p)
        if rule not in RULES:
            raise ParseError(f"unknown rule {rule!r}", tok.line, tok.col)
        premises: list[int] = []
        while p.peek().kind == "num":
            premises.append(p.number())
        groups_at = p.pos
        if p.take("with"):
            groups_at = p.pos
            if not p.at_sym("("):
                p.expected("'(' opening a witness group")
            while p.at_sym("("):    # read once the conclusion is
                p.pos = p.closing(p.pos)
                if p.next().kind == "eof":
                    p.fail("witness group is not closed")
        if not p.take("conclude"):
            p.expected("a premise, 'with' or 'conclude'")
        where = f"step {index}: conclusion: "
        conclusion = p.parse_formula()
        end = p.pos

        # witness terms may mention the conclusion's universals
        scope = p.env
        universals, _ = strip(conclusion, ForallSt)
        names = {v.name: v for v in universals}
        p.env = {**scope, **names}
        sub = lets.scope(names)
        p.pos = groups_at
        groups: list[Row] = []
        while p.take("("):
            row: list[Term] = []
            while not row or p.take(";"):
                where = (f"step {index}: witness group {len(groups) + 1}, "
                         f"slot {len(row) + 1}: ")
                row.append(lets.term(p.parse_term(), sub))
            p.expect_sym(")")
            groups.append(tuple(row))
        p.env, p.pos = scope, end
    except ParseError as exc:
        raise _script_error(where, exc) from None
    return ProofStep(index, rule, tuple(premises), tuple(groups),
                     subst_f_prepared(conclusion, lets.sub, lets.term))


# ---------------------------------------------------------------------------
# checking


@record
class StepResult:
    """A replayed step, its rows, and its conclusion's blocks."""
    step: ProofStep
    rows: tuple[Row, ...]
    universals: tuple[Var, ...]
    existentials: tuple[Var, ...]
    matrix: Formula

    def line(self) -> str:
        return (f"step {self.step.index}: {self.step.rule} ok "
                f"({len(self.rows)} candidate(s))")


@record
class ScriptReport:
    results: tuple[StepResult, ...]

    @property
    def final(self) -> StepResult:
        return self.results[-1]

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


def _fail(step: ProofStep, msg: str):
    raise ScriptError(f"step {step.index} ({step.rule}): {msg}")


def _check_rows(step: ProofStep, rows: tuple[Row, ...],
                existentials: tuple[Var, ...], universals: tuple[Var, ...]):
    """Witness tuples must be well-typed, and closed up to the
    universals: a variable free in a slot term is one of them, by name
    and type."""
    scope = {u.name: u.ty for u in universals}
    for row in rows:
        if len(row) != len(existentials):
            _fail(step, f"witness tuple has {len(row)} slots, "
                        f"conclusion has {len(existentials)} existentials")
        for v, t in zip(existentials, row):
            fvs = free_vars(t)
            loose = {w.name for w in fvs if w.name not in scope}
            if loose:
                _fail(step, f"open witness term for {v.name}: "
                            f"unbound {sorted(loose)}")
            for w in sorted(fvs, key=lambda w: w.name):
                if w.ty != scope[w.name]:
                    _fail(step, f"witness for {v.name}: variable {w.name} "
                                f"used at type {show_type(w.ty)} but "
                                f"declared at {show_type(scope[w.name])}")
            try:
                ty = infer_type(t)
            except TypeCheckError as exc:
                _fail(step, f"witness for {v.name}: {exc}")
            if ty != v.ty:
                _fail(step, f"witness for {v.name} has type {show_type(ty)}, "
                            f"expected {show_type(v.ty)}")


def check_script(script: ProofScript) -> ScriptReport:
    """Replay a script, rule by rule.  Raises ScriptError naming the
    step and the violated side condition; returns a report with each
    step's rows and blocks, in script order.  A rule handler gets the
    ``nf_blocks`` of the conclusion and each premise's replayed step."""
    done: dict[int, StepResult] = {}    # in script order

    for step in script.steps:
        if step.index in done:
            raise ScriptError(f"duplicate step index {step.index}")
        try:
            nf = nf_blocks(step.conclusion)
        except TranslateError as exc:
            _fail(step, str(exc))
        prems = []
        for p in step.premises:
            if p not in done:
                _fail(step, f"premise {p} not yet derived")
            prems.append(done[p])
        rows = _RULE_HANDLERS[step.rule](step, nf, prems)
        done[step.index] = StepResult(step, rows, *nf)

    return ScriptReport(tuple(done.values()))


def _rule_nf_axiom(step, nf, prems):
    if prems:
        _fail(step, "axioms take no premises")
    if step.groups:
        _fail(step, "axioms take no witness tuples")
    _, existentials, _ = nf
    if existentials:
        _fail(step, "internal axiom cannot introduce existentials")
    return ((),)


def _rule_exists_witness(step, nf, prems):
    universals, existentials, matrix = nf
    if len(prems) != 1:
        _fail(step, "needs exactly one premise")
    prem = prems[0]
    if prem.existentials:
        _fail(step, "premise must be existential-free")
    if not existentials:
        _fail(step, "conclusion introduces no existentials")
    if universals != prem.universals:
        _fail(step, "universal block must match the premise")
    if not step.groups:
        _fail(step, "needs at least one witness tuple")
    _check_rows(step, step.groups, existentials, universals)
    want = disj([subst_f(matrix, dict(zip(existentials, row)))
                 for row in step.groups])
    if not alpha_eq_f(prem.matrix, want):
        _fail(step, "premise matrix is not the disjunction of the "
                    "instantiated conclusion matrix; expected "
                    + show_formula(want))
    return step.groups


_RULE_HANDLERS = {
    "NF-AXIOM": _rule_nf_axiom,
    "EXISTS-WITNESS": _rule_exists_witness,
}


# ---------------------------------------------------------------------------
# extraction


def extract_function(final: StepResult) -> Term:
    """Single-witness extraction from a replayed step: ``\\xs.
    witness``.  Demands exactly one tuple with one slot."""
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


def postprocess(final: StepResult, target: str) -> Term:
    """The closed bound term ``\\xs. max(r1[y], max(r2[y], ...))`` over
    the target slot ``y`` of a replayed step's rows, with the ``max``
    primitive.  The consequent of its matrix may mention no other
    witness slot, since the bound stands in for the target alone."""
    existentials, matrix, rows = final.existentials, final.matrix, final.rows
    names = [v.name for v in existentials]
    if target not in names:
        raise ScriptError(f"{target!r} is not a witness slot of the "
                          "normal form")
    idx = names.index(target)
    if existentials[idx].ty != N:
        raise ScriptError(f"non-numeric target slot {target!r}: "
                          f"{show_type(existentials[idx].ty)}")
    cons = matrix.right if isinstance(matrix, Implies) else matrix
    stray = {v.name for v in free_vars_f(cons)} & (set(names) - {target})
    if stray:
        raise ScriptError("consequent mentions witness slots other than "
                          f"the target: {sorted(stray)}")

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


def check_candidates(model, final: StepResult,
                     plans: dict[str, str] | None = None) -> CandidateReport:
    """Sweep the universals of a replayed step and test that some
    candidate row satisfies its matrix at every assignment.

    ``plans`` maps a universal name to ``"all"`` (full enumeration) or
    ``"st"`` (declared/standard population, the default — the block is
    a forall^st); any other plan, or a key that names no universal, is
    a ScriptError.  The blocks and the rows come from the replay, which
    checked them: a slot term is well-typed and names no variable but
    the universals, and the matrix names only the two blocks'
    variables, whose names differ.  So an assignment's environment
    holds the universals and each row sets its existentials there.

    When the matrix is an implication, its consequent is evaluated only
    where the antecedent holds.

    One memo serves the call, under one rule: a slot term, or the
    antecedent, is evaluated once per tuple of values of the names free
    in it, a function value counting by identity and a sequence (a
    tuple) by value, which is sound since tuples never change.  So
    rows that share a term share its value, a closed term is evaluated
    once per call, and an antecedent that names no existential is
    evaluated once per assignment of the universals it reads.  Equal
    slot terms are first made one object, so that a key compares them
    by identity and lists their values in one order.

    Skipping a re-evaluation loses nothing from the report:
    ``overflowed`` is tracked for the whole call and ``model.flags`` is
    a set.  Attributing saturation to a row or subterm would have to
    store each memo entry's overflow bit with its value.
    """
    # Read from rszoo.interp per call: the benchmark's tracer counts these
    # calls by wrapping the package's attributes once it is imported.
    from .interp import eval_formula, eval_term

    universals, existentials, matrix = (final.universals, final.existentials,
                                        final.matrix)
    plans = plans or {}
    names = {v.name for v in universals}
    stray = sorted(plans.keys() - names)
    if stray:
        raise ScriptError(f"sweep plan names no universal: {stray}")
    pools = []
    for v in universals:
        plan = plans.get(v.name, "st")
        if plan not in ("st", "all"):
            raise ScriptError(f"unknown sweep plan {plan!r} for {v.name}")
        pools.append(model.population(v.ty, standard=(plan == "st")))
    terms: dict[Term, Term] = {}
    rows = [tuple(terms.setdefault(t, t) for t in row) for row in final.rows]

    antecedent, consequent = ((matrix.left, matrix.right)
                              if isinstance(matrix, Implies)
                              else (None, matrix))
    memo: dict = {}

    def once(evaluate, node, free, env):
        key = (node, *[env[v.name] for v in free(node)])
        value = memo.get(key, memo)     # the memo itself marks a miss
        if value is memo:
            value = memo[key] = evaluate(model, node, env)
        return value

    was_overflowed, model.overflowed = model.overflowed, False
    checked, genuine = 0, 0
    failures: list[str] = []
    for combo in itertools.product(*pools):
        checked += 1
        env = {v.name: val for v, val in zip(universals, combo)}
        hit = False
        for row in rows:
            for v, t in zip(existentials, row):
                env[v.name] = once(eval_term, t, free_vars, env)
            vacuous = antecedent is not None and not once(
                eval_formula, antecedent, free_vars_f, env)
            if vacuous or eval_formula(model, consequent, env):
                hit = True
                genuine += not vacuous
                break
        if not hit and len(failures) < 5:
            failures.append(", ".join(
                f"{v.name}={_value_label(model, v.ty, val)}"
                for v, val in zip(universals, combo)))
    overflowed = model.overflowed
    model.overflowed = was_overflowed or overflowed
    return CandidateReport(not failures, checked, tuple(failures),
                           genuine == 0 and not failures, overflowed)


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
    """Drive one corpus entry end to end: normalize the principle,
    compare against the stored expectation, replay both scripts, check
    the candidates in the entry's model, and assemble the explicit
    implication terms.  Errors carry the failing stage tag.

    The entry fields read are ``ident``, ``principle``, ``expect``,
    ``forward``, ``backward``, ``model`` and ``plans`` (the forward sweep
    plans); the backward sweep ranges over the standard objects.  The
    target's table and bound are those of ``normalform``.  The forward
    script's conclusion must be ``==`` to the normal form, as the stored
    expectation must, not only alpha-equal: the sweep plans and the
    target's table and bound name its variables."""
    eid = entry.ident
    stages: list[tuple[str, str]] = []
    flags: set[str] = set()

    def candidates(tag: str, prefix: str, final: StepResult, plans):
        """Check a script's final rows in the model; a failure raises,
        and a vacuous antecedent or saturation sets a flag."""
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

    rep = _stage(eid, "check-forward", lambda: check_script(entry.forward))
    stages.extend(("check-forward", l) for l in rep.lines())
    final = rep.final
    concluded = final.step.conclusion
    if concluded != nf:
        raise ScriptError(f"{eid}/align: forward script concludes "
                          f"{show_formula(concluded)}, but the principle "
                          f"normalizes to {show_formula(nf)}")
    stages.append(("align", "script conclusion matches the normal form"))
    candidates("candidates-forward", "", final, entry.plans)
    bound = _stage(eid, "postprocess",
                   lambda: postprocess(final, BZT_BOUND.name))
    stages.append(("postprocess", f"bound {show_term_brief(bound)}"))
    forward_term = _stage(eid, "collapse", lambda: _mu_collapse(
        final.universals, bound, BZT_TABLE))
    stages.append(("collapse", show_term_brief(forward_term)))

    rep = _stage(eid, "check-backward", lambda: check_script(entry.backward))
    stages.extend(("check-backward", l) for l in rep.lines())
    candidates("candidates-backward", "backward-", rep.final, None)
    backward_term = _stage(eid, "extract-backward",
                           lambda: extract_function(rep.final))

    return ExplicitImplication(forward_term, backward_term, bound,
                               tuple(sorted(flags)), tuple(stages))


def _mu_collapse(universals: tuple[Var, ...], bound: Term,
                 table: Var) -> Term:
    """Reshape the bound ``\\xs. b`` over the universals xs as (other
    universals) -> table -> ``leastz(table, b)``, the explicit forward
    content against the zero-transfer target, whose table is
    ``table``."""
    if table not in universals:
        raise ScriptError(f"no table universal {table.name!r} to collapse "
                          "against")
    others = [v for v in universals if v != table]
    for _ in universals:        # the bound's binders are the universals
        bound = bound.body
    # by the let rule: leastz takes the table, a variable, and keeps the
    # bound, which it reads twice, as a redex
    return lam(*others, table, _Lets().apply(stdterms.leastz_t(),
                                             [table, bound]))


def show_term_brief(t: Term) -> str:
    """The term's text, cut to 120 characters."""
    s = show_term_prefix(t, 121)
    return s if len(s) <= 120 else s[:117] + "..."
