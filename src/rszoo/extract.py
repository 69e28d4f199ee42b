"""Proof scripts over two-block normal forms, and term extraction.

A script is a list of steps, each applying one rule of a small
candidate-tuple calculus.  A step's conclusion is a normal form
``(forall^st xs)(exists^st ys) matrix`` and the checker threads a
finite list of witness tuples (candidates) alongside it: the step is
sound when the premise guarantees that, for every assignment of the
universals, at least one candidate tuple satisfies the matrix.  The
rules:

  NF-AXIOM      trusted starting point with an internal matrix; it takes
                no premises and may not introduce existentials.
  EXISTS-WITNESS  introduce existentials; the premise matrix must be
                exactly the disjunction of the instantiated conclusion
                matrix, one disjunct per tuple.
  WEAKEN        append candidate tuples (always sound: the implicit
                disjunction only grows).

A script is read with the language's tokenizer and ``Parser``, so
blanks, newlines and ``#`` comments only separate tokens and a directive
may run over lines until the next one starts:

  script    :=  ('script' NAME | 'let' NAME ':=' term | step)*
  step      :=  'step' NUM ':' RULE NUM* ('with' group+)? 'conclude' formula
  group     :=  '(' term (';' term)* ')'

A NAME (and a RULE) may join its parts with '-', no blanks around it:
``script udnr-backward``, ``step 1: NF-AXIOM``.  A group is one
candidate tuple, its slots separated by ';'.  A ``let`` term may use
the lets above it, and every later term has them expanded.  The
``with`` groups come before the conclusion but are scoped by it: their
terms may name its ``forall^st`` universals, so the conclusion is read
first.  An error gives its line:col in the script and names the let or
the step (and the conclusion or the group and slot) it is in.

Extraction then reads the final candidate list back as one closed term
``\\xs. <seq of tuples>`` and, for a numeric target slot, collapses it
to a max bound whose least-zero refinement is the explicit content of
the implication.
"""
from __future__ import annotations

import itertools

from .lang import (Abs, App, Const, ExistsSt, ForallSt, Formula, Implies, N,
                   ParseError, SEQMAX, Term, Var, alpha_eq_f, app, append_c,
                   disj, distinct_subterms, empty_c, free_vars, free_vars_f,
                   infer_type, is_internal, lam, num, pair_c, pure,
                   show_formula, show_type, stdterms, subst_f, substitute)
# Unused here since scripts are read with the Parser, but kept as
# module attributes: perfbench looks the parser up, to trace it, at
# every attribute it was reached through.
from .lang import parse_formula, parse_term, parse_type  # noqa: F401
from .lang.parser import Parser, tokenize
from .lang.printer import show_term_prefix
from .lang.types import Arrow, FiniteType, Node, Product, node, record
from .normalform import normalize_principle
from .translate import NormalForm, alpha_eq_nf, show_nf


class ScriptError(Exception):
    pass


RULES = ("NF-AXIOM", "EXISTS-WITNESS", "WEAKEN")

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
    lets: dict[Var, Term] = {}    # expanded into every later term
    steps: list[ProofStep] = []
    where = ""                    # the let being read, for errors
    try:
        p = Parser(tokenize(text), 0, {})
        while p.peek().kind != "eof":
            where = ""
            if p.take("script"):
                name = _name(p)
            elif p.take("let"):
                lname = _name(p)
                where = f"let {lname}: "
                p.expect_sym(":=")
                body, ty, _ = p.typed_term()
                v = Var(lname, ty)
                lets[v] = substitute(body, lets)
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


def _parse_step(p: Parser, lets: dict[Var, Term]) -> ProofStep:
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
        p.env = dict(scope)
        walk = conclusion
        while isinstance(walk, ForallSt):
            p.env[walk.var.name] = walk.var
            walk = walk.body
        p.pos = groups_at
        groups: list[Row] = []
        while p.take("("):
            row: list[Term] = []
            while not row or p.take(";"):
                where = (f"step {index}: witness group {len(groups) + 1}, "
                         f"slot {len(row) + 1}: ")
                row.append(substitute(p.parse_term(), lets))
            p.expect_sym(")")
            groups.append(tuple(row))
        p.env, p.pos = scope, end
    except ParseError as exc:
        raise _script_error(where, exc) from None
    return ProofStep(index, rule, tuple(premises), tuple(groups),
                     subst_f(conclusion, lets))


# ---------------------------------------------------------------------------
# normal-form plumbing


def formula_to_nf(f: Formula) -> NormalForm:
    """Peel (forall^st)* (exists^st)* and require an internal matrix."""
    universals: list[Var] = []
    existentials: list[Var] = []
    while isinstance(f, ForallSt):
        universals.append(f.var)
        f = f.body
    while isinstance(f, ExistsSt):
        existentials.append(f.var)
        f = f.body
    if not is_internal(f):
        raise ScriptError(f"matrix is not internal: {show_formula(f)}")
    return NormalForm(tuple(universals), tuple(existentials), f)


# ---------------------------------------------------------------------------
# checking


@record
class StepResult:
    step: ProofStep
    nf: NormalForm
    rows: tuple[Row, ...]

    def line(self) -> str:
        return (f"step {self.step.index}: {self.step.rule} ok "
                f"({len(self.rows)} candidate(s))")


@record
class ScriptReport:
    script: ProofScript
    results: tuple[StepResult, ...]

    @property
    def final(self) -> StepResult:
        return self.results[-1]

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


def _fail(step: ProofStep, msg: str):
    raise ScriptError(f"step {step.index} ({step.rule}): {msg}")


def _check_rows(step: ProofStep, rows: tuple[Row, ...],
                existentials: tuple[Var, ...],
                scope: dict[str, FiniteType]):
    """Witness tuples must be well-typed and closed up to the scope."""
    for row in rows:
        if len(row) != len(existentials):
            _fail(step, f"witness tuple has {len(row)} slots, "
                        f"conclusion has {len(existentials)} existentials")
        for v, t in zip(existentials, row):
            if any(isinstance(s, Const) and s.name == "muscan"
                   for s in distinct_subterms(t)):
                _fail(step, "muscan is not permitted in witness terms; "
                            "search must be spelled out as a bounded "
                            "recursion")
            loose = {w.name for w in free_vars(t) if w.name not in scope}
            if loose:
                _fail(step, f"open witness term for {v.name}: "
                            f"unbound {sorted(loose)}")
            ty = infer_type(t, scope)
            if ty != v.ty:
                _fail(step, f"witness for {v.name} has type {show_type(ty)}, "
                            f"expected {show_type(v.ty)}")


def check_script(script: ProofScript) -> ScriptReport:
    """Replay a script, rule by rule.  Raises ScriptError naming the
    step and the violated side condition; returns a report with the
    per-step normal forms and candidate tuples."""
    results: dict[int, StepResult] = {}

    for step in script.steps:
        if step.index in results:
            raise ScriptError(f"duplicate step index {step.index}")
        try:
            nf = formula_to_nf(step.conclusion)
        except ScriptError as exc:
            _fail(step, str(exc))
        prems = []
        for p in step.premises:
            if p not in results:
                _fail(step, f"premise {p} not yet derived")
            prems.append(results[p])
        results[step.index] = _RULE_HANDLERS[step.rule](step, nf, prems)

    return ScriptReport(script, tuple(results[i] for i in sorted(results)))


def _rule_nf_axiom(step, nf, prems):
    if prems:
        _fail(step, "axioms take no premises")
    if nf.existentials:
        _fail(step, "internal axiom cannot introduce existentials")
    return StepResult(step, nf, ((),))


def _rule_exists_witness(step, nf, prems):
    if len(prems) != 1:
        _fail(step, "needs exactly one premise")
    prem = prems[0]
    if prem.nf.existentials:
        _fail(step, "premise must be existential-free")
    if not nf.existentials:
        _fail(step, "conclusion introduces no existentials")
    if nf.universals != prem.nf.universals:
        _fail(step, "universal block must match the premise")
    if not step.groups:
        _fail(step, "needs at least one witness tuple")
    scope = {u.name: u.ty for u in nf.universals}
    _check_rows(step, step.groups, nf.existentials, scope)
    want = disj([subst_f(nf.matrix, dict(zip(nf.existentials, row)))
                 for row in step.groups])
    if not alpha_eq_f(prem.nf.matrix, want):
        _fail(step, "premise matrix is not the disjunction of the "
                    "instantiated conclusion matrix; expected "
                    + show_formula(want))
    return StepResult(step, nf, step.groups)


def _rule_weaken(step, nf, prems):
    if len(prems) != 1:
        _fail(step, "needs exactly one premise")
    prem = prems[0]
    if not alpha_eq_nf(nf, prem.nf):
        _fail(step, "conclusion must repeat the premise normal form")
    if not step.groups:
        _fail(step, "needs at least one tuple to add")
    scope = {u.name: u.ty for u in nf.universals}
    _check_rows(step, step.groups, nf.existentials, scope)
    return StepResult(step, nf, prem.rows + step.groups)


_RULE_HANDLERS = {
    "NF-AXIOM": _rule_nf_axiom,
    "EXISTS-WITNESS": _rule_exists_witness,
    "WEAKEN": _rule_weaken,
}


# ---------------------------------------------------------------------------
# extraction


def _tuple_type(existentials: tuple[Var, ...]) -> FiniteType:
    tys = [v.ty for v in existentials]
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = Product(ty, out)
    return out


def _tuple_term(existentials: tuple[Var, ...], row: Row) -> Term:
    out = row[-1]
    out_ty = existentials[-1].ty
    for v, t in zip(reversed(existentials[:-1]), reversed(row[:-1])):
        out = app(pair_c(v.ty, out_ty), t, out)
        out_ty = Product(v.ty, out_ty)
    return out


def _require_closed(t: Term) -> Term:
    loose = sorted(v.name for v in free_vars(t))
    if loose:
        raise ScriptError(f"extracted term is open: unbound {loose}")
    return t


def extract_terms(report: ScriptReport) -> Term:
    """Closed realizing term ``\\xs. <seq of witness tuples>`` for the
    final step of a replayed script."""
    nf, rows = report.final.nf, report.final.rows
    if not nf.existentials:
        raise ScriptError("final step has no existentials to extract")
    if not rows:
        raise ScriptError("final step has no candidate tuples")
    tupty = _tuple_type(nf.existentials)
    seq = empty_c(tupty)
    for row in rows:
        seq = app(append_c(tupty), seq, _tuple_term(nf.existentials, row))
    return _require_closed(lam(*nf.universals, seq))


def extract_function(report: ScriptReport) -> Term:
    """Single-witness extraction: ``\\xs. witness`` instead of a
    candidate sequence.  Demands exactly one tuple with one slot."""
    final = report.final
    if len(final.rows) != 1 or len(final.nf.existentials) != 1:
        raise ScriptError("function extraction needs exactly one candidate "
                          "and one witness slot; got "
                          f"{len(final.rows)} candidate(s) over "
                          f"{len(final.nf.existentials)} slot(s)")
    return _require_closed(lam(*final.nf.universals, final.rows[0][0]))


# ---------------------------------------------------------------------------
# post-processing: project, collapse, re-internalize


def leastz_t() -> Term:
    """leastz f y = least i <= y with f(i) = 0, else 0.  The honest
    counterpart of the model's scanner: a bounded recursion."""
    f, y = Var("f", pure(1)), Var("y", N)
    r = app(stdterms.bmin_t(), f, y)
    return lam(f, y, app(stdterms.ifpos_t(),
                         app(stdterms.leq_t(), r, y), r, num(0)))


@node
class PostResult(Node):
    bound: Term      # \xs. max of the target slot over the candidates


def postprocess(t: Term, nf: NormalForm, target: str) -> PostResult:
    """Collapse the target slot of an extracted candidate term to a
    single max bound.  The consequent of the matrix may mention no other
    witness slot, since the bound stands in for the target alone."""
    names = [v.name for v in nf.existentials]
    if target not in names:
        raise ScriptError(f"{target!r} is not a witness slot of the "
                          "normal form")
    idx = names.index(target)
    if nf.existentials[idx].ty != N:
        raise ScriptError(f"non-numeric target slot {target!r}: "
                          f"{show_type(nf.existentials[idx].ty)}")
    cons = nf.matrix.right if isinstance(nf.matrix, Implies) else nf.matrix
    stray = {v.name for v in free_vars_f(cons)} & (set(names) - {target})
    if stray:
        raise ScriptError("consequent mentions witness slots other than "
                          f"the target: {sorted(stray)}")

    tupty = _tuple_type(nf.existentials)
    tup = Var("tup", tupty)
    proj_body: Term = tup
    ty = tupty
    for _ in range(idx):
        proj_body = App(Const("snd", Arrow(ty, ty.right)), proj_body)
        ty = ty.right
    if isinstance(ty, Product):
        proj_body = App(Const("fst", Arrow(ty, ty.left)), proj_body)
    proj = Abs(tup, proj_body)

    xs = nf.universals
    picked = app(stdterms.seqmap_t(tupty, N), proj, app(t, *xs))
    return PostResult(lam(*xs, App(SEQMAX, picked)))


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
    from .interp import ModelError
    if ty == N:
        return str(v)
    for name, (_ty, value, _st) in model.declared.items():
        if value is v:
            return name
    try:
        return str(model.canon_key(ty, v))
    except ModelError:
        return "<value>"


def check_candidates(model, nf: NormalForm, rows: tuple[Row, ...],
                     plans: dict[str, str] | None = None) -> CandidateReport:
    """Sweep the universals and test that some candidate tuple satisfies
    the matrix at every assignment.

    ``plans`` maps a universal name to ``"all"`` (full enumeration) or
    ``"st"`` (declared/standard population, the default — the block is
    a forall^st); any other plan is a ScriptError.

    When the matrix is an implication, its consequent is evaluated only
    where the antecedent holds.

    One memo serves the call, under one rule: a value is computed once
    per assignment of the universals it reads, and its key holds their
    pool indices (a key on the values would tabulate them, at type 2 a
    full sweep).  A slot term gets an integer id, and its key is the id
    plus the indices of the universals it mentions; rows that share a
    term share its value, and a closed term is evaluated once per call.
    The antecedent's key is the ids of the slot terms of the
    existentials it mentions plus the indices of every universal it
    reads, directly or through those slot terms; with no existential
    mentioned, it is evaluated once per assignment of its own
    universals.  A slot term that mentions an existential is evaluated
    per candidate, in order, and so is an antecedent that reads one.

    Skipping a re-evaluation loses nothing from the report:
    ``overflowed`` is tracked for the whole call and ``model.flags`` is
    a set.  Attributing saturation to a row or subterm would have to
    store each memo entry's overflow bit with its value.
    """
    from .interp import eval_formula, eval_term

    plans = plans or {}
    base_env = model.env()
    pools = []
    for v in nf.universals:
        plan = plans.get(v.name, "st")
        if plan not in ("st", "all"):
            raise ScriptError(f"unknown sweep plan {plan!r} for {v.name}")
        pools.append(model.population(v.ty, standard=(plan == "st")))

    antecedent, consequent = ((nf.matrix.left, nf.matrix.right)
                              if isinstance(nf.matrix, Implies)
                              else (None, nf.matrix))
    existential_names = {v.name for v in nf.existentials}
    position = {v.name: i for i, v in enumerate(nf.universals)}

    def reads(names) -> tuple[int, ...] | None:
        """Pool positions of the universals named, or None when an
        existential is named: such a value is not memoized."""
        if names & existential_names:
            return None
        return tuple(sorted({position[n] for n in names if n in position}))

    # Slot terms by id, assigned once, so that a memo key holds a small
    # integer rather than the term.
    ids: dict[Term, int] = {}
    slot_reads: list[tuple[int, ...] | None] = []
    row_ids = []
    for row in rows:
        for t in row:
            if t not in ids:
                ids[t] = len(slot_reads)
                slot_reads.append(reads({w.name for w in free_vars(t)}))
        row_ids.append(tuple(ids[t] for t in row))

    # Per row, the antecedent's key parts (slot ids, positions), or None
    # when it is evaluated per candidate.
    antecedent_keys: list = [None] * len(rows)
    if antecedent is not None:
        names = {v.name for v in free_vars_f(antecedent)}
        direct = reads(names - existential_names)
        for r, sids in enumerate(row_ids):
            mentioned = tuple(s for v, s in zip(nf.existentials, sids)
                              if v.name in names)
            through = [slot_reads[s] for s in mentioned]
            if None not in through:
                antecedent_keys[r] = (mentioned,
                                      sorted(set(direct).union(*through)))

    memo: dict = {}    # (slot id or antecedent slot ids, indices) -> value

    def memoized(key, compute):
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    was_overflowed, model.overflowed = model.overflowed, False
    checked, genuine = 0, 0
    failures: list[str] = []
    for at in itertools.product(*(range(len(p)) for p in pools)):
        checked += 1
        combo = [pool[i] for pool, i in zip(pools, at)]
        env0 = dict(base_env)
        for v, val in zip(nf.universals, combo):
            env0[v.name] = val
        hit = False
        for row, sids, ante_key in zip(rows, row_ids, antecedent_keys):
            env1 = dict(env0)
            for v, t, s in zip(nf.existentials, row, sids):
                if slot_reads[s] is None:
                    env1[v.name] = eval_term(model, t, env1)
                else:
                    env1[v.name] = memoized(
                        (s, tuple(at[i] for i in slot_reads[s])),
                        lambda: eval_term(model, t, env0))
            if antecedent is None:
                vacuous = False
            elif ante_key is None:
                vacuous = not eval_formula(model, antecedent, env=env1)
            else:
                vacuous = not memoized(
                    (ante_key[0], tuple(at[i] for i in ante_key[1])),
                    lambda: eval_formula(model, antecedent, env=env1))
            if vacuous or eval_formula(model, consequent, env=env1):
                hit = True
                genuine += not vacuous
                break
        if not hit and len(failures) < 5:
            failures.append(", ".join(
                f"{v.name}={_value_label(model, v.ty, val)}"
                for v, val in zip(nf.universals, combo)))
    overflowed = model.overflowed
    model.overflowed = was_overflowed or overflowed
    return CandidateReport(not failures, checked, tuple(failures),
                           genuine == 0 and not failures, overflowed)


# ---------------------------------------------------------------------------
# explicit implications


@record
class ExplicitImplication:
    """A proved implication together with its explicit term content."""
    source: str
    target: str
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

    The entry fields read are ``ident``, ``source``, ``target``,
    ``witness``, ``principle``, ``expect``, ``forward``, ``backward``,
    ``model`` and ``plans`` (the forward sweep plans); the backward
    sweep ranges over the standard objects."""
    eid = entry.ident
    model = entry.model
    stages: list[tuple[str, str]] = []
    flags: set[str] = set()

    nf = _stage(eid, "normalize",
                lambda: normalize_principle(entry.principle))
    stages.append(("normalize", show_nf(nf)))

    if nf != entry.expect:
        raise ScriptError(f"{eid}/expect: normal form differs from the "
                          f"stored expectation:\n  got  {show_nf(nf)}\n"
                          f"  want {show_nf(entry.expect)}")
    stages.append(("expect", "normal form matches stored expectation"))

    rep = _stage(eid, "check-forward", lambda: check_script(entry.forward))
    stages.extend(("check-forward", l) for l in rep.lines())
    if not alpha_eq_nf(rep.final.nf, nf):
        raise ScriptError(f"{eid}/align: forward script concludes "
                          f"{show_nf(rep.final.nf)}, but the principle "
                          f"normalizes to {show_nf(nf)}")
    stages.append(("align", "script conclusion matches the normal form"))
    final = rep.final
    cand = _stage(eid, "candidates-forward",
                  lambda: check_candidates(model, final.nf, final.rows,
                                           entry.plans))
    stages.append(("candidates-forward", cand.line()))
    if not cand.ok:
        raise ScriptError(f"{eid}/candidates-forward: {cand.line()}")
    if cand.antecedent_vacuous:
        flags.add("antecedent-vacuous")
    if cand.overflowed:
        flags.add("overflowed")
    t = _stage(eid, "extract-forward", lambda: extract_terms(rep))
    post = _stage(eid, "postprocess",
                  lambda: postprocess(t, final.nf, entry.witness))
    stages.append(("postprocess", f"bound {show_term_brief(post.bound)}"))
    forward_term = _stage(eid, "collapse",
                          lambda: _mu_collapse(final.nf, post.bound))
    stages.append(("collapse", show_term_brief(forward_term)))

    rep = _stage(eid, "check-backward", lambda: check_script(entry.backward))
    stages.extend(("check-backward", l) for l in rep.lines())
    final = rep.final
    cand = _stage(eid, "candidates-backward",
                  lambda: check_candidates(model, final.nf, final.rows))
    stages.append(("candidates-backward", cand.line()))
    if not cand.ok:
        raise ScriptError(f"{eid}/candidates-backward: {cand.line()}")
    if cand.antecedent_vacuous:
        flags.add("backward-antecedent-vacuous")
    backward_term = _stage(eid, "extract-backward",
                           lambda: extract_function(rep))

    return ExplicitImplication(entry.source, entry.target, forward_term,
                               backward_term, post.bound,
                               tuple(sorted(flags)), tuple(stages))


def _mu_collapse(nf: NormalForm, bound: Term) -> Term:
    """Reshape the collapsed bound as (other universals) -> table -> least
    zero, the explicit forward content against the zero-transfer target."""
    fvar = next((v for v in nf.universals if v.ty == pure(1)
                 and v.name == "f"), None)
    if fvar is None:
        raise ScriptError("no table universal 'f' to collapse against")
    others = [v for v in nf.universals if v.name != fvar.name]
    body = app(leastz_t(), fvar, app(bound, *nf.universals))
    return lam(*others, fvar, body)


def show_term_brief(t: Term) -> str:
    """The term's text, cut to 120 characters."""
    s = show_term_prefix(t, 121)
    return s if len(s) <= 120 else s[:117] + "..."
