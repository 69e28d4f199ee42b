"""Proof scripts over two-block normal forms, and term extraction.

A script is a list of steps, each applying one rule of a small
candidate-tuple calculus.  A step's conclusion is a normal form
``(forall^st xs)(exists^st ys) matrix`` and the checker threads a
finite list of witness tuples (candidates) alongside it: the step is
sound when the premise guarantees that, for every assignment of the
universals, at least one candidate tuple satisfies the matrix.  The
rules:

  NF-AXIOM      trusted starting point.  Kinds ``internal`` and
                ``ideal`` may not introduce existentials; kinds ``hac``
                and ``qf-ac`` introduce exactly one functional
                existential, recorded as an oracle obligation.
  FORALL-INTRO  generalize a script parameter.
  FORALL-ELIM   instantiate a universal with a term that is closed up
                to script parameters.
  EXISTS-WITNESS  introduce existentials; the premise matrix must be
                exactly the disjunction of the instantiated conclusion
                matrix, one disjunct per tuple.
  WEAKEN        append candidate tuples (always sound: the implicit
                disjunction only grows).
  TUPLE-MERGE   combine two derivations of the same normal form.
  MONOTONE-MP   push candidates through a pointwise implication proved
                under plain universals.
  LEAST-WITNESS replace a numeric witness slot by a tighter term; the
                matrix must be upward monotone in that slot, which a
                model certifies by brute force.

Extraction then reads the final candidate list back as one closed term
``\\xs. <seq of tuples>`` and, for a numeric target slot, collapses it
to a max bound whose least-zero refinement is the explicit content of
the implication.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .lang import (Abs, App, Const, ExistsSt, Forall, ForallSt, Formula,
                   Implies, N, SEQMAX, Term, Var, alpha_eq_f, app, append_c,
                   disj, empty_c, foralls, free_vars, free_vars_f,
                   infer_type, is_internal, lam, num, pair_c, parse_formula,
                   parse_term, parse_type, pure, show_formula, show_term,
                   show_type, stdterms, subst_f, substitute, subterms)
from .lang.types import Arrow, FiniteType, Product
from .normalform import monotone_in_witness, normalize_principle
from .translate import NormalForm, alpha_eq_nf, show_nf


class ScriptError(Exception):
    pass


RULES = ("NF-AXIOM", "FORALL-INTRO", "FORALL-ELIM", "EXISTS-WITNESS",
         "WEAKEN", "TUPLE-MERGE", "MONOTONE-MP", "LEAST-WITNESS")
AXIOM_KINDS = ("internal", "ideal", "hac", "qf-ac")

Row = tuple[Term, ...]


# ---------------------------------------------------------------------------
# script surface syntax


@dataclass(frozen=True)
class ProofStep:
    index: int
    rule: str
    kind: str | None          # NF-AXIOM flavour
    premises: tuple[int, ...]
    name: str | None          # variable argument of INTRO/ELIM/LEAST-WITNESS
    groups: tuple[Row, ...]   # term tuples following ``with``
    conclusion: Formula


@dataclass(frozen=True)
class ProofScript:
    name: str
    params: tuple[Var, ...]
    lets: tuple[tuple[str, Term], ...]
    steps: tuple[ProofStep, ...]

    def param_types(self) -> dict[str, FiniteType]:
        return {v.name: v.ty for v in self.params}


_DIRECTIVE = re.compile(r"^(script|param|let|step)\b")


def _stanzas(text: str):
    """Group the source into directive stanzas; continuation lines attach
    to the previous directive."""
    current: list[str] | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if _DIRECTIVE.match(line.strip()):
            if current:
                yield " ".join(current)
            current = [line.strip()]
        else:
            if current is None:
                raise ScriptError(f"stray line outside any stanza: {raw!r}")
            current.append(line.strip())
    if current:
        yield " ".join(current)


def _split_token(text: str, token: str) -> tuple[str, str | None]:
    """Split on the first occurrence of a bare token at bracket depth 0."""
    depth = 0
    words = text.split(" ")
    for i, w in enumerate(words):
        depth += w.count("(") + w.count("[") - w.count(")") - w.count("]")
        if w == token and depth == 0:
            return " ".join(words[:i]), " ".join(words[i + 1:])
    return text, None


def _paren_groups(text: str) -> list[list[str]]:
    """Parse ``(a; b) (c; d)`` into groups of raw term strings."""
    groups, i, n = [], 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "(":
            raise ScriptError(f"expected '(' in witness groups near {text[i:]!r}")
        depth, j, cuts = 0, i, [i]
        while j < n:
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            elif text[j] == ";" and depth == 1:
                cuts.append(j)
            j += 1
        if depth != 0:
            raise ScriptError("unbalanced parentheses in witness groups")
        cuts.append(j)
        groups.append([text[a + 1:b].strip() for a, b in zip(cuts, cuts[1:])])
        i = j + 1
    return groups


def _expand_lets(t: Term, lets) -> Term:
    for name, body in lets:
        t = substitute(t, Var(name, infer_type(body)), body)
    return t


def _expand_lets_f(f: Formula, lets) -> Formula:
    for name, body in lets:
        f = subst_f(f, Var(name, infer_type(body)), body)
    return f


def parse_script(text: str) -> ProofScript:
    name = "script"
    params: list[Var] = []
    lets: list[tuple[str, Term]] = []
    steps: list[ProofStep] = []
    env: dict[str, FiniteType] = {}

    for stanza in _stanzas(text):
        head, rest = stanza.split(" ", 1) if " " in stanza else (stanza, "")
        if head == "script":
            name = rest.strip()
        elif head == "param":
            if ":" not in rest:
                raise ScriptError(f"param needs 'name : type': {stanza!r}")
            pname, tysrc = rest.split(":", 1)
            v = Var(pname.strip(), parse_type(tysrc.strip()))
            params.append(v)
            env[v.name] = v.ty
        elif head == "let":
            if ":=" not in rest:
                raise ScriptError(f"let needs 'name := term': {stanza!r}")
            lname, tsrc = rest.split(":=", 1)
            body = _expand_lets(parse_term(tsrc.strip(), dict(env)), lets)
            lets.append((lname.strip(), body))
            env[lname.strip()] = infer_type(body)
        elif head == "step":
            steps.append(_parse_step(rest, env, lets))
        else:  # pragma: no cover - _stanzas only yields directives
            raise ScriptError(f"unknown directive {head!r}")
    if not steps:
        raise ScriptError("script has no steps")
    return ProofScript(name, tuple(params), tuple(lets), tuple(steps))


def _parse_step(rest: str, env: dict[str, FiniteType], lets) -> ProofStep:
    if ":" not in rest:
        raise ScriptError(f"step needs 'step <n>: <rule> ...': {rest!r}")
    numsrc, body = rest.split(":", 1)
    try:
        index = int(numsrc.strip())
    except ValueError:
        raise ScriptError(f"bad step number {numsrc.strip()!r}") from None
    body, concl_src = _split_token(body.strip(), "conclude")
    if concl_src is None:
        raise ScriptError(f"step {index} has no conclusion")
    body, with_src = _split_token(body, "with")

    words = body.split()
    if not words:
        raise ScriptError(f"step {index} names no rule")
    rule, args = words[0], words[1:]
    if rule not in RULES:
        raise ScriptError(f"step {index}: unknown rule {rule!r}")
    kind = None
    premises: list[int] = []
    varname = None
    for w in args:
        if w in AXIOM_KINDS:
            kind = w
        elif w.isdigit():
            premises.append(int(w))
        elif varname is None:
            varname = w
        else:
            raise ScriptError(f"step {index}: unexpected token {w!r}")

    concl = _expand_lets_f(parse_formula(concl_src.strip(), dict(env)), lets)

    # witness terms may mention the conclusion's universals
    scope = dict(env)
    walk = concl
    while isinstance(walk, ForallSt):
        scope[walk.var.name] = walk.var.ty
        walk = walk.body

    groups: list[Row] = []
    if with_src is not None:
        for g in _paren_groups(with_src):
            row = tuple(_expand_lets(parse_term(src, scope), lets)
                        for src in g)
            groups.append(row)
    return ProofStep(index, rule, kind, tuple(premises), varname,
                     tuple(groups), concl)


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


def _instantiate(matrix: Formula, existentials: tuple[Var, ...],
                 row: Row) -> Formula:
    out = matrix
    for v, t in zip(existentials, row):
        out = subst_f(out, v, t)
    return out


# ---------------------------------------------------------------------------
# checking


@dataclass
class StepResult:
    step: ProofStep
    nf: NormalForm
    rows: tuple[Row, ...]
    oracle: str | None = None

    def line(self) -> str:
        extra = f", oracle {self.oracle}" if self.oracle else ""
        return (f"step {self.step.index}: {self.step.rule} ok "
                f"({len(self.rows)} candidate(s){extra})")


@dataclass
class ScriptReport:
    script: ProofScript
    results: tuple[StepResult, ...]
    obligations: tuple[str, ...]
    model_checked: bool

    @property
    def final(self) -> StepResult:
        return self.results[-1]

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        if self.obligations:
            out.append("obligations: " + ", ".join(self.obligations))
        return out


def _fail(step: ProofStep, msg: str):
    raise ScriptError(f"step {step.index} ({step.rule}): {msg}")


def _no_muscan(step: ProofStep, t: Term):
    if any(isinstance(s, Const) and s.name == "muscan" for s in subterms(t)):
        _fail(step, "muscan is not permitted in witness terms; "
                    "search must be spelled out as a bounded recursion")


def _check_rows(step: ProofStep, rows: tuple[Row, ...],
                existentials: tuple[Var, ...],
                scope: dict[str, FiniteType]):
    """Witness tuples must be well-typed and closed up to the scope."""
    for row in rows:
        if len(row) != len(existentials):
            _fail(step, f"witness tuple has {len(row)} slots, "
                        f"conclusion has {len(existentials)} existentials")
        for v, t in zip(existentials, row):
            _no_muscan(step, t)
            loose = {w.name for w in free_vars(t)} - set(scope)
            if loose:
                _fail(step, f"open witness term for {v.name}: "
                            f"unbound {sorted(loose)}")
            ty = infer_type(t, dict(scope))
            if ty != v.ty:
                _fail(step, f"witness for {v.name} has type {show_type(ty)}, "
                            f"expected {show_type(v.ty)}")


def check_script(script: ProofScript, model=None) -> ScriptReport:
    """Replay a script, rule by rule.  Raises ScriptError naming the
    step and the violated side condition; returns a report with the
    per-step normal forms and candidate tuples."""
    params = script.param_types()
    results: dict[int, StepResult] = {}
    obligations: list[str] = []

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
        handler = _RULE_HANDLERS[step.rule]
        res = handler(step, nf, prems, params, model)
        results[step.index] = res
        if res.oracle:
            obligations.append(res.oracle)

    ordered = tuple(results[i] for i in sorted(results))
    return ScriptReport(script, ordered, tuple(obligations), model is not None)


def _rule_nf_axiom(step, nf, prems, params, model):
    if prems:
        _fail(step, "axioms take no premises")
    if step.kind is None:
        _fail(step, f"axiom needs a kind among {AXIOM_KINDS}")
    if step.kind in ("internal", "ideal"):
        if nf.existentials:
            _fail(step, f"{step.kind} axiom cannot introduce existentials")
        return StepResult(step, nf, ((),))
    # hac / qf-ac: one functional existential, left as an obligation
    if len(nf.existentials) != 1 or not isinstance(nf.existentials[0].ty, Arrow):
        _fail(step, "choice axiom must introduce exactly one functional "
                    "existential")
    w = nf.existentials[0]
    return StepResult(step, nf, ((Var(w.name, w.ty),),), oracle=w.name)


def _rule_forall_intro(step, nf, prems, params, model):
    if len(prems) != 1:
        _fail(step, "needs exactly one premise")
    prem = prems[0]
    if step.name is None or step.name not in params:
        _fail(step, "can only generalize a declared script parameter")
    v = Var(step.name, params[step.name])
    want = NormalForm(prem.nf.universals + (v,), prem.nf.existentials,
                      prem.nf.matrix)
    if not alpha_eq_nf(nf, want):
        _fail(step, f"conclusion must be {show_nf(want)}")
    return StepResult(step, nf, prem.rows, oracle=prem.oracle)


def _rule_forall_elim(step, nf, prems, params, model):
    if len(prems) != 1:
        _fail(step, "needs exactly one premise")
    prem = prems[0]
    if len(step.groups) != 1 or len(step.groups[0]) != 1:
        _fail(step, "needs exactly one instantiation term")
    t = step.groups[0][0]
    _no_muscan(step, t)
    loose = {w.name for w in free_vars(t)} - set(params)
    if loose:
        _fail(step, f"instantiation term must be closed up to script "
                    f"parameters; unbound {sorted(loose)}")
    target = next((u for u in prem.nf.universals if u.name == step.name), None)
    if target is None:
        _fail(step, f"{step.name!r} is not a universal of the premise")
    ty = infer_type(t, dict(params))
    if ty != target.ty:
        _fail(step, f"instantiation has type {show_type(ty)}, expected "
                    f"{show_type(target.ty)}")
    rest = tuple(u for u in prem.nf.universals if u.name != step.name)
    want = NormalForm(rest, prem.nf.existentials,
                      subst_f(prem.nf.matrix, target, t))
    if not alpha_eq_nf(nf, want):
        _fail(step, f"conclusion must be {show_nf(want)}")
    rows = tuple(tuple(substitute(r, target, t) for r in row)
                 for row in prem.rows)
    return StepResult(step, nf, rows, oracle=prem.oracle)


def _rule_exists_witness(step, nf, prems, params, model):
    if len(prems) != 1:
        _fail(step, "needs exactly one premise")
    prem = prems[0]
    if prem.nf.existentials:
        _fail(step, "premise must be existential-free")
    if prem.oracle:
        _fail(step, "premise carries an oracle obligation")
    if not nf.existentials:
        _fail(step, "conclusion introduces no existentials")
    if nf.universals != prem.nf.universals:
        _fail(step, "universal block must match the premise")
    if not step.groups:
        _fail(step, "needs at least one witness tuple")
    scope = dict(params)
    scope.update({u.name: u.ty for u in nf.universals})
    _check_rows(step, step.groups, nf.existentials, scope)
    want = disj([_instantiate(nf.matrix, nf.existentials, row)
                 for row in step.groups])
    if not alpha_eq_f(prem.nf.matrix, want):
        _fail(step, "premise matrix is not the disjunction of the "
                    "instantiated conclusion matrix; expected "
                    + show_formula(want))
    return StepResult(step, nf, step.groups)


def _rule_weaken(step, nf, prems, params, model):
    if len(prems) != 1:
        _fail(step, "needs exactly one premise")
    prem = prems[0]
    if not alpha_eq_nf(nf, prem.nf):
        _fail(step, "conclusion must repeat the premise normal form")
    if not step.groups:
        _fail(step, "needs at least one tuple to add")
    scope = dict(params)
    scope.update({u.name: u.ty for u in nf.universals})
    _check_rows(step, step.groups, nf.existentials, scope)
    return StepResult(step, nf, prem.rows + step.groups, oracle=prem.oracle)


def _rule_tuple_merge(step, nf, prems, params, model):
    if len(prems) != 2:
        _fail(step, "needs exactly two premises")
    a, b = prems
    if not (alpha_eq_nf(nf, a.nf) and alpha_eq_nf(nf, b.nf)):
        _fail(step, "both premises must share the conclusion normal form")
    oracle = a.oracle or b.oracle
    if a.oracle and b.oracle:
        _fail(step, "cannot merge two oracle obligations")
    return StepResult(step, nf, a.rows + b.rows, oracle=oracle)


def _rule_monotone_mp(step, nf, prems, params, model):
    if len(prems) != 2:
        _fail(step, "needs exactly two premises")
    main, impl = prems
    if impl.nf.existentials:
        _fail(step, "second premise must be existential-free")
    if nf.universals != main.nf.universals or \
            nf.existentials != main.nf.existentials:
        _fail(step, "conclusion blocks must match the first premise")
    if impl.nf.universals != main.nf.universals:
        _fail(step, "second premise must share the universal block")
    want = foralls(list(nf.existentials),
                   Implies(main.nf.matrix, nf.matrix), node=Forall)
    if not alpha_eq_f(impl.nf.matrix, want):
        _fail(step, "second premise must be the pointwise implication "
                    "under plain universals: " + show_formula(want))
    return StepResult(step, nf, main.rows, oracle=main.oracle)


def _rule_least_witness(step, nf, prems, params, model):
    if len(prems) != 1:
        _fail(step, "needs exactly one premise")
    prem = prems[0]
    if model is None:
        _fail(step, "needs a model to certify monotonicity in the witness")
    if not alpha_eq_nf(nf, prem.nf):
        _fail(step, "conclusion must repeat the premise normal form")
    names = [v.name for v in nf.existentials]
    if step.name not in names:
        _fail(step, f"{step.name!r} is not an existential")
    idx = names.index(step.name)
    if nf.existentials[idx].ty != N:
        _fail(step, f"{step.name!r} is not a numeric witness slot")
    if not monotone_in_witness(model, prem.nf, step.name):
        _fail(step, f"matrix is not upward monotone in {step.name!r}")
    if len(step.groups) not in (1, len(prem.rows)):
        _fail(step, "needs one replacement term, or one per candidate")
    terms = [g[0] for g in step.groups]
    if any(len(g) != 1 for g in step.groups):
        _fail(step, "replacement groups must be single terms")
    scope = dict(params)
    scope.update({u.name: u.ty for u in nf.universals})
    for t in terms:
        _no_muscan(step, t)
        loose = {w.name for w in free_vars(t)} - set(scope)
        if loose:
            _fail(step, f"open replacement term: unbound {sorted(loose)}")
        if infer_type(t, dict(scope)) != N:
            _fail(step, "replacement term must be numeric")
    if len(terms) == 1:
        terms = terms * len(prem.rows)
    rows = tuple(row[:idx] + (t,) + row[idx + 1:]
                 for row, t in zip(prem.rows, terms))
    return StepResult(step, nf, rows, oracle=prem.oracle)


_RULE_HANDLERS = {
    "NF-AXIOM": _rule_nf_axiom,
    "FORALL-INTRO": _rule_forall_intro,
    "FORALL-ELIM": _rule_forall_elim,
    "EXISTS-WITNESS": _rule_exists_witness,
    "WEAKEN": _rule_weaken,
    "TUPLE-MERGE": _rule_tuple_merge,
    "MONOTONE-MP": _rule_monotone_mp,
    "LEAST-WITNESS": _rule_least_witness,
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


def _require_closed(t: Term, report: ScriptReport) -> Term:
    loose = sorted(v.name for v in free_vars(t))
    if loose:
        unmet = [o for o in report.obligations if o in loose]
        if unmet:
            raise ScriptError("unrealized declared oracle (qf-ac) left "
                              f"free: unmet obligations {unmet}")
        raise ScriptError(f"extracted term is open: unbound {loose}")
    return t


def extract_terms(report: ScriptReport) -> Term:
    """Closed realizing term ``\\xs. <seq of witness tuples>`` for the
    final step of a replayed script.  An oracle obligation left free in
    the tuples makes the term open, which is an error."""
    nf, rows = report.final.nf, report.final.rows
    if not nf.existentials:
        raise ScriptError("final step has no existentials to extract")
    if not rows:
        raise ScriptError("final step has no candidate tuples")
    tupty = _tuple_type(nf.existentials)
    seq = empty_c(tupty)
    for row in rows:
        seq = app(append_c(tupty), seq, _tuple_term(nf.existentials, row))
    return _require_closed(lam(*nf.universals, seq), report)


def extract_function(report: ScriptReport) -> Term:
    """Single-witness extraction: ``\\xs. witness`` instead of a
    candidate sequence.  Demands exactly one tuple with one slot."""
    final = report.final
    if len(final.rows) != 1 or len(final.nf.existentials) != 1:
        raise ScriptError("function extraction needs exactly one candidate "
                          "and one witness slot; got "
                          f"{len(final.rows)} candidate(s) over "
                          f"{len(final.nf.existentials)} slot(s)")
    return _require_closed(lam(*final.nf.universals, final.rows[0][0]),
                           report)


# ---------------------------------------------------------------------------
# post-processing: project, collapse, re-internalize


def leastz_t() -> Term:
    """leastz f y = least i <= y with f(i) = 0, else 0.  The honest
    counterpart of the model's scanner: a bounded recursion."""
    f, y = Var("f", pure(1)), Var("y", N)
    r = app(stdterms.bmin_t(), f, y)
    return lam(f, y, app(stdterms.ifpos_t(),
                         app(stdterms.leq_t(), r, y), r, num(0)))


@dataclass(frozen=True)
class PostResult:
    selector: Term   # \xs. seq of the target slot of each candidate
    bound: Term      # \xs. max entry of the selector sequence
    formula: Formula  # re-internalized implication using the bound


def postprocess(t: Term, nf: NormalForm, target: str) -> PostResult:
    """Collapse the target slot of an extracted candidate term to a
    single max bound, and state the resulting internal implication."""
    names = [v.name for v in nf.existentials]
    if target not in names:
        raise ScriptError(f"{target!r} is not a witness slot of the "
                          "normal form")
    idx = names.index(target)
    if nf.existentials[idx].ty != N:
        raise ScriptError(f"non-numeric target slot {target!r}: "
                          f"{show_type(nf.existentials[idx].ty)}")

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
    selector = lam(*xs, picked)
    bound = lam(*xs, App(SEQMAX, picked))

    matrix = nf.matrix
    rest = [v for v in nf.existentials if v.name != target]
    if isinstance(matrix, Implies):
        ant, cons = matrix.left, matrix.right
    else:
        ant, cons = None, matrix
    stray = {v.name for v in free_vars_f(cons)} & {v.name for v in rest}
    if stray:
        raise ScriptError("consequent mentions witness slots other than "
                          f"the target: {sorted(stray)}")
    cons = subst_f(cons, nf.existentials[idx], app(bound, *xs))
    body = Implies(foralls(rest, ant, node=Forall), cons) if ant else cons
    return PostResult(selector, bound, foralls(list(xs), body, node=Forall))


# ---------------------------------------------------------------------------
# candidate checking in a model


@dataclass
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
    from .interp import ModelError
    if ty == N:
        return str(v)
    try:
        return str(model.canon_key(ty, v))
    except ModelError:
        return "<value>"


def check_candidates(model, nf: NormalForm, rows: tuple[Row, ...],
                     plans: dict[str, str] | None = None,
                     env: dict | None = None) -> CandidateReport:
    """Sweep the universals and test that some candidate tuple satisfies
    the matrix at every assignment.

    ``plans`` maps a universal name to ``"all"`` (full enumeration),
    ``"st"`` (declared/standard population, the default — the block is
    a forall^st), or the name of a declared object to pin the universal
    to that one value.  ``env`` supplies values for oracle names left
    free in the rows.
    """
    from .interp import ModelError, eval_formula, eval_term

    plans = plans or {}
    base_env = dict(model.env())
    if env:
        base_env.update(env)
    pools = []
    for v in nf.universals:
        plan = plans.get(v.name, "st")
        if plan in ("st", "all"):
            pools.append(model.population(v.ty, standard=(plan == "st")))
            continue
        try:
            pools.append([model.object(plan)])
        except ModelError:
            raise ScriptError(
                f"unknown sweep plan {plan!r} for {v.name}") from None

    # An implication's antecedent is evaluated once per candidate, and
    # its consequent only where the antecedent holds.
    antecedent, consequent = ((nf.matrix.left, nf.matrix.right)
                              if isinstance(nf.matrix, Implies)
                              else (None, nf.matrix))
    was_overflowed, model.overflowed = model.overflowed, False
    checked, genuine = 0, 0
    failures: list[str] = []
    for combo in itertools.product(*pools):
        checked += 1
        env0 = dict(base_env)
        for v, val in zip(nf.universals, combo):
            env0[v.name] = val
        hit = False
        for row in rows:
            env1 = dict(env0)
            for v, t in zip(nf.existentials, row):
                env1[v.name] = eval_term(model, t, env1)
            vacuous = (antecedent is not None
                       and not eval_formula(model, antecedent, env=env1))
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
    return CandidateReport(ok=not failures, checked=checked,
                           failures=tuple(failures),
                           antecedent_vacuous=(genuine == 0 and not failures),
                           overflowed=overflowed)


# ---------------------------------------------------------------------------
# explicit implications


@dataclass
class ExplicitImplication:
    """A proved implication together with its explicit term content."""
    source: str
    target: str
    forward_term: Term | None
    backward_term: Term | None
    bound_term: Term | None = None
    flags: tuple[str, ...] = ()
    stages: tuple[tuple[str, str], ...] = ()

    def stage_lines(self) -> list[str]:
        return [f"{tag}: {line}" for tag, line in self.stages]


def compose_explicit(ab: ExplicitImplication,
                     bc: ExplicitImplication) -> ExplicitImplication:
    """Compose A => B with B => C.  Terms compose as functions on their
    first argument; currying carries any remaining arguments."""
    if ab.target != bc.source:
        raise ScriptError(f"signature mismatch: {ab.source}=>{ab.target} "
                          f"cannot feed {bc.source}=>{bc.target}")
    forward = None
    if ab.forward_term is not None and bc.forward_term is not None:
        dom = infer_type(ab.forward_term)
        mid = infer_type(bc.forward_term)
        if not (isinstance(dom, Arrow) and isinstance(mid, Arrow)
                and dom.cod == mid.dom):
            raise ScriptError(
                "signature mismatch: forward terms do not chain "
                f"({show_type(dom)} then {show_type(mid)})")
        v = Var("v0", dom.dom)
        forward = lam(v, App(bc.forward_term, App(ab.forward_term, v)))
    backward = None
    flags = tuple(sorted(set(ab.flags) | set(bc.flags)))
    if ab.backward_term is not None and bc.backward_term is not None:
        dom = infer_type(bc.backward_term)
        mid = infer_type(ab.backward_term)
        if not (isinstance(dom, Arrow) and isinstance(mid, Arrow)
                and dom.cod == mid.dom):
            raise ScriptError(
                "signature mismatch: backward terms do not chain "
                f"({show_type(dom)} then {show_type(mid)})")
        w = Var("w0", dom.dom)
        backward = lam(w, App(ab.backward_term, App(bc.backward_term, w)))
    else:
        flags = tuple(sorted(set(flags) | {"backward-missing"}))
    return ExplicitImplication(ab.source, bc.target, forward, backward,
                               flags=flags,
                               stages=ab.stages + bc.stages)


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
    implication terms.  Errors carry the failing stage tag."""
    eid = entry.ident
    model = entry.model
    stages: list[tuple[str, str]] = []
    flags: set[str] = set()

    mode = getattr(entry, "mode", "direct")
    nf = _stage(eid, "normalize",
                lambda: normalize_principle(entry.principle, accept=mode))
    stages.append(("normalize", show_nf(nf)))

    if entry.expect is not None:
        if nf != entry.expect:
            raise ScriptError(f"{eid}/expect: normal form differs from the "
                              f"stored expectation:\n  got  {show_nf(nf)}\n"
                              f"  want {show_nf(entry.expect)}")
        stages.append(("expect", "normal form matches stored expectation"))

    forward_term = bound = None
    if entry.forward is not None:
        rep = _stage(eid, "check-forward",
                     lambda: check_script(entry.forward, model))
        stages.extend(("check-forward", l) for l in rep.lines())
        if not alpha_eq_nf(rep.final.nf, nf):
            raise ScriptError(f"{eid}/align: forward script concludes "
                              f"{show_nf(rep.final.nf)}, but the principle "
                              f"normalizes to {show_nf(nf)}")
        stages.append(("align", "script conclusion matches the normal form"))
        oracle_env = _stage(eid, "oracles",
                            lambda: discharge_obligations(model, rep))
        if oracle_env:
            stages.append(("oracles", "discharged: "
                           + ", ".join(sorted(oracle_env))))
            flags.add("oracle-discharged-in-model")
        final = rep.final
        cand = _stage(eid, "candidates-forward",
                      lambda: check_candidates(model, final.nf, final.rows,
                                               entry.plans, env=oracle_env))
        stages.append(("candidates-forward", cand.line()))
        if not cand.ok:
            raise ScriptError(f"{eid}/candidates-forward: {cand.line()}")
        if cand.antecedent_vacuous:
            flags.add("antecedent-vacuous")
        if cand.overflowed:
            flags.add("overflowed")
        if not oracle_env:
            t = _stage(eid, "extract-forward",
                       lambda: extract_terms(rep))
            post = _stage(eid, "postprocess",
                          lambda: postprocess(t, final.nf, entry.witness))
            bound = post.bound
            stages.append(("postprocess",
                           f"bound {show_term_brief(post.bound)}"))
            forward_term = _stage(eid, "collapse",
                                  lambda: _mu_collapse(final.nf, post.bound))
            stages.append(("collapse", show_term_brief(forward_term)))
        else:
            flags.add("forward-term-withheld")

    backward_term = None
    if entry.backward is not None:
        rep = _stage(eid, "check-backward",
                     lambda: check_script(entry.backward, model))
        stages.extend(("check-backward", l) for l in rep.lines())
        final = rep.final
        cand = _stage(eid, "candidates-backward",
                      lambda: check_candidates(model, final.nf, final.rows,
                                               entry.plans_backward))
        stages.append(("candidates-backward", cand.line()))
        if not cand.ok:
            raise ScriptError(f"{eid}/candidates-backward: {cand.line()}")
        if cand.antecedent_vacuous:
            flags.add("backward-antecedent-vacuous")
        backward_term = _stage(eid, "extract-backward",
                               lambda: extract_function(rep))

    return ExplicitImplication(entry.source, entry.target,
                               forward_term, backward_term, bound_term=bound,
                               flags=tuple(sorted(flags)),
                               stages=tuple(stages))


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


def discharge_obligations(model, report: ScriptReport) -> dict:
    """Resolve qf-ac oracle obligations by exhaustive search over the
    declared population of the oracle's type.  Returns name -> value."""
    from .interp import eval_formula

    out: dict = {}
    for res in report.results:
        if res.oracle is None or res.step.rule != "NF-AXIOM":
            continue
        w = res.nf.existentials[0]
        body = foralls(list(res.nf.universals), res.nf.matrix,
                       node=ForallSt)
        found = None
        for cand in model.population(w.ty, standard=True):
            env = dict(model.env())
            env[w.name] = cand
            if eval_formula(model, body, env=env):
                found = cand
                break
        if found is None:
            raise ScriptError(f"obligation {w.name!r}: no declared witness "
                              "satisfies the choice axiom in the model")
        out[w.name] = found
    return out


def show_term_brief(t: Term, limit: int = 120) -> str:
    s = show_term(t)
    return s if len(s) <= limit else s[:limit - 3] + "..."
