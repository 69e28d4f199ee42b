"""Concrete syntax for types, terms and formulas.

Grammar sketch (precedence low to high):

    formula  :=  or ('->' formula)?              right-associative
    or       :=  and ('\\/' and)*
    and      :=  unary ('/\\' unary)*
    unary    :=  '~' unary | prefix formula | atom
    prefix   :=  '(' Q '^st'? binders ')'
    atom     :=  term REL term | '(' formula ')'
    Q        :=  'forall' | 'exists'
    REL      :=  '=' | '!='                 s != t is ~(s = t)
    binders  :=  NAME (',' NAME)* ':' type (',' binders)?
    term     :=  '\\' NAME ':' type '.' term | primary args*
    args     :=  '(' term (',' term)* ')'
    primary  :=  NUMBER | NAME | CONST ('[' type (',' type)* ']')?
              |  '(' term ')'
    type     :=  tatom ('->' type)?              right-associative
    tatom    :=  NUMBER | '(' type ')'           the numeral n is pure(n)

Quantifier prefixes are parenthesized: ``(forall x:1)``, ``(exists^st
y:0)``, ``(forall x, y:0, f:1)``; in a binder list, names before a
``:`` share its type.  There is no bounded quantifier and no ``<=``: as
in E-PA^omega, whose prime formulas are equations, ``s <= t`` is
``monus(s, t) = 0``, so ``(exists z <= t) A`` is written ``(exists
z:0) monus(z, t) = 0 /\\ A``.  A quantifier's body extends as far
right as possible; to keep that readable, a quantifier is rejected
directly under ``~`` or as the right operand of ``/\\`` or ``\\/`` —
wrap it in parentheses instead.

Formulas are typed as they are parsed: both sides of ``=`` and ``!=``
at one type, any type (above type 0 equality is extensional).  A term
of the wrong type fails where it starts; the sides of ``=`` or ``!=``
at two types fail at the relation.  That t is standard is written
``(exists^st y:T) y = t``; that s and t of type 1 agree at standard
arguments, ``(forall^st u:0) s(u) = t(u)``; a true and a false
formula, ``0 = 0`` and ``0 != 0``.

A constant's name and a keyword are reserved, and no binder, nor a
``params`` name of ``parse_term`` or ``parse_formula``, may take one:
the constant or keyword would take every read.  A polymorphic constant
writes its type arguments in brackets (``rec[0]``);
``terms.POLYMORPHIC`` says how many it takes.

The same tokens and ``Parser`` read witness-row scripts
(``extract.parse_script``, which also uses the symbol ``;``).  A
``.nf`` file is a normal form, which is a formula: ``translate.parse_nf``
reads it with ``parse_formula`` and checks its shape with
``nf_blocks``.  Blanks, newlines and ``#`` comments separate
tokens and carry no other meaning, so a formula or term may run over
lines.
"""
from __future__ import annotations

import re

from .formulas import (And, Atom, Exists, ExistsSt, Forall, ForallSt,
                       Formula, Implies, Not, Or)
from .terms import (Abs, CONST_NAMES, MONOMORPHIC, POLYMORPHIC, Term,
                    TypeCheckError, Var, app, infer_type, num)
from .types import Arrow, FiniteType, pure, record, show_type


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


KEYWORDS = frozenset(["forall", "exists"])

_SYMBOLS = ["->", "/\\", "\\/", "!=", ":=", "^st",
            "(", ")", "[", "]", ",", ":", ".", "~", "=", "\\", ";"]

# Blanks, then one token, a newline, a comment, a character that starts
# none of them ("bad"), or the end of the input (no group).  Symbols are
# tried in the order above, longest first.  Names and numbers are ASCII:
# a number is a run of the digits 0-9; a name starts with an ASCII
# letter or "_" and goes on with those, digits and "'".  Any other
# character outside a comment is "bad".
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|(?P<comment>#[^\n]*)"
    r"|(?P<num>\d+)|(?P<ident>[^\W\d][\w']*)"
    r"|(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + r")|(?P<bad>.)|\Z)",
    re.ASCII)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "num" | "ident" | "sym" | "eof"
        self.text = text
        self.line = line
        self.col = col


def tokenize(src: str) -> list[Token]:
    """The tokens of src, ending in an "eof" token.  Lines and columns
    count from 1; a comment runs to the end of its line and takes no
    column, so input ending in a comment ends at the comment's column."""
    toks: list[Token] = []
    line, start = 1, 0      # start: position of the line's first character
    pos = 0
    eof = n = len(src)
    match = _TOKEN.match
    while pos < n:
        m = match(src, pos)
        kind = m.lastgroup
        if kind is None:
            break
        at, pos = m.start(kind), m.end()
        if kind == "newline":
            line += 1
            start = pos
        elif kind == "comment":
            if pos == n:
                eof = at
        elif kind == "bad":
            raise ParseError(f"unexpected character {src[at]!r}", line,
                             at - start + 1)
        else:
            toks.append(Token(kind, src[at:pos], line, at - start + 1))
    toks.append(Token("eof", "", line, eof - start + 1))
    return toks


@record
class Parser:
    """The parser: a cursor over the tokens, and the variables in
    scope.  ``pos`` is a plain index, so a reader may look ahead and
    come back."""
    toks: list[Token]
    pos: int
    env: dict[str, Var]

    def peek(self, ahead: int = 0) -> Token:
        """The token ``ahead`` places on; the "eof" token past the end
        (``next`` never moves past it)."""
        if ahead:
            toks = self.toks
            return toks[min(self.pos + ahead, len(toks) - 1)]
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_sym(self, s: str) -> bool:
        t = self.toks[self.pos]
        return t.text == s and t.kind == "sym"

    def at_kw(self, w: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.text == w and t.kind == "ident"

    def expect_sym(self, s: str) -> Token:
        if not self.at_sym(s):
            self.expected(repr(s))
        return self.next()

    def take(self, text: str) -> bool:
        """Step over the symbol or keyword ``text`` if it is at the
        cursor.  (Texts tell the kinds apart: no symbol is a name, and
        no keyword is a number.)"""
        if self.toks[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def expected(self, what: str):
        self.fail(self.expecting(what))

    def expecting(self, what: str) -> str:
        found = self.peek().text or "end of input"
        return f"expected {what}, found {found!r}"

    def bound_name(self, missing: str) -> str:
        """The name a binder binds, the cursor past it, and not a
        reserved one; ``missing`` is the error where no name is."""
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(missing)
        _refuse_reserved(tok.text, tok.line, tok.col)
        self.next()
        return tok.text

    def number(self) -> int:
        """The number at the cursor, the cursor past it: each caller has
        seen a "num" token there."""
        return int(self.next().text)

    def closing(self, i: int) -> int:
        """The index of the token that closes the '(' or '[' at token i,
        or of the "eof" token if none does."""
        toks, depth = self.toks, 0
        while True:
            t = toks[i].text
            if t == "(" or t == "[":
                depth += 1
            elif t == ")" or t == "]":
                depth -= 1
                if depth == 0:
                    return i
            elif not t:     # the "eof" token
                return i
            i += 1

    def binders(self) -> list[Var]:
        """A binder list ``x:T, y, z:U``: names before a ':' share its
        type."""
        out: list[Var] = []
        pending: list[str] = []
        while True:
            pending.append(self.bound_name(self.expecting("a variable")))
            if self.take(","):  # more names share the coming type
                continue
            self.expect_sym(":")
            ty = self.parse_type()
            out.extend(Var(name, ty) for name in pending)
            pending = []
            if not self.take(","):
                return out

    def scoped(self, variables: list[Var], read):
        """``read()`` with ``variables`` in scope, each shadowing its
        name until ``read`` returns."""
        env = self.env
        outer = {v.name: env.get(v.name) for v in variables}
        env.update((v.name, v) for v in variables)
        out = read()
        for name, prev in outer.items():
            if prev is None:
                del env[name]
            else:
                env[name] = prev
        return out

    def listed(self, read, close: str) -> list:
        """``read()`` once, and again after each ',', then the symbol
        ``close``."""
        out = [read()]
        while self.take(","):
            out.append(read())
        self.expect_sym(close)
        return out

    # -- types --------------------------------------------------------------

    def parse_type(self) -> FiniteType:
        left = self._type_atom()
        if self.take("->"):
            return Arrow(left, self.parse_type())
        return left

    def _type_atom(self) -> FiniteType:
        tok = self.peek()
        if tok.kind == "num":
            return pure(self.number())
        if self.take("("):
            ty = self.parse_type()
            self.expect_sym(")")
            return ty
        self.expected("a type")

    # -- terms --------------------------------------------------------------

    def parse_term(self) -> Term:
        if self.take("\\"):
            name = self.bound_name("expected a variable after '\\'")
            self.expect_sym(":")
            v = Var(name, self.parse_type())
            self.expect_sym(".")
            return Abs(v, self.scoped([v], self.parse_term))
        return self._term_app()

    def _term_app(self) -> Term:
        t = self._term_primary()
        # no argument opens with a keyword, so a '(' that opens a
        # quantifier prefix ends the term: a script's prefix follows its
        # last let
        while self.at_sym("(") and not self._at_quant():
            self.next()
            t = app(t, *self.listed(self.parse_term, ")"))
        return t

    # A term parsed here takes each free variable from ``env`` as it is
    # now, so ``env`` agrees with it and its type is ``infer_type`` of
    # the term alone.

    def _constant(self, name: str, tok: Token) -> Term:
        """The constant ``name``, the cursor past it; a polymorphic one
        reads its type arguments, ``name[T, ...]``, as the table in
        ``terms`` says."""
        c = MONOMORPHIC.get(name)
        if c is not None:
            return c
        make, arity, _ = POLYMORPHIC[name]
        self.expect_sym("[")
        args = self.listed(self.parse_type, "]")
        if len(args) != arity:
            raise ParseError(f"{name} takes {arity} type argument(s)",
                             tok.line, tok.col)
        return make(*args)

    def _term_primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "num":
            return num(self.number())
        if tok.kind == "ident":
            name = tok.text
            if name in CONST_NAMES:
                self.next()
                return self._constant(name, tok)
            if name in self.env:
                self.next()
                return self.env[name]
            if name in KEYWORDS:
                self.fail(f"keyword {name!r} is not a term")
            self.fail(f"unbound variable {name!r}")
        if self.take("("):
            t = self.parse_term()
            self.expect_sym(")")
            return t
        self.expected("a term")

    # -- formulas -----------------------------------------------------------

    def parse_formula(self) -> Formula:
        left = self._f_or()
        if self.take("->"):
            return Implies(left, self.parse_formula())
        return left

    def _f_or(self) -> Formula:
        left = self._f_and()
        while self.take("\\/"):
            self._reject_bare_quant("\\/")
            left = Or(left, self._f_and())
        return left

    def _f_and(self) -> Formula:
        left = self._f_unary()
        while self.take("/\\"):
            self._reject_bare_quant("/\\")
            left = And(left, self._f_unary())
        return left

    def _at_quant(self) -> bool:
        return (self.at_sym("(") and
                (self.at_kw("forall", 1) or self.at_kw("exists", 1)))

    def _reject_bare_quant(self, op: str) -> None:
        if self._at_quant():
            t = self.peek()
            raise ParseError(
                f"ambiguous quantifier scope after {op!r}; parenthesize the "
                "quantified formula", t.line, t.col)

    def _f_unary(self) -> Formula:
        if self.at_sym("~"):
            tok = self.next()
            if self._at_quant():
                raise ParseError(
                    "ambiguous quantifier scope under '~'; parenthesize the "
                    "quantified formula", tok.line, tok.col)
            return Not(self._f_unary())
        if self._at_quant():
            return self._f_quant()
        return self._f_atom()

    def _f_quant(self) -> Formula:
        self.expect_sym("(")
        kw = self.next()  # forall | exists
        is_forall = kw.text == "forall"
        is_st = self.take("^st")
        variables = self.binders()
        self.expect_sym(")")
        body = self.scoped(variables, self.parse_formula)
        node = (ForallSt if is_st else Forall) if is_forall else \
               (ExistsSt if is_st else Exists)
        for v in reversed(variables):
            body = node(v, body)
        return body

    def _f_atom(self) -> Formula:
        if self.at_sym("(") and not self._opens_term():
            self.next()
            f = self.parse_formula()
            self.expect_sym(")")
            return f
        return self._f_relation()

    def _opens_term(self) -> bool:
        """Whether the '(' at the cursor opens a term, not a formula:
        the token after its matching ')' is a relation or opens an
        argument list."""
        i = self.closing(self.pos)
        if self.toks[i].kind == "eof":
            return False
        after = self.toks[i + 1]
        return after.text in _AFTER_TERM

    def typed_term(self) -> tuple[Term, FiniteType]:
        """A term and its type; an ill-typed term fails where it
        starts."""
        tok = self.peek()
        t = self.parse_term()
        try:
            return t, infer_type(t)
        except TypeCheckError as e:
            raise ParseError(str(e), tok.line, tok.col) from None

    def _f_relation(self) -> Formula:
        l, lty = self.typed_term()
        tok = self.peek()
        rel = tok.text
        if rel not in _RELATIONS:
            self.expected("a relation")
        self.next()
        r, rty = self.typed_term()
        if lty != rty:
            raise ParseError(f"{rel} needs equal types, got "
                             f"{show_type(lty)} and {show_type(rty)}",
                             tok.line, tok.col)
        eq = Atom((l, r))
        return eq if rel == "=" else Not(eq)


_RELATIONS = frozenset(["=", "!="])
# what may follow a parenthesized term in an atom
_AFTER_TERM = _RELATIONS | {"("}


# ---------------------------------------------------------------------------
# public entry points

def parse_type(src: str) -> FiniteType:
    return _read_all(src, None, Parser.parse_type, "type")


def parse_term(src: str, params: dict[str, FiniteType] | None = None) -> Term:
    return _read_all(src, params, Parser.parse_term, "term")


def parse_formula(src: str, params: dict[str, FiniteType] | None = None
                  ) -> Formula:
    return _read_all(src, params, Parser.parse_formula, "formula")


def _refuse_reserved(name: str, line: int, col: int) -> None:
    """A ParseError at line:col when a variable may not take ``name``."""
    for kind, names in (("a constant", CONST_NAMES), ("a keyword", KEYWORDS)):
        if name in names:
            raise ParseError(f"{name!r} is {kind}, not a variable name",
                             line, col)


def _read_all(src: str, params: dict[str, FiniteType] | None, read, what):
    """``read`` over all of src, with ``params`` as its free variables; a
    reserved ``params`` name fails at 1:1."""
    params = params or {}
    for name in params:
        _refuse_reserved(name, 1, 1)
    env = {name: Var(name, ty) for name, ty in params.items()}
    p = Parser(tokenize(src), 0, env)
    out = read(p)
    if p.peek().kind != "eof":
        p.fail(f"trailing input after {what}")
    return out
