"""Concrete syntax for types, terms and formulas.

Grammar sketch (precedence low to high):

    formula  :=  or ('->' formula)?              right-associative
    or       :=  and ('\\/' and)*
    and      :=  unary ('/\\' unary)*
    unary    :=  '~' unary | quantified | atom
    atom     :=  st(t) | eq[T](s,t) | approx[T](s,t) | true | false
               | term REL term | '(' formula ')'
    REL      :=  '=' | '!=' | '<=' | '<' | 'in'
    binders  :=  NAME (',' NAME)* ':' type (',' binders)?

Quantifier prefixes are parenthesized: ``(forall x:1)``, ``(exists^st
y:0)``, ``(forall x, y:0, f:1)``, ``(forall n <= t)``, ``(exists v in
s)``; in a binder list, names before a ``:`` share its type.  A
quantifier's body extends as far right as possible; to keep that
readable, a quantifier is rejected directly under ``~`` or as the right
operand of ``/\\`` or ``\\/`` — wrap it in parentheses instead.

Formulas are typed as they are parsed: both sides of ``=`` at one type,
the arguments of ``<=`` and ``<`` and the ``<=``/``<`` bounds at type 0,
``in`` between a number and a type-1 set, the sides of ``eq[T]`` and
``approx[T]`` at T, and the term under ``st`` well-typed.

The same tokens and ``Parser`` read the files that embed this syntax:
proof scripts (``extract.parse_script``, which also uses the symbols
``-`` and ``;``) and normal forms (``translate.parse_nf``, whose blocks
are binder lists).  Blanks, newlines and ``#`` comments separate tokens
and carry no other meaning, so a formula or term may run over lines.
"""
from __future__ import annotations

import re

from .formulas import (And, ApproxEq, Atom, BExists, BForall, Eq, Exists,
                       ExistsSt, FALSE, Forall, ForallSt, Formula, Implies,
                       Not, Or, St, TRUE)
from .terms import (Abs, CONST_NAMES, INITSEG, MAX2, MONUS, MUSCAN, NPAIR,
                    NUNL, NUNR, PLUS, RUN, SEQMAX, SUCC, Term, TypeCheckError,
                    Var, app, append_c, empty_c, fst_c, get_c, infer_type,
                    len_c, num, pair_c, rec_c, seqapp_c, snd_c)
from .types import Arrow, FiniteType, N, Product, Seq, pure, record, show_type


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


KEYWORDS = frozenset(["forall", "exists", "st", "in", "eq", "approx",
                      "true", "false"])

_SYMBOLS = ["->", "/\\", "\\/", "!=", "<=", ":=", "^st",
            "(", ")", "[", "]", ",", ":", ".", "*", "~", "<", "=", "\\",
            "-", ";"]

# Blanks, then one token, a newline, a comment, a character that starts
# none of them ("bad"), or the end of the input (no group).  Symbols are
# tried in the order above, longest first.  A number is a run of digits;
# a name starts with a letter or "_" and goes on with letters, digits,
# "_" and "'", where letters and digits are those of ``str.isalpha`` and
# ``str.isdigit``.  The regex classes agree with those on ASCII; on
# other characters ``_word`` decides.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|(?P<comment>#[^\n]*)"
    r"|(?P<num>\d+)|(?P<ident>[^\W\d][\w']*)"
    r"|(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + r")|(?P<bad>.)|\Z)")


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
    ascii_only = src.isascii()
    match = _TOKEN.match
    while pos < n:
        m = match(src, pos)
        kind = m.lastgroup
        if kind is None:
            break
        at, pos = m.start(kind), m.end()
        if (kind == "num" or kind == "ident") and not ascii_only:
            kind, pos = _word(src, at)
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


def _word(src: str, i: int) -> tuple[str, int]:
    """Kind and end of the number or name at i, by ``str.isdigit`` and
    ``str.isalpha``, which the regex classes do not match outside ASCII:
    "²" is a digit but not a ``\\d``, "½" is a ``\\w`` but neither a
    digit nor a letter; kind "bad" when the character starts no token."""
    n, j = len(src), i
    if src[i].isdigit():
        while j < n and src[j].isdigit():
            j += 1
        return "num", j
    if src[i].isalpha() or src[i] == "_":
        while j < n and (src[j].isalnum() or src[j] in "_'"):
            j += 1
        return "ident", j
    return "bad", i


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
        self.fail(f"expected {what}, found "
                  f"{self.peek().text or 'end of input'!r}")

    def number(self) -> int:
        t = self.peek()
        if t.kind != "num":
            self.expected("a number")
        try:
            value = int(t.text)
        except ValueError:  # a digit that is no decimal digit, like "²"
            self.fail(f"bad number {t.text!r}")
        self.next()
        return value

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
            t = self.peek()
            if t.kind != "ident":
                self.expected("a variable")
            self.next()
            pending.append(t.text)
            if self.take(","):  # more names share the coming type
                continue
            self.expect_sym(":")
            ty = self.parse_type()
            out.extend(Var(name, ty) for name in pending)
            pending = []
            if not self.take(","):
                return out

    # -- types --------------------------------------------------------------

    def parse_type(self) -> FiniteType:
        left = self._type_prod()
        if self.take("->"):
            return Arrow(left, self.parse_type())
        return left

    def _type_prod(self) -> FiniteType:
        left = self._type_post()
        while self.take("x"):
            left = Product(left, self._type_post())
        return left

    def _type_post(self) -> FiniteType:
        t = self._type_atom()
        while self.take("*"):
            t = Seq(t)
        return t

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
            tok = self.peek()
            if tok.kind != "ident":
                self.fail("expected a variable after '\\'")
            self.next()
            self.expect_sym(":")
            ty = self.parse_type()
            v = Var(tok.text, ty)
            self.expect_sym(".")
            old = self.env.get(tok.text)
            self.env[tok.text] = v
            body = self.parse_term()
            if old is None:
                del self.env[tok.text]
            else:
                self.env[tok.text] = old
            return Abs(v, body)
        return self._term_app()

    def _term_app(self) -> Term:
        t = self._term_primary()
        while True:
            if self.take("("):
                args = [self.parse_term()]
                while self.take(","):
                    args.append(self.parse_term())
                self.expect_sym(")")
                t = app(t, *args)
            elif self.at_sym("["):
                open_tok = self.peek()
                self.next()
                args = [self.parse_term()]
                while self.take(","):
                    args.append(self.parse_term())
                self.expect_sym("]")
                for a in args:
                    t = self._mk_seqapp(t, a, open_tok)
            else:
                return t

    # A term parsed here takes each free variable from ``env`` as it is
    # now, so ``env`` agrees with it and its type is ``infer_type`` of
    # the term alone.

    def _mk_seqapp(self, fn: Term, arg: Term, tok: Token) -> Term:
        try:
            fty = infer_type(fn)
            aty = infer_type(arg)
        except TypeCheckError as e:
            raise ParseError(str(e), tok.line, tok.col) from None
        if not isinstance(fty, Arrow) or fty.dom != aty:
            raise ParseError("candidate application Y[x] needs a function "
                             "matching the argument type", tok.line, tok.col)
        return app(seqapp_c(fty.dom, fty.cod), fn, arg)

    def _const_type_args(self, name: str, tok: Token) -> Term:
        def tyargs(k: int) -> list[FiniteType]:
            self.expect_sym("[")
            out = [self.parse_type()]
            while self.take(","):
                out.append(self.parse_type())
            self.expect_sym("]")
            if len(out) != k:
                raise ParseError(f"{name} takes {k} type argument(s)",
                                 tok.line, tok.col)
            return out

        if name == "succ":
            return SUCC
        if name == "plus":
            return PLUS
        if name == "monus":
            return MONUS
        if name == "max":
            return MAX2
        if name == "npair":
            return NPAIR
        if name == "nunl":
            return NUNL
        if name == "nunr":
            return NUNR
        if name == "seqmax":
            return SEQMAX
        if name == "initseg":
            return INITSEG
        if name == "run":
            return RUN
        if name == "muscan":
            return MUSCAN
        if name == "rec":
            return rec_c(*tyargs(1))
        if name == "empty":
            return empty_c(*tyargs(1))
        if name == "append":
            return append_c(*tyargs(1))
        if name == "len":
            return len_c(*tyargs(1))
        if name == "get":
            return get_c(*tyargs(1))
        if name == "pair":
            return pair_c(*tyargs(2))
        if name == "fst":
            return fst_c(*tyargs(2))
        if name == "snd":
            return snd_c(*tyargs(2))
        if name == "seqapp":
            return seqapp_c(*tyargs(2))
        raise ParseError(f"unknown constant {name}", tok.line, tok.col)

    def _term_primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "num":
            return num(self.number())
        if tok.kind == "ident":
            name = tok.text
            if name in CONST_NAMES:
                self.next()
                return self._const_type_args(name, tok)
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
        if self.at_sym("\\"):
            return self.parse_term()
        self.expected("a term")

    # -- formulas -----------------------------------------------------------

    def parse_formula(self, allow_quant: bool = True) -> Formula:
        left = self._f_or(allow_quant)
        if self.take("->"):
            return Implies(left, self.parse_formula(True))
        return left

    def _f_or(self, aq: bool) -> Formula:
        left = self._f_and(aq)
        while self.take("\\/"):
            self._reject_bare_quant("\\/")
            left = Or(left, self._f_and(False))
        return left

    def _f_and(self, aq: bool) -> Formula:
        left = self._f_unary(aq)
        while self.take("/\\"):
            self._reject_bare_quant("/\\")
            left = And(left, self._f_unary(False))
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

    def _f_unary(self, aq: bool) -> Formula:
        if self.at_sym("~"):
            tok = self.next()
            if self._at_quant():
                raise ParseError(
                    "ambiguous quantifier scope under '~'; parenthesize the "
                    "quantified formula", tok.line, tok.col)
            return Not(self._f_unary(False))
        if self._at_quant():
            if not aq:
                self._reject_bare_quant("operand")
            return self._f_quant()
        return self._f_atom()

    def _f_quant(self) -> Formula:
        self.expect_sym("(")
        kw = self.next()  # forall | exists
        is_forall = kw.text == "forall"
        is_st = self.take("^st")

        vt = self.peek()
        kind = _BOUNDS.get(self.peek(1).text) if vt.kind == "ident" else None
        if kind is None:
            binders = [(v, None, None) for v in self.binders()]
        else:  # one bounded binder per prefix
            if is_st:
                raise ParseError("bounded quantifiers cannot carry ^st",
                                 vt.line, vt.col)
            self.next()
            self.next()
            if kind == "mem":
                bound = self.parse_term()
                try:
                    bty = infer_type(bound)
                except TypeCheckError as e:
                    raise ParseError(str(e), vt.line, vt.col) from None
                if not isinstance(bty, Seq):
                    raise ParseError("'in' bound must be a sequence",
                                     vt.line, vt.col)
                binders = [(Var(vt.text, bty.elem), kind, bound)]
            else:
                bound, bty, btok = self.typed_term()
                if bty != N:
                    raise ParseError("<=-bounded quantifier needs type 0",
                                     btok.line, btok.col)
                binders = [(Var(vt.text, N), kind, bound)]
        self.expect_sym(")")

        old: dict[str, Var | None] = {}
        for v, _, _ in binders:
            old[v.name] = self.env.get(v.name)
            self.env[v.name] = v
        body = self.parse_formula(True)
        for name, prev in old.items():
            if prev is None:
                del self.env[name]
            else:
                self.env[name] = prev

        for v, kind, bound in reversed(binders):
            if kind is None:
                node = (ForallSt if is_st else Forall) if is_forall else \
                       (ExistsSt if is_st else Exists)
                body = node(v, body)
            else:
                node = BForall if is_forall else BExists
                body = node(v, kind, bound, body)
        return body

    def _f_atom(self) -> Formula:
        tok = self.peek()
        if self.take("true"):
            return TRUE
        if self.take("false"):
            return FALSE
        if self.take("st"):
            self.expect_sym("(")
            t, _, _ = self.typed_term()
            self.expect_sym(")")
            return St(t)
        if self.at_kw("eq") or self.at_kw("approx"):
            node = Eq if tok.text == "eq" else ApproxEq
            self.next()
            self.expect_sym("[")
            ty = self.parse_type()
            self.expect_sym("]")
            self.expect_sym("(")
            sides = [self.typed_term()]
            self.expect_sym(",")
            sides.append(self.typed_term())
            self.expect_sym(")")
            for _, got, at in sides:
                if got != ty:
                    raise ParseError(f"equality at {show_type(ty)} applied "
                                     f"to {show_type(got)}", at.line, at.col)
            return node(ty, sides[0][0], sides[1][0])
        if self.at_sym("(") and not self._opens_term():
            self.next()
            f = self.parse_formula(True)
            self.expect_sym(")")
            return f
        return self._f_relation()

    def _opens_term(self) -> bool:
        """Whether the '(' at the cursor opens a term, not a formula:
        the token after its matching ')' is a relation or goes on with
        a term (an argument list or a candidate application)."""
        i = self.closing(self.pos)
        if self.toks[i].kind == "eof":
            return False
        after = self.toks[i + 1]
        return after.text in _AFTER_TERM

    def typed_term(self) -> tuple[Term, FiniteType, Token]:
        """A term, its type, and the token it starts at; an ill-typed
        term fails there."""
        tok = self.peek()
        t = self.parse_term()
        try:
            return t, infer_type(t), tok
        except TypeCheckError as e:
            raise ParseError(str(e), tok.line, tok.col) from None

    def _f_relation(self) -> Formula:
        l, lty, ltok = self.typed_term()
        tok = self.peek()
        rel = tok.text
        if rel not in _RELATIONS:
            self.expected("a relation")
        self.next()
        r, rty, rtok = self.typed_term()
        if rel == "=" or rel == "!=":
            if lty != rty:
                raise ParseError(f"{rel} needs equal types, got "
                                 f"{show_type(lty)} and {show_type(rty)}",
                                 tok.line, tok.col)
            eq = Atom("=", (l, r))
            return eq if rel == "=" else Not(eq)
        if rel == "in":
            if lty != N or rty != Arrow(N, N):
                raise ParseError("membership needs a number and a type-1 "
                                 "set", tok.line, tok.col)
        else:
            for ty, at in ((lty, ltok), (rty, rtok)):
                if ty != N:
                    raise ParseError(f"relation {rel} needs type-0 "
                                     "arguments", at.line, at.col)
        return Atom(rel, (l, r))


_RELATIONS = frozenset(["=", "!=", "<=", "<", "in"])
# the bound kinds of a quantifier, by the token after its variable
_BOUNDS = {"<=": "le", "<": "lt", "in": "mem"}
# what may follow a parenthesized term in an atom
_AFTER_TERM = _RELATIONS | {"(", "["}


# ---------------------------------------------------------------------------
# public entry points

def parse_type(src: str) -> FiniteType:
    return _read_all(src, None, Parser.parse_type, "type")


def parse_term(src: str, params: dict[str, FiniteType] | None = None) -> Term:
    return _read_all(src, params, Parser.parse_term, "term")


def parse_formula(src: str, params: dict[str, FiniteType] | None = None
                  ) -> Formula:
    return _read_all(src, params, Parser.parse_formula, "formula")


def _read_all(src: str, params: dict[str, FiniteType] | None, read, what):
    """``read`` over all of src, with ``params`` as its free variables."""
    env = {name: Var(name, ty) for name, ty in (params or {}).items()}
    p = Parser(tokenize(src), 0, env)
    out = read(p)
    if p.peek().kind != "eof":
        p.fail(f"trailing input after {what}")
    return out
