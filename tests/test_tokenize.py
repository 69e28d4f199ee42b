"""The tokenizer against a character-at-a-time reference: the same
tokens (kind, text, line, column, the end of input included) and the
same ParseError on the corpus, on the test sources, and on seeded
random strings over the token alphabet with a few non-ASCII letters
and digits, which no token takes."""
import random
import string
from pathlib import Path

import pytest

from rszoo import extract
from rszoo.lang import ParseError
from rszoo.lang.parser import tokenize

SYMBOLS = ["->", "/\\", "\\/", "!=", ":=", "^st",
           "(", ")", "[", "]", ",", ":", ".", "*", "~", "=", "\\",
           "-", ";"]
# names and numbers are ASCII
DIGITS = string.digits
LETTERS = string.ascii_letters + "_"


def reference_tokenize(src: str) -> list[tuple[str, str, int, int]]:
    """The tokenizer as a loop over characters: tokens as (kind, text,
    line, col), ending in ("eof", "", line, col)."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c in DIGITS:
            j = i
            while j < n and src[j] in DIGITS:
                j += 1
            toks.append(("num", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in LETTERS:
            j = i
            while j < n and src[j] in LETTERS + DIGITS + "'":
                j += 1
            toks.append(("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if src.startswith(sym, i):
                toks.append(("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


def outcome(tokenizer, src: str):
    try:
        return [tuple(t) if isinstance(t, tuple)
                else (t.kind, t.text, t.line, t.col) for t in tokenizer(src)]
    except ParseError as e:
        return ("ParseError", str(e), e.msg, e.line, e.col)


def assert_same(src: str) -> None:
    assert outcome(tokenize, src) == outcome(reference_tokenize, src), src


def test_tokens_of_the_corpus_and_the_test_sources():
    corpus = Path(extract.__file__).parent / "corpus_data"
    files = sorted(corpus.rglob("*.*")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) > 10
    for path in files:
        src = path.read_text(encoding="utf-8")
        assert_same(src)
        # and each line alone, so that a line ending in a comment ends
        # the input
        for line in src.splitlines():
            assert_same(line)


def test_every_corpus_file_tokenizes():
    # the script and normal-form readers take a whole file through the
    # tokenizer, so a character it does not know (a '-' in a name, a ';'
    # between witness slots) would stop the entry
    corpus = Path(extract.__file__).parent / "corpus_data"
    files = sorted(corpus.rglob("*.*"))
    assert len(files) >= 5
    for path in files:
        try:
            tokenize(path.read_text(encoding="utf-8"))
        except ParseError as exc:
            raise AssertionError(f"{path.name}: {exc}") from None


ALPHABET = (SYMBOLS + list("abxyzXZ_'0123456789 \t\r\n#^-/!$;{}<")
            + ["forall", "exists", "st", "in", "x1", "f'", "é", "²", "٣",
               "# note", "½", " "])


def test_tokens_of_random_strings():
    rng = random.Random(20261018)
    errors = 0
    for _ in range(5000):
        src = "".join(rng.choice(ALPHABET)
                      for _ in range(rng.randint(0, 24)))
        assert_same(src)
        errors += isinstance(outcome(reference_tokenize, src), tuple)
    # both outcomes are exercised: token lists and ParseErrors
    assert 500 < errors < 4500


def test_end_of_input_after_a_comment_takes_the_comment_column():
    assert tokenize("x  # note")[-1].col == 4
    assert tokenize("x  # note\n")[-1].col == 1
    with pytest.raises(ParseError) as e:
        tokenize("1²٣ é'x ²a")
    assert (e.value.msg, e.value.line, e.value.col) == \
        ("unexpected character '²'", 1, 2)
