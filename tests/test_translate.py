from pathlib import Path

import pytest

import gen
import rszoo
from rszoo.lang import (ExistsSt, ForallSt, N, Var, parse_formula, pure,
                        show_formula, show_type)
from rszoo.normalform import normalize_backward, normalize_principle
from rszoo.translate import TranslateError, nf_blocks, parse_nf

UDNR = Path(rszoo.__file__).parent / "corpus_data" / "udnr"


def test_corpus_normal_form_is_its_formula():
    text = (UDNR / "expect.nf").read_text()
    nf = parse_nf(text)
    assert nf == normalize_principle(
        parse_formula((UDNR / "principle.fml").read_text()))
    # the file is a '#' header and the text show_formula prints
    body = [line for line in text.splitlines()
            if not line.startswith("#")]
    assert body == [show_formula(nf)]
    universals, existentials, _ = nf_blocks(nf)
    assert [v.name for v in universals] == ["f", "Psi", "Xi"]
    assert [v.name for v in existentials] == ["y", "Z", "X", "Y", "k"]


def test_nf_file_round_trip():
    # '#' comments, a block and the matrix continued on later lines, and
    # an omitted block
    nf = parse_nf("# transfer-like\n"
                  "(forall^st f:1,   # the table\n"
                  "  Psi:1 -> 1)\n"
                  "\n"
                  "Psi(f, 0) = 0 ->\n"
                  "  (exists z:0) monus(z, 3) = 0 /\\ f(z) = 0\n")
    universals, existentials, matrix = nf_blocks(nf)
    assert [(v.name, show_type(v.ty)) for v in universals] == [
        ("f", "1"), ("Psi", "1 -> 1")]
    assert existentials == ()
    assert show_formula(matrix) == \
        "Psi(f, 0) = 0 -> (exists z:0) monus(z, 3) = 0 /\\ f(z) = 0"
    text = show_formula(nf)
    assert text == ("(forall^st f:1, Psi:1 -> 1) "
                    "Psi(f, 0) = 0 -> (exists z:0) monus(z, 3) = 0 /\\ "
                    "f(z) = 0")
    assert parse_nf(text) == nf
    nf = parse_nf("(exists^st y:0, P:1) P(y) = 0")
    assert nf_blocks(nf)[:2] == ((), (Var("y", N), Var("P", pure(1))))
    assert parse_nf(show_formula(nf)) == nf
    nf = parse_nf("0 = 0")
    assert nf_blocks(nf) == ((), (), nf)
    assert parse_nf(show_formula(nf)) == nf


def test_show_formula_reads_back_as_the_same_normal_form():
    # the normal forms the pipeline builds in both directions, and
    # seeded internal matrices under a universal and an existential block
    principle = parse_formula((UDNR / "principle.fml").read_text())
    nfs = [normalize_principle(principle), normalize_backward(principle)]
    g = gen.generator(gen.SEED + 21)
    x, y, p = Var("x", N), Var("y", N), Var("P", pure(1))
    for _ in range(200):
        matrix = g.internal_formula({"x": N, "y": N, "P": pure(1)}, depth=4)
        nfs.append(ForallSt(x, ForallSt(p, ExistsSt(y, matrix))))
    for nf in nfs:
        assert parse_nf(show_formula(nf)) == nf, show_formula(nf)


def test_a_normal_form_built_in_code_has_an_internal_matrix():
    # a normal form is its formula, so a standard quantifier built
    # under the blocks is read as a block when it can be, and is no
    # normal form when it cannot: (exists^st y) (forall^st x) m
    x, y = Var("x", N), Var("y", N)
    m = parse_formula("x = y", params={"x": N, "y": N})
    both = ForallSt(x, ForallSt(y, m))
    assert nf_blocks(both) == ((x, y), (), m)
    assert parse_nf(show_formula(both)) == both
    with pytest.raises(TranslateError, match=r"^matrix is not internal: "
                       r"\(forall\^st x:0\) x = y$"):
        nf_blocks(ExistsSt(y, ForallSt(x, m)))


@pytest.mark.parametrize("text, msg", [
    ("(forall^st f:1) (f = f /\\ ((exists^st g:1) g = f))",
     r"^matrix is not internal: f = f /\\ \(\(exists\^st g:1\) g = f\)$"),
    # a standard universal after the existential block stays in the
    # matrix
    ("(exists^st y:0) (forall^st x:0) x = y",
     r"^matrix is not internal: \(forall\^st x:0\) x = y$"),
    ("(forall^st x:0, x:0) x = 0",
     r"^duplicate names in blocks: \['x', 'x'\]$"),
    ("(forall^st x:0) (exists^st x:0) x = 0",
     r"^duplicate names in blocks: \['x', 'x'\]$"),
    ("(forall^st x:0)\n  x = z", r"^unbound variable 'z' \(at 2:7\)$"),
    ("(forall^st x:0) x = 0 x",
     r"^trailing input after formula \(at 1:23\)$"),
    ("(forall^st x:q) x = 0", r"^expected a type, found 'q' \(at 1:14\)$"),
    ("", r"^expected a term, found 'end of input' \(at 1:1\)$"),
    # the retired block format reads as a formula, and fails as one
    ("universals: x:0\nmatrix: x = 0",
     r"^unbound variable 'universals' \(at 1:1\)$"),
])
def test_parse_nf_rejects(text, msg):
    with pytest.raises(TranslateError, match=msg):
        parse_nf(text)

