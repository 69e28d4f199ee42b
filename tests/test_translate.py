import pytest

from canon import canon_nf
from rszoo.lang import N, Var, pure, show_formula, show_type
from rszoo.translate import (NormalForm, TranslateError, alpha_eq_nf,
                             parse_nf, show_nf)


def nf_file(nf: NormalForm) -> str:
    """The normal form as a file, one line per block."""
    lines = [f"{key}: " + ", ".join(f"{v.name}:{show_type(v.ty)}"
                                    for v in block)
             for key, block in (("universals", nf.universals),
                                ("existentials", nf.existentials)) if block]
    return "\n".join(lines + ["matrix: " + show_formula(nf.matrix)]) + "\n"


def test_canonical_renaming_is_stable():
    nf = parse_nf("universals: b:0, a:0\nexistentials: c:1\n"
                  "matrix: c(a) = b")
    c = canon_nf(nf)
    assert show_nf(c) == "(forall^st x0:0, x1:0) (exists^st y0:1) y0(x1) = x0"
    assert show_nf(canon_nf(c)) == show_nf(c)


def test_alpha_eq_nf_respects_block_order():
    a = parse_nf("universals: u:0, v:0\nmatrix: u <= v")
    b = parse_nf("universals: v:0, u:0\nmatrix: v <= u")
    c = parse_nf("universals: u:0, v:0\nmatrix: v <= u")
    assert alpha_eq_nf(a, b)  # same modulo renaming
    assert not alpha_eq_nf(a, c)


def test_nf_file_round_trip():
    # '#' comments, a block and the matrix continued on later lines, and
    # an omitted block
    nf = parse_nf("# transfer-like\n"
                  "universals: f:1,   # the table\n"
                  "  Psi:1 -> 1\n"
                  "\n"
                  "matrix: Psi(f, 0) = 0 ->\n"
                  "  (exists z <= 3) f(z) = 0\n")
    assert [(v.name, show_type(v.ty)) for v in nf.universals] == [
        ("f", "1"), ("Psi", "1 -> 1")]
    assert nf.existentials == ()
    assert show_formula(nf.matrix) == \
        "Psi(f, 0) = 0 -> (exists z <= 3) f(z) = 0"
    # the printed blocks and matrix read back as the same normal form
    text = nf_file(nf)
    assert text == ("universals: f:1, Psi:1 -> 1\n"
                    "matrix: Psi(f, 0) = 0 -> (exists z <= 3) f(z) = 0\n")
    assert alpha_eq_nf(parse_nf(text), nf)
    nf = parse_nf("existentials: y:0, P:1\nmatrix: P(y) = 0")
    assert nf.universals == ()
    assert nf.existentials == (Var("y", N), Var("P", pure(1)))
    assert alpha_eq_nf(parse_nf(nf_file(nf)), nf)
    for text, msg in [
            ("f:1\nmatrix: 0 = 0", "^expected a universals, existentials "
             r"or matrix block, found 'f' \(at 1:1\)$"),
            ("universals: f:1\n",
             r"^normal form needs a matrix block \(at 2:1\)$"),
            ("universals: f\nmatrix: 0 = 0",
             r"^expected ':', found 'matrix' \(at 2:1\)$"),
            ("matrix: st(0)", "^normal-form matrix must be internal$"),
            # a repeated block does not replace or extend the first one
            ("universals: x:0\nmatrix: x = 0\nmatrix: 1 = 1",
             r"^matrix block repeated or out of order \(at 3:1\)$"),
            ("universals: x:0\n  # more\nuniversals: y:0\nmatrix: x = y",
             r"^universals block repeated or out of order \(at 3:1\)$"),
            ("universals: x:0, x:0\nmatrix: x = 0",
             r"^duplicate names in blocks: \['x', 'x'\]$"),
            ("universals: x:0\nexistentials: x:0\nmatrix: x = 0",
             r"^duplicate names in blocks: \['x', 'x'\]$"),
            # the blocks come in the order universals, existentials,
            # matrix, and a type or a matrix that does not parse is a
            # TranslateError with its position
            ("existentials: y:0\nuniversals: x:0\nmatrix: x = y",
             r"^universals block repeated or out of order \(at 2:1\)$"),
            ("universals: x:0\nmatrix: x = 0 x",
             r"^trailing input after matrix \(at 2:15\)$"),
            ("universals: x:q\nmatrix: x = 0",
             r"^expected a type, found 'q' \(at 1:15\)$"),
            ("universals: x:0\nmatrix:\n  x = z",
             r"^unbound variable 'z' \(at 3:7\)$")]:
        with pytest.raises(TranslateError, match=msg):
            parse_nf(text)
