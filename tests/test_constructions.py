import pytest
from rszoo.interp import (FnV, MiniModel, ModelError, build_construction,
                          eval_formula, extensionality_search, psi_theta,
                          table_fn, tabulate, theta, xi_search)
from rszoo.lang import parse_formula, parse_type


def m4():
    return MiniModel(cap=4, omega=2)


# -- theta / psi_theta --------------------------------------------------------

def test_theta_values_at_small_indices():
    z = (0,) * 5
    # program 0 is the member scan: from cell 0 it finds 2 at cell 1 in
    # 8 steps and outputs 1, so theta = 2; on zero cells it runs on
    assert theta((0, 2, 0, 0, 0), 8, 0) == 2
    assert theta((0, 2, 0, 0, 0), 7, 0) == 0
    assert theta(z, 20, 0) == 0
    # index 1: one oracle read; theta = oracle(1) + 1
    assert theta((0, 1, 0, 0, 0), 4, 1) == 2
    # index 2: halt, output 0, so theta = 1
    assert theta(z, 4, 2) == 1
    # a non-halting run gives 0: index 9 is ("brz", 1, 0), a loop
    assert theta(z, 4, 9) == 0


def test_psi_theta_tables_frozen():
    m = m4()
    z = table_fn([0, 1, 0, 2, 0], m)
    empty = table_fn([0] * 5, m)
    mark = table_fn([0, 0, 0, 0, 3], m)
    p = psi_theta(m)
    # traced by hand: e=0 the scan -> first nonzero cell, so Z(1) -> 1
    # and none -> 0; e=1 oracle read -> Z(1)+1; e=2 halt -> 1; e=3 inc
    # first register -> 1; e=4 inc second -> 2
    assert tabulate(m, p.call(z)) == (1, 2, 1, 1, 2)
    assert tabulate(m, p.call(empty)) == (0, 1, 1, 1, 2)
    # the scan spends 4 steps a cell, so the budget 4 * (cap + 1)
    # reaches a mark at cell cap
    assert tabulate(m, p.call(mark)) == (3, 1, 1, 1, 2)


def test_psi_theta_memoises_by_table():
    m = m4()
    p = psi_theta(m)
    a = table_fn([0, 1, 0, 2, 0], m)
    b = table_fn([0, 1, 0, 2, 0], m)
    assert p.call(a) is p.call(b)


def test_psi_theta_flags_saturation_on_every_call():
    # at cap 3, e = 1 reads Z(1) = 3 and returns 4: the table saturates
    # (e = 0, the scan, finds the 3 and returns 3)
    m = MiniModel(cap=3, omega=2)
    p = psi_theta(m)
    z = table_fn([0, 3, 0, 0], m)
    for _call in range(2):
        m.overflowed = False
        assert tabulate(m, p.call(z)) == (3, 3, 1, 1)
        assert m.overflowed
    m.overflowed = False
    p.call(table_fn([0, 1, 0, 0], m))
    assert not m.overflowed


def dodge_holds(m, p, z):
    for e in range(m.cap + 1):
        for s in range(m.cap + 1):
            run = m.sat(theta(z.table, s, e))
            if run != 0 and m.sat(p.call(z).call(e) + 1) == run:
                return False
    return True


def test_dodge_holds_for_small_valued_tables():
    m = m4()
    p = psi_theta(m)
    for tab in ([0] * 5, [0, 1, 0, 2, 0], [2, 2, 2, 2, 2], [0, 0, 1, 1, 0]):
        assert dodge_holds(m, p, table_fn(tab, m))


def test_dodge_breaks_at_saturation_edge():
    # oracle value cap at the read index makes run and successor collide;
    # this is why shipped configurations keep standard tables small-valued
    m = m4()
    p = psi_theta(m)
    assert not dodge_holds(m, p, table_fn([0, 4, 0, 0, 0], m))


# -- extensionality search ----------------------------------------------------

def test_extensionality_search_frozen_values():
    m = m4()
    p = psi_theta(m)
    x = table_fn([0, 1, 0, 2, 0], m)
    y = table_fn([1, 0, 0, 0, 0], m)
    # the outputs (1 2 1 1 2 and 1 1 1 1 2) agree below k=0 and k=1,
    # so the empty prefix works
    assert extensionality_search(m, p, x, y, 0) == 0
    assert extensionality_search(m, p, x, y, 1) == 0
    # they split at cell 1, below k=2 and k=4; the tables first differ
    # at index 0, so agreement below 1 is already false
    assert extensionality_search(m, p, x, y, 2) == 1
    assert extensionality_search(m, p, x, y, 4) == 1


def test_extensionality_search_unfillable_triple():
    m = m4()
    # output depends only on the last table cell, which no expressible
    # prefix can separate
    last = FnV(lambda z: table_fn([z.call(4)] * 5, m))
    x = table_fn([0, 0, 0, 0, 1], m)
    y = table_fn([0] * 5, m)
    assert extensionality_search(m, last, x, y, 0) == 0
    assert extensionality_search(m, last, x, y, 1) is None


def test_xi_search_wraps_and_flags():
    m = m4()
    p = psi_theta(m)
    xi = xi_search(m, p)
    x = table_fn([0, 1, 0, 2, 0], m)
    y = table_fn([0] * 5, m)
    assert xi.call(x).call(y).call(2) == 2
    assert "xi_incomplete" not in m.flags and not m.overflowed
    last = FnV(lambda z: table_fn([z.call(4)] * 5, m))
    xi2 = xi_search(m, last)
    bad_x = table_fn([0, 0, 0, 0, 1], m)
    # an unfillable triple answers cap + 1, saturated
    assert xi2.call(bad_x).call(y).call(1) == 4
    assert "xi_incomplete" in m.flags and m.overflowed


# -- Xi0 against the normal form's extensionality clause ------------------------

CLAUSE = ("((forall i:0) monus(Xi(X, Y, k), i) = 0 \\/ X(i) = Y(i)) -> "
          "(forall i:0) monus(k, i) = 0 \\/ Psi(X, i) = Psi(Y, i)")
# no modulus exists: the tables agree below the cap (2), yet the outputs
# differ below k
UNFILLABLE = ("((forall i:0) monus(2, i) = 0 \\/ X(i) = Y(i)) /\\ "
              "~((forall i:0) monus(k, i) = 0 \\/ Psi(X, i) = Psi(Y, i))")


@pytest.mark.parametrize("functional, unfillable", [
    # the scan, program 0, reads up to the last cell on a zero prefix
    (psi_theta, True),
    # reads only the last cell, which no initial segment below the cap
    # reaches
    (lambda m: FnV(lambda z: table_fn([z.call(2)] * 3, m)), True),
    # reads only the first cell
    (lambda m: FnV(lambda z: table_fn([z.call(0)] * 3, m)), False),
], ids=["psi_theta", "last_cell", "first_cell"])
def test_xi_search_makes_the_clause_true_wherever_a_modulus_exists(
        functional, unfillable):
    # every triple (X, Y, k) of a cap-2 model: 27 * 27 * 3
    m = MiniModel(cap=2, omega=2)
    psi = functional(m)
    env = {"Psi": psi, "Xi": xi_search(m, psi)}
    params = {"Psi": parse_type("1 -> 1"), "Xi": parse_type("1 -> 1 -> 1")}

    def holds(src):
        return eval_formula(m, parse_formula(src, params), env)

    everywhere = "(forall X:1, Y:1, k:0) "
    # where a modulus exists, Xi's value makes the clause true (the
    # unfillable test comes first, so Xi is read only where one exists)
    assert holds(f"{everywhere}({UNFILLABLE}) \\/ ({CLAUSE})")
    assert "xi_incomplete" not in m.flags
    assert holds(f"(exists X:1, Y:1, k:0) {UNFILLABLE}") == unfillable
    # elsewhere Xi answers the cap, which leaves the clause false, and
    # flags it
    assert holds(f"{everywhere}({UNFILLABLE}) -> ~({CLAUSE}) /\\ "
                 "Xi(X, Y, k) = 2")
    assert ("xi_incomplete" in m.flags) == unfillable


# -- registry --------------------------------------------------------------------

def test_build_construction_resolves_names_and_literals():
    m = m4()
    ty, p = build_construction("psi_theta", [], m)
    assert ty == parse_type("1 -> 1")
    z = table_fn([0, 1, 0, 2, 0], m)
    assert tabulate(m, p.call(z)) == (1, 2, 1, 1, 2)
    # a literal is read as a name like any other argument
    with pytest.raises(ModelError, match="undeclared object '0'"):
        build_construction("psi_theta", ["0"], m)
    m.declare("P0", ty, p, st=True)
    ty2, xi = build_construction("xi_search", ["P0"], m)
    assert ty2 == parse_type("1 -> 1 -> 0 -> 0")
    assert xi.call(z).call(table_fn([0] * 5, m)).call(2) == 2
    ty3, mu = build_construction("mu_op", [], m)
    assert ty3 == parse_type("2")
    assert mu.call(table_fn([3, 2, 0, 1, 0], m)) == 2
    assert mu.call(table_fn([1, 1, 1, 1, 1], m)) == 0
    with pytest.raises(ModelError, match="unknown construction"):
        build_construction("no_such_thing", [], m)
    with pytest.raises(ModelError, match="undeclared object 'Q0'"):
        build_construction("xi_search", ["Q0"], m)
    with pytest.raises(ModelError, match="bad arguments for xi_search"):
        build_construction("xi_search", [], m)
    with pytest.raises(ModelError, match="bad arguments for mu_op"):
        build_construction("mu_op", ["P0"], m)
