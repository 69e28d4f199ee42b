import pytest
from rszoo.interp.machine import (SCAN_PROGRAM, DidNotHalt, HaltsWith,
                                  MachineError, decode_program,
                                  enumeration_alphabet, phi, run_program)


def zeros(_i):
    return 0


def table(vals):
    return lambda i: vals[i] if 0 <= i < len(vals) else 0


def test_alphabet_order_and_size():
    a = enumeration_alphabet(1)
    assert a == [("qry",), ("halt",), ("inc", 0), ("inc", 1),
                 ("dec", 0), ("dec", 1),
                 ("brz", 0, 0), ("brz", 0, 1), ("brz", 1, 0), ("brz", 1, 1)]
    assert len(enumeration_alphabet(3)) == 14


def test_first_indices_decode_as_expected():
    want = [(), (("qry",),), (("halt",),), (("inc", 0),), (("inc", 1),),
            (("dec", 0),), (("dec", 1),),
            (("brz", 0, 0),), (("brz", 0, 1),),
            (("brz", 1, 0),), (("brz", 1, 1),),
            (("qry",), ("qry",))]
    for e, prog in enumerate(want):
        assert decode_program(e) == prog


def test_decode_rejects_negative():
    with pytest.raises(MachineError):
        decode_program(-1)


def test_run_rejects_an_unknown_instruction():
    with pytest.raises(MachineError,
                       match=r"^unknown instruction \('jmp', 0\)$"):
        run_program((("jmp", 0),), zeros, 0, 5)


def test_empty_program_halts_immediately():
    assert run_program((), zeros, 5, 0) == HaltsWith(0, 0)


def test_budget_zero_on_nonempty_program():
    assert run_program((("halt",),), zeros, 0, 0) == DidNotHalt(0)


def test_dec_floors_at_zero():
    prog = (("dec", 1), ("dec", 1), ("inc", 1))
    assert run_program(prog, zeros, 0, 10) == HaltsWith(1, 3)


def test_falling_off_the_end_halts():
    assert run_program((("inc", 1),), zeros, 0, 1) == HaltsWith(1, 1)


def test_branch_to_program_length_halts():
    prog = (("brz", 1, 1),)
    assert run_program(prog, zeros, 0, 10) == HaltsWith(0, 1)


def test_qry_loads_oracle_of_first_register():
    prog = (("qry",),)
    assert run_program(prog, table([7, 3]), 1, 5) == HaltsWith(3, 1)


def test_scan_index_is_frozen():
    # the scan is phi's program number 0, in place of the empty program
    # that decode_program(0) gives
    assert SCAN_PROGRAM == (("qry",), ("brz", 1, 4), ("dec", 1),
                            ("halt",), ("inc", 0), ("brz", 1, 0))
    assert decode_program(0) == ()
    marked = (0, 0, 3)
    for x in range(4):
        assert phi(0, marked, x, 50) == \
            run_program(SCAN_PROGRAM, table(marked), x, 50)
    assert phi(0, marked, 0, 50) == HaltsWith(2, 12)


def test_scan_finds_marker_at_exact_budget():
    # marker 4 cells above the start, payload 5: the loop spends 4 steps
    # per empty cell and 4 more to read, test, decrement and halt
    oracle = table([0, 0, 0, 0, 0, 0, 0, 5])
    assert run_program(SCAN_PROGRAM, oracle, 3, 20) == HaltsWith(4, 20)
    assert run_program(SCAN_PROGRAM, oracle, 3, 19) == DidNotHalt(19)


def test_scan_without_marker_never_halts():
    assert run_program(SCAN_PROGRAM, zeros, 0, 1000) == DidNotHalt(1000)


def test_phi_cache_is_budget_monotone():
    e = 11 + 3 * 12 + 3     # after the 11 shorter programs, digits 3, 3
    assert decode_program(e) == (("inc", 1), ("inc", 1))
    assert phi(e, (), 0, 0) == DidNotHalt(0)
    assert phi(e, (), 0, 5) == HaltsWith(2, 2)
    # a halt seen at 2 steps answers any later budget >= 2
    assert phi(e, (), 0, 2) == HaltsWith(2, 2)
    assert phi(e, (), 0, 100) == HaltsWith(2, 2)


def test_phi_memo_tells_tables_apart_past_a_shared_prefix():
    # the two oracles agree on cells 0..4 and only the second has a
    # payload (2, output 1) at cell 5; past its end a table reads 0.
    # The scan spends 4 steps per skipped cell and 4 on the hit.  Each
    # order runs from its own start, so neither sees the other's memo
    # entries.
    zeros5, marked = (0,) * 5, (0,) * 5 + (2,)
    for x, tables in ((0, (zeros5, marked)), (1, (marked, zeros5))):
        want = {zeros5: DidNotHalt(200),
                marked: HaltsWith(1, 4 * (5 - x) + 4)}
        for tab in tables:
            assert phi(0, tab, x, 200) == want[tab]
