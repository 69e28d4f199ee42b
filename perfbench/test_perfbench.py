"""Tests for the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import random
import signal
import time
from types import SimpleNamespace

import pytest

import hostspeed
import tracing
import udnr

SHIPPED = """cap = 4
omega = 2
budget = 200000
table Z0: 0 1 0 0 0 [st]
table E0: 0 0 0 0 0 [st]
bind Psi0: psi_theta [st]
"""


@pytest.mark.parametrize("cap, want", [
    (3, ["0", "1", "0", "0"]),
    (4, ["0", "1", "0", "0", "0"]),
    (5, ["0", "1", "0", "0", "0", "0"]),
])
def test_resize_table_truncates_or_pads_with_zeros(cap, want):
    assert udnr.resize_table(["0", "1", "0", "0", "0"], cap) == want


def test_resize_config_sets_cap_and_keeps_standard_marks():
    lines = udnr.resize_config(SHIPPED, 3).splitlines()
    assert lines[0] == "cap = 3"
    assert lines[3] == "table Z0: 0 1 0 0 [st]"
    assert lines[4] == "table E0: 0 0 0 0 [st]"
    assert lines[1:3] + lines[5:] == SHIPPED.splitlines()[1:3] + \
        SHIPPED.splitlines()[5:]


def test_resize_config_keeps_tables_without_marks_plain():
    text = "cap = 2\nomega = 1\ntable h: 2 1 0\n"
    assert udnr.resize_config(text, 4).splitlines()[2] == \
        "table h: 2 1 0 0 0"


@pytest.mark.parametrize("table, want", [
    ((0, 1, 2), 0), ((3, 2, 0, 0), 2), ((1, 1, 1, 0), 3), ((1, 2, 3), None),
])
def test_least_zero(table, want):
    assert udnr.least_zero(table) == want


def test_check_tables_full_space_and_seeded_sample():
    full = udnr.check_tables(2, None, random.Random(1))
    assert len(full) == 27 and len(set(full)) == 27
    a = udnr.check_tables(5, 50, random.Random(7))
    b = udnr.check_tables(5, 50, random.Random(7))
    assert a == b and len(set(a)) == 50
    assert all(len(t) == 6 and all(0 <= c <= 5 for c in t) for t in a)


def test_covered_merges_overlapping_intervals():
    assert tracing.covered([]) == 0
    assert tracing.covered([(1, 3), (2, 4), (6, 7)]) == 4
    assert tracing.covered([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_direct_children_only():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("leaf", 2.0, 3.0, 1),
             ("b", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_summarize_counts_nested_same_name_spans_once():
    spans = [("f", 0.0, 4.0, -1),
             ("g", 1.0, 3.0, 0),
             ("f", 1.5, 2.5, 1)]
    summary = tracing.summarize(spans)
    assert summary["f"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert summary["g"] == {"calls": 1, "s": 2.0, "self_s": 1.0}


def test_tracer_wraps_attribute_and_records_parents():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    tracer = tracing.Tracer()
    tracer.wrap(Owner, "inner", "inner",
                lambda counters, r: counters.update(results=r))
    tracer.wrap(Owner, "outer", "outer")
    assert Owner.outer(3) == 7
    (n1, s1, e1, p1), (n2, s2, e2, p2) = tracer.spans
    assert (n1, p1, n2, p2) == ("outer", -1, "inner", 0)
    assert s1 <= s2 <= e2 <= e1
    assert tracer.counters["results"] == 6


def test_expected_checked_counts():
    assert udnr.expected_checked(3, "st") == (2, 2)
    assert udnr.expected_checked(3, "all") == (256, 2)


def _verdict(forward_checked, backward_checked):
    return SimpleNamespace(
        stages=(("candidates-forward",
                 f"candidates ok over {forward_checked} assignment(s)"),
                ("candidates-backward",
                 f"candidates ok over {backward_checked} assignment(s)")),
        forward_term=object(), backward_term=object())


def test_verdict_gate_accepts_the_planned_sweep():
    model = SimpleNamespace(flags={"xi_incomplete"})
    assert udnr.verdict_problems(_verdict(256, 2), model, 3, "all") == []


def test_verdict_gate_rejects_vacuous_sweeps_and_empty_populations():
    model = SimpleNamespace(flags={"st_empty_at_1"})
    problems = udnr.verdict_problems(_verdict(0, 2), model, 3, "st")
    assert problems == [
        "model flag st_empty_at_1",
        "candidates-forward checked 0 assignment(s), expected 2"]


def test_normalize_scales_by_kernel_speed_and_drops_kernel_time():
    ref = hostspeed.REF_S
    assert hostspeed.normalize(2.0, [], [ref, ref]) == pytest.approx(2.0)
    # the host ran at half the reference speed
    assert hostspeed.normalize(2.0, [], [2 * ref, 2 * ref]) == \
        pytest.approx(1.0)
    # passes inside the region are taken out of its wall time
    assert hostspeed.normalize(2.0 + 2 * ref, [ref, ref], [ref, ref]) == \
        pytest.approx(2.0)
    # the speed is the mean of the passes' speeds
    assert hostspeed.normalize(1.0, [], [ref, ref / 3]) == pytest.approx(2.0)


def test_kernel_is_fixed():
    assert hostspeed.PROGRAM == \
        [(hostspeed._OPS[op], arg) for op, arg in hostspeed._program(800)]
    assert hostspeed.kernel() == hostspeed.kernel()


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_clock_samples_inside_a_region_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.Clock()
    try:
        result, wall, seconds = clock.timed(_busy, 0.3)
        with pytest.raises(ZeroDivisionError):
            clock.timed(lambda: 1 / 0)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        clock.close()
    assert result == "done" and wall >= 0.3 and seconds > 0
    # one pass before, one after, and about one per period inside
    assert len(clock.kernel_s) >= 2 + 3
    assert signal.getsignal(signal.SIGALRM) is before
