"""Benchmark of rszoo's pipeline on the shipped udnr corpus entry.

Run from the repository root:

    python3 perfbench/run.py --workload udnr-cap3 --seed 1 --seconds 30 --trace 0

One repetition imports rszoo afresh (so no module-level state, such as
the oracle machine's ``phi`` memo, carries over), loads the entry and
runs ``rszoo.extract.rs_run`` on it once.  Repetitions continue for
``--seconds`` seconds; at least three run.  Outside every timed region,
the extracted forward term is checked against a plain least-zero
search.

Every time reported is normalized to a reference host speed (see
hostspeed.py); the raw wall-clock medians are printed beside them.

With ``--trace 0`` the end-to-end metrics are reported.  With
``--trace 1`` untraced and traced repetitions alternate, and the traced
ones report per-layer metrics from spans recorded around calls into
each layer's public functions (see tracing.py); the spans of the last
traced repetition are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for why each workload and metric was chosen.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import typing
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import tracing
import udnr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> (model cap, forward sweep plan)
WORKLOADS = {
    "udnr-cap3": (3, "st"),
    "udnr-cap5": (5, "st"),
    "udnr-fsweep-cap3": (3, "all"),
}
MIN_VERDICTS = 3
MIN_SET_UPS = 9
# Tables the reference check draws at caps whose table space is larger.
REFERENCE_SAMPLE = 400
FULL_REFERENCE_CAP = 3
# The time to evaluate the forward term differs from table to table, so
# a pass times the whole set and reports its mean; passes give a median.
MIN_TERM_EVAL_PASSES = 5
# Passes and extra set-ups run between repetitions, at about this many
# points spread over the run, so that they sample all of it.
SIDE_POINTS = 10
SIDE_SET_UPS = 2

RSZOO_MODULES = {
    "lang": "rszoo.lang",
    "translate": "rszoo.translate",
    "extract": "rszoo.extract",
    "interp": "rszoo.interp",
    "model": "rszoo.interp.model",
    "machine": "rszoo.interp.machine",
    "constructions": "rszoo.interp.constructions",
}

# (rszoo module key, attribute): the lang parser, traced as "lang.parse"
# at every attribute the loader's call path looks it up through.
LANG_PARSE = [("lang", "parse_formula"), ("translate", "parse_formula"),
              ("translate", "parse_type"), ("extract", "parse_formula"),
              ("extract", "parse_term"), ("extract", "parse_type")]


class BenchError(Exception):
    pass


def fresh_rszoo() -> SimpleNamespace:
    """Import rszoo anew from the checkout's ``src`` directory."""
    for name in [n for n in sys.modules
                 if n == "rszoo" or n.startswith("rszoo.")]:
        del sys.modules[name]
    # typing caches the Union aliases rszoo builds at import, and through
    # them every earlier copy of its modules; without this, memory grows
    # with the number of repetitions.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    rz = SimpleNamespace(**{key: importlib.import_module(mod)
                            for key, mod in RSZOO_MODULES.items()})
    if Path(rz.extract.__file__).resolve().parent != SRC / "rszoo":
        raise BenchError(f"imported rszoo from {rz.extract.__file__}, "
                         f"not from {SRC}")
    return rz


def _count_assignments(counters, report):
    counters["extract.check_candidates.assignments"] += report.checked


def _note_population(counters, pop):
    key = "interp.model.population.max_size"
    counters[key] = max(counters[key], len(pop))


def install_tracer(tracer: tracing.Tracer, rz) -> None:
    for key, attr in LANG_PARSE:
        tracer.wrap(getattr(rz, key), attr, "lang.parse")
    tracer.wrap(rz.interp, "parse_model_config",
                "interp.model.parse_model_config")
    tracer.wrap(rz.extract, "normalize_principle",
                "normalform.normalize_principle")
    for attr in ("check_script", "extract_terms", "extract_function",
                 "postprocess"):
        tracer.wrap(rz.extract, attr, "extract." + attr)
    tracer.wrap(rz.extract, "check_candidates", "extract.check_candidates",
                _count_assignments)
    tracer.wrap(rz.interp, "eval_formula", "interp.model.eval_formula")
    tracer.wrap(rz.interp, "eval_term", "interp.model.eval_term")
    tracer.wrap(rz.model.MiniModel, "population", "interp.model.population",
                _note_population)
    tracer.wrap(rz.machine, "phi", "interp.machine.phi")
    tracer.wrap(rz.machine, "run_program", "interp.machine.run_program")
    tracer.wrap(rz.constructions, "theta", "interp.constructions.theta")


def set_up(clock: hostspeed.Clock, cap: int, plan: str,
           tracer: tracing.Tracer | None = None):
    """Fresh import, corpus files read, entry parsed and model built.
    Returns (modules, entry, wall seconds, normalized seconds)."""
    def build():
        rz = fresh_rszoo()
        load = udnr.load_entry
        if tracer is not None:
            install_tracer(tracer, rz)
            load = tracer.traced(load, "bench.load_entry")
        return rz, load(rz, udnr.read_entry(ROOT), cap, plan)

    (rz, entry), wall, seconds = clock.timed(build)
    return rz, entry, wall, seconds


class Run:
    """Verdicts and checks gathered over one benchmark run."""

    def __init__(self, name: str, clock: hostspeed.Clock):
        self.name = name
        self.clock = clock
        self.cap, self.plan = WORKLOADS[name]
        # normalized seconds, and wall seconds for the report
        self.verdict_s: list[float] = []
        self.setup_s: list[float] = []
        self.term_eval_s: list[float] = []
        self.wall: dict[str, list[float]] = {
            "verdict_s": [], "setup_s": [], "term_eval_s": []}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.flags: Counter = Counter()
        self.last = None      # (modules, entry, verdict) of a good verdict

    def repetition(self, tracer: tracing.Tracer | None = None):
        """One set-up and one verdict; returns the verdict's normalized
        seconds, or None when rs_run failed."""
        rz, entry, setup_wall, setup = set_up(self.clock, self.cap,
                                              self.plan, tracer)
        run = rz.extract.rs_run
        if tracer is not None:
            run = tracer.traced(run, "extract.rs_run")
        gc.collect()    # set-up's garbage is not collected inside the verdict
        self.attempted += 1
        try:
            verdict, wall, seconds = self.clock.timed(run, entry)
        except rz.extract.ScriptError as exc:
            self.failed += 1
            self.problems.append(f"rs_run failed: {exc}")
            return None
        self.problems.extend(udnr.verdict_problems(
            verdict, entry.model, self.cap, self.plan))
        self.flags[",".join(verdict.flags) or "-"] += 1
        if tracer is None:
            self.setup_s.append(setup)
            self.verdict_s.append(seconds)
            self.wall["setup_s"].append(setup_wall)
            self.wall["verdict_s"].append(wall)
            self.last = (rz, entry, verdict)
        return seconds

    def reference_check(self, rng):
        """Apply the extracted forward term to (Psi0, Xi0, table) and
        compare with a plain least-zero search on every table that has a
        zero.  Returns a function that times one more pass over those
        tables and records its mean seconds per table."""
        if self.last is None:
            raise BenchError(f"{self.name}: no verdict succeeded; "
                             + "; ".join(self.problems[:3]))
        rz, entry, verdict = self.last
        model = entry.model
        term = rz.interp.eval_term(model, verdict.forward_term, model.env())
        at_table = term.call(model.object("Psi0")).call(model.object("Xi0"))
        sample = None if self.cap <= FULL_REFERENCE_CAP else REFERENCE_SAMPLE
        cases = []
        for table in udnr.check_tables(self.cap, sample, rng):
            want = udnr.least_zero(table)
            if want is None:
                continue
            h = rz.interp.table_fn(table, model)
            got = at_table.call(h)
            cases.append(h)
            self.attempted += 1
            if got != want:
                self.failed += 1
                if self.failed <= 3:
                    self.problems.append(f"forward term gives {got} on "
                                         f"{table}, least zero is {want}")

        def one_pass():
            for h in cases:
                at_table.call(h)

        def timed_pass() -> None:
            _none, wall, seconds = self.clock.timed(one_pass)
            self.term_eval_s.append(seconds / len(cases))
            self.wall["term_eval_s"].append(wall / len(cases))

        return timed_pass

    def set_up_only(self) -> None:
        _rz, _entry, wall, seconds = set_up(self.clock, self.cap, self.plan)
        self.setup_s.append(seconds)
        self.wall["setup_s"].append(wall)

    def term_nodes(self) -> int:
        rz, _entry, verdict = self.last
        return sum(1 for t in (verdict.forward_term, verdict.backward_term)
                   for _ in rz.lang.subterms(t))


def tail_note(values: list[float]) -> str:
    """The sample count, plus the highest percentile that has at least
    ten samples beyond it."""
    note = f"median of {len(values)}"
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            note += f", p{pct} {cut:.6g}"
            break
    return note


def repeat(step, seconds: float, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then again while the
    last call's duration still fits in ``seconds`` from the start."""
    start = time.perf_counter()
    done, last = 0, 0.0
    while done < minimum or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        done += 1


def measure(run: Run, seconds: float, rng) -> dict:
    """Repetitions for ``seconds``.  At SIDE_POINTS points spread over
    the run, one timed pass of the forward term and SIDE_SET_UPS extra
    set-ups follow a repetition."""
    term_eval = run.term_eval_s
    timed_pass = None
    last_side = float("-inf")

    def round_():
        nonlocal timed_pass, last_side
        run.repetition()
        if timed_pass is None and run.last is not None:
            timed_pass = run.reference_check(rng)
        if timed_pass is not None and \
                time.perf_counter() - last_side >= seconds / SIDE_POINTS:
            last_side = time.perf_counter()
            timed_pass()
            for _ in range(SIDE_SET_UPS):
                run.set_up_only()

    repeat(round_, seconds, MIN_VERDICTS)
    if timed_pass is None:
        raise BenchError(f"{run.name}: no verdict succeeded; "
                         + "; ".join(run.problems[:3]))
    while len(term_eval) < MIN_TERM_EVAL_PASSES:
        timed_pass()
    while len(run.setup_s) < MIN_SET_UPS:
        run.set_up_only()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = {key: f"; wall median {statistics.median(values):.6g} s"
            for key, values in run.wall.items()}
    metrics = {
        "verdict_s": (statistics.median(run.verdict_s), "s",
                      tail_note(run.verdict_s) + wall["verdict_s"]),
        "setup_s": (statistics.median(run.setup_s), "s",
                    tail_note(run.setup_s) + wall["setup_s"]),
        "term_eval_s": (statistics.median(term_eval), "s",
                        f"median of {len(term_eval)} passes, mean per table"
                        + wall["term_eval_s"]),
        "term_nodes": (run.term_nodes(), "count",
                       "forward plus backward term"),
        "peak_rss_mb": (peak_mb, "MB", "whole run"),
    }
    return metrics


PER_LAYER = [
    # (metric, span name, field) read from the span summary
    ("lang.parse.s", "lang.parse", "s"),
    ("interp.model.parse_model_config.s",
     "interp.model.parse_model_config", "s"),
    ("normalform.normalize_principle.s", "normalform.normalize_principle",
     "s"),
    ("extract.check_script.calls", "extract.check_script", "calls"),
    ("extract.check_script.s", "extract.check_script", "s"),
    ("extract.extract_terms.self_s", "extract.extract_terms", "self_s"),
    ("extract.extract_function.self_s", "extract.extract_function",
     "self_s"),
    ("extract.postprocess.s", "extract.postprocess", "s"),
    ("extract.check_candidates.s", "extract.check_candidates", "s"),
    ("interp.model.eval_formula.calls", "interp.model.eval_formula",
     "calls"),
    ("interp.model.eval_formula.s", "interp.model.eval_formula", "s"),
    ("interp.model.population.calls", "interp.model.population", "calls"),
    ("interp.model.population.s", "interp.model.population", "s"),
    ("interp.model.eval_term.calls", "interp.model.eval_term", "calls"),
    ("interp.model.eval_term.s", "interp.model.eval_term", "s"),
    ("interp.machine.phi.calls", "interp.machine.phi", "calls"),
    ("interp.machine.run_program.calls", "interp.machine.run_program",
     "calls"),
    ("interp.constructions.theta.calls", "interp.constructions.theta",
     "calls"),
]
COUNTERS = ["extract.check_candidates.assignments",
            "interp.model.population.max_size"]


def layer_values(tracer: tracing.Tracer) -> dict[str, float]:
    summary = tracing.summarize(tracer.spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {metric: summary.get(span, empty)[field]
           for metric, span, field in PER_LAYER}
    for key in COUNTERS:
        out[key] = tracer.counters[key]
    phi = out["interp.machine.phi.calls"]
    out["interp.machine.phi.hit_ratio"] = \
        1 - out["interp.machine.run_program.calls"] / phi if phi else 0.0
    return out


def measure_traced(run: Run, seconds: float, rng, out_dir: Path) -> dict:
    plain, traced = [], []
    tracer = tracing.Tracer()

    def pair():
        nonlocal tracer
        plain_s = run.repetition()
        tracer = tracing.Tracer()
        traced_s = run.repetition(tracer)
        if plain_s is not None and traced_s is not None:
            plain.append(plain_s)
            traced.append((traced_s, layer_values(tracer)))

    repeat(pair, seconds, 1)
    run.reference_check(rng)  # outputs are checked; the timing is unused
    if not traced:
        raise BenchError(f"{run.name}: no traced verdict succeeded; "
                         + "; ".join(run.problems[:3]))
    tracer.dump(out_dir / f"trace-{run.name}.jsonl")
    metrics = {}
    for key in traced[0][1]:
        metrics[key] = statistics.median_low(v[key] for _s, v in traced)
    metrics["trace.overhead_ratio"] = \
        statistics.median(s for s, _v in traced) / statistics.median(plain)
    return {key: (value, unit_of(key), f"median of {len(traced)}")
            for key, value in metrics.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rszoo" / "__init__.py").is_file():
        print(f"error: no rszoo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    rng = random.Random(args.seed)
    clock = hostspeed.Clock()
    run = Run(args.workload, clock)
    try:
        # Unreported: imports the standard-library modules rszoo needs and
        # writes its bytecode caches, which only the first import pays.
        set_up(clock, run.cap, run.plan)
        if args.trace:
            metrics = measure_traced(run, args.seconds, rng,
                                     ROOT / ".perfbench_out")
        else:
            metrics = measure(run, args.seconds, rng)
    except (BenchError, udnr.LoadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        clock.close()

    print(f"workload {run.name}: cap {run.cap}, forward plan {run.plan}, "
          f"seed {args.seed}")
    print(f"  host speed {hostspeed.REF_S / statistics.median(clock.kernel_s):.3g}"
          f" of the reference (median of {len(clock.kernel_s)} kernel passes);"
          " times below are normalized to the reference")
    for key, (value, unit, note) in metrics.items():
        print(f"  {key} {value:.6g} {unit} ({note})")
    print(f"  failed_share {run.failed / run.attempted:.6g} share "
          f"({run.failed} of {run.attempted} operations)")
    for flags, n in sorted(run.flags.items()):
        print(f"  verdict flags [{flags}] x{n}")
    for problem in run.problems[:10]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
