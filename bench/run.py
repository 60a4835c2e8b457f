"""gpea benchmark: one workload per process, closed loop, one client.

Usage (from the repository root)::

    python3 bench/run.py --workload enumerate-5 --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``enumerate-5`` — ``gpea enumerate --size 5``, in-process;
* ``verify-4`` — ``gpea verify all --budget 4``, in-process;
* ``queries`` — the query pool in a seeded order, CLI and library calls.

The harness runs passes of the workload back to back for ``--seconds``
(at least one pass, and none that would end past the deadline), checks every outcome against the
expected answers, and prints ``METRIC`` lines, a ``RUNINFO`` line and, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run first measures untraced passes, then wraps the
program's public functions and measures traced passes, and reports
per-layer metrics per pass, writing every aggregated span to
``.bench_trace/<workload>-seed<seed>.json``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"
TRACE_DIR = REPO_ROOT / ".bench_trace"

# Fresh imports timed per run; setup_s is their median.
SETUP_REPEATS = 11

# Candidate tail percentiles, highest first.  query_tail_ms is the median
# over passes of each pass's tail: the highest level with at least 10
# samples beyond it in one pass.  The level depends on the pool size only,
# so it is the same in every run of a workload.
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)

# Functions reported per layer: <name>.calls, .self_pct and .raised.
LAYER_FUNCTIONS = (
    "core.FiniteGpea",
    "core.validate_axioms",
    "core.find_morphisms",
    "core.is_isomorphism",
    "core.classify",
    "core.pea_view",
    "core.induced_order",
    "catalog.enumerate_gpeas",
    "catalog.parse",
    "catalog.serialize",
    "catalog.builtin",
    "ideals.classify_subset",
    "ideals.enumerate_ideals",
    "ideals.ideal_closure",
    "ideals.smallest_normal_riesz_ideal",
    "ideals.congruences",
    "ideals.classify_relation",
    "unitization.enumerate_unitizing",
    "unitization.gamma_unitize",
    "unitization.is_unitizing",
    "unitization.recognize_unitization",
    "unitization.two_valued_states",
    "kites.power_gpea",
    "kites.index_connectivity",
    "kites.build_kite",
    "kites.kite_iso",
    "rdp.rdp_profile",
    "verify.run_verify",
    "cli.run",
)


def _fresh_import():
    """Import ``gpea`` from ``src/`` as a first import would, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "gpea" or m.startswith("gpea.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gpea = importlib.import_module("gpea")
    importlib.import_module("gpea.cli")
    if not Path(gpea.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gpea imported from {gpea.__file__}, not from {SRC}")
    return gpea


def _setup(workload: str, seed: int):
    gpea = _fresh_import()
    return workloads.Workload(workload, gpea, seed, workloads.load_expected())


class Measurement:
    """Per-pass operation latencies and the failures seen in one phase."""

    def __init__(self) -> None:
        self.passes: list[list[float]] = []
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def latencies(self) -> list[float]:
        return [dt for latencies in self.passes for dt in latencies]

    @property
    def pass_walls(self) -> list[float]:
        return [sum(latencies) for latencies in self.passes]


def _measure(wl, seconds: float) -> Measurement:
    m = Measurement()
    start = time.perf_counter()
    while True:
        gc.collect()
        latencies = []
        for query in wl.next_pass():
            t = time.perf_counter()
            outcome = workloads.outcome_of(query.run)
            latencies.append(time.perf_counter() - t)
            m.attempted += 1
            problem = wl.check(query, outcome)
            if problem is not None:
                m.failures.append(f"{query.id}: {problem}")
        m.passes.append(latencies)
        # Stop before a pass that would end past the deadline; at least one pass.
        elapsed = time.perf_counter() - start
        if elapsed * (len(m.passes) + 1) / len(m.passes) > seconds:
            return m


def _tail_level(pass_size: int) -> float:
    for level in TAIL_LEVELS:
        if pass_size * (1 - level / 100) >= 10:
            return level
    return 100.0  # too few operations per pass for a percentile: the slowest


def _nearest_rank(values: list[float], level: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(level / 100 * len(ordered)) - 1)]


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _per_layer(tracer, traced: Measurement, untraced: Measurement) -> dict:
    from tracer import CONSTRUCTOR, RELABEL

    passes = len(traced.pass_walls)
    wall = sum(traced.pass_walls)

    def per_pass(count: int):
        return count // passes if count % passes == 0 else count / passes

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = (per_pass(tracer.calls(name)), "count")
        metrics[f"{name}.self_pct"] = (100 * tracer.self_seconds(name) / wall, "%")
        metrics[f"{name}.raised"] = (per_pass(tracer.raised(name)), "count")
    leaves = tracer.calls_via[("core.validate_axioms", "catalog")]
    metrics["catalog.leaves"] = (per_pass(leaves), "count")
    metrics["catalog.kept_per_leaf"] = (
        ratio(tracer.returned["catalog.enumerate_gpeas"], leaves),
        "ratio",
    )
    metrics["catalog.relabels"] = (
        per_pass(tracer.calls_under(RELABEL, "catalog.enumerate_gpeas")),
        "count",
    )
    metrics["core.find_morphisms.hit_ratio"] = (
        ratio(
            tracer.returned["core.find_morphisms"],
            tracer.calls_under("core.is_isomorphism", "core.find_morphisms"),
        ),
        "ratio",
    )
    metrics["ideals.distinct_per_closure"] = (
        ratio(tracer.returned["ideals.enumerate_ideals"], tracer.calls("ideals.ideal_closure")),
        "ratio",
    )
    traced_wall = statistics.median(traced.pass_walls)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced.pass_walls), "s")
    missing = [n for n in LAYER_FUNCTIONS if n not in tracer.public and n != CONSTRUCTOR]
    if missing:
        print(f"warning: not public functions of the program: {missing}", file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl = _setup(args.workload, args.seed)
            setups.append(time.perf_counter() - t)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    untraced = _measure(wl, args.seconds)
    problems = wl.final_problems()
    phases = [untraced]
    level = _tail_level(len(wl.pool))
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced = _measure(wl, args.seconds)
        phases.append(traced)
        metrics = _per_layer(tracer, traced, untraced)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "passes": len(traced.pass_walls),
                    "traced_wall_s": sum(traced.pass_walls),
                    "calls_via": sorted([n, b, c] for (n, b), c in tracer.calls_via.items()),
                    "spans": tracer.span_table(),
                },
                indent=1,
            )
        )
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(untraced.pass_walls), "s"),
            "query_p50_ms": (1000 * statistics.median(untraced.latencies), "ms"),
            "query_tail_ms": (
                1000 * statistics.median(_nearest_rank(p, level) for p in untraced.passes),
                "ms",
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    failed = len(failures)
    for line in (failures + problems)[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"METRIC {name} {value} {unit}")
    print(f"METRIC error_rate {failed / attempted} ratio")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "passes": len(untraced.pass_walls),
        "operations": len(untraced.latencies),
        "tail_percentile": level,
        "setup_samples_s": setups,
    }
    print("RUNINFO " + json.dumps(info))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
