"""Benchmark for popcrit: certified solving, rival audits and the oracle.

Usage, from the root of a checkout:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

The run builds its inputs from the seed (``workloads.py``), times
``import popcrit`` in fresh interpreters, then runs the workload in a
worker process of its own (``worker.py``) for S seconds, one operation at
a time.  It prints a readable summary and, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured with tracing off, with operation times in probes (the time of a
fixed loop timed around each operation, see ``worker.py``); with
``--trace 1`` they are the per-layer ones from a traced run.
``bench/README.md`` describes the workloads, the metrics and the
baseline.

Exit codes: 0 when a result was printed (``correct`` may still be false),
1 when the worker failed, 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
# Budget for the whole run, inside the 180 s a run may take.
RUN_LIMIT_S = 170.0

# The operation each workload measures.
WORKLOADS = {"ladder": "certify", "wide": "certify", "audit": "audit", "oracle": "oracle"}
SETUP_REPEATS = 5

END_TO_END = {
    "latency_p50_probes": "probes",
    "throughput_per_kprobe": "ops/kprobe",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Layers whose spans are reported as busy time.  Each is a leaf of the span
# tree, so its busy time is also its self time.
BUSY = [
    "model.parse_instance",
    "model.validate_instance",
    "solver.solve",
    "solver.trace_to_csv",
    "certificate.build_cloned_graph",
    "certificate.dual_assignment",
    "certificate.verify_certificate",
    "certificate.render_certificate_report",
    "certificate.map_matching_to_clones",
    "certificate.clone_matching_weight",
    "matchings.max_delta",
    "matchings.random_correspondence",
    "matchings.delta",
    "matchings.deficiency",
    "matchings.serialize_matching",
    "oracle.oracle_solve",
    "oracle.enumerate_matchings",
]
# Exact counts summed over the traced calls of a run.
COUNTS = {
    "solver.solve.proposals": "count",
    "solver.trace_to_csv.bytes": "bytes",
    "certificate.build_cloned_graph.clone_vertices": "count",
    "certificate.build_cloned_graph.clone_edges": "count",
    "matchings.max_delta.positions": "count",
    "matchings.max_delta.scipy_vertices": "count",
    "oracle.oracle_solve.matchings": "count",
    "oracle.oracle_solve.critical": "count",
    "oracle.oracle_solve.popular": "count",
}
PER_LAYER = {f"{name}.busy_s": "s" for name in BUSY}
PER_LAYER.update(COUNTS)
PER_LAYER.update(
    {
        "solver.solve.proposals_per_s": "proposals/s",
        "solver.solve.rejected_frac": "ratio",
        "solver.solve.budget_frac": "ratio",
        "solver.solve.rss_growth_mb": "MB",
        "certificate.verify_certificate.edges_per_s": "edges/s",
        "oracle.oracle_solve.matchings_per_s": "matchings/s",
        "cli.main.self_s": "s",
        "trace.overhead_s": "s",
    }
)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def import_program() -> None:
    """Import popcrit from this checkout's src/, and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import popcrit

    if Path(popcrit.__file__).resolve().parent != (SRC / "popcrit").resolve():
        sys.exit(f"error: imported popcrit from {popcrit.__file__}, not {SRC}")


def measure_setup(repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import popcrit and exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import popcrit"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def run_worker(spec: dict, seconds: int, trace: int, deadline: float) -> dict:
    spec_path = WORKDIR / "spec.json"
    out_path = WORKDIR / "result.json"
    spec_path.write_text(json.dumps(spec))
    argv = [sys.executable, str(Path(__file__).with_name("worker.py"))]
    argv += [str(spec_path), str(seconds), str(trace), str(out_path)]
    subprocess.run(argv, check=True, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out_path.read_text())


def high_percentile(values: list[float], unit: str) -> str:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond it."""
    for pct, beyond in ((99.9, 0.001), (99, 0.01), (90, 0.1)):
        if len(values) * beyond >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{pct:g} {cut[round(pct * 10) - 1]:.4g} {unit}"
    return "no percentile above p50 has ten samples beyond it"


def untraced(result: dict, kind: str) -> tuple[list[float], list[float]]:
    """Wall times of the untraced samples, and the same times in probes:
    each divided by the mean probe time around it.  Traced runs keep no
    probe times, and give no times in probes."""
    samples = [(t, probe) for t, traced, probe in result["samples"].get(kind, []) if not traced]
    return [t for t, _ in samples], [t / probe for t, probe in samples if probe]


def end_to_end(result: dict, kind: str, setup: list[float]) -> dict:
    _, probes = untraced(result, kind)
    return {
        "latency_p50_probes": statistics.median(probes) if probes else 0.0,
        "throughput_per_kprobe": ratio(1000 * len(probes), sum(probes)),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(result: dict, kind: str) -> dict:
    spans = result["spans"]
    busy: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        busy[span["name"]] += span["end"] - span["start"]
        for key, value in span["counts"].items():
            counts[f"{span['name']}.{key}"] += value
        if span["parent"] is not None:
            # A child's bookkeeping (its counters) is not its parent's work.
            covered[span["parent"]] += span["done"] - span["start"]
    samples = result["samples"].get(kind, [])
    traced = [t for t, on, _ in samples if on]
    plain = [t for t, on, _ in samples if not on]
    values = {f"{name}.busy_s": busy[name] for name in BUSY}
    values.update({name: counts[name] for name in COUNTS})
    proposals = counts["solver.solve.proposals"]
    values.update(
        {
            "solver.solve.proposals_per_s": ratio(proposals, busy["solver.solve"]),
            "solver.solve.rejected_frac": ratio(counts["solver.solve.rejected"], proposals),
            "solver.solve.budget_frac": ratio(proposals, counts["solver.solve.budget"]),
            "solver.solve.rss_growth_mb": counts["solver.solve.rss_growth_kb"] / 1024,
            "certificate.verify_certificate.edges_per_s": ratio(
                counts["certificate.verify_certificate.edges"],
                busy["certificate.verify_certificate"],
            ),
            "oracle.oracle_solve.matchings_per_s": ratio(
                counts["oracle.oracle_solve.matchings"], busy["oracle.oracle_solve"]
            ),
            "cli.main.self_s": sum(
                span["end"] - span["start"] - covered[i]
                for i, span in enumerate(spans)
                if span["name"] == "cli.main"
            ),
            # Paired passes over the same inputs, traced and untraced.
            "trace.overhead_s": (
                statistics.median(traced) - statistics.median(plain)
                if traced and plain
                else 0.0
            ),
        }
    )
    return values


def measure(
    workload: str,
    seed: int,
    seconds: int,
    trace: int,
    tiny: bool = False,
    noncritical_rival: bool = False,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """One benchmark run; returns the result object printed last."""
    deadline = time.monotonic() + RUN_LIMIT_S
    import_program()
    import workloads  # imports popcrit, so only after import_program()

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    setup = [] if trace else measure_setup(setup_repeats)
    spec = workloads.make_inputs(workload, seed, WORKDIR, tiny, noncritical_rival)
    result = run_worker(spec, seconds, trace, deadline)
    return summarize(workload, seed, seconds, trace, result, setup)


def summarize(workload, seed, seconds, trace, result, setup) -> dict:
    kind = WORKLOADS[workload]
    times, probes = untraced(result, kind)
    print(f"workload {workload}, seed {seed}, {seconds} s, tracing {'on' if trace else 'off'}")
    print(f"operation {kind}: {len(times)} untraced samples")
    for values, unit in ((times, "s"), (probes, "probes")):
        if values:
            median = statistics.median(values)
            print(f"  p50 {median:.4g} {unit}, {high_percentile(values, unit)}")
    print(
        f"failed_frac {result['failed']}/{result['attempted']} = "
        f"{ratio(result['failed'], result['attempted']):.4f} (failed/attempted)"
    )
    for error in result["errors"]:
        print("failure: " + error.rstrip())
    if trace:
        values, units = per_layer(result, kind), PER_LAYER
    else:
        values, units = end_to_end(result, kind, setup), END_TO_END
    for name, value in values.items():
        print(f"  {name:48} {value:14.6g} {units[name]}")
    return {
        "correct": result["failed"] == 0 and bool(times),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "popcrit" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'popcrit'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        line = measure(args.workload, args.seed, args.seconds, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
