"""Benchmark worker: runs one workload in a process of its own.

Usage: python3 bench/worker.py SPEC.json SECONDS TRACE OUT.json

The spec (see ``workloads.make_inputs``) names instance and matching files
only.  The worker drives the program through ``popcrit.cli.main``
in-process, with stdout and stderr captured, and through the functions the
``popcrit`` package exports.  It is closed loop: one operation at a time,
the next starting when the previous one has finished.

Operations, by workload:

- ``certify`` (ladder, wide): ``popcrit solve INST --emit-trace T
  --emit-certificate C``.
- ``audit`` (audit): ``max_delta`` of a critical rival against the
  solver's matching, then ``delta`` on a ``random_correspondence``, then
  ``map_matching_to_clones`` and ``clone_matching_weight`` on the cloned
  graph of the solver's matching.
- ``oracle`` (oracle): ``popcrit oracle INST``.

Before the measured loop, one operation of each kind runs on a small
instance.  It lets lazy set-up finish before timing and, in a traced run,
gives every layer at least one span.  Its gates count; its times are not
samples.

Correctness gates run after the timed span.  An operation fails on an
exception (``MemoryError`` included), a nonzero exit code, a certificate
FAIL, a non-empty ``check_output_properties``, more proposals than
(s + t + 2)·|E|, a trace CSV that ``read_trace_csv`` rejects, an oracle
FAIL, an audited rival that beats the solver's matching
(``max_delta > 0``) or a lifted weight that differs from ``delta``.  A
rival whose per-side deficiencies differ from those of the solver's
matching is not critical: it counts as one failed audit and is dropped.

The host's speed swings by up to 1.8x within seconds.  So that a sample
can be put in terms of the machine's speed at the time, an untraced run
keeps a ticker going (``SpeedTicker``): every 50 ms a timer signal
interrupts the worker, which times a short fixed loop, the probe, and keeps
when it ran and how long it took.  A sample is then the operation's wall
time less the ticks inside it, with the mean probe time of the ticks
within 0.1 s of it.

With TRACE set to 1 every item runs twice, traced and untraced, in
alternating order, so that the tracing overhead is measured on the same
inputs.  A traced operation records one span per call into the program:
the calls ``popcrit.cli`` makes (its imported names are wrapped) and the
calls the audit makes.  Spans stay in memory and are written to the result
file at the end.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import random
import signal
import sys
import time
import traceback
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import popcrit  # noqa: E402
from popcrit import cli  # noqa: E402

# The ticker's period, the probe's length, and how far around an operation
# its ticks are taken.
TICK_S = 0.05
PROBE_ROUNDS = 1000
WINDOW_S = 0.1


def vm_hwm_kb() -> int:
    """This process's peak resident set size in KiB.

    Read from /proc rather than ``getrusage``: a child started with vfork
    or posix_spawn inherits the parent's ``ru_maxrss``, so that figure would
    not belong to the workload alone.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _probe_data() -> tuple[list[int], dict[int, int], list[int]]:
    """A shuffled list of 64k ints, a dict of 16k ints and 1000 random
    positions in the list: about 4 MB, more than a core's own caches hold."""
    rng = random.Random(0)
    values = list(range(1 << 16))
    rng.shuffle(values)
    table = {i: i for i in range(1 << 14)}
    return values, table, [rng.randrange(1 << 16) for _ in range(PROBE_ROUNDS)]


_PROBE_VALUES, _PROBE_TABLE, _PROBE_AT = _probe_data()


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop of list and dict look-ups at
    scattered places, the kind of memory access the program makes: a
    yardstick for how fast the machine runs at the moment.  It takes
    about 0.2 ms with its data cached and about 1 ms inside the workload,
    which keeps pushing that data out.  It makes no objects the garbage
    collector tracks, so it does not move the collections of an operation
    it interrupts."""
    values, table = _PROBE_VALUES, _PROBE_TABLE
    total = 0
    start = time.perf_counter()
    for i in _PROBE_AT:
        total += values[i] + table.get(i & 0x3FFF, 0)
    return time.perf_counter() - start


class SpeedTicker:
    """Times the probe every TICK_S of wall time, on a timer signal."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def _tick(self, signum, frame) -> None:
        took = probe_s()
        self.took.append(took)
        self.at.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def sample(self, start: float, end: float) -> tuple[float, float]:
        """The wall time of [start, end] less the ticks inside it, and the
        mean probe time of the ticks that ended within WINDOW_S of it.  A
        tick runs between two bytecodes, so it lies wholly inside the
        interval or wholly outside."""
        inside = near = 0.0
        count = 0
        for at, took in zip(self.at, self.took):
            if start < at < end:
                inside += took
            if start - WINDOW_S < at < end + WINDOW_S:
                near += took
                count += 1
        return end - start - inside, near / count


def count_solve(args, result) -> dict:
    (inst,) = args
    _, trace = result
    s, t = inst.sum_lower(popcrit.Side.A), inst.sum_lower(popcrit.Side.B)
    return {
        "proposals": trace.proposal_count,
        "rejected": sum(ev.rejected is not None for ev in trace.events),
        "budget": (s + t + 2) * len(inst.edges),
    }


def count_max_delta(args, result) -> dict:
    """Positions the vote kernel pairs up, and the vertices whose padded
    size exceeds the permutation limit of 5 (the Hungarian route)."""
    inst, m, n = args
    sizes = [
        max(len(n.partners(v) - m.partners(v)), len(m.partners(v) - n.partners(v)))
        for v in inst.all_vertices()
    ]
    return {"positions": sum(sizes), "scipy_vertices": sum(k > 5 for k in sizes)}


# Names popcrit.cli imports, with their layer and a counter of the work a
# call did.  A counter runs after the span's end time and is excluded from
# the caller's self time.
CLI_CALLS = {
    "parse_instance": ("model", None),
    "validate_instance": ("model", None),
    "solve": ("solver", count_solve),
    "trace_to_csv": ("solver", lambda args, out: {"bytes": len(out)}),
    "build_cloned_graph": (
        "certificate",
        lambda args, g: {"clone_vertices": len(g.vertices), "clone_edges": len(g.edges)},
    ),
    "dual_assignment": ("certificate", None),
    "verify_certificate": ("certificate", lambda args, out: {"edges": len(args[0].edges)}),
    "render_certificate_report": ("certificate", None),
    "deficiency": ("matchings", None),
    "serialize_matching": ("matchings", None),
    "oracle_solve": (
        "oracle",
        lambda args, r: {
            "matchings": r.matching_count,
            "critical": r.critical_count,
            "popular": len(r.popular_critical),
        },
    ),
}
# Results of CLI calls kept for the gates and the warm-up audit.  Only the
# leveled matching of ``solve`` is kept, never its trace, which on ladder
# holds most of the process's memory.
CAPTURE = {"solve": lambda result: result[0], "build_cloned_graph": lambda g: g}


class Tracer:
    """Records spans around calls into the program while ``on`` is set.

    A span holds the layer-qualified name, the start and end of the call,
    the time its bookkeeping finished, the index of the enclosing span and
    the operation id.  While ``on`` is clear, a call costs one extra Python
    call and records nothing.
    """

    def __init__(self) -> None:
        self.on = False
        self.op = 0
        self.spans: list[dict] = []
        self.captured: dict = {}
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs=None, count=None, rss=False):
        kwargs = kwargs or {}
        if not self.on:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = {"name": name, "op": self.op, "counts": {}}
        span["parent"] = self._stack[-1] if self._stack else None
        self.spans.append(span)
        self._stack.append(index)
        hwm = vm_hwm_kb() if rss else 0
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = span["done"] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span["counts"] = count(args, result)
        if rss:
            span["counts"]["rss_growth_kb"] = vm_hwm_kb() - hwm
        span["done"] = time.perf_counter()
        return result

    def instrument_cli(self) -> None:
        """Replace the names popcrit.cli imported by recording wrappers."""
        for key, (layer, count) in CLI_CALLS.items():
            fn = getattr(cli, key)
            name = f"{layer}.{key}"

            def wrapper(*args, _fn=fn, _name=name, _count=count, _key=key, **kwargs):
                result = self.call(_name, _fn, args, kwargs, _count, rss=_key == "solve")
                if _key in CAPTURE:
                    self.captured[_key] = CAPTURE[_key](result)
                return result

            setattr(cli, key, wrapper)


class GateError(Exception):
    """An operation ran but its output failed a correctness gate."""


class Worker:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.tracer = Tracer()
        self.tracer.instrument_cli()
        self.samples: dict[str, list[tuple[float, bool, float | None]]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tracer.call("cli.main", cli.main, (argv,))
        return code, out.getvalue(), err.getvalue()

    def attempt(self, kind: str, op, traced: bool) -> tuple[float, float] | None:
        """Run one operation at the given tracing setting and gate it;
        return the start and end of its timed part, or None if it failed.

        A full collection first empties the collector's young generations,
        as in a fresh ``popcrit`` process, so that when collections fall
        inside an operation depends on that operation alone.
        """
        gc.collect()
        self.tracer.captured.clear()
        self.tracer.op += 1
        self.tracer.on = traced
        self.attempted += 1
        try:
            return op()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.fail(kind, exc)
            return None
        finally:
            self.tracer.on = False

    def fail(self, kind: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            detail = "" if isinstance(exc, GateError) else traceback.format_exc()
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}\n{detail}")

    # Operations.  Each returns the start and end of its timed part and
    # raises on any failure.

    def certify(self, path: str) -> tuple[float, float]:
        trace_csv, cert = self.spec["trace_csv"], self.spec["certificate"]
        argv = ["solve", path, "--emit-trace", trace_csv, "--emit-certificate", cert]
        start = time.perf_counter()
        code, _, err = self.run_cli(argv)
        end = time.perf_counter()
        if code != 0:
            raise GateError(f"exit code {code}: {err.strip()}")
        verdict = Path(cert).read_text().splitlines()[-1]
        if verdict != "VERDICT PASS":
            raise GateError(verdict)
        inst = popcrit.parse_instance(Path(path).read_text())
        problems = popcrit.check_output_properties(inst, self.tracer.captured["solve"])
        if problems:
            raise GateError("; ".join(problems[:3]))
        rows = popcrit.read_trace_csv(Path(trace_csv).read_text())
        s, t = inst.sum_lower(popcrit.Side.A), inst.sum_lower(popcrit.Side.B)
        budget = (s + t + 2) * len(inst.edges)
        if len(rows) > budget:
            raise GateError(f"{len(rows)} proposals exceed the budget {budget}")
        return start, end

    def oracle(self, path: str) -> tuple[float, float]:
        start = time.perf_counter()
        code, out, err = self.run_cli(["oracle", path])
        end = time.perf_counter()
        if code != 0 or out.splitlines()[-1:] != ["PASS"]:
            raise GateError(f"oracle exit code {code}: {(out + err).strip()[-200:]}")
        if self.tracer.on:
            # Timed on its own, outside the operation: the enumeration's
            # share of oracle_solve.
            inst = popcrit.parse_instance(Path(path).read_text())
            self.tracer.call(
                "oracle.enumerate_matchings",
                lambda i: deque(popcrit.enumerate_matchings(i), maxlen=0),
                (inst,),
            )
        return start, end

    def audit(self, target: dict, rival_text: str, number: int) -> tuple[float, float]:
        inst, g = target["inst"], target["graph"]
        m = g.leveled.matching
        n = popcrit.parse_matching(inst, rival_text)
        rng = random.Random(self.spec["correspondence_seed"] + number)
        call = self.tracer.call
        start = time.perf_counter()
        gain = call(
            "matchings.max_delta", popcrit.max_delta, (inst, m, n), count=count_max_delta
        )
        corr = call(
            "matchings.random_correspondence",
            popcrit.random_correspondence,
            (inst, n, m, rng),
        )
        value = call("matchings.delta", popcrit.delta, (inst, n, m, corr))
        lifted = call(
            "certificate.map_matching_to_clones",
            popcrit.map_matching_to_clones,
            (g, inst, n, corr),
        )
        weight = call(
            "certificate.clone_matching_weight",
            popcrit.clone_matching_weight,
            (g, inst, lifted),
        )
        end = time.perf_counter()
        if gain > 0:
            raise GateError(f"rival beats the solver's matching by {gain}")
        if weight != value:
            raise GateError(f"lifted weight {weight} != delta {value}")
        return start, end

    def critical_rivals(self, inst, m, paths: list[str]) -> list[str]:
        """Texts of the rivals whose per-side deficiencies equal those of m;
        each other rival counts as a failed audit."""
        want = popcrit.deficiency(inst, m)
        kept = []
        for path in paths:
            text = Path(path).read_text()
            try:
                got = popcrit.deficiency(inst, popcrit.parse_matching(inst, text))
                if (got.total_a, got.total_b) != (want.total_a, want.total_b):
                    raise GateError(
                        f"{Path(path).name} is not critical: deficiency "
                        f"(A {got.total_a}, B {got.total_b}) against "
                        f"(A {want.total_a}, B {want.total_b})"
                    )
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                self.attempted += 1
                self.fail("audit", exc)
                continue
            kept.append(text)
        return kept

    def audit_target(self, item: dict) -> dict:
        """The instance, the cloned graph of the solver's matching and the
        critical rivals of an audit item, prepared outside the timed loop."""
        inst = popcrit.parse_instance(Path(item["instance"]).read_text())
        leveled, _ = popcrit.solve(inst)
        g = popcrit.build_cloned_graph(inst, leveled)
        rivals = self.critical_rivals(inst, leveled.matching, item["rivals"])
        return {"inst": inst, "graph": g, "rivals": rivals}

    def warmup(self, traced: bool) -> None:
        path = self.spec["warmup"]["instance"]
        self.attempt("certify", lambda: self.certify(path), traced)
        g = self.tracer.captured.get("build_cloned_graph")
        if g is not None:
            inst = popcrit.parse_instance(Path(path).read_text())
            target = {"inst": inst, "graph": g}
            for text in self.critical_rivals(
                inst, g.leveled.matching, self.spec["warmup"]["rivals"]
            ):
                self.attempt("audit", lambda: self.audit(target, text, -1), traced)
        self.attempt("oracle", lambda: self.oracle(path), traced)

    def operations(self):
        """The workload's operations in order, as (kind, callable) pairs;
        the list is cycled if the run outlasts it."""
        workload = self.spec["workload"]
        items = self.spec["items"]
        if workload == "audit":
            targets = []
            for item in items:
                try:
                    targets.append(self.audit_target(item))
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    self.attempted += 1
                    self.fail("audit", exc)
            pairs = [(t, text) for t in targets for text in t["rivals"]]
            return [
                ("audit", lambda k, t=t, text=text: self.audit(t, text, k))
                for t, text in pairs
            ]
        kind = "oracle" if workload == "oracle" else "certify"
        op = self.oracle if kind == "oracle" else self.certify
        return [(kind, lambda k, p=item["instance"]: op(p)) for item in items]

    def run(self, seconds: float, trace: bool) -> None:
        self.warmup(traced=trace)
        ops = self.operations()
        if not ops:
            return
        # Objects made before the loop (modules, prepared audit inputs) leave
        # the collector's view, so the collection before each operation
        # scans only what the last operation left behind.
        gc.freeze()
        timed: list[tuple[str, bool, tuple[float, float]]] = []
        ticker = None if trace else SpeedTicker()
        if ticker:
            ticker.start()
        try:
            start = time.perf_counter()
            for k in itertools.count():
                elapsed = time.perf_counter() - start
                # Start the next item only if it should finish within the run.
                if k and elapsed + elapsed / k > seconds:
                    break
                kind, op = ops[k % len(ops)]
                order = (True, False) if k % 2 == 0 else (False, True)
                for traced in order if trace else (False,):
                    span = self.attempt(kind, lambda: op(k), traced)
                    if span is not None:
                        timed.append((kind, traced, span))
        finally:
            if ticker:
                ticker.stop()
        # A sample is (wall time, traced, mean probe time or None).
        for kind, traced, (begin, end) in timed:
            took, probe = ticker.sample(begin, end) if ticker else (end - begin, None)
            self.samples.setdefault(kind, []).append((took, traced, probe))

    def result(self) -> dict:
        return {
            "samples": self.samples,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "peak_rss_kb": vm_hwm_kb(),
            "spans": self.tracer.spans,
        }


def main(argv: list[str]) -> int:
    spec_path, seconds, trace, out_path = argv
    worker = Worker(json.loads(Path(spec_path).read_text()))
    worker.run(float(seconds), trace == "1")
    Path(out_path).write_text(json.dumps(worker.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
