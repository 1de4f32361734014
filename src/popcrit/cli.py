"""Command-line front end.

Subcommands cover the whole pipeline: ``solve`` runs the proposal
algorithm (optionally writing the proposal trace and the popularity
certificate), ``verify`` audits a matching file against an instance,
``oracle`` compares the solver against exhaustive enumeration, ``gen``
writes a random instance and ``trace`` replays a recorded proposal trace.

Exit codes: 0 on success, 1 for any parse, validation or usage error and
when memory runs out, 2 when a verification disagrees (certificate FAIL,
oracle mismatch, trace mismatch).
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from collections import deque
from itertools import zip_longest
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .certificate import (
    build_cloned_graph,
    dual_assignment,
    render_certificate_report,
    verify_certificate,
)
from .matchings import (
    blocking_pairs,
    deficiency,
    parse_matching,
    serialize_matching,
)
from .model import (
    GenParams,
    Instance,
    generate_random_instance,
    parse_instance,
    serialize_instance,
    validate_instance,  # unused here, but bench/worker.py wraps cli.validate_instance
)
from .oracle import DEFAULT_EDGE_BUDGET, oracle_solve
from .solver import _csv_blocks, _trace_rows, solve, trace_to_csv


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, keeping exit code 2
    reserved for verification disagreements."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_instance(path: str) -> Instance:
    return parse_instance(Path(path).read_text())


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    leveled, trace = solve(inst)
    m = leveled.matching
    d = deficiency(inst, m)
    sys.stdout.write(serialize_matching(inst, m))
    print(f"# deficiency {d.total} (A {d.total_a}, B {d.total_b})")
    print(f"# size {m.size}")
    print(f"# proposals {trace.proposal_count}")
    if args.emit_trace:
        Path(args.emit_trace).write_text(trace_to_csv(trace))
    if args.emit_certificate:
        g = build_cloned_graph(inst, leveled)
        cert = dual_assignment(g)
        report = verify_certificate(g, cert)
        Path(args.emit_certificate).write_text(
            render_certificate_report(g, cert, report)
        )
        if not report.ok:
            print(
                "certificate FAIL: " + ",".join(report.failed_checks),
                file=sys.stderr,
            )
            return 2
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    m = parse_matching(inst, Path(args.matching).read_text())
    d = deficiency(inst, m)
    blocking = blocking_pairs(inst, m)
    print(f"deficiency {d.total} (A {d.total_a}, B {d.total_b})")
    print(f"feasible {'yes' if d.total == 0 else 'no'}")
    print(f"blocking_pairs {len(blocking)}")
    for a, b in blocking:
        print(f"{inst.name(a)} {inst.name(b)}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    result = oracle_solve(inst, max_edges=args.budget)
    leveled, _ = solve(inst)
    m = leveled.matching
    d = deficiency(inst, m)
    popular = any(m.pairs == p.pairs for p in result.popular_critical)
    print(f"matchings {result.matching_count}")
    print(
        f"min_deficiency {result.min_deficiency} "
        f"(A {result.min_def_a}, B {result.min_def_b})"
    )
    print(f"critical {result.critical_count}")
    print(f"popular_critical {len(result.popular_critical)}")
    print(f"max_popular_size {result.max_popular_size}")
    print(f"solver_deficiency {d.total} (A {d.total_a}, B {d.total_b})")
    print(f"solver_size {m.size}")
    print(f"solver_popular {'yes' if popular else 'no'}")
    agree = (
        d.total == result.min_deficiency
        and d.total_a == result.min_def_a
        and d.total_b == result.min_def_b
        and popular
        and m.size == result.max_popular_size
    )
    if args.list:
        for i, n in enumerate(result.popular_critical, start=1):
            print(f"# popular_critical {i}")
            sys.stdout.write(serialize_matching(inst, n))
    print("PASS" if agree else "FAIL")
    return 0 if agree else 2


def _cmd_gen(args: argparse.Namespace) -> int:
    params = GenParams(
        n_a=args.n_a,
        n_b=args.n_b,
        max_upper=args.max_upper,
        lq_fraction=args.lq_fraction,
        edge_density=args.edge_density,
        seed=args.seed,
    )
    text = serialize_instance(generate_random_instance(params))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _fresh_rows(inst: Instance) -> Iterator[list[str]]:
    """The rows of a fresh trace of inst, read back one block at a time.
    inst is solved when the first row is asked for."""
    blocks = _csv_blocks(solve(inst)[1])
    yield from _trace_rows(line for block in blocks for line in io.StringIO(block))


def _cmd_trace(args: argparse.Namespace) -> int:
    """Compare the recorded trace with a fresh one row by row, holding
    neither as a list of rows; both are read through the reader of
    ``read_trace_csv``.  ``zip_longest`` asks the recording first, so its
    header is checked before the instance is solved; and the recording is
    read to its end before any verdict, so that a CSV error anywhere in it
    is reported first."""
    inst = _load_instance(args.instance)
    with open(args.trace) as recorded:
        expected, actual = _trace_rows(recorded), _fresh_rows(inst)
        count = 0
        for count, (want, got) in enumerate(zip_longest(expected, actual), start=1):
            if want != got:
                break
        else:
            print(f"MATCH {count} proposals")
            return 0
        deque(expected, maxlen=0)
    print(f"MISMATCH at proposal {count}")
    if want is not None:
        print("expected " + ",".join(want))
    if got is not None:
        print("actual   " + ",".join(got))
    return 2


# Built once per process: every add_argument makes a help formatter, which
# asks for the terminal size.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="popcrit",
        description=(
            "Popular critical matchings with two-sided preferences and "
            "two-sided lower quotas."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser(
        "solve", help="run the proposal algorithm on an instance file"
    )
    p_solve.add_argument("instance")
    p_solve.add_argument(
        "--emit-trace",
        metavar="PATH",
        help="write the proposal trace as CSV",
    )
    p_solve.add_argument(
        "--emit-certificate",
        metavar="PATH",
        help="write the popularity certificate report; exit 2 if it FAILs",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="audit a matching file against an instance"
    )
    p_verify.add_argument("instance")
    p_verify.add_argument("matching")
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser(
        "oracle",
        help="exhaustively analyze a small instance and compare the solver",
    )
    p_oracle.add_argument("instance")
    p_oracle.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_EDGE_BUDGET,
        help="maximum edge count accepted for enumeration",
    )
    p_oracle.add_argument(
        "--list",
        action="store_true",
        help="also print every popular critical matching",
    )
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="write a random instance")
    p_gen.add_argument("--n-a", type=int, default=3)
    p_gen.add_argument("--n-b", type=int, default=3)
    p_gen.add_argument("--max-upper", type=int, default=3)
    p_gen.add_argument("--lq-fraction", type=float, default=0.5)
    p_gen.add_argument("--edge-density", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", metavar="PATH")
    p_gen.set_defaults(func=_cmd_gen)

    p_trace = sub.add_parser(
        "trace", help="replay a recorded proposal trace and compare"
    )
    p_trace.add_argument("instance")
    p_trace.add_argument("trace")
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        # A backstop: a MemoryError usually carries no message.
        print("error: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
