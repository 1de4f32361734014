"""Seeded inputs for the benchmark workloads.

The benchmark writes its own instance text instead of calling the
program's generator, so an edit to ``popcrit.model`` cannot reshape a
workload.  Each shape is built to vary as little as possible from one seed
to the next: edge sets are regular bipartite graphs (a random circulant
with both sides relabelled), and quotas are a fixed multiset dealt to
random vertices.  The seed moves the graph, the placement of the quotas
and the preference orders; the instance size, the edge count, the level
count s + t + 1 and (on ``ladder``) the proposal count stay nearly fixed,
which keeps the run-to-run spread of the timings small.

``make_inputs`` writes the instance and matching files of one run and
returns the spec the worker process reads.  The worker receives only
those files.
"""

from __future__ import annotations

import random
from pathlib import Path

import popcrit

# Each side has n vertices.  ``ladder`` puts most of the time in the solver:
# about 108 levels and 22k proposals per instance.  ``wide`` has few levels
# but high quotas, so the cloned graph is large (about 1.2k clone vertices
# and 38k clone edges) and certificate checking dominates.
SHAPES = {
    "ladder": {"n": 70, "degree": 11, "max_upper": 3},
    "wide": {"n": 30, "degree": 27, "max_upper": 20},
    "oracle": {"n": 5, "edges": 13},
}
# Lower quotas dealt to each side of a ``wide`` instance; every other vertex
# has lower quota 0.
WIDE_LOWER = (1, 3)
# Instances per run, more than a run of the default length uses up; the
# worker starts over from the first one if it runs out.
POOL = {"ladder": 8, "wide": 12, "audit": 5, "oracle": 600}
RIVALS_PER_INSTANCE = 3

# A small shape for the self-test, which only checks the plumbing.
TINY_SHAPES = {
    "ladder": {"n": 8, "degree": 3, "max_upper": 3},
    "wide": {"n": 8, "degree": 6, "max_upper": 5},
    "oracle": SHAPES["oracle"],
}
TINY_POOL = {"ladder": 2, "wide": 2, "audit": 1, "oracle": 4}


def regular_edges(rng: random.Random, n: int, degree: int) -> list[tuple[int, int]]:
    """Edges of a degree-regular bipartite graph on n + n vertices."""
    offsets = rng.sample(range(n), degree)
    a_label = list(range(n))
    b_label = list(range(n))
    rng.shuffle(a_label)
    rng.shuffle(b_label)
    return sorted(
        (a_label[i], b_label[(i + k) % n]) for i in range(n) for k in offsets
    )


def ladder_quotas(rng: random.Random, n: int, max_upper: int) -> list[tuple[int, int]]:
    """Upper quotas cycle through 1..max_upper; half of each upper-quota
    class also gets a lower quota, cycling through 1..upper."""
    quotas = []
    for upper in range(1, max_upper + 1):
        count = len(range(upper - 1, n, max_upper))
        with_lower = round(count / 2)
        quotas += [(1 + k % upper, upper) for k in range(with_lower)]
        quotas += [(0, upper)] * (count - with_lower)
    rng.shuffle(quotas)
    return quotas


def wide_quotas(rng: random.Random, n: int, max_upper: int) -> list[tuple[int, int]]:
    """Upper quotas spread evenly over 1..max_upper; the lower quotas of
    WIDE_LOWER go to random vertices whose upper quota admits them."""
    uppers = [1 + (max_upper - 1) * k // (n - 1) for k in range(n)]
    rng.shuffle(uppers)
    quotas = [(0, upper) for upper in uppers]
    for lower in WIDE_LOWER:
        slot = rng.choice(
            [i for i, (lo, up) in enumerate(quotas) if lo == 0 and up >= lower]
        )
        quotas[slot] = (lower, quotas[slot][1])
    return quotas


def oracle_quotas(rng: random.Random) -> list[tuple[int, int]]:
    """A fixed quota multiset for five vertices, dealt at random."""
    quotas = [(0, 1), (1, 1), (0, 2), (1, 2), (2, 3)]
    rng.shuffle(quotas)
    return quotas


def render(
    rng: random.Random,
    edges: list[tuple[int, int]],
    a_quotas: list[tuple[int, int]],
    b_quotas: list[tuple[int, int]],
) -> str:
    """Instance text with uniformly shuffled preference orders."""
    a_lists: list[list[str]] = [[] for _ in a_quotas]
    b_lists: list[list[str]] = [[] for _ in b_quotas]
    for i, j in edges:
        a_lists[i].append(f"b{j + 1}")
        b_lists[j].append(f"a{i + 1}")
    lines = [f"A a{i + 1} {lo} {up}" for i, (lo, up) in enumerate(a_quotas)]
    lines += [f"B b{j + 1} {lo} {up}" for j, (lo, up) in enumerate(b_quotas)]
    for prefix, lists in (("a", a_lists), ("b", b_lists)):
        for k, names in enumerate(lists):
            rng.shuffle(names)
            lines.append(" ".join([f"PREF {prefix}{k + 1}"] + names))
    return "\n".join(lines) + "\n"


def structure(rng: random.Random, kind: str, shape: dict):
    """Edges and per-side quotas of one instance of the given shape."""
    n = shape["n"]
    if kind == "oracle":
        pairs = [(i, j) for i in range(n) for j in range(n)]
        return sorted(rng.sample(pairs, shape["edges"])), oracle_quotas(rng), oracle_quotas(rng)
    make_quotas = ladder_quotas if kind == "ladder" else wide_quotas
    return (
        regular_edges(rng, n, shape["degree"]),
        make_quotas(rng, n, shape["max_upper"]),
        make_quotas(rng, n, shape["max_upper"]),
    )


def rival_text(rng: random.Random, edges, a_quotas, b_quotas) -> str:
    """A critical rival: the solver's matching for the same edges and quotas
    under reshuffled preference orders.  Deficiency depends only on edges
    and quotas, so the result has the minimum deficiency of the original
    instance; the worker checks this before auditing it."""
    inst = popcrit.parse_instance(render(rng, edges, a_quotas, b_quotas))
    leveled, _ = popcrit.solve(inst)
    return popcrit.serialize_matching(inst, leveled.matching)


def make_inputs(
    workload: str,
    seed: int,
    workdir: Path,
    tiny: bool = False,
    noncritical_rival: bool = False,
) -> dict:
    """Write the instance and matching files of one run into workdir.

    ``tiny`` swaps in the self-test shapes.  ``noncritical_rival`` adds the
    empty matching as a rival of the first audited instance, which the
    worker must count as a failed audit.
    """
    shapes = TINY_SHAPES if tiny else SHAPES
    pool = (TINY_POOL if tiny else POOL)[workload]
    kind = "wide" if workload == "audit" else workload
    rng = random.Random(f"{workload}:{seed}")

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text)
        return str(path)

    # One small instance with one rival, run through every operation
    # before the measured loop.
    edges, qa, qb = structure(rng, "oracle", SHAPES["oracle"])
    warmup = {
        "instance": write("warmup.inst", render(rng, edges, qa, qb)),
        "rivals": [write("warmup-rival.match", rival_text(rng, edges, qa, qb))],
    }

    items = []
    for i in range(pool):
        edges, qa, qb = structure(rng, kind, shapes[kind])
        item = {"instance": write(f"{i}.inst", render(rng, edges, qa, qb))}
        if workload == "audit":
            item["rivals"] = [
                write(f"{i}-rival{r}.match", rival_text(rng, edges, qa, qb))
                for r in range(RIVALS_PER_INSTANCE)
            ]
        items.append(item)
    if noncritical_rival:
        items[0]["rivals"].append(write("empty.match", ""))

    return {
        "workload": workload,
        "warmup": warmup,
        "items": items,
        "correspondence_seed": rng.randrange(2**32),
        "trace_csv": str(workdir / "out-trace.csv"),
        "certificate": str(workdir / "out-cert.txt"),
    }
