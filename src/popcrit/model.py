"""Instance model for many-to-many bipartite matching with two-sided quotas.

An instance has two disjoint vertex sets, side A and side B.  Every vertex
carries a lower and an upper quota (0 <= lower <= upper) and a strict
preference order over a subset of the opposite side.  Preferences must be
mutual: b appears in a's list exactly when a appears in b's list, and the
edge set of the instance is exactly the set of mutually acceptable pairs.

Instances are plain immutable data.  ``validate_instance`` reports every
violated invariant instead of stopping at the first, so programmatically
built instances can be checked wholesale; ``parse_instance`` refuses to
return an invalid instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple


class Side(str, Enum):
    A = "A"
    B = "B"


# An alias of the member that per-entry loops compare with: looking up an
# enum member through its class costs about 165 ns on Python 3.11.
_SIDE_A = Side.A


class VertexId(NamedTuple):
    side: Side
    index: int


Edge = tuple[VertexId, VertexId]


class Quotas(NamedTuple):
    lower: int
    upper: int


class InstanceFormatError(ValueError):
    """Raised for malformed or inconsistent instance text."""


@dataclass(frozen=True)
class Instance:
    """A bipartite preference instance with per-vertex quota intervals.

    Vertices are identified positionally: ``VertexId(Side.A, i)`` is the
    i-th declared A-vertex.  Preference tuples hold opposite-side vertex
    ids in strictly decreasing preference (index 0 is the most preferred).
    """

    a_names: tuple[str, ...]
    b_names: tuple[str, ...]
    a_quotas: tuple[Quotas, ...]
    b_quotas: tuple[Quotas, ...]
    a_prefs: tuple[tuple[VertexId, ...], ...]
    b_prefs: tuple[tuple[VertexId, ...], ...]

    def vertices(self, side: Side) -> Iterator[VertexId]:
        count = len(self.a_names) if side is Side.A else len(self.b_names)
        for i in range(count):
            yield VertexId(side, i)

    def all_vertices(self) -> Iterator[VertexId]:
        yield from self.vertices(Side.A)
        yield from self.vertices(Side.B)

    def name(self, v: VertexId) -> str:
        return (self.a_names if v.side is Side.A else self.b_names)[v.index]

    def label(self, v: VertexId) -> str:
        """v's name, or its side and index when v lies outside the instance,
        so that an error message about a stray id can itself be built."""
        if v in self._ranks:
            return self.name(v)
        return f"unknown vertex {v.side.value}[{v.index}]"

    def quotas(self, v: VertexId) -> Quotas:
        return (self.a_quotas if v.side is Side.A else self.b_quotas)[v.index]

    def lower(self, v: VertexId) -> int:
        return self.quotas(v).lower

    def upper(self, v: VertexId) -> int:
        return self.quotas(v).upper

    def pref(self, v: VertexId) -> tuple[VertexId, ...]:
        return (self.a_prefs if v.side is Side.A else self.b_prefs)[v.index]

    def rank(self, v: VertexId, u: VertexId) -> int:
        """Position of u in v's preference list (0 is best).

        Raises ValueError when u is not acceptable to v, also when either
        lies outside the instance.
        """
        try:
            return self._ranks[v][u]
        except KeyError:
            raise ValueError(
                f"{self.label(u)} is not on the preference list of {self.label(v)}"
            ) from None

    def degree(self, v: VertexId) -> int:
        return len(self.pref(v))

    @cached_property
    def _ranks(self) -> dict[VertexId, dict[VertexId, int]]:
        out: dict[VertexId, dict[VertexId, int]] = {}
        for v in self.all_vertices():
            out[v] = {u: i for i, u in enumerate(self.pref(v))}
        return out

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """All mutually acceptable (a, b) pairs."""
        return frozenset(
            (a, b) for a in self.vertices(Side.A) for b in self.pref(a)
        )

    @cached_property
    def name_to_id(self) -> dict[str, VertexId]:
        out = {}
        for v in self.all_vertices():
            out[self.name(v)] = v
        return out

    def sum_lower(self, side: Side) -> int:
        """The lower quotas of one side summed, afresh on each call."""
        quotas = self.a_quotas if side is Side.A else self.b_quotas
        return sum(q.lower for q in quotas)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every structural invariant and report all violations at once.

    Violations cover malformed quotas (lower > upper or negative), duplicate
    names, preference entries that are out of range, same-side, or repeated,
    and non-mutual acceptability.  A lower quota exceeding the vertex degree
    is reported as a warning only: such a vertex is necessarily deficient in
    every matching but the instance is still well formed.
    """
    report = ValidationReport()
    n_a, n_b, ranks = len(inst.a_names), len(inst.b_names), inst._ranks
    seen: dict[str, VertexId] = {}
    for v in inst.all_vertices():
        name = inst.name(v)
        if name in seen:
            report.violations.append(f"duplicate vertex name {name}")
        else:
            seen[name] = v
        q = inst.quotas(v)
        if q.lower < 0 or q.upper < 0:
            report.violations.append(f"negative quota on {name}")
        if q.lower > q.upper:
            report.violations.append(
                f"lower quota {q.lower} exceeds upper quota {q.upper} on {name}"
            )
    for v in inst.all_vertices():
        name = inst.name(v)
        prefs = inst.pref(v)
        if len(set(prefs)) != len(prefs):
            report.violations.append(f"duplicate preference entry on {name}")
        for u in prefs:
            # The range check runs first: the messages below name u.
            limit = n_a if u.side is _SIDE_A else n_b
            if not 0 <= u.index < limit:
                report.violations.append(f"preference out of range on {name}")
            elif u.side == v.side:
                report.violations.append(
                    f"same-side preference {inst.name(u)} on {name}"
                )
            elif v not in ranks[u]:
                report.violations.append(
                    f"non-mutual preference: {name} lists {inst.name(u)} "
                    f"but not vice versa"
                )
        if inst.lower(v) > inst.degree(v):
            report.warnings.append(
                f"lower quota {inst.lower(v)} on {name} exceeds its degree "
                f"{inst.degree(v)}; the vertex is deficient in every matching"
            )
    return report


def parse_instance(text: str) -> Instance:
    """Parse the line-based instance format.

    Grammar, one record per line, ``#`` starts a comment::

        A <name> <lower> <upper>
        B <name> <lower> <upper>
        PREF <name> [<neighbor> ...]

    All declarations must precede all PREF lines, and every declared vertex
    must have exactly one PREF line (an empty neighbor list is allowed).
    Raises InstanceFormatError with a line number for syntax problems and
    with a description for semantic ones (unknown or duplicate names,
    non-mutual preferences, lower > upper).
    """
    a_names: list[str] = []
    b_names: list[str] = []
    quotas: dict[str, Quotas] = {}
    pref_names: dict[str, list[str]] = {}
    decl_done = False

    def fail(lineno: int, msg: str) -> None:
        raise InstanceFormatError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind in ("A", "B"):
            if decl_done:
                fail(lineno, "vertex declared after a PREF line")
            if len(tokens) != 4:
                fail(lineno, f"expected '{kind} <name> <lower> <upper>'")
            name = tokens[1]
            if name in quotas:
                fail(lineno, f"duplicate vertex {name}")
            try:
                lower, upper = int(tokens[2]), int(tokens[3])
            except ValueError:
                fail(lineno, "quotas must be integers")
            if lower < 0:
                fail(lineno, f"negative lower quota on {name}")
            if lower > upper:
                fail(lineno, f"lower quota {lower} exceeds upper quota {upper} on {name}")
            quotas[name] = Quotas(lower, upper)
            (a_names if kind == "A" else b_names).append(name)
        elif kind == "PREF":
            decl_done = True
            if len(tokens) < 2:
                fail(lineno, "expected 'PREF <name> [<neighbor> ...]'")
            name = tokens[1]
            if name not in quotas:
                fail(lineno, f"unknown vertex {name}")
            if name in pref_names:
                fail(lineno, f"duplicate PREF line for {name}")
            entries = tokens[2:]
            if len(set(entries)) != len(entries):
                fail(lineno, f"duplicate preference entry on {name}")
            for other in entries:
                if other not in quotas:
                    fail(lineno, f"unknown vertex {other}")
            pref_names[name] = entries
        else:
            fail(lineno, f"unknown record type {kind!r}")

    missing = [n for n in (*a_names, *b_names) if n not in pref_names]
    if missing:
        raise InstanceFormatError(f"missing PREF line for {', '.join(missing)}")

    ids: dict[str, VertexId] = {}
    for i, n in enumerate(a_names):
        ids[n] = VertexId(Side.A, i)
    for i, n in enumerate(b_names):
        ids[n] = VertexId(Side.B, i)

    inst = Instance(
        a_names=tuple(a_names),
        b_names=tuple(b_names),
        a_quotas=tuple(quotas[n] for n in a_names),
        b_quotas=tuple(quotas[n] for n in b_names),
        a_prefs=tuple(tuple(ids[m] for m in pref_names[n]) for n in a_names),
        b_prefs=tuple(tuple(ids[m] for m in pref_names[n]) for n in b_names),
    )
    report = validate_instance(inst)
    if report.violations:
        raise InstanceFormatError("; ".join(report.violations))
    return inst


def serialize_instance(inst: Instance) -> str:
    """Render an instance in the format accepted by parse_instance.

    parse_instance(serialize_instance(inst)) is structurally identical to
    inst: same names, quotas and preference orders.
    """
    lines = []
    for v in inst.vertices(Side.A):
        q = inst.quotas(v)
        lines.append(f"A {inst.name(v)} {q.lower} {q.upper}")
    for v in inst.vertices(Side.B):
        q = inst.quotas(v)
        lines.append(f"B {inst.name(v)} {q.lower} {q.upper}")
    for v in inst.all_vertices():
        names = " ".join(inst.name(u) for u in inst.pref(v))
        lines.append(f"PREF {inst.name(v)} {names}".rstrip())
    return "\n".join(lines) + "\n"


# The largest n_a * n_b that generate_random_instance accepts, 1000 x 1000:
# at edge density 1 such an instance takes about 210 MB to generate.  A
# larger request is refused before any drawing.
_MAX_GEN_PAIRS = 1_000_000


@dataclass(frozen=True)
class GenParams:
    """Parameters for the seeded random instance generator."""

    n_a: int
    n_b: int
    max_upper: int = 3
    lq_fraction: float = 0.5
    edge_density: float = 0.5
    seed: int = 0


def generate_random_instance(params: GenParams) -> Instance:
    """Generate a random valid instance, reproducibly from the seed.

    Edges are sampled independently with probability ``edge_density``, each
    vertex draws an upper quota uniformly from 1..max_upper, becomes a
    lower-quota vertex with probability ``lq_fraction`` (its lower quota
    then uniform in 1..upper), and preference orders are uniformly random
    permutations of the sampled neighborhoods.  Identical params give an
    identical instance.  More than 1,000,000 vertex pairs (``n_a * n_b``)
    raise ValueError.
    """
    if params.n_a < 1 or params.n_b < 1:
        raise ValueError("need at least one vertex on each side")
    if params.n_a * params.n_b > _MAX_GEN_PAIRS:
        raise ValueError(
            f"n_a * n_b must be at most {_MAX_GEN_PAIRS:,} vertex pairs"
        )
    if params.max_upper < 1:
        raise ValueError("max_upper must be at least 1")
    if not 0.0 <= params.lq_fraction <= 1.0:
        raise ValueError("lq_fraction must lie in [0, 1]")
    if not 0.0 < params.edge_density <= 1.0:
        raise ValueError("edge_density must lie in (0, 1]")
    rng = random.Random(params.seed)

    adjacency = [
        [j for j in range(params.n_b) if rng.random() < params.edge_density]
        for _ in range(params.n_a)
    ]

    def draw_quotas() -> Quotas:
        upper = rng.randint(1, params.max_upper)
        lower = rng.randint(1, upper) if rng.random() < params.lq_fraction else 0
        return Quotas(lower, upper)

    a_quotas = tuple(draw_quotas() for _ in range(params.n_a))
    b_quotas = tuple(draw_quotas() for _ in range(params.n_b))

    a_prefs = []
    for i in range(params.n_a):
        nbrs = [VertexId(Side.B, j) for j in adjacency[i]]
        rng.shuffle(nbrs)
        a_prefs.append(tuple(nbrs))
    b_adjacency: list[list[VertexId]] = [[] for _ in range(params.n_b)]
    for i, row in enumerate(adjacency):
        for j in row:
            b_adjacency[j].append(VertexId(Side.A, i))
    b_prefs = []
    for nbrs in b_adjacency:
        rng.shuffle(nbrs)
        b_prefs.append(tuple(nbrs))

    return Instance(
        a_names=tuple(f"a{i + 1}" for i in range(params.n_a)),
        b_names=tuple(f"b{j + 1}" for j in range(params.n_b)),
        a_quotas=a_quotas,
        b_quotas=b_quotas,
        a_prefs=tuple(a_prefs),
        b_prefs=tuple(b_prefs),
    )
