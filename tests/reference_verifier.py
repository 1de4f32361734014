"""A pair-by-pair certificate verifier, kept as a reference for tests.

``reference_verify`` runs the nine checks of ``verify_certificate`` on
every edge of ``g.edges`` one at a time: it reads no blocks, groups no
vertices into classes of equal values and checks tightness and the size
rule in the same pass.  The criticality witness is checked as one
inequality per residual arc of the flow network, side by side, with no
sign flip.  Its report must equal the library's, failures included, on
any certificate.
"""

from __future__ import annotations

from popcrit import CertificateReport, CloneKind, Side


def reference_verify(g, cert) -> CertificateReport:
    alpha = cert.alpha
    failures: list[str] = []
    results: dict[str, bool] = {
        "edge_inequalities": True,
        "last_resorts_nonnegative": True,
        "zero_sum": True,
        "no_steep_downward": True,
        "matched_edges_tight": True,
        "weights_in_range": True,
        "level_weight_bounds": True,
        "critical": True,
        "largest_size": True,
    }

    def fail(check: str, message: str) -> None:
        results[check] = False
        failures.append(f"{check}: {message}")

    def label(u, w) -> str:
        return f"({g.clone_name(u)}, {g.clone_name(w)})"

    edge_failures = []

    def fail_edge(u, w, check: str, message: str) -> None:
        edge_failures.append(((u, w), check, message))

    for (u, w), wt in g.edges.items():
        if alpha[u] + alpha[w] < wt:
            fail_edge(
                u, w, "edge_inequalities",
                f"{label(u, w)} has alpha sum {alpha[u] + alpha[w]} < weight {wt}",
            )
        if not -2 <= wt <= 2:
            fail_edge(u, w, "weights_in_range", f"{label(u, w)} weighs {wt}")
        x, y = g.level[u], g.level[w]
        if x > y + 1:
            fail_edge(
                u, w, "no_steep_downward", f"{label(u, w)} drops from level {x} to {y}"
            )
        if x == y + 1 and wt != -2:
            fail_edge(
                u, w, "level_weight_bounds",
                f"one-level-down edge {label(u, w)} weighs {wt}, expected -2",
            )
        if (
            x == y
            and u.kind is CloneKind.CLONE
            and w.kind is CloneKind.CLONE
            and wt > 0
        ):
            fail_edge(
                u, w, "level_weight_bounds",
                f"same-level true edge {label(u, w)} weighs {wt} > 0",
            )
        # The size rule: no tight edge joins a clone of alpha 0 to a clone
        # or a dummy.
        kinds = (u.kind, w.kind)
        if (
            alpha[u] + alpha[w] == wt
            and CloneKind.LAST_RESORT not in kinds
            and any(v.kind is CloneKind.CLONE and alpha[v] == 0 for v in (u, w))
        ):
            fail_edge(
                u, w, "largest_size",
                f"tight edge {label(u, w)} joins a clone of alpha 0 to a clone or a dummy",
            )
        if g.mstar.get(u) == w and alpha[u] + alpha[w] != wt:
            fail_edge(
                u, w, "matched_edges_tight",
                f"lifted edge {label(u, w)} is not tight: "
                f"{alpha[u] + alpha[w]} != {wt}",
            )
        # A clone parked on a last-resort must carry 0.
        if g.mstar.get(u) == w and CloneKind.LAST_RESORT in kinds:
            clone = u if u.kind is CloneKind.CLONE else w
            if alpha[clone] != 0:
                fail_edge(
                    u, w, "largest_size",
                    f"{label(u, w)} parks a clone of alpha {alpha[clone]} != 0",
                )
    edge_failures.sort(key=lambda failure: failure[0])
    for _, check, message in edge_failures:
        fail(check, message)

    for u in g.vertices:
        if u.kind is CloneKind.LAST_RESORT and alpha[u] < 0:
            fail("last_resorts_nonnegative", f"{g.clone_name(u)} carries {alpha[u]}")

    total = sum(alpha.values())
    if total != 0:
        fail("zero_sum", f"alpha values sum to {total}")

    # Criticality: each residual arc u -> v of cost c needs c + pi(u) -
    # pi(v) >= 0, with pi(S) = pi(T) = 0.  The flow fills a vertex's cost -1
    # arc, of its lower quota, before its cost 0 arc.
    inst, m, pi = g.inst, g.leveled.matching, cert.potential
    for v in inst.all_vertices():
        lower, upper = inst.quotas(v)
        held = len(m.partners(v))
        p = pi[v]
        if v.side is Side.A:
            # S -> v at cost -1, v -> S at 1, S -> v at 0, v -> S at 0.
            arcs = (-1 - p, 1 + p, -p, p)
        else:
            # v -> T at cost -1, T -> v at 1, v -> T at 0, T -> v at 0.
            arcs = (-1 + p, 1 - p, p, -p)
        states = (
            "is deficient", "holds some of its lower quota", "has room", "holds a surplus"
        )
        present = (held < lower, min(held, lower) > 0, held < upper, held > lower)
        for reduced, state, there in zip(arcs, states, present):
            if there and reduced < 0:
                fail("critical", f"{inst.name(v)} {state} but has potential {p}")
    for a in inst.vertices(Side.A):
        for b in inst.pref(a):
            names = f"({inst.name(a)}, {inst.name(b)})"
            if (a, b) in m.pairs and pi[b] - pi[a] < 0:
                fail("critical", f"matched edge {names} has potentials {pi[a]} > {pi[b]}")
            if (a, b) not in m.pairs and pi[a] - pi[b] < 0:
                fail("critical", f"unmatched edge {names} has potentials {pi[a]} < {pi[b]}")

    return CertificateReport(checks=tuple(results.items()), failures=tuple(failures))
