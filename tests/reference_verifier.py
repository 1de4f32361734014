"""A pair-by-pair certificate verifier, kept as a reference for tests.

``reference_verify`` runs the seven checks of ``verify_certificate`` on
every edge of ``g.edges`` one at a time: it reads no blocks, groups no
vertices into classes of equal values and checks tightness in the same
pass.  Its report must equal the library's, failures included, on any
certificate.
"""

from __future__ import annotations

from popcrit import CertificateReport, CloneKind


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
        if g.mstar.get(u) == w and alpha[u] + alpha[w] != wt:
            fail_edge(
                u, w, "matched_edges_tight",
                f"lifted edge {label(u, w)} is not tight: "
                f"{alpha[u] + alpha[w]} != {wt}",
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

    return CertificateReport(checks=tuple(results.items()), failures=tuple(failures))
