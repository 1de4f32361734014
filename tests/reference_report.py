"""The certificate report rendered by its first rule, kept as a reference
for tests.

``reference_report`` writes one line per vertex of ``sorted(g.vertices)``,
named by ``ClonedGraph.clone_name``, with its partition side from
``_left_of_bipartition``, and then one ``POTENTIAL`` line per real vertex
in ``inst.all_vertices()`` order.  ``render_certificate_report`` walks the
graph's own tables instead, and must give the same bytes on any graph and
certificate.
"""

from __future__ import annotations

from popcrit import Side
from popcrit.certificate import _left_of_bipartition


def reference_report(g, cert, report) -> str:
    lines = []
    for u in sorted(g.vertices):
        side = Side.A if _left_of_bipartition(u) else Side.B
        lines.append(f"{g.clone_name(u)} {side.value} {g.level[u]} {cert.alpha[u]}")
    for v in g.inst.all_vertices():
        lines.append(f"POTENTIAL {g.inst.name(v)} {cert.potential[v]}")
    lines.append(f"SUM {sum(cert.alpha.values())}")
    if report.ok:
        lines.append("VERDICT PASS")
    else:
        lines.append("VERDICT FAIL " + ",".join(report.failed_checks))
    return "\n".join(lines) + "\n"
