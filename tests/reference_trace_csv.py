"""A row-by-row trace renderer, kept as a reference for tests.

``reference_trace_csv`` decodes the solver's record one row at a time and
hands each row to ``csv.writer``, which decides the quoting of every field.
``trace_to_csv`` must return the same text, byte for byte, on any trace.
"""

from __future__ import annotations

import csv
import io

from popcrit import Side
from popcrit.solver import _CSV_COLUMNS, _WIDTH


def reference_trace_csv(inst, trace) -> str:
    a_names, b_names = inst.a_names, inst.b_names
    t = inst.sum_lower(Side.B)
    a_quotas, b_quotas = inst.a_quotas, inst.b_quotas

    def rows():
        # The proposer offers its upper quota through level t + 1 and its
        # lower quota above; the receiver the quota its flag indexes in its
        # (lower, upper) pair.
        it = iter(trace.record)
        for a, level, b, b_upper, rej, rej_level, size in zip(*[it] * _WIDTH):
            c_a = a_quotas[a].upper if level <= t + 1 else a_quotas[a].lower
            yield a, level, c_a, b, b_quotas[b][b_upper], rej, rej_level, size

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(
        (
            seq, a_names[a], level, c_a, b_names[b], c_b,
            "-" if rej < 0 else f"{a_names[rej]}^{rej_level}", size,
        )
        for seq, (a, level, c_a, b, c_b, rej, rej_level, size) in enumerate(
            rows(), start=1
        )
    )
    return buf.getvalue()
