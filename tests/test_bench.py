"""The benchmark's calls into the package.

``bench/worker.py`` wraps names that ``popcrit.cli`` imports and counts work
through the objects the package returns, such as ``len(g.edges)`` and
``trace.events``.  A short traced run on the self-test shapes runs every
such call, so a rename or a dropped import fails here rather than in the
benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["ladder", "wide", "audit", "oracle"])
def test_traced_worker_runs_without_failures(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    spec = workloads.make_inputs(workload, 1, tmp_path, tiny=True)
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "out.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path), "0.5", "1", str(out_path)],
        check=True, capture_output=True, timeout=120,
    )
    result = json.loads(out_path.read_text())
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]
