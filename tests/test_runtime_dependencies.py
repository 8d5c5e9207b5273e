"""The serving stack imports neither scipy nor networkx: both are test-only.

scipy.signal alone took most of the import time of every ingress
server, process shard and gate run, and networkx was the largest import
left after it (about 320 modules and 13 MB per process), so a stray
runtime import would quietly bring that set-up cost back.
``repro.sim.experiments`` is in the probe because it builds the
benchmark's tick workloads.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = (
    "import json, sys\n"
    "import repro, repro.cluster, repro.ingress, repro.gates, repro.sim.experiments\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)

@functools.lru_cache(maxsize=None)
def _serving_modules():
    """Every module a fresh interpreter holds after importing the stack."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    modules = json.loads(result.stdout.splitlines()[-1])
    assert "repro.gates" in modules
    assert "repro.sim.experiments" in modules
    return modules


def _loaded(package):
    return [m for m in _serving_modules() if m == package or m.startswith(package + ".")]


def test_serving_stack_imports_no_scipy():
    assert _loaded("scipy") == []


def test_serving_stack_imports_no_networkx():
    assert _loaded("networkx") == []
