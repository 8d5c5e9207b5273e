"""The serving stack imports no scipy: it is a test-only dependency.

scipy.signal alone took most of the import time of every ingress
server, process shard and gate run, so a stray runtime import would
quietly bring that set-up cost back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = (
    "import json, sys\n"
    "import repro, repro.cluster, repro.ingress, repro.gates\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)


def test_serving_stack_imports_no_scipy():
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
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
