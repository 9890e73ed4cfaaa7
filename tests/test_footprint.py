"""What a replay process loads: no OpenSSL behind a query deployment.

Generated guard code is named by a checksum (``repro.query.guards``); a
``hashlib`` import there, or anywhere a deployment reaches, maps OpenSSL's
``libcrypto`` into every replay process for nothing a replay reads.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Imports ``repro``, runs a small Q1 Hybrid deployment and prints, for each
#: hashing module that got imported, the ``repro`` or standard-library frame
#: that imported it.
_PROGRAM = """
import sys
import traceback

WATCHED = ("hashlib", "_hashlib")
importers = {}


class Watch:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name in WATCHED and name not in importers:
            frames = [frame for frame in traceback.extract_stack()
                      if not frame.filename.startswith("<frozen")]
            importers[name] = f"{frames[-2].filename}:{frames[-2].lineno}"
        return None


sys.meta_path.insert(0, Watch)
import repro
from repro.bench.harness import run_strategy
from repro.core.config import EiresConfig
from repro.workloads.synthetic import SyntheticConfig, q1_workload

workload = q1_workload(SyntheticConfig(n_events=300, id_domain=5, window_events=120))
assert run_strategy(workload, "Hybrid", EiresConfig()).match_count > 0
for name in WATCHED:
    if name in sys.modules:
        print(name, "imported by", importers.get(name, "the interpreter's start-up"))
"""


def test_a_q1_hybrid_deployment_loads_no_hashlib():
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", proc.stdout
