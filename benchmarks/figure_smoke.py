"""The ``--smoke`` entry shared by the figure benches (Figs. 5–9, ablations).

``python benchmarks/bench_<name>.py --smoke`` runs every panel of that
figure at its smoke size, tags each row with its panel, and writes
``<name>_smoke.json`` under ``results/`` (or ``REPRO_RESULTS_DIR``): a file
no full run writes.  CI regenerates all six and ``tools/bench_diff.py``
holds them to ``results/baselines/``, so a figure number cannot move
unannounced.  The full figures run under pytest.
"""

from __future__ import annotations

import sys
from typing import Callable

from repro.bench.harness import ExperimentResult, save_results


def smoke_main(name: str, panels: dict[str, Callable[[], list[dict]]]) -> int:
    if sys.argv[1:] != ["--smoke"]:
        sys.exit(f"usage: {sys.argv[0]} --smoke  (the full figure runs under pytest)")
    rows = [dict(row, panel=panel) for panel, run in panels.items() for row in run()]
    experiment = ExperimentResult(f"{name}_smoke", rows)
    print(experiment.table(("panel", "strategy", "matches", "p50", "p95")))
    print(f"\nwrote {save_results(experiment)}")
    return 0
