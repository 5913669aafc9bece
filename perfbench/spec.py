"""Workload sizes and settings.

This module is plain data and imports nothing from ``ocmsim``, so the
orchestrator can read it without paying the package's import cost.  The
metric names, units and bounds live in ``BENCHMARK.json`` at the repository
root, and the workloads there must match the keys of ``WORKLOADS``.
"""

from __future__ import annotations

# Overrides applied on top of configs/default.yaml with the same
# ``KEY=VALUE`` syntax as the CLI's ``--set``.  ``wall_time_s`` is the
# simulated acquisition time of one pipeline iteration (set as
# ``acquisition.wall_time_s``), so each iteration takes
# ``wall_time_s * frame_rate_hz`` frames.
WORKLOADS = {
    "ideal_triple_slit": {
        "kind": "library",
        "overrides": ["detector.pde=1.0", "detector.dark_count_rate_hz=0.0",
                      "detector.crosstalk_prob=0.0",
                      # 1 / frame_duration_s: a mean of one pair per frame
                      "acquisition.pair_rate_hz=22222222.222222224"],
        "wall_time_s": 0.25,
    },
    "real_sensor": {
        "kind": "library",
        "overrides": ["detector.pde=auto", "detector.dark_count_rate_hz=1000.0"],
        "wall_time_s": 10.0,
    },
    "cli_pipeline": {
        "kind": "cli",
        "overrides": [],
        "wall_time_s": 0.05,
    },
}
