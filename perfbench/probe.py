"""Set-up probe: one fresh interpreter, timed up to the first frame.

Usage: ``python3 perfbench/probe.py WORKLOAD [--split]``.  Times
``import ocmsim``, ``load_config`` and, for in-process workloads,
``source.sampler(detector)``; prints one JSON object.  ``--split`` then also
times the two density builds that the sampler performs, for the traced run.
Last it times the host-speed kernel of ``speed.py``, after the timed set-up.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    from spec import WORKLOADS

    workload = WORKLOADS[argv[0]]
    t_start = time.perf_counter()
    import ocmsim  # noqa: F401
    t_import = time.perf_counter()
    from ocmsim.config import load_config
    cfg = load_config(ROOT / "configs" / "default.yaml", workload["overrides"])
    t_config = time.perf_counter()
    out = {"import_s": t_import - t_start, "config_s": t_config - t_import,
           "sampler_s": 0.0}
    if workload["kind"] == "library":
        source, detector = cfg.source(), cfg.detector()
        source.sampler(detector)
        out["sampler_s"] = time.perf_counter() - t_config
    out["setup_s"] = out["import_s"] + out["config_s"] + out["sampler_s"]
    if "--split" in argv:
        source, detector = cfg.source(), cfg.detector()
        t = time.perf_counter()
        centroid = source.centroid_density(detector)
        out["centroid_density_s"] = time.perf_counter() - t
        t = time.perf_counter()
        deviation = source.deviation_density(detector)
        out["deviation_density_s"] = time.perf_counter() - t
        if workload["kind"] == "cli":
            t = time.perf_counter()
            source.sampler(detector)
            out["sampler_s"] = time.perf_counter() - t
        out["density_cells"] = centroid.values.size + deviation.values.size
    from speed import kernel_s
    out["ref_s"] = kernel_s()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
