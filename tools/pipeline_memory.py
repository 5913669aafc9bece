"""Peak memory of the library pipeline in a fresh interpreter, and the SciPy
modules it loads.

    PYTHONPATH=src python tools/pipeline_memory.py

runs, in one process and with the ``ocmsim`` your interpreter imports
(``base_report.run`` picks a checkout), the path from a configuration to a
scored image: ``run_acquisition`` of the schema's default pair source for
0.01 s, ``extract_coincidences``, ``estimate_accidentals`` and the weighted
``centroid_image``; criterion 5's analytic target (the ``ocm_image``
interpolated at the centroid bin centres); and the sampler of the same
source with a mask grid for its aperture.  It prints one JSON line:
``peak_rss_mb``, this process's ``ru_maxrss``, and ``scipy``, the SciPy
modules loaded by then, and then three tracemalloc peaks measured after
them: ``density_peak_mb``, of one more build of the pair source's centroid
density at the benchmark's ``real_sensor`` settings, and
``acquisition_peak_mb`` and ``pairs_peak_mb``, of ``run_acquisition`` and of
``extract_coincidences`` on its stream at the ``ideal_triple_slit`` settings
of ``perfbench/spec.py``.  It calls only functions of long standing, so it
runs against older checkouts too.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import tracemalloc
from pathlib import Path

import numpy as np

#: the benchmark's workload settings, read after the peak RSS
SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"


def run_pipeline() -> None:
    from ocmsim import (Aperture, FieldGrid, GridSpec, XiMode, centroid_image,
                        estimate_accidentals, extract_coincidences, ocm_image,
                        run_acquisition)
    from ocmsim.config import load_config

    cfg = load_config(None, ["acquisition.wall_time_s=0.01",
                             "reconstruction.mode=weighted"])
    source, detector = cfg.source(), cfg.detector()
    window, min_xi = (cfg["reconstruction.window_s"],
                      cfg["reconstruction.min_xi_pixels"])
    stream = run_acquisition(source, detector, cfg["acquisition.wall_time_s"],
                             cfg["acquisition.seed"])
    image = centroid_image(extract_coincidences(stream, window=window,
                                                min_xi=min_xi),
                           estimate_accidentals(stream, window, 1, min_xi),
                           XiMode.AVERAGE,
                           deviation_weight=cfg.deviation_weight())
    pitch = cfg["aperture.pitch_m"]
    analytic = ocm_image(cfg.aperture(), cfg.system(), cfg["ocm.n_photons"],
                         GridSpec.centered(640, pitch / 48))
    bx, by = image.bin_centers()
    analytic.interpolate(np.stack(np.meshgrid(bx, by, indexing="ij"), -1))
    mask = FieldGrid.sample(GridSpec.centered(64, pitch / 16),
                            lambda x, y: np.exp(-(x * x + y * y) / pitch ** 2))
    dataclasses.replace(source, aperture=Aperture.from_mask(mask)) \
        .sampler(detector)


def traced_peak_mb(call, *args, **kwargs) -> float:
    """Traced peak, in MB, of one call: what it allocates beyond its
    inputs."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def density_peak_mb(overrides) -> float:
    """Traced peak, in MB, of ``OcmPairSource.centroid_density`` at the
    ``real_sensor`` settings (pde 0.008, 1 kHz darks)."""
    from ocmsim.config import load_config

    cfg = load_config(None, overrides)
    return traced_peak_mb(cfg.source().centroid_density, cfg.detector())


def ideal_peaks_mb(ideal: dict) -> tuple[float, float]:
    """Traced peaks, in MB, of a ``run_acquisition`` of the workload's
    wall time (its sampler build included) and of ``extract_coincidences``
    on that stream, at the ``ideal_triple_slit`` settings: pde 1, no darks
    or crosstalk, one pair per frame."""
    from ocmsim import extract_coincidences, run_acquisition
    from ocmsim.config import load_config

    cfg = load_config(None, ideal["overrides"])
    run = (cfg.source(), cfg.detector(), ideal["wall_time_s"],
           cfg["acquisition.seed"])
    acquisition = traced_peak_mb(run_acquisition, *run)
    pairs = traced_peak_mb(extract_coincidences, run_acquisition(*run),
                           window=cfg["reconstruction.window_s"],
                           min_xi=cfg["reconstruction.min_xi_pixels"])
    return acquisition, pairs


def main() -> int:
    run_pipeline()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    import runpy  # after the peak: imported first, it adds 0.1-0.2 MB
    workloads = runpy.run_path(str(SPEC))["WORKLOADS"]
    acquisition, pairs = ideal_peaks_mb(workloads["ideal_triple_slit"])
    density = density_peak_mb(workloads["real_sensor"]["overrides"])
    print(json.dumps({"peak_rss_mb": round(peak, 1), "scipy": scipy,
                      "density_peak_mb": round(density, 1),
                      "acquisition_peak_mb": round(acquisition, 1),
                      "pairs_peak_mb": round(pairs, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
