"""Output fingerprints: SHA-256 of every file a fixed set of CLI flows writes
and of a fixed set of library event streams.

    python tools/fingerprint.py [CHECKOUT] > fingerprint.json

runs the flows below with the ``ocmsim`` package and ``configs/default.yaml``
of CHECKOUT (by default the checkout holding this file), each flow in its
own folder of one temporary directory, and prints sorted JSON: {output path:
SHA-256}.  Each event file also gets an entry ``<path> records``, the
SHA-256 of its records sorted by (frame, ix, iy, t_bin), which stays equal
when only the order of events within a frame changes.  The ``run_acquisition``
streams of the benchmark's two library workloads, at seeds 1-3 and a fifth
of their wall time, get the entries ``library/<workload>/seed_<n>`` (the
stream's arrays, frame count and ``pairs_generated``) and ``... records``,
and the sampler's two densities get ``library/<workload>/centroid_density``
and ``.../deviation_density`` (samples and geometry).  Two checkouts write
bit-identical outputs exactly when their JSON is equal, so ``diff`` names
the outputs that differ.

The hashes hold for one host: NumPy may pick other SIMD kernels on another
CPU, so they are compared between checkouts, never stored as golden values.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

#: the acceptance suite's fast overrides (criterion 9)
FAST = ["--set", "acquisition.wall_time_s=0.02",
        "--set", "acquisition.pair_rate_hz=4.0e+6", "--set", "grid.nx=256"]
#: the benchmark's cli_pipeline workload at one seed
CLI_PIPELINE = ["--set", "acquisition.wall_time_s=0.05", "--seed", "41"]
#: the real sensor (pde 0.008, 1 kHz darks) for 2 s on two threads
REAL_SENSOR = ["--set", "detector={pde: auto, dark_count_rate_hz: 1e3}",
               "--set", "acquisition.wall_time_s=2.0", "--threads", "2"]
#: the benchmark's library workloads: overrides, then a fifth of their
#: wall time (copied, so that the tool runs any checkout's package)
LIBRARY = {
    "ideal_triple_slit": (["detector.pde=1.0",
                           "detector.dark_count_rate_hz=0.0",
                           "detector.crosstalk_prob=0.0",
                           "acquisition.pair_rate_hz=22222222.222222224"],
                          0.05),
    "real_sensor": (["detector.pde=auto",
                     "detector.dark_count_rate_hz=1000.0"], 2.0),
}
LIBRARY_SEEDS = (1, 2, 3)
SIMULATE = ("simulate", ["simulate"])
RECONSTRUCT = ("reconstruct", ["reconstruct", "@simulate/events.ocme"])

#: flow name -> (options before each command, [(stage, arguments)]); an
#: argument ``@stage/file`` names a file an earlier stage of the flow wrote
FLOWS = {
    "criterion_9": (FAST, [
        ("psf", ["psf"]), SIMULATE, RECONSTRUCT,
        ("analyze", ["analyze", "@reconstruct/centroid_image.ocmg"]),
        ("compare", ["compare"])]),
    "cli_pipeline": (CLI_PIPELINE, [SIMULATE, *(
        (f"reconstruct_{mode}", ["--set", f"reconstruction.mode={mode}",
                                 *RECONSTRUCT[1]])
        for mode in ("sum", "average", "weighted")),
        ("analyze", ["analyze", "@reconstruct_weighted/centroid_image.ocmg"])]),
    "real_sensor": (REAL_SENSOR, [SIMULATE, RECONSTRUCT]),
    "psf_gaussian": (FAST + ["--set", "system.pupil_profile=gaussian",
                             "--set", "system.pupil_sigma_m=0.5e-3"],
                     [("psf", ["psf"])]),
    **{f"simulate_{kind}": (FAST + ["--set", f"acquisition.source={kind}"],
                            [SIMULATE])
       for kind in ("point", "far_field", "coherent")},
}


def run_flows(root: Path, flows: dict, config: Path, main) -> None:
    """Run each flow's stages with the CLI entry point ``main`` into
    ``root/<flow>/<stage>``; a stage that does not exit 0 raises."""
    for name, (options, stages) in flows.items():
        for stage, args in stages:
            args = [str(root / name / a[1:]) if a.startswith("@") else a
                    for a in args]
            argv = ["--config", str(config), *options,
                    "--out", str(root / name / stage), *args]
            code = main(argv)
            if code != 0:
                raise RuntimeError(f"{name}/{stage} exited {code}: {argv}")


def records_hash(stream) -> str:
    """SHA-256 of the stream's records sorted by (frame, ix, iy, t_bin)."""
    fields = (stream.frame, stream.ix, stream.iy, stream.t_bin)
    order = np.lexsort(fields[::-1])
    digest = hashlib.sha256()
    for a in fields:
        digest.update(a[order].tobytes())
    return digest.hexdigest()


def fingerprint(root: Path, read_events) -> dict:
    """{path under ``root``: SHA-256} for every file, plus for each event
    file the hash of its records sorted by (frame, ix, iy, t_bin)."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix()
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix == ".ocme":
            out[f"{name} records"] = records_hash(read_events(path))
    return out


def grid_hash(grid) -> str:
    """SHA-256 of a ``FieldGrid``'s samples, shape, spacing and origin."""
    digest = hashlib.sha256(np.ascontiguousarray(grid.values).tobytes())
    digest.update(f"{grid.values.shape}:{grid.dx!r}:{grid.dy!r}:"
                  f"{grid.origin!r}".encode())
    return digest.hexdigest()


def library_prints(library: dict, seeds, config: Path, load_config,
                   run_acquisition) -> dict:
    """{``library/<workload>/seed_<n>``: SHA-256} of each ``run_acquisition``
    stream (arrays in order, frame count, ``pairs_generated``), plus the
    hash of its sorted records, and of the workload's centroid and
    deviation densities."""
    out = {}
    for name, (overrides, wall_time) in library.items():
        cfg = load_config(config, overrides)
        source, detector = cfg.source(), cfg.detector()
        for density in ("centroid_density", "deviation_density"):
            out[f"library/{name}/{density}"] = grid_hash(
                getattr(source, density)(detector))
        for seed in seeds:
            s = run_acquisition(source, detector, wall_time, seed)
            digest = hashlib.sha256()
            for a in (s.frame, s.ix, s.iy, s.t_bin):
                digest.update(a.tobytes())
            digest.update(f"{s.n_frames}:{s.meta['pairs_generated']}".encode())
            key = f"library/{name}/seed_{seed}"
            out[key] = digest.hexdigest()
            out[f"{key} records"] = records_hash(s)
    return out


def main() -> int:
    args = sys.argv[1:]
    checkout = Path(args[0] if args else Path(__file__).parents[1]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    from ocmsim.cli import main as cli_main
    from ocmsim.config import load_config
    from ocmsim.detector import run_acquisition
    from ocmsim.events_io import read_events

    config = checkout / "configs" / "default.yaml"
    with tempfile.TemporaryDirectory() as tmp:
        run_flows(Path(tmp), FLOWS, config, cli_main)
        prints = fingerprint(Path(tmp), read_events)
    prints.update(library_prints(LIBRARY, LIBRARY_SEEDS, config, load_config,
                                 run_acquisition))
    print(json.dumps(prints, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
