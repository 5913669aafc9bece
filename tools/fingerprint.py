"""Output fingerprints: SHA-256 of every file a fixed set of CLI flows writes.

    python tools/fingerprint.py [CHECKOUT] > fingerprint.json

runs the flows below with the ``ocmsim`` package and ``configs/default.yaml``
of CHECKOUT (by default the checkout holding this file), each flow in its
own folder of one temporary directory, and prints sorted JSON: {output path:
SHA-256}.  Each event file also gets an entry ``<path> records``, the
SHA-256 of its records sorted by (frame, ix, iy, t_bin), which stays equal
when only the order of events within a frame changes.  Two checkouts write
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


def fingerprint(root: Path, read_events) -> dict:
    """{path under ``root``: SHA-256} for every file, plus for each event
    file the hash of its records sorted by (frame, ix, iy, t_bin)."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix()
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix == ".ocme":
            s = read_events(path)
            fields = (s.frame, s.ix, s.iy, s.t_bin)
            order = np.lexsort(fields[::-1])
            digest = hashlib.sha256()
            for a in fields:
                digest.update(a[order].tobytes())
            out[f"{name} records"] = digest.hexdigest()
    return out


def main() -> int:
    args = sys.argv[1:]
    checkout = Path(args[0] if args else Path(__file__).parents[1]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    from ocmsim.cli import main as cli_main
    from ocmsim.events_io import read_events

    with tempfile.TemporaryDirectory() as tmp:
        run_flows(Path(tmp), FLOWS, checkout / "configs" / "default.yaml",
                  cli_main)
        prints = fingerprint(Path(tmp), read_events)
    print(json.dumps(prints, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
