"""Output fingerprints: SHA-256 of every file a fixed set of CLI flows writes
and of a fixed set of library event streams.

    python tools/fingerprint.py [CHECKOUT] > fingerprint.json

runs the flows below with the ``ocmsim`` package and ``configs/default.yaml``
of CHECKOUT (by default the checkout holding this file), each flow in its
own folder of one temporary directory, and prints sorted JSON: {output path:
SHA-256}.  Each event file also gets an entry ``<path> records``, the
SHA-256 of its records sorted by (frame, ix, iy, t_bin), which stays equal
when only the order of events within a frame changes, and each image file
an entry ``<path> values``, the ``grid_hash`` of the image it holds; both
stay equal when only the file format changes.  The ``run_acquisition``
streams of the benchmark's two library workloads, at seeds 1-3 and a fifth
of their wall time, get the entries ``library/<workload>/seed_<n>`` (the
stream's arrays, frame count and ``pairs_generated``), ``... records``,
``... pairs`` (the ``extract_coincidences`` pair set: its arrays, ``n_cut``
and ``n_multi_pair_frames``) and ``... accidentals`` (the offset-1
``estimate_accidentals`` image), at the config's window and ``min_xi``, and
the sampler's two densities get ``library/<workload>/centroid_density`` and
``.../deviation_density`` (samples and geometry).  The two products of
``FieldGrid.interpolate`` at the ``ideal_triple_slit`` settings get
``library/ideal_triple_slit/target`` (criterion 5's analytic target at the
centroid bin centres) and ``.../mask_centroid_density`` (the centroid
density of the pair source with a mask grid for its aperture).  So
reconstruction is covered on sparse frames (the real sensor), on frames of
about one pair (the ideal detector) and, in the ``dense_darks`` flow at
1 MHz of darks per pixel, on frames of about 46 events.  Two checkouts
write bit-identical outputs exactly when their JSON is equal, and

    python tools/fingerprint.py --diff BASE.json CHANGE.json

prints how many entries of two such files are equal and names each entry
that differs or is in one file only.  The workloads' settings are read from
``perfbench/spec.py`` next to this tool, so both sides of a comparison run
the same workloads whatever checkout they import.

The hashes hold for one host: NumPy may pick other SIMD kernels on another
CPU, so they are compared between checkouts, never stored as golden values.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np


def load_workloads() -> dict:
    """``WORKLOADS`` of the benchmark's ``perfbench/spec.py``: plain data
    that imports nothing from ``ocmsim``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"
    spec = importlib.util.spec_from_file_location("perfbench_spec", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()
#: the acceptance suite's fast overrides (criterion 9)
FAST = ["--set", "acquisition.wall_time_s=0.02",
        "--set", "acquisition.pair_rate_hz=4.0e+6", "--set", "grid.nx=256"]
#: the benchmark's cli_pipeline workload at one seed
CLI_PIPELINE = ["--set", "acquisition.wall_time_s="
                f"{WORKLOADS['cli_pipeline']['wall_time_s']}", "--seed", "41"]
#: the real sensor (pde 0.008, 1 kHz darks) for 2 s on two threads
REAL_SENSOR = ["--set", "detector={pde: auto, dark_count_rate_hz: 1e3}",
               "--set", "acquisition.wall_time_s=2.0", "--threads", "2"]
#: the real sensor at 1 MHz darks per pixel (about 46 events per frame) for
#: 2,000 frames
DENSE_DARKS = ["--set", "detector={pde: auto, dark_count_rate_hz: 1e6}",
               "--set", "acquisition.wall_time_s=2.5e-3"]
#: the benchmark's library workloads: overrides, then a fifth of their
#: wall time
LIBRARY = {name: (w["overrides"], w["wall_time_s"] / 5)
           for name, w in WORKLOADS.items() if w["kind"] == "library"}
LIBRARY_SEEDS = (1, 2, 3)
#: the library workload whose interpolated target and mask-aperture density
#: get entries
INTERPOLATED = "ideal_triple_slit"
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
    "dense_darks": (DENSE_DARKS, [SIMULATE, RECONSTRUCT]),
    "psf_gaussian": (FAST + ["--set", "system.pupil_profile=gaussian",
                             "--set", "system.pupil_sigma_m=0.5e-3"],
                     [("psf", ["psf"])]),
    "simulate_coherent": (FAST + ["--set", "acquisition.source=coherent"],
                          [SIMULATE]),
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


def fingerprint(root: Path, read_events, load_grid) -> dict:
    """{path under ``root``: SHA-256} for every file, plus for each event
    file the hash of its records sorted by (frame, ix, iy, t_bin) and for
    each image file the ``grid_hash`` of ``load_grid(path)``."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix()
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix == ".ocme":
            out[f"{name} records"] = records_hash(read_events(path))
        elif path.suffix == ".ocmg":
            out[f"{name} values"] = grid_hash(load_grid(path))
    return out


def grid_hash(grid) -> str:
    """SHA-256 of a ``FieldGrid``'s samples, shape, spacing and origin."""
    digest = hashlib.sha256(np.ascontiguousarray(grid.values).tobytes())
    digest.update(f"{grid.values.shape}:{grid.dx!r}:{grid.dy!r}:"
                  f"{grid.origin!r}".encode())
    return digest.hexdigest()


def library_prints(library: dict, seeds, config: Path, load_config,
                   run_acquisition, extract_coincidences,
                   estimate_accidentals) -> dict:
    """{``library/<workload>/seed_<n>``: SHA-256} of each ``run_acquisition``
    stream (arrays in order, frame count, ``pairs_generated``), plus the
    hashes of its sorted records, of its pair set (arrays, ``n_cut``,
    ``n_multi_pair_frames``) and of its offset-1 accidental image, and of
    the workload's centroid and deviation densities."""
    out = {}
    for name, (overrides, wall_time) in library.items():
        cfg = load_config(config, overrides)
        source, detector = cfg.source(), cfg.detector()
        window, min_xi = (cfg["reconstruction.window_s"],
                          cfg["reconstruction.min_xi_pixels"])
        for density in ("centroid_density", "deviation_density"):
            out[f"library/{name}/{density}"] = grid_hash(
                getattr(source, density)(detector))
        for seed in seeds:
            s = run_acquisition(source, detector, wall_time, seed)
            key = f"library/{name}/seed_{seed}"
            out[key] = arrays_hash((s.frame, s.ix, s.iy, s.t_bin),
                                   s.n_frames, s.meta["pairs_generated"])
            out[f"{key} records"] = records_hash(s)
            p = extract_coincidences(s, window, 2, min_xi)
            out[f"{key} pairs"] = arrays_hash(
                (p.frame, p.ix1, p.iy1, p.ix2, p.iy2), p.n_cut,
                p.n_multi_pair_frames)
            out[f"{key} accidentals"] = arrays_hash(
                (estimate_accidentals(s, window, 1, min_xi).values,))
    return out


def interpolation_prints(name: str, overrides, config: Path, load_config,
                         ocmsim) -> dict:
    """The two ``FieldGrid.interpolate`` products of the workload ``name``:
    ``library/<name>/target``, the hash of criterion 5's analytic target
    (its ``ocm_image`` at the centroid bin centres, the benchmark's
    ``image_l1`` reference), and ``library/<name>/mask_centroid_density``,
    the ``grid_hash`` of the centroid density of its source with a mask
    grid for the aperture."""
    GridSpec = ocmsim.GridSpec
    cfg = load_config(config, overrides)
    detector, pitch = cfg.detector(), cfg["aperture.pitch_m"]
    analytic = ocmsim.ocm_image(cfg.aperture(), cfg.system(),
                                cfg["ocm.n_photons"],
                                GridSpec.centered(640, pitch / 48))
    bx, by = detector.bin_center(np.arange(2 * detector.n_pixels_x - 1),
                                 np.arange(2 * detector.n_pixels_y - 1))
    target = analytic.interpolate(
        np.stack(np.meshgrid(bx, by, indexing="ij"), axis=-1))
    mask = ocmsim.FieldGrid.sample(
        GridSpec.centered(64, pitch / 16, 48, pitch / 12),
        lambda x, y: np.cos(np.pi * x / pitch) ** 2
        * np.exp(-(x * x + y * y) / (2 * pitch) ** 2))
    source = replace(cfg.source(), aperture=ocmsim.Aperture.from_mask(mask))
    return {f"library/{name}/target": arrays_hash((target,)),
            f"library/{name}/mask_centroid_density":
                grid_hash(source.centroid_density(detector))}


def arrays_hash(arrays, *numbers) -> str:
    """SHA-256 of the arrays' bytes in turn, then of the numbers joined by
    colons."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    digest.update(":".join(map(str, numbers)).encode())
    return digest.hexdigest()


def diff_report(base: dict, change: dict) -> str:
    """How many entries of two fingerprints are equal, then one ``- differs:``
    line per key whose hashes differ or that only one of them holds."""
    keys = sorted(base.keys() | change.keys())
    differ = [k for k in keys if base.get(k) != change.get(k)]
    return (f"Fingerprint against the base commit: {len(keys) - len(differ)} "
            f"of {len(keys)} entries equal\n\n"
            + "".join(f"- differs: `{k}`\n" for k in differ))


def main() -> int:
    args = sys.argv[1:]
    if args[:1] == ["--diff"]:
        if len(args) != 3:
            sys.exit("usage: fingerprint.py --diff BASE.json CHANGE.json")
        base, change = (json.loads(Path(a).read_text()) for a in args[1:])
        print(diff_report(base, change), end="")
        return 0
    checkout = Path(args[0] if args else Path(__file__).parents[1]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    import ocmsim
    from ocmsim.cli import main as cli_main
    from ocmsim.config import load_config
    from ocmsim.detector import run_acquisition
    from ocmsim.events_io import read_events
    from ocmsim.grid import FieldGrid
    from ocmsim.reconstruction import (estimate_accidentals,
                                       extract_coincidences)

    config = checkout / "configs" / "default.yaml"
    with tempfile.TemporaryDirectory() as tmp:
        run_flows(Path(tmp), FLOWS, config, cli_main)
        prints = fingerprint(Path(tmp), read_events, FieldGrid.load)
    prints.update(library_prints(LIBRARY, LIBRARY_SEEDS, config, load_config,
                                 run_acquisition, extract_coincidences,
                                 estimate_accidentals))
    prints.update(interpolation_prints(
        INTERPOLATED, LIBRARY[INTERPOLATED][0], config, load_config, ocmsim))
    print(json.dumps(prints, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
