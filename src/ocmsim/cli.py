"""Command-line pipeline: psf | simulate | reconstruct | analyze | compare.

Every command is a pure function of (config file, input files, seed); reruns
produce byte-identical outputs.  Exit codes: 0 success, 2 configuration
error, 3 runtime error (a failed allocation included).
"""

from __future__ import annotations

import os
if __name__ == "__main__":  # before NumPy loads; see launcher.py
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config, schema_help
from .errors import ConfigError, OcmsimError
# every command uses these two; each other layer loads in the commands it runs
from .events_io import (EventStream, read_events, stable_hash, write_events,
                        write_manifest)
from .grid import FieldGrid, GridSpec

_SCALING_N = (1, 2, 4, 8)


def _intensity_psf_width(system, order):
    """Projected FWHM of the order-N centroid PSF intensity (self-sized grid)."""
    from .analysis import cross_section, width_metrics
    from .optics import PupilProfile, single_lens_psf
    if system.pupil_profile is PupilProfile.HARD_CIRCULAR:
        scale = system.first_zero_radius / order
    else:
        scale = system.psf_sigma / np.sqrt(order)
    spec = GridSpec.centered(512, scale / 8)
    h = single_lens_psf(system, spec, order=order)
    h.values = np.abs(h.values) ** 2
    return width_metrics(cross_section(h, "x")).fwhm


def cmd_psf(cfg: RunConfig, out_dir: Path) -> dict:
    """PSF grids, profiles and width reports for the four imaging modes."""
    from .analysis import (FitModel, cross_section, export_profile_csv,
                           scaling_fit, width_metrics)
    from .ocm import classical_centroid_psf
    from .optics import PupilProfile, single_lens_psf
    system = cfg.system()
    n = cfg["ocm.n_photons"]
    spec = cfg.object_grid()
    half_system = system.with_wavelength(system.wavelength / n)

    h = single_lens_psf(system, spec)
    grids = {
        "psf_classical": h.copy(),
        "psf_classical_half": single_lens_psf(half_system, spec),
        "psf_ocm": single_lens_psf(system, spec, order=n),
    }
    for g in grids.values():
        g.values = np.abs(g.values) ** 2
    grids["psf_classical_pairs"] = classical_centroid_psf(h, n)

    report: dict = {"command": "psf", "n_photons": n,
                    "pupil_profile": cfg["system.pupil_profile"]}
    model = (FitModel.SOMB_SQUARED
             if system.pupil_profile is PupilProfile.HARD_CIRCULAR
             else FitModel.GAUSSIAN)
    widths = {}
    for name, grid in grids.items():
        grid.save(out_dir / f"{name}.ocmg")
        prof = cross_section(grid, "x")
        export_profile_csv(prof, out_dir / f"{name}_profile.csv")
        # the pair-centroid density is not shaped like a single-photon PSF;
        # measure it by half-maximum crossings instead of the model fit
        fit = FitModel.NONE if name == "psf_classical_pairs" else model
        wm = width_metrics(prof, fit)
        widths[name] = wm
        report[f"{name}_fwhm_m"] = wm.fwhm
        if wm.first_zero is not None:
            report[f"{name}_first_zero_m"] = wm.first_zero
    report["ocm_vs_half_wavelength_fwhm_ratio"] = (
        widths["psf_ocm"].fwhm / widths["psf_classical_half"].fwhm)
    report["classical_pairs_vs_ocm_fwhm_ratio"] = (
        widths["psf_classical_pairs"].fwhm / widths["psf_ocm"].fwhm)

    quantum = [(k, _intensity_psf_width(system, k)) for k in _SCALING_N]
    classical = [(k, width_metrics(
        cross_section(classical_centroid_psf(h, k), "x")).fwhm)
        for k in _SCALING_N]
    fit_q = scaling_fit(quantum)
    fit_c = scaling_fit(classical)
    report["quantum_scaling_alpha"] = fit_q.alpha
    report["quantum_scaling_ci95"] = fit_q.ci95
    report["classical_scaling_alpha"] = fit_c.alpha
    report["classical_scaling_ci95"] = fit_c.ci95
    report["sql_scaling"] = bool(abs(fit_q.alpha - 0.5) < 0.1)
    write_manifest(out_dir / "psf_report.txt", report)
    return report


def cmd_simulate(cfg: RunConfig, out_dir: Path, n_threads: int = 1) -> None:
    """Run an acquisition of the configured source; write events + manifest."""
    from .detector import run_acquisition
    source, detector = cfg.source(), cfg.detector()
    stream = run_acquisition(source, detector, cfg["acquisition.wall_time_s"],
                             cfg["acquisition.seed"], n_threads=n_threads)
    events_path, meta = out_dir / "events.ocme", stream.meta
    write_events(events_path, stream)
    write_manifest(f"{events_path}.manifest.txt", {
        "seed": meta["seed"], "wall_time_s": meta["wall_time"],
        "n_frames": stream.n_frames,
        "duty_cycle": detector.duty_cycle,
        "detector_hash": stable_hash(detector.to_dict()),
        "source": source.describe(),
        "source_hash": stream.source_hash,
        "pairs_generated": meta["pairs_generated"],
        "events_written": len(stream)})


def _reconstruct(cfg: RunConfig, events: EventStream):
    """Pairs, accidental estimate (None when disabled) and centroid image."""
    from .reconstruction import (XiMode, centroid_image, estimate_accidentals,
                                 extract_coincidences)
    window = cfg["reconstruction.window_s"]
    min_xi = cfg["reconstruction.min_xi_pixels"]
    pairs = extract_coincidences(
        events, window, 2, min_xi,
        one_pair_per_frame=cfg["reconstruction.one_pair_per_frame"])
    offset = cfg["reconstruction.accidental_offset_frames"]
    accidentals = (estimate_accidentals(events, window, offset, min_xi)
                   if offset > 0 else None)
    # weighted mode: deviation_weight() is set and overrides the XiMode
    mode = XiMode.SUM if cfg["reconstruction.mode"] == "sum" else XiMode.AVERAGE
    image = centroid_image(pairs, accidentals, mode,
                           deviation_weight=cfg.deviation_weight())
    return pairs, accidentals, image


def cmd_reconstruct(cfg: RunConfig, events_path, out_dir: Path) -> dict:
    """Coincidence extraction, accidental subtraction, centroid image."""
    events = read_events(events_path)
    pairs, accidentals, image = _reconstruct(cfg, events)
    grid = image.to_field_grid()
    grid.save(out_dir / "centroid_image.ocmg")
    grid.export_csv(out_dir / "centroid_image.csv")
    n_acc = float(accidentals.values.sum()) if accidentals is not None else 0.0
    report = {
        "command": "reconstruct",
        "n_events": len(events),
        "n_frames": events.n_frames,
        "n_pairs": len(pairs),
        "n_cut_by_min_xi": pairs.n_cut,
        "n_multi_pair_frames": pairs.n_multi_pair_frames,
        "accidental_sum": n_acc,
        "accidental_fraction": n_acc / max(len(pairs), 1),
        "mode": cfg["reconstruction.mode"],
        "grid_shape": list(image.shape),
    }
    write_manifest(out_dir / "reconstruct_report.txt", report)
    return report


def _profile(cfg: RunConfig, grid: FieldGrid, out_dir: Path, stem: str,
             band):
    """x profile of ``grid`` over ``band``, written to ``<stem>_profile.csv``,
    and its slit-contrast report entries: none unless ``analysis.n_slits``
    >= 2, the error's name if scoring fails."""
    from .analysis import cross_section, export_profile_csv, slit_contrast
    prof = cross_section(grid, "x", band)
    export_profile_csv(prof, out_dir / f"{stem}_profile.csv")
    n_slits = cfg["analysis.n_slits"]
    if n_slits < 2:
        return prof, {}
    pitch_img = cfg["aperture.pitch_m"] * cfg["system.magnification"]
    try:
        contrast, resolved = slit_contrast(prof, n_slits, pitch_img)
    except OcmsimError as exc:
        return prof, {f"{stem}_slit_error": type(exc).__name__}
    return prof, {f"{stem}_slit_contrast": contrast,
                  f"{stem}_resolved": resolved}


def cmd_analyze(cfg: RunConfig, image_paths, out_dir: Path) -> dict:
    """Profiles, widths and slit contrast for stored images."""
    from .analysis import FitModel, width_metrics
    stems = [Path(path).stem for path in image_paths]
    for stem in stems:      # a stem names an image's outputs
        if stems.count(stem) > 1:
            raise ConfigError(f"analyze: two images share the stem {stem!r}")
    report: dict = {"command": "analyze"}
    model = FitModel(cfg["analysis.model"])
    for path, stem in zip(image_paths, stems):
        prof, slits = _profile(cfg, FieldGrid.load(path), out_dir, stem,
                               cfg["analysis.band"])
        try:
            wm = width_metrics(prof, model)
            report[f"{stem}_fwhm_m"] = wm.fwhm
            if wm.first_zero is not None:
                report[f"{stem}_first_zero_m"] = wm.first_zero
        except OcmsimError as exc:
            report[f"{stem}_width_error"] = type(exc).__name__
        report.update(slits)
    write_manifest(out_dir / "analyze_report.txt", report)
    return report


def cmd_compare(cfg: RunConfig, out_dir: Path, n_threads: int = 1) -> dict:
    """Image the configured object with all four illumination modes; only
    the images, profiles and report are written, not the event streams."""
    from .detector import child_seed, run_acquisition
    from .reconstruction import singles_image
    seed = cfg["acquisition.seed"]
    wall_time = cfg["acquisition.wall_time_s"]
    wavelength = cfg["system.wavelength_m"]
    band = cfg["analysis.band"]
    # the band counts centroid rows; pixel row i is centroid row 2i
    n_rows = 2 * cfg["detector.n_pixels_y"] - 1
    pixel_rows = None if band is None else (-(-band[0] // 2), band[1] // 2)
    if pixel_rows and (pixel_rows[0] > pixel_rows[1] or band[1] >= n_rows):
        raise ConfigError(f"analysis.band: compare needs centroid rows in [0, "
                          f"{n_rows}) holding a pixel row (an even centroid "
                          f"row), got {list(band)}")
    report: dict = {"command": "compare", "wall_time_s": wall_time}
    resolved_modes = []

    # each run is the config with its source and wavelength: quantum pairs at
    # lambda; classical singles coherent at lambda and lambda/N, incoherent
    half = wavelength / cfg["ocm.n_photons"]
    runs = [("ocm", "ocm", wavelength), ("coherent", "coherent", wavelength),
            ("coherent_half", "coherent", half),
            ("incoherent", "incoherent", wavelength)]
    for name, kind, lam in runs:
        run = RunConfig({**cfg.values, "acquisition.source": kind,
                         "system.wavelength_m": lam})
        stream = run_acquisition(run.source(), run.detector(), wall_time,
                                 child_seed(seed, name), n_threads=n_threads)
        if kind == "ocm":
            pairs, _, image = _reconstruct(cfg, stream)
            grid, rows = image.to_field_grid(), band
            report["ocm_n_pairs"] = len(pairs)
        else:
            grid, rows = singles_image(stream), pixel_rows
            report[f"{name}_n_events"] = len(stream)
        grid.save(out_dir / f"{name}_image.ocmg")
        _, slits = _profile(cfg, grid, out_dir, name, rows)
        report.update(slits)
        if slits.get(f"{name}_resolved"):
            resolved_modes.append(name)
    if cfg["analysis.n_slits"] >= 2:
        report["resolved_modes"] = resolved_modes
    write_manifest(out_dir / "compare_report.txt", report)
    return report


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocmsim",
        description="Quantum centroid-measurement imaging simulator",
        epilog=schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="YAML run configuration (default: "
                        "the schema defaults below)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration key (repeatable); "
                        "KEY may name a section, whose mapping merges key by "
                        "key, and VALUE is YAML, where 1e-3 is a number")
    parser.add_argument("--out", default="out",
                        help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed (as --set "
                        "acquisition.seed=N)")
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads (results are thread-count independent)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("psf", help="theory PSF grids, profiles and widths")
    sub.add_parser("simulate", help="Monte Carlo acquisition to an event file")
    p_rec = sub.add_parser("reconstruct", help="events to centroid image")
    p_rec.add_argument("events", help="input .ocme event file")
    p_an = sub.add_parser("analyze", help="profiles/widths/contrast of images")
    p_an.add_argument("images", nargs="+", help="input .ocmg image files")
    sub.add_parser("compare", help="four-illumination comparison bundle")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = [] if args.seed is None else [f"acquisition.seed={args.seed}"]
        cfg = load_config(args.config, args.set + seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "psf":
            cmd_psf(cfg, out_dir)
        elif args.command == "simulate":
            cmd_simulate(cfg, out_dir, n_threads=args.threads)
        elif args.command == "reconstruct":
            cmd_reconstruct(cfg, args.events, out_dir)
        elif args.command == "analyze":
            cmd_analyze(cfg, args.images, out_dir)
        elif args.command == "compare":
            cmd_compare(cfg, out_dir, n_threads=args.threads)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OcmsimError, OSError, ValueError, MemoryError) as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
