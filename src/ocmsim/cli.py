"""Command-line pipeline: psf | simulate | reconstruct | analyze | compare.

Every command is a pure function of (config file, input files, seed); reruns
produce byte-identical outputs.  Exit codes: 0 success, 2 configuration
error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import (FitModel, cross_section, export_profile_csv,
                       scaling_fit, slit_contrast, width_metrics)
from .config import RunConfig, load_config, schema_help
from .detector import child_seed, run_acquisition
from .errors import ConfigError, OcmsimError
from .events_io import EventStream, read_events, write_manifest
from .grid import FieldGrid, GridSpec
from .ocm import classical_centroid_psf
from .optics import PupilProfile, single_lens_psf
from .reconstruction import (XiMode, centroid_image, estimate_accidentals,
                             extract_coincidences, singles_image)

_SCALING_N = (1, 2, 4, 8)


def _intensity_psf_width(system, order):
    """Projected FWHM of the order-N centroid PSF intensity (self-sized grid)."""
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
    system = cfg.system()
    n = cfg["ocm.n_photons"]
    spec = cfg.object_grid(system)
    half_system = system.with_wavelength(system.wavelength / n)

    grids = {
        "psf_classical": single_lens_psf(system, spec),
        "psf_classical_half": single_lens_psf(half_system, spec),
        "psf_ocm": single_lens_psf(system, spec, order=n),
    }
    for g in grids.values():
        g.values = np.abs(g.values) ** 2
    h = single_lens_psf(system, spec)
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


def cmd_simulate(cfg: RunConfig, out_dir: Path, n_threads: int = 1) -> dict:
    """Run an acquisition of the configured source; write events + manifest."""
    seed = cfg["acquisition.seed"]
    source = cfg.source()
    detector = cfg.detector(cfg["system.wavelength_m"])
    events_path = out_dir / "events.ocme"
    stream = run_acquisition(source, detector, cfg["acquisition.wall_time_s"],
                             seed, out_path=events_path, n_threads=n_threads)
    return {"events": str(events_path), "n_events": len(stream),
            "n_frames": stream.n_frames}


def _reconstruct(cfg: RunConfig, events: EventStream):
    """Pairs, accidental estimate (None when disabled) and centroid image."""
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
        "grid_shape": f"{image.shape[0]}x{image.shape[1]}",
    }
    write_manifest(out_dir / "reconstruct_report.txt", report)
    return report


def _profile(cfg: RunConfig, grid: FieldGrid, out_dir: Path, stem: str):
    """x profile of ``grid`` over the configured band, written to
    ``<stem>_profile.csv``, and its slit-contrast report entries (none
    unless ``analysis.n_slits`` >= 2)."""
    prof = cross_section(grid, "x", cfg["analysis.band"])
    export_profile_csv(prof, out_dir / f"{stem}_profile.csv")
    n_slits = cfg["analysis.n_slits"]
    if n_slits < 2:
        return prof, {}
    pitch_img = cfg["aperture.pitch_m"] * cfg["system.magnification"]
    contrast, resolved = slit_contrast(prof, n_slits, pitch_img)
    return prof, {f"{stem}_slit_contrast": contrast,
                  f"{stem}_resolved": resolved}


def cmd_analyze(cfg: RunConfig, image_paths, out_dir: Path) -> dict:
    """Profiles, widths and slit contrast for stored images."""
    report: dict = {"command": "analyze"}
    model = FitModel(cfg["analysis.model"])
    for path in map(Path, image_paths):
        stem = path.stem
        prof, slits = _profile(cfg, FieldGrid.load(path), out_dir, stem)
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


def cmd_compare(cfg: RunConfig, out_dir: Path) -> dict:
    """Image the configured object with all four illumination modes; only
    the images, profiles and report are written, not the event streams."""
    seed = cfg["acquisition.seed"]
    wall_time = cfg["acquisition.wall_time_s"]
    wavelength = cfg["system.wavelength_m"]
    report: dict = {"command": "compare", "wall_time_s": wall_time}
    resolved_modes = []

    # quantum pairs at the base wavelength
    events = run_acquisition(cfg.source("ocm"), cfg.detector(wavelength),
                             wall_time, child_seed(seed, "ocm"))
    pairs, _, image = _reconstruct(cfg, events)
    grids = {"ocm": image.to_field_grid()}
    report["ocm_n_pairs"] = len(pairs)

    # classical singles: coherent at lambda, coherent at lambda/N, incoherent
    half = wavelength / cfg["ocm.n_photons"]
    classical_runs = [
        ("coherent", "coherent", wavelength),
        ("coherent_half", "coherent", half),
        ("incoherent", "incoherent", wavelength),
    ]
    for name, kind, lam in classical_runs:
        stream = run_acquisition(cfg.source(kind, lam), cfg.detector(lam),
                                 wall_time, child_seed(seed, name))
        grids[name] = singles_image(stream)
        report[f"{name}_n_events"] = len(stream)

    for name, grid in grids.items():
        grid.save(out_dir / f"{name}_image.ocmg")
        _, slits = _profile(cfg, grid, out_dir, name)
        report.update(slits)
        if slits.get(f"{name}_resolved"):
            resolved_modes.append(name)
    if cfg["analysis.n_slits"] >= 2:
        report["resolved_modes"] = ",".join(resolved_modes)
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
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration key (repeatable)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
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
        cfg = load_config(args.config, args.set)
        if args.seed is not None:
            cfg.values["acquisition.seed"] = int(args.seed)
        out_dir = Path(args.out or cfg["io.output_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "psf":
            cmd_psf(cfg, out_dir)
        elif args.command == "simulate":
            cmd_simulate(cfg, out_dir, n_threads=args.threads)
        elif args.command == "reconstruct":
            cmd_reconstruct(cfg, args.events, out_dir)
        elif args.command == "analyze":
            cmd_analyze(cfg, args.images, out_dir)
        elif args.command == "compare":
            cmd_compare(cfg, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OcmsimError, OSError, ValueError) as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
