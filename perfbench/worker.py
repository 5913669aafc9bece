"""Workload runner: one fresh process per benchmark run.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SCALE``.
Prints one JSON object (samples, counters, check failures, layer metrics,
peak RSS and versions) as its last stdout line; ``run.py`` starts it and
turns the samples into metrics.

Every pipeline iteration ``i`` draws its inputs from ``iteration_seed(seed,
i)``, so a run is a pure function of its seed and of how many iterations
fit into ``SECONDS``.  Traced runs time the calls into each ``ocmsim``
module from this file; nothing inside the package is instrumented.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ocmsim import (FieldGrid, GridSpec, XiMode, centroid_image,  # noqa: E402
                    coverage_table, cross_section, estimate_accidentals,
                    extract_coincidences, ocm_image, read_events,
                    read_manifest, run_acquisition, sample_event_positions,
                    slit_contrast, width_metrics, write_events)
from ocmsim.config import load_config  # noqa: E402
from ocmsim.detector import apply_detector_model  # noqa: E402
from ocmsim.errors import OcmsimError  # noqa: E402
from spec import WORKLOADS  # noqa: E402
from speed import kernel_s  # noqa: E402

CONFIG = ROOT / "configs" / "default.yaml"
SCRATCH = ROOT / ".bench_tmp"
MB = 1024.0 * 1024.0
CLI_TIMEOUT_S = 170

# Output checks.  Pair counts must lie within POISSON_SIGMAS standard
# deviations of these per-frame expectations, calibrated at the parent
# commit over 20 seeds: 4e6 frames for the ideal detector and 1.6e8 frames
# for the real sensor.  (Seed-to-seed, the ideal count spreads by 0.8 of its
# Poisson sigma.)
IDEAL_PAIRS_PER_FRAME = 0.7142
REAL_PAIRS_PER_FRAME = 8.85e-5
REAL_ACCIDENTAL_FRAC = 0.67
POISSON_SIGMAS = 5.0
# The ideal image must stay within L1_BASE + L1_NOISE / sqrt(expected pairs)
# of the analytic image.  The second term is the shot-noise floor: runs read
# about 0.11 at 1.4e5 pairs and 0.29 at 1.4e4 pairs, and the tolerance sits
# about 1.5 times above both.
L1_BASE, L1_NOISE = 0.05, 45.0


def iteration_seed(seed: int, i: int) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Durations of the enclosed calls, kept by name when enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.times: dict[str, list[float]] = {}

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if self.enabled:
                self.times.setdefault(name, []).append(
                    time.perf_counter() - t0)

    def durations(self, name: str) -> list[float]:
        return self.times.get(name, [])


@contextmanager
def alloc_peak(out: dict, key: str):
    """Record the tracemalloc peak (MB) of the enclosed block under ``key``."""
    tracemalloc.start()
    try:
        yield
    finally:
        out[key] = tracemalloc.get_traced_memory()[1] / MB
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# Workload context
# ---------------------------------------------------------------------------

class Context:
    """Configuration, source and analytic target of one workload."""

    def __init__(self, name: str, scale: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.overrides = self.workload["overrides"] + [
            f"acquisition.wall_time_s={self.workload['wall_time_s'] * scale!r}"]
        self.cfg = load_config(CONFIG, self.overrides)
        self.source = self.cfg.source()
        self.detector = self.cfg.detector()
        self.wall_time = self.cfg["acquisition.wall_time_s"]
        self.n_frames = int(round(self.wall_time * self.detector.frame_rate))
        self.weight = self.cfg.deviation_weight()
        self.pitch_img = (self.cfg["aperture.pitch_m"]
                          * self.cfg["system.magnification"])
        self.target = self._target()

    def _target(self) -> np.ndarray:
        """ocm_image at the centroid bin centres (criterion-5 construction)."""
        shape = (2 * self.detector.n_pixels_x - 1,
                 2 * self.detector.n_pixels_y - 1)
        bx, by = self.detector.bin_center(np.arange(shape[0]),
                                          np.arange(shape[1]))
        spec = GridSpec.centered(640, self.cfg["aperture.pitch_m"] / 48)
        analytic = ocm_image(self.cfg.aperture(), self.cfg.system(),
                             self.cfg["ocm.n_photons"], spec)
        pts = np.stack(np.meshgrid(bx, by, indexing="ij"), axis=-1)
        return analytic.interpolate(pts)


def image_l1(values: np.ndarray, target: np.ndarray) -> float:
    a = values.clip(min=0.0)
    a = a / a.sum()
    return float(np.abs(a - target / target.sum()).sum())


def profile(ctx: Context, grid: FieldGrid, tr: Tracer) -> dict:
    """cross_section + width_metrics + slit_contrast, as `ocmsim analyze`."""
    with tr.span("analysis.profile"):
        prof = cross_section(grid, "x")
        try:
            width_metrics(prof)
        except OcmsimError:
            pass                 # multi-peak profiles have no single width
        contrast, resolved = slit_contrast(prof, ctx.cfg["analysis.n_slits"],
                                           ctx.pitch_img)
    return {"contrast": contrast, "resolved": resolved}


# ---------------------------------------------------------------------------
# Checks: each returns a list of failure messages
# ---------------------------------------------------------------------------

def poisson_failures(pairs: int, expected: float) -> list[str]:
    if abs(pairs - expected) > POISSON_SIGMAS * np.sqrt(expected):
        return [f"pairs {pairs} outside Poisson bound of {expected:.0f}"]
    return []


def l1_tolerance(n_frames: int) -> float:
    return L1_BASE + L1_NOISE / np.sqrt(IDEAL_PAIRS_PER_FRAME * n_frames)


def check_ideal(out: dict, n_frames: int) -> list[str]:
    failures = poisson_failures(out["pairs"], IDEAL_PAIRS_PER_FRAME * n_frames)
    tol = l1_tolerance(n_frames)
    if not out["image_l1"] < tol:
        failures.append(f"image_l1 {out['image_l1']:.4f} >= {tol:.4f}")
    if not out["resolved"]:
        failures.append(f"slit profile not resolved "
                        f"(contrast {out['contrast']:.3f})")
    return failures


def check_real(out: dict, n_frames: int) -> list[str]:
    expected = REAL_PAIRS_PER_FRAME * n_frames
    failures = poisson_failures(out["pairs"], expected)
    frac = out["accidental_sum"] / max(out["pairs"], 1)
    # the accidental sum is half a Poisson count of cross-frame pairs
    sigma = REAL_ACCIDENTAL_FRAC * np.sqrt(
        1.0 / expected + 0.5 / (REAL_ACCIDENTAL_FRAC * expected))
    if abs(frac - REAL_ACCIDENTAL_FRAC) > POISSON_SIGMAS * sigma:
        failures.append(f"accidental fraction {frac:.3f} outside Poisson "
                        f"bound of {REAL_ACCIDENTAL_FRAC}")
    return failures


def check_output(ctx: Context, out: dict) -> list[str]:
    if ctx.name == "ideal_triple_slit":
        return check_ideal(out, ctx.n_frames)
    if ctx.name == "real_sensor":
        return check_real(out, ctx.n_frames)
    return []


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def multi_event_frames(stream) -> int:
    _, counts = np.unique(stream.frame, return_counts=True)
    return int((counts > 2).sum())


def reconstruct(ctx: Context, stream, tr: Tracer):
    """Extraction, accidentals and image, as `ocmsim reconstruct` does."""
    cfg = ctx.cfg
    window, min_xi = cfg["reconstruction.window_s"], cfg["reconstruction.min_xi_pixels"]
    with tr.span("reconstruction.extract"):
        pairs = extract_coincidences(
            stream, window, 2, min_xi,
            one_pair_per_frame=cfg["reconstruction.one_pair_per_frame"])
    offset = cfg["reconstruction.accidental_offset_frames"]
    accidentals = None
    with tr.span("reconstruction.accidentals"):
        if offset > 0:
            accidentals = estimate_accidentals(stream, window, offset, min_xi)
    mode = XiMode.SUM if cfg["reconstruction.mode"] == "sum" else XiMode.AVERAGE
    with tr.span("reconstruction.image"):
        image = centroid_image(pairs, accidentals, mode, ctx.detector,
                               deviation_weight=ctx.weight)
    return pairs, accidentals, image


def library_pass(ctx: Context, seed: int, tr: Tracer) -> dict:
    """One in-process iteration: acquisition through the centroid image."""
    t0 = time.perf_counter()
    with tr.span("detector.acquisition"):
        stream = run_acquisition(ctx.source, ctx.detector, ctx.wall_time, seed)
    pairs, accidentals, image = reconstruct(ctx, stream, tr)
    wall = time.perf_counter() - t0
    out = {
        "wall_s": wall, "frames": stream.n_frames,
        "tuples": int(stream.meta["pairs_generated"]), "events": len(stream),
        "pairs": len(pairs), "n_cut": int(pairs.n_cut),
        "multi_pair_frames": int(pairs.n_multi_pair_frames),
        "multi_event_frames": multi_event_frames(stream),
        "accidental_sum": (float(accidentals.values.sum())
                           if accidentals is not None else 0.0),
        "image_l1": image_l1(image.values, ctx.target),
    }
    out.update(profile(ctx, image.to_field_grid(), tr))
    return out


def cli_stage(tr: Tracer, stage: str, args: list[str], ctx: Context,
              seed: int, out_dir: Path) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    cmd = [sys.executable, "-m", "ocmsim.cli", "--config", str(CONFIG)]
    for item in ctx.overrides:
        cmd += ["--set", item]
    cmd += ["--seed", str(seed), "--out", str(out_dir / stage), stage, *args]
    t0 = time.perf_counter()
    with tr.span(f"cli.{stage}"):
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"ocmsim {stage} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed


def output_digest(out_dir: Path) -> dict:
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def cli_pass(ctx: Context, seed: int, tr: Tracer) -> dict:
    """One CLI iteration: simulate, reconstruct, analyze as fresh processes."""
    SCRATCH.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        wall = cli_stage(tr, "simulate", [], ctx, seed, out_dir)
        events_path = out_dir / "simulate" / "events.ocme"
        wall += cli_stage(tr, "reconstruct", [str(events_path)], ctx, seed,
                          out_dir)
        image_path = out_dir / "reconstruct" / "centroid_image.ocmg"
        wall += cli_stage(tr, "analyze", [str(image_path)], ctx, seed, out_dir)
        sim = read_manifest(str(events_path) + ".manifest.txt")
        rec = read_manifest(out_dir / "reconstruct" / "reconstruct_report.txt")
        ana = read_manifest(out_dir / "analyze" / "analyze_report.txt")
        n_pairs = int(rec["n_pairs"])
        return {
            "wall_s": wall, "frames": int(rec["n_frames"]),
            "tuples": int(sim["pairs_generated"]),
            "events": int(rec["n_events"]), "pairs": n_pairs,
            "n_cut": int(rec["n_cut_by_min_xi"]),
            "multi_pair_frames": int(rec["n_multi_pair_frames"]),
            "accidental_sum": float(rec["accidental_sum"]),
            "image_l1": image_l1(FieldGrid.load(image_path).values, ctx.target),
            "contrast": float(ana["centroid_image_slit_contrast"]),
            "resolved": ana["centroid_image_resolved"] == "True",
            "digest": output_digest(out_dir),
            "file_bytes": events_path.stat().st_size,
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_pass(ctx: Context, seed: int, tr: Tracer) -> dict:
    if ctx.workload["kind"] == "cli":
        return cli_pass(ctx, seed, tr)
    return library_pass(ctx, seed, tr)


# ---------------------------------------------------------------------------
# Measurement loop
# ---------------------------------------------------------------------------

COUNTERS = ("tuples", "events", "pairs", "n_cut", "multi_pair_frames")


def drift(a: dict, b: dict) -> list[str]:
    """Counters that differ between two same-seed iterations."""
    return [k for k in COUNTERS if a[k] != b[k]]


class Run:
    """Attempted and failed iterations of one run, with their samples."""

    def __init__(self, ctx: Context, seed: int):
        self.ctx, self.seed = ctx, seed
        self.samples: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        # earlier same-seed samples by iteration index, for the drift check
        self.reference: dict[int, dict] = {}

    def attempt(self, label: str, fn):
        """Run ``fn``; count it failed if it raises or returns failures."""
        self.attempted += 1
        try:
            result, failures = fn()
        except Exception as exc:  # a failing run is counted, not fatal
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if failures:
            self.failures.append(f"{label}: " + "; ".join(failures))
        return result

    def iterate(self, index: int, tr: Tracer):
        ctx = self.ctx

        def body():
            out = run_pass(ctx, self.seed_of(index), tr)
            failures = check_output(ctx, out)
            twin = self.reference.get(index)
            if twin is not None and drift(twin, out):
                failures.append("counters drifted from the same-seed "
                                f"iteration: {', '.join(drift(twin, out))}")
            if ctx.workload["kind"] == "cli" and index % 2 == 1:
                twin = self.samples[-1] if self.samples else None
                if twin is None or twin["index"] != index - 1:
                    failures.append("no same-seed twin to compare")
                elif twin["digest"] != out["digest"]:
                    failures.append("same-seed CLI outputs differ")
            return out, failures

        out = self.attempt(f"iteration {index}", body)
        if out is not None:
            out["index"] = index
            self.samples.append(out)
        return out

    def seed_of(self, index: int) -> int:
        # CLI iterations come in same-seed pairs for the byte-identity check
        if self.ctx.workload["kind"] == "cli":
            index //= 2
        return iteration_seed(self.seed, index)

    def loop(self, seconds: float, tr: Tracer, count: int | None = None,
             min_iterations: int = 2) -> list[dict]:
        """Iterate for ``seconds`` (or exactly ``count`` times).

        The host-speed kernel runs between iterations; each sample carries
        the mean of the kernel times just before and just after it.
        """
        start, index, samples = time.perf_counter(), 0, []
        ref = kernel_s()
        while True:
            if count is not None and index >= count:
                break
            if (count is None and index >= min_iterations
                    and time.perf_counter() - start >= seconds):
                break
            out = self.iterate(index, tr)
            after = kernel_s()
            if out is not None:
                out["ref_s"] = (ref + after) / 2.0
                samples.append(out)
            ref = after
            index += 1
        return samples


def untraced(run: Run, seconds: float) -> dict:
    samples = run.loop(seconds, Tracer(False))
    return {"samples": [{k: v for k, v in s.items() if k != "digest"}
                        for s in samples]}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def layer_extras(ctx: Context, run: Run, tr: Tracer, layer: dict) -> None:
    """Per-layer calls outside the workload's own pipeline, on iteration 0."""
    seed = run.seed_of(0)
    det, source = ctx.detector, ctx.source

    # acquisition and reconstruction under tracemalloc
    with alloc_peak(layer, "detector.alloc_peak_mb"):
        stream = run_acquisition(source, det, ctx.wall_time, seed)
    with alloc_peak(layer, "reconstruction.alloc_peak_mb"):
        reconstruct(ctx, stream, Tracer(False))
    layer["detector.stream_mb"] = sum(
        a.nbytes for a in (stream.frame, stream.ix, stream.iy, stream.t_bin)) / MB

    # thread scaling: acquisition at 1 and 2 threads must give one stream
    t1 = time.perf_counter()
    one = run_acquisition(source, det, ctx.wall_time, seed, n_threads=1)
    t1 = time.perf_counter() - t1
    t2 = time.perf_counter()
    two = run_acquisition(source, det, ctx.wall_time, seed, n_threads=2)
    t2 = time.perf_counter() - t2
    layer["detector.threads2_speedup"] = t1 / t2
    same = all(np.array_equal(getattr(one, k), getattr(two, k))
               for k in ("frame", "ix", "iy", "t_bin"))
    run.attempted += 1
    if not same:
        run.failures.append("n_threads=2 stream differs from n_threads=1")

    # sampling and detection of the acquisition's tuple count in one call
    # each; sorted uniform frame ids are Poisson counts given their total
    n_tuples = int(stream.meta["pairs_generated"])
    frame_ids = np.sort(np.random.default_rng(seed).integers(
        0, ctx.n_frames, n_tuples, dtype=np.uint64))
    with tr.span("detector.sample"):
        positions = sample_event_positions(source, seed, n_tuples, det)
    with tr.span("detector.detect"):
        apply_detector_model(positions, det, seed, frame_ids, (0, ctx.n_frames))
    del positions, frame_ids
    layer["detector.sample_s"] = tr.durations("detector.sample")[-1]
    layer["detector.detect_s"] = tr.durations("detector.detect")[-1]

    # event file round trip
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        path = work / "events.ocme"
        with tr.span("events_io.write"):
            write_events(path, stream)
        with tr.span("events_io.read"):
            back = read_events(path)
        layer["events_io.write_s"] = tr.durations("events_io.write")[-1]
        layer["events_io.read_s"] = tr.durations("events_io.read")[-1]
        layer["events_io.file_mb"] = path.stat().st_size / MB
        run.attempted += 1
        if not all(np.array_equal(getattr(stream, k), getattr(back, k))
                   for k in ("frame", "ix", "iy", "t_bin")):
            run.failures.append("event file round trip changed the stream")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # vignetting coverage of the centroid grid
    with tr.span("reconstruction.coverage"):
        coverage_table(det, ctx.cfg["reconstruction.min_xi_pixels"], ctx.weight)
    layer["reconstruction.coverage_s"] = tr.durations(
        "reconstruction.coverage")[-1]


def traced(run: Run, seconds: float) -> dict:
    """Untraced then traced iterations on the same seeds, plus layer calls.

    The workload's own path (library or CLI) is traced on every iteration;
    the other path runs once on the seed of iteration 0, so every workload
    reports every layer.  Both paths and both passes must agree on the
    counters, and both paths must write event files of one size.
    """
    ctx = run.ctx
    plain = run.loop(seconds / 2.0, Tracer(False))
    run.reference = {s["index"]: s for s in plain}
    tr = Tracer(True)
    traced_samples = run.loop(0.0, tr, count=len(plain))

    other = Tracer(True)
    is_cli = ctx.workload["kind"] == "cli"
    other_pass = library_pass if is_cli else cli_pass
    first = traced_samples[0] if traced_samples else None

    def cross_check():
        out = other_pass(ctx, run.seed_of(0), other)
        return out, ([] if first is None else
                     [f"library and CLI disagree on {k}" for k in drift(first, out)])

    replay = run.attempt("cross-path pass", cross_check)
    lib_tr, cli_tr = (other, tr) if is_cli else (tr, other)
    lib_first, cli_first = (replay, first) if is_cli else (first, replay)

    layer: dict = {}
    for name in ("cli.simulate", "cli.reconstruct", "cli.analyze",
                 "detector.acquisition", "reconstruction.extract",
                 "reconstruction.accidentals", "reconstruction.image",
                 "analysis.profile"):
        times = (cli_tr if name.startswith("cli.") else lib_tr).durations(name)
        if times:
            layer[f"{name}_s"] = float(statistics.median(times))
    run.attempt("layer calls", lambda: (layer_extras(ctx, run, tr, layer), []))
    if cli_first is not None and "events_io.file_mb" in layer:
        run.attempted += 1
        if layer["events_io.file_mb"] != cli_first["file_bytes"] / MB:
            run.failures.append("library and CLI event files differ in size")

    if first is not None:
        layer.update({
            "detector.tuples": first["tuples"],
            "detector.events": first["events"],
            "detector.events_per_tuple": first["events"] / max(first["tuples"], 1),
            "reconstruction.pairs": first["pairs"],
            "reconstruction.n_cut": first["n_cut"],
            "reconstruction.multi_pair_frames": first["multi_pair_frames"],
            "reconstruction.accidental_frac":
                first["accidental_sum"] / max(first["pairs"], 1),
            "analysis.slit_contrast": first["contrast"],
            "trace_overhead_s": (
                statistics.median(s["wall_s"] for s in traced_samples)
                - statistics.median(s["wall_s"] for s in plain)),
        })
    if lib_first is not None:
        layer["reconstruction.multi_event_frame_frac"] = (
            lib_first["multi_event_frames"] / lib_first["frames"])
    return {"samples": [{k: v for k, v in s.items() if k != "digest"}
                        for s in plain], "layer": layer}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, scale = (argv[0], int(argv[1]), float(argv[2]),
                                         argv[3] == "1", float(argv[4]))
    ctx = Context(name, scale)
    run = Run(ctx, seed)
    result = traced(run, seconds) if trace else untraced(run, seconds)
    usage = (resource.RUSAGE_CHILDREN if ctx.workload["kind"] == "cli"
             else resource.RUSAGE_SELF)
    result.update({
        "attempted": run.attempted, "failures": run.failures,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "frames_per_iteration": ctx.n_frames,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
