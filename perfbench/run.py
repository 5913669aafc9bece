"""ocmsim benchmark: one run of one workload, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An untraced run (``--trace 0``) reports the ``end_to_end`` metrics of
``BENCHMARK.json``; a traced run (``--trace 1``) reports its ``per_layer``
metrics.  Set-up is timed in fresh interpreters
(``probe.py``), the workload itself in one fresh worker process
(``worker.py``).  Human-readable lines come first; the last stdout line is
the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import WORKLOADS
from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPS = 3
RUN_TIMEOUT_S = 175


def fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child(args: list[str], deadline: float) -> dict:
    """Run a perfbench script in a fresh interpreter; parse its JSON line.

    The child gets its own process group, so that a timeout also stops the
    CLI processes it started.
    """
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def median(values) -> float:
    return float(statistics.median(values))


def scale(record: dict) -> float:
    """REFERENCE_S over the host-speed kernel time measured with a record."""
    return REFERENCE_S / record["ref_s"]


def host_scale(probes: list[dict], result: dict) -> float:
    """The run's median scale, for the environment line."""
    return median(scale(r) for r in probes + result["samples"])


def end_to_end(probes: list[dict], result: dict, per_iteration: bool) -> dict:
    """Timings scaled to the reference host (speed.py), then their medians.

    Set-up times are scaled by their probe's kernel time.  Iterations are
    scaled by the kernel time measured next to each (``per_iteration``) or
    by the run's median one.  The second suits the CLI workload: the kernel,
    timed in the worker, follows the speed of fresh CLI processes over
    minutes but not from one iteration to the next.
    """
    run_scale = host_scale(probes, result)

    def scaled_wall(s: dict) -> float:
        return s["wall_s"] * (scale(s) if per_iteration else run_scale)

    values = {"setup_s": median(p["setup_s"] * scale(p) for p in probes),
              "peak_rss_mb": result["peak_rss_mb"]}
    samples = result["samples"]
    if samples:
        values.update({
            "wall_s": median(scaled_wall(s) for s in samples),
            "frames_per_s": median(s["frames"] / scaled_wall(s)
                                   for s in samples),
            "coinc_per_s": median(s["pairs"] / scaled_wall(s)
                                  for s in samples),
            "image_l1": median(s["image_l1"] for s in samples),
        })
    return values


def per_layer(probes: list[dict], result: dict) -> dict:
    layer = dict(result["layer"])
    for key, name in (("import_s", "cli.import_s"), ("config_s", "config.load_s"),
                      ("centroid_density_s", "ocm.centroid_density_s"),
                      ("deviation_density_s", "phasematch.deviation_density_s"),
                      ("sampler_s", "detector.sampler_build_s"),
                      ("density_cells", "grid.density_cells")):
        layer[name] = median(p[key] for p in probes)
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="frames per iteration relative to the spec "
                             "(smoke tests only; results are not comparable)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ocmsim" / "__init__.py").is_file() or \
            not (ROOT / "configs" / "default.yaml").is_file():
        return fail_setup(f"no ocmsim source tree under {ROOT}")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail_setup(f"cannot read BENCHMARK.json: {exc}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    trace = bool(args.trace)

    probe_args = [str(HERE / "probe.py"), args.workload] + (
        ["--split"] if trace else [])
    try:
        probes = [child(probe_args, deadline) for _ in range(SETUP_REPS)]
        result = child([str(HERE / "worker.py"), args.workload, str(args.seed),
                        repr(seconds), str(args.trace), repr(args.scale)],
                       deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        return fail_setup(f"{args.workload}: {type(exc).__name__}: {exc}")

    spec = bench["per_layer" if trace else "end_to_end"]
    per_iteration = WORKLOADS[args.workload]["kind"] == "library"
    values = (per_layer(probes, result) if trace
              else end_to_end(probes, result, per_iteration))
    failures = list(result["failures"])
    metrics = {}
    for entry in spec:
        name, value = entry["name"], values.get(entry["name"])
        if value is None or not math.isfinite(value):
            failures.append(f"metric {name} not measured")
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}
    attempted = result["attempted"] + len(probes)
    failed = min(len(failures), attempted)

    env = {"nproc": len(os.sched_getaffinity(0)), **result["versions"],
           "commit": git_commit(), "workload": args.workload,
           "seed": args.seed, "seconds": seconds, "trace": args.trace,
           "scale": args.scale,
           "frames_per_iteration": result["frames_per_iteration"],
           "host_scale": host_scale(probes, result),
           "iterations": len(result["samples"])}
    print(f"# env {json.dumps(env, sort_keys=True)}")
    counts = {"setup_s": len(probes), "peak_rss_mb": 1}
    for name, metric in metrics.items():
        n = "" if trace else f" (n={counts.get(name, len(result['samples']))})"
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}{n}")
    print(f"{args.workload} fail_frac = {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted})")
    for message in failures:
        print(f"# FAIL {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
