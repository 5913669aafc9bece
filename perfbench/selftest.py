"""Tests of the benchmark itself (not part of the package's test suite).

Run with ``python3 -m pytest perfbench/selftest.py -q`` from the repository
root; takes a few minutes.  The file name keeps it out of the default test
collection.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import worker  # noqa: E402

TINY = 0.1          # frames per iteration relative to the spec
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", str(TINY)],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_respects_the_contract_limits():
    bench = BENCH
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 2 <= len(bench["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in bench["end_to_end"])}]


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        n: m["unit"] for n, m in result["metrics"].items()}


def test_missing_source_tree_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "real_sensor",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def ideal_ctx():
    return worker.Context("ideal_triple_slit", TINY)


def test_counters_repeat_for_a_fixed_seed(ideal_ctx):
    tr = worker.Tracer(False)
    a = worker.library_pass(ideal_ctx, 11, tr)
    b = worker.library_pass(ideal_ctx, 11, tr)
    assert worker.drift(a, b) == []
    assert a["image_l1"] == b["image_l1"]


def test_shuffled_image_fails_its_check_and_counts_as_failed(ideal_ctx,
                                                             monkeypatch):
    clean = worker.Run(ideal_ctx, seed=3)
    clean.loop(0.0, worker.Tracer(False), count=1)
    assert clean.failures == [] and clean.attempted == 1

    real_image = worker.centroid_image
    rng = np.random.default_rng(0)

    def shuffled(*args, **kwargs):
        image = real_image(*args, **kwargs)
        flat = image.values.ravel()
        image.values = flat[rng.permutation(flat.size)].reshape(image.shape)
        return image

    monkeypatch.setattr(worker, "centroid_image", shuffled)
    bad = worker.Run(ideal_ctx, seed=3)
    bad.loop(0.0, worker.Tracer(False), count=1)
    assert bad.attempted == 1 and len(bad.failures) == 1
    assert "image_l1" in bad.failures[0]


def test_extraction_that_skips_multi_event_frames_fails(ideal_ctx,
                                                        monkeypatch):
    real_extract = worker.extract_coincidences

    def lossy(stream, *args, **kwargs):
        _, counts = np.unique(stream.frame, return_counts=True)
        keep = np.repeat(counts <= 2, counts)
        lean = dataclasses.replace(
            stream, **{k: getattr(stream, k)[keep]
                       for k in ("frame", "ix", "iy", "t_bin")})
        return real_extract(lean, *args, **kwargs)

    monkeypatch.setattr(worker, "extract_coincidences", lossy)
    run = worker.Run(ideal_ctx, seed=3)
    run.loop(0.0, worker.Tracer(False), count=1)
    assert run.attempted == 1 and len(run.failures) == 1
    assert "outside Poisson bound" in run.failures[0]


def test_real_sensor_check_rejects_counts_off_their_expectation():
    n_frames = 8_000_000
    expected = worker.REAL_PAIRS_PER_FRAME * n_frames
    good = {"pairs": round(expected),
            "accidental_sum": worker.REAL_ACCIDENTAL_FRAC * expected}
    assert worker.check_real(good, n_frames) == []
    assert worker.check_real(dict(good, pairs=round(1.5 * expected)), n_frames)
    assert worker.check_real(dict(good, accidental_sum=0.0), n_frames)


def test_cli_outputs_that_differ_between_twins_fail(monkeypatch):
    ctx = worker.Context("cli_pipeline", TINY)
    digests = iter([{"a": "1"}, {"a": "2"}])
    monkeypatch.setattr(worker, "output_digest", lambda out_dir: next(digests))
    run = worker.Run(ctx, seed=2)
    run.loop(0.0, worker.Tracer(False), count=2)
    assert run.attempted == 2
    assert run.failures == ["iteration 1: same-seed CLI outputs differ"]


def test_timings_scale_to_the_reference_host_speed():
    import run
    from speed import REFERENCE_S

    probes = [{"setup_s": 2.0, "ref_s": 2 * REFERENCE_S}] * 3
    # a slow spell doubles both the second iteration and its kernel time
    result = {"peak_rss_mb": 300.0,
              "samples": [{"wall_s": w, "frames": 100, "pairs": 10,
                           "image_l1": 0.1, "ref_s": r * REFERENCE_S}
                          for w, r in ((2.0, 1.0), (4.0, 2.0), (2.0, 1.0))]}
    assert run.host_scale(probes, result) == pytest.approx(0.5)
    assert run.end_to_end(probes, result, True) == pytest.approx(
        {"setup_s": 1.0, "wall_s": 2.0, "frames_per_s": 50.0,
         "coinc_per_s": 5.0, "peak_rss_mb": 300.0, "image_l1": 0.1})
    # one scale for the run: the median of the kernel times
    assert run.end_to_end(probes, result, False) == pytest.approx(
        {"setup_s": 1.0, "wall_s": 1.0, "frames_per_s": 100.0,
         "coinc_per_s": 10.0, "peak_rss_mb": 300.0, "image_l1": 0.1})
