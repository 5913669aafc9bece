import importlib.util
from pathlib import Path

import numpy as np

from ocmsim import DetectorConfig, EventStream, read_events, write_events
from ocmsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "default.yaml"


def load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fingerprint_tool = load_module("fingerprint", ROOT / "tools" / "fingerprint.py")

#: one small simulate -> reconstruct flow
SMALL = {"small": (["--set", "acquisition.wall_time_s=0.002",
                    "--set", "grid.nx=256"],
                   [fingerprint_tool.SIMULATE, fingerprint_tool.RECONSTRUCT])}


def prints_of(root: Path) -> dict:
    fingerprint_tool.run_flows(root, SMALL, CONFIG, main)
    return fingerprint_tool.fingerprint(root, read_events)


def test_reruns_print_equal_and_one_changed_byte_shows(tmp_path):
    first = prints_of(tmp_path / "a")
    assert first == prints_of(tmp_path / "b")
    assert {"small/simulate/events.ocme", "small/simulate/events.ocme records",
            "small/reconstruct/centroid_image.ocmg"} <= set(first)
    report = tmp_path / "a" / "small" / "reconstruct" / "reconstruct_report.txt"
    data = bytearray(report.read_bytes())
    data[-2] ^= 1
    report.write_bytes(bytes(data))
    changed = fingerprint_tool.fingerprint(tmp_path / "a", read_events)
    assert [k for k in first if first[k] != changed[k]] == \
        ["small/reconstruct/reconstruct_report.txt"]


def test_order_within_a_frame_changes_only_the_exact_hash(tmp_path):
    """Frame 0 in pixel order, then in time-bin order: the same records."""
    prints = []
    for name, order in (("pixel", [0, 1, 2]), ("time", [1, 0, 2])):
        (tmp_path / name).mkdir()
        write_events(tmp_path / name / "e.ocme", EventStream(
            frame=np.array([0, 0, 1], np.uint64),
            ix=np.array([3, 9, 4], np.uint16)[order],
            iy=np.array([3, 9, 5], np.uint16)[order],
            t_bin=np.array([7, 2, 0], np.uint16)[order],
            n_frames=2, detector=DetectorConfig()))
        prints.append(fingerprint_tool.fingerprint(tmp_path / name,
                                                   read_events))
    assert prints[0]["e.ocme"] != prints[1]["e.ocme"]
    assert prints[0]["e.ocme records"] == prints[1]["e.ocme records"]


def test_library_streams_print_equal_on_rerun():
    """Both library workloads at 0.01 s and two seeds: equal prints on a
    rerun, an exact and a records entry per stream, one entry per sampler
    density, and seeds that differ."""
    from ocmsim import run_acquisition
    from ocmsim.config import load_config

    small = {name: (overrides, 0.01) for name, (overrides, _)
             in fingerprint_tool.LIBRARY.items()}
    prints = [fingerprint_tool.library_prints(small, (1, 2), CONFIG,
                                              load_config, run_acquisition)
              for _ in range(2)]
    assert prints[0] == prints[1]
    assert sorted(prints[0]) == sorted(
        [f"library/{name}/seed_{seed}{suffix}" for name in small
         for seed in (1, 2) for suffix in ("", " records")]
        + [f"library/{name}/{density}" for name in small
           for density in ("centroid_density", "deviation_density")])
    for name in small:
        assert prints[0][f"library/{name}/seed_1"] != \
            prints[0][f"library/{name}/seed_2"]


def test_hand_copies_of_the_benchmark_overrides_follow_its_spec():
    """``tools/fingerprint.py`` and ``tests/test_optics.py`` copy the library
    workloads' overrides from ``perfbench/spec.py`` (plain data) and the
    tool runs a fifth of their wall time; a drifted copy would hash or test
    a workload the benchmark does not run."""
    from test_optics import BENCHMARK_SETTINGS

    workloads = load_module("perfbench_spec",
                            ROOT / "perfbench" / "spec.py").WORKLOADS
    library = {name: w for name, w in workloads.items()
               if w["kind"] == "library"}
    assert {name: (w["overrides"], w["wall_time_s"] / 5)
            for name, w in library.items()} == fingerprint_tool.LIBRARY
    _, settings = BENCHMARK_SETTINGS.args
    assert dict(zip(BENCHMARK_SETTINGS.kwargs["ids"], settings)) == \
        {name: w["overrides"] for name, w in library.items()}
