import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from ocmsim import (DetectorConfig, EventStream, FieldGrid, read_events,
                    write_events)
from ocmsim.cli import main
from ocmsim.events_io import write_framed
from ocmsim.grid import OCMG_MAGIC

from conftest import ROOT, load_module
from oracles import interpolate_scipy

CONFIG = ROOT / "configs" / "default.yaml"
fingerprint_tool = load_module("fingerprint", ROOT / "tools" / "fingerprint.py")

#: one small simulate -> reconstruct flow
SMALL = {"small": (["--set", "acquisition.wall_time_s=0.002",
                    "--set", "grid.nx=256"],
                   [fingerprint_tool.SIMULATE, fingerprint_tool.RECONSTRUCT])}


def prints_of(root: Path) -> dict:
    fingerprint_tool.run_flows(root, SMALL, CONFIG, main)
    return fingerprint_tool.fingerprint(root, read_events, FieldGrid.load)


def test_reruns_print_equal_and_one_changed_byte_shows(tmp_path):
    first = prints_of(tmp_path / "a")
    assert first == prints_of(tmp_path / "b")
    assert {"small/simulate/events.ocme", "small/simulate/events.ocme records",
            "small/reconstruct/centroid_image.ocmg",
            "small/reconstruct/centroid_image.ocmg values"} <= set(first)
    report = tmp_path / "a" / "small" / "reconstruct" / "reconstruct_report.txt"
    data = bytearray(report.read_bytes())
    data[-2] ^= 1
    report.write_bytes(bytes(data))
    changed = fingerprint_tool.fingerprint(tmp_path / "a", read_events,
                                           FieldGrid.load)
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
                                                   read_events, None))
    assert prints[0]["e.ocme"] != prints[1]["e.ocme"]
    assert prints[0]["e.ocme records"] == prints[1]["e.ocme records"]


def test_image_values_show_a_format_only_change_as_equal(tmp_path):
    """One image under two headers (the second holds one more key): the
    file hashes differ, the values entries agree; a changed sample changes
    the values entry."""
    grid = FieldGrid(np.arange(6.0).reshape(2, 3), 1e-6, 2e-6, (0.5, -1.0))
    header = {"shape": [2, 3], "dx": 1e-6, "dy": 2e-6, "origin": [0.5, -1.0],
              "complex": False}
    for name, extra, values in (("a", {}, grid.values),
                                ("b", {"note": 1}, grid.values),
                                ("c", {}, grid.values + 1)):
        (tmp_path / name).mkdir()
        write_framed(tmp_path / name / "g.ocmg", OCMG_MAGIC,
                     {**header, **extra}, values, "grid file")
    a, b, c = (fingerprint_tool.fingerprint(tmp_path / name, None,
                                            FieldGrid.load) for name in "abc")
    assert a["g.ocmg"] != b["g.ocmg"]
    assert a["g.ocmg values"] == b["g.ocmg values"] == \
        fingerprint_tool.grid_hash(grid)
    assert c["g.ocmg values"] != a["g.ocmg values"]


def test_library_streams_print_equal_on_rerun():
    """Both library workloads at 0.01 s and two seeds: equal prints on a
    rerun, an exact, a records, a pairs and an accidentals entry per
    stream, one entry per sampler density, and seeds that differ."""
    from ocmsim import (estimate_accidentals, extract_coincidences,
                        run_acquisition)
    from ocmsim.config import load_config

    small = {name: (overrides, 0.01) for name, (overrides, _)
             in fingerprint_tool.LIBRARY.items()}
    prints = [fingerprint_tool.library_prints(
        small, (1, 2), CONFIG, load_config, run_acquisition,
        extract_coincidences, estimate_accidentals) for _ in range(2)]
    assert prints[0] == prints[1]
    assert sorted(prints[0]) == sorted(
        [f"library/{name}/seed_{seed}{suffix}" for name in small
         for seed in (1, 2)
         for suffix in ("", " records", " pairs", " accidentals")]
        + [f"library/{name}/{density}" for name in small
           for density in ("centroid_density", "deviation_density")])
    for name in small:
        for suffix in ("", " pairs", " accidentals"):
            assert prints[0][f"library/{name}/seed_1{suffix}"] != \
                prints[0][f"library/{name}/seed_2{suffix}"]


def test_interpolation_prints_are_scipys_bits(monkeypatch):
    """The target and mask-density entries of the interpolated workload are
    the same with SciPy's interpolator in place of ``FieldGrid.interpolate``."""
    import ocmsim
    from ocmsim.config import load_config

    name = fingerprint_tool.INTERPOLATED
    args = (name, fingerprint_tool.LIBRARY[name][0], CONFIG, load_config,
            ocmsim)
    prints = fingerprint_tool.interpolation_prints(*args)
    assert sorted(prints) == [f"library/{name}/mask_centroid_density",
                              f"library/{name}/target"]
    monkeypatch.setattr(FieldGrid, "interpolate", interpolate_scipy)
    assert fingerprint_tool.interpolation_prints(*args) == prints


def test_diff_counts_equal_entries_and_names_the_rest(tmp_path):
    """A changed hash and a key on either side only each get a line; an
    equal entry counts and is not named."""
    base = {"a": "1", "b": "2", "gone": "3"}
    change = {"a": "1", "b": "9", "new": "4"}
    assert fingerprint_tool.diff_report(base, change) == (
        "Fingerprint against the base commit: 1 of 4 entries equal\n\n"
        "- differs: `b`\n- differs: `gone`\n- differs: `new`\n")
    assert fingerprint_tool.diff_report(base, dict(base)) == (
        "Fingerprint against the base commit: 3 of 3 entries equal\n\n")
    paths = []
    for name, prints in (("base", base), ("change", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(prints))
    run = subprocess.run([sys.executable, ROOT / "tools" / "fingerprint.py",
                          "--diff", *paths], capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stdout == fingerprint_tool.diff_report(base, change)
