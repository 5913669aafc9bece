import json
import re
from pathlib import Path

import numpy as np

from ocmsim import DetectorConfig, EventStream, FieldGrid, write_events
from ocmsim.events_io import write_framed
from ocmsim.grid import OCMG_MAGIC

from conftest import ROOT, load_module
from oracles import interpolate_scipy

fingerprint_tool = load_module("fingerprint", ROOT / "tools" / "fingerprint.py")
base_report = load_module("base_report", ROOT / "tools" / "base_report.py")

#: one small simulate -> reconstruct flow
SMALL = {"small": (["--set", "acquisition.wall_time_s=0.002",
                    "--set", "grid.nx=256"],
                   [fingerprint_tool.SIMULATE, fingerprint_tool.RECONSTRUCT])}


def prints_of(root: Path) -> dict:
    fingerprint_tool.run_flows(root, SMALL)
    return fingerprint_tool.fingerprint(root)


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
    changed = fingerprint_tool.fingerprint(tmp_path / "a")
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
        prints.append(fingerprint_tool.fingerprint(tmp_path / name))
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
    a, b, c = (fingerprint_tool.fingerprint(tmp_path / name)
               for name in "abc")
    assert a["g.ocmg"] != b["g.ocmg"]
    assert a["g.ocmg values"] == b["g.ocmg values"] == \
        fingerprint_tool.grid_hash(grid)
    assert c["g.ocmg values"] != a["g.ocmg values"]


def test_library_streams_print_equal_on_rerun():
    """Both library workloads at 0.01 s and two seeds: equal prints on a
    rerun, an exact, a records, a pairs and an accidentals entry per
    stream, one entry per sampler density, and seeds that differ."""
    small = {name: (overrides, 0.01) for name, (overrides, _)
             in fingerprint_tool.LIBRARY.items()}
    prints = [fingerprint_tool.library_prints(small, (1, 2))
              for _ in range(2)]
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
    name = fingerprint_tool.INTERPOLATED
    args = (name, fingerprint_tool.LIBRARY[name][0])
    prints = fingerprint_tool.interpolation_prints(*args)
    assert sorted(prints) == [f"library/{name}/mask_centroid_density",
                              f"library/{name}/target"]
    monkeypatch.setattr(FieldGrid, "interpolate", interpolate_scipy)
    assert fingerprint_tool.interpolation_prints(*args) == prints


def test_diff_counts_equal_entries_and_names_the_rest():
    """A changed hash and a key on either side only each get a line; an
    equal entry counts and is not named."""
    base = {"a": "1", "b": "2", "gone": "3"}
    change = {"a": "1", "b": "9", "new": "4"}
    assert base_report.diff_report(base, change) == (
        "Fingerprint against the base commit: 1 of 4 entries equal\n\n"
        "- differs: `b`\n- differs: `gone`\n- differs: `new`\n")
    assert base_report.diff_report(base, dict(base)) == (
        "Fingerprint against the base commit: 3 of 3 entries equal\n\n")


def test_run_imports_the_checkouts_ocmsim_whatever_the_callers_path(
        tmp_path, monkeypatch):
    """A fake ``ocmsim`` that raises on import, first on the caller's
    ``PYTHONPATH``, is not what the child imports."""
    (tmp_path / "ocmsim").mkdir()
    (tmp_path / "ocmsim" / "__init__.py").write_text("raise ImportError\n")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    imported = base_report.run(ROOT, "-c",
                               "import ocmsim; print(ocmsim.__file__)")
    assert Path(imported.strip()) == ROOT / "src" / "ocmsim" / "__init__.py"


def test_a_checkout_reported_against_itself_is_equal_throughout(capsys):
    """Every fingerprint entry, the line counts, the ``SCHEMA`` size and
    each ``cli_modules.py`` module set are equal on both sides, and each of
    the five ``pipeline_memory.py`` keys gets a line."""
    base_report.report(ROOT, ROOT)
    first, *lines = capsys.readouterr().out.splitlines()
    equal, entries = re.fullmatch(r"Fingerprint against the base commit: "
                                  r"(\d+) of (\d+) entries equal",
                                  first).groups()
    assert equal == entries != "0"
    facts = {}
    for line in filter(None, lines):
        name, sides = line.removeprefix("- ").split(": ", 1)
        facts[name] = sides.removesuffix(" with the change") \
            .split(" at the base commit, ")
    assert facts["src/ocmsim lines"][0] == facts["src/ocmsim lines"][1] == \
        str(base_report.src_lines(ROOT))
    assert facts["SCHEMA"][0] == facts["SCHEMA"][1]
    assert facts["SCHEMA"][0].endswith("choice values")
    modules = {name.split()[1]: sides for name, sides in facts.items()
               if name.startswith("cli_modules.py ")}
    assert sorted(modules) == ["analyze", "reconstruct", "simulate"]
    for base, change in modules.values():
        assert json.loads(base) == json.loads(change)
    memory = [name for name in facts if name.startswith("pipeline_memory.py ")]
    assert len(memory) == 5
