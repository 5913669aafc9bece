import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import ocmsim
from ocmsim import (DetectorConfig, EventStream, FieldGrid, coverage_table,
                    estimate_accidentals, extract_coincidences, read_events,
                    read_manifest, write_events)
from ocmsim.analysis import cross_section, export_profile_csv
from ocmsim.cli import main
from ocmsim.config import SCHEMA, _check_type, load_config
from ocmsim.detector import _block_frames
from ocmsim.errors import ConfigError, CorruptEventFile
from ocmsim.events_io import stable_hash
from oracles import nested_config_values

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "default.yaml"

FAST = [
    "--set", "acquisition.wall_time_s=0.01",
    "--set", "acquisition.pair_rate_hz=4.0e+6",
    "--set", "grid.nx=256",
]


def run_cli(args):
    return main([str(a) for a in args])


def run_python(*args):
    """Fresh interpreter that imports this checkout's ocmsim."""
    src = str(Path(ocmsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_default_config_parses():
    cfg = load_config(CONFIG)
    assert cfg["system.wavelength_m"] == 810e-9
    assert cfg["detector.pixel_pitch_m"] == 43.75e-6


def test_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("system:\n  pupil_radius_m: 1.0e-3\n  bogus_key: 3\n")
    with pytest.raises(ConfigError, match="system.bogus_key"):
        load_config(bad)


def test_yaml_syntax_error_is_line_addressed(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("system:\n  pupil_radius_m: [unclosed\n")
    with pytest.raises(ConfigError, match=r"bad\.yaml:"):
        load_config(bad)


def test_wrong_type_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("detector:\n  n_pixels_x: twelve\n")
    with pytest.raises(ConfigError, match="detector.n_pixels_x"):
        load_config(bad)


def test_set_override():
    cfg = load_config(CONFIG, overrides=["ocm.n_photons=3",
                                         "reconstruction.mode=average"])
    assert cfg["ocm.n_photons"] == 3
    assert cfg["reconstruction.mode"] == "average"


def test_bad_override_choice():
    with pytest.raises(ConfigError, match="reconstruction.mode"):
        load_config(CONFIG, overrides=["reconstruction.mode=sideways"])


def load_perfbench_workloads() -> dict:
    """``WORKLOADS`` of perfbench/spec.py, a data module that imports no
    ``ocmsim``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spec", ROOT / "perfbench" / "spec.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_perfbench_workloads()


@pytest.fixture
def two_frame_events(tmp_path):
    """A three-event, two-frame stream on the default sensor."""
    events = tmp_path / "two.ocme"
    write_events(events, EventStream(
        frame=np.array([0, 0, 1], np.uint64), ix=np.array([3, 9, 4], np.uint16),
        iy=np.array([3, 9, 5], np.uint16), t_bin=np.zeros(3, np.uint16),
        n_frames=2, detector=DetectorConfig()))
    return events


@pytest.mark.parametrize("name", [None, *WORKLOADS])
def test_shipped_config_loads_the_nested_tree_values(name):
    """The default file, alone or under a benchmark workload's overrides
    (as its worker and its CLI runs pass them), with or without a seed."""
    overrides = []
    if name is not None:
        workload = WORKLOADS[name]
        overrides = workload["overrides"] + [
            f"acquisition.wall_time_s={workload['wall_time_s']!r}"]
    assert load_config(CONFIG, overrides).values == \
        nested_config_values(CONFIG, overrides)
    assert load_config(CONFIG, overrides + ["acquisition.seed=41"]).values \
        == nested_config_values(CONFIG, overrides, seed=41)


@pytest.mark.parametrize("setting, command, outcome", [
    # a section mapping merges key by key, as the same mapping in the file
    ("detector={pde: 1.0}", "reconstruct", ["detector.pde=1.0"]),
    ("reconstruction={}", "reconstruct", []),
    # a key below a key names nothing
    ("detector.pde.x=1", "psf", "detector.pde.x: unknown configuration key"),
    ("acquisition.seed.x=1", "psf",
     "acquisition.seed.x: unknown configuration key"),
    # a section takes a mapping, and each key in it is checked
    ("detector=5", "psf", "detector: expected a mapping"),
    ("detector={pde: {x: 1}}", "psf", "detector.pde: expected a number"),
], ids=["detector_mapping", "empty_reconstruction_mapping",
        "key_below_float_key", "key_below_int_key", "section_not_mapping",
        "section_mapping_bad_value"])
def test_set_of_a_section_or_below_a_key(tmp_path, capsys, two_frame_events,
                                         setting, command, outcome):
    args = ["--config", CONFIG, "--set", setting, "--out", tmp_path / "o",
            command] + ([two_frame_events] if command == "reconstruct" else [])
    if isinstance(outcome, str):
        assert run_cli(args) == 2
        assert f"configuration error: {outcome}" in capsys.readouterr().err
    else:
        assert run_cli(args) == 0
        assert load_config(CONFIG, [setting]).values == \
            load_config(CONFIG, outcome).values


def tag_values(kind: str):
    """Values a schema type tag accepts (choices, bounds, pairs, literals)."""
    kind, _, alt = kind.partition("|")
    if kind.startswith("choice:"):
        values = st.sampled_from(kind[7:].split(","))
    elif kind.startswith("pair<"):
        values = st.lists(tag_values(kind[5:-1]), min_size=2, max_size=2)
    elif kind == "bool":
        values = st.booleans()
    elif kind == "str":
        values = st.text(alphabet="abcdefxyz_/", min_size=1, max_size=8)
    else:
        base, op, low = re.fullmatch(r"(\w+)(>=|>|)(\d*)", kind).groups()
        low = int(low) if op else -10 ** 6
        if base == "int":
            values = st.integers(min_value=low + (op == ">"),
                                 max_value=10 ** 6)
        else:
            values = st.floats(min_value=low, max_value=1e9,
                               exclude_min=op == ">")
    return values | st.just(None if alt == "null" else alt) if alt else values


KINDS = {key: kind for key, kind, _, _ in SCHEMA}


@given(drawn=st.sets(st.sampled_from(sorted(KINDS))).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: tag_values(KINDS[key]) for key in sorted(keys)})))
def test_file_leaf_sets_and_section_sets_load_alike(tmp_path_factory, drawn):
    """A random subset of keys, written as a YAML file, as one ``--set``
    per key and as one section mapping per section, loads one set of
    values, in which every drawn key holds its checked value."""
    nested: dict = {}
    for key, value in drawn.items():
        *sections, leaf = key.split(".")
        node = nested
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
    path = tmp_path_factory.getbasetemp() / "drawn.yaml"
    path.write_text(yaml.safe_dump(nested))
    leaf_sets = [f"{key}={json.dumps(value)}" for key, value in drawn.items()]
    section_sets = [f"{section}={json.dumps(mapping)}"
                    for section, mapping in nested.items()]

    def outcome(path, overrides):
        try:
            return load_config(path, overrides).values
        except ConfigError as exc:
            return str(exc)

    loaded = outcome(path, [])
    assert outcome(None, leaf_sets) == loaded
    assert outcome(None, section_sets) == loaded
    if isinstance(loaded, str):       # only a run shorter than one frame
        assert loaded.startswith("acquisition.wall_time_s: shorter than")
    else:
        assert all(loaded[key] == _check_type(key, KINDS[key], value)
                   for key, value in drawn.items())


EXPONENTS = {"reconstruction.window_s": ("2e-9", "2.0e-9"),
             "acquisition.pair_rate_hz": ("4E+6", "4.0e+6"),
             "acquisition.wall_time_s": ("1e-3", "1.0e-3"),
             "aperture.center_m": ("[1e-6, -2.5e-6]", "[1.0e-6, -2.5e-6]"),
             "system.pupil_radius_m": ("1.5e-3", "1.5e-3")}


def test_exponent_without_dot_is_a_number_in_file_and_set(tmp_path):
    dotted = [f"{key}={plain}" for key, (_, plain) in EXPONENTS.items()]
    expected = load_config(None, dotted).values
    assert expected["reconstruction.window_s"] == 2e-9
    sets = [f"{key}={short}" for key, (short, _) in EXPONENTS.items()]
    assert load_config(None, sets).values == expected

    sections: dict = {}
    for key, (short, _) in EXPONENTS.items():
        section, leaf = key.split(".")
        sections.setdefault(section, []).append(f"  {leaf}: {short}\n")
    custom = tmp_path / "exponents.yaml"
    custom.write_text("".join(f"{section}:\n" + "".join(lines)
                              for section, lines in sections.items()))
    assert load_config(custom).values == expected
    set_args = [arg for item in sets for arg in ("--set", item)]
    assert run_cli(["--config", custom, *set_args, "--set", "grid.nx=256",
                    "--out", tmp_path / "o", "simulate"]) == 0


@pytest.mark.parametrize("setting, outcome", [
    ("io.output_dir=1e3x", "1e3x"),
    ("io.output_dir='1e3'", "1e3"),
    ("io.output_dir=auto", "auto"),
    ("grid.nx=1_000", 1000),
    ("analysis.band=[1_0, 2E1]", ConfigError("expected an integer, got 20.0")),
    # an unquoted exponent is a number, so a string key needs it quoted
    ("io.output_dir=1e3", ConfigError("expected a string, got 1000.0")),
])
def test_only_exponent_numbers_change_reading(setting, outcome):
    key = setting.split("=")[0]
    if isinstance(outcome, ConfigError):
        with pytest.raises(ConfigError, match=f"^{key}: {outcome}"):
            load_config(CONFIG, [setting])
    else:
        assert load_config(CONFIG, [setting])[key] == outcome


@pytest.mark.parametrize("kind, value, expected", [
    ("float", 3, 3.0),
    ("float>=0", 0, 0.0),
    ("float>0", 1e-9, 1e-9),
    ("int>=1", 1, 1),
    ("bool", False, False),
    ("str|null", None, None),
    ("float|auto", "auto", "auto"),
    ("pair<float>", [1, 2.5], (1.0, 2.5)),
    ("pair<int>|null", [2, 3], (2, 3)),
    ("choice:a,b", "b", "b"),
])
def test_schema_tag_accepts(kind, value, expected):
    out = _check_type("k", kind, value)
    assert out == expected and type(out) is type(expected)


@pytest.mark.parametrize("kind, value, message", [
    ("float", True, "expected a number, got True"),
    ("float>=0", -1e-9, "expected a number >= 0"),
    ("float>0", 0.0, "expected a number > 0"),
    ("int", 1.0, "expected an integer"),
    ("int>=1", 0, "expected an integer >= 1"),
    ("bool", 1, "expected a boolean"),
    ("str", None, "expected a string"),
    ("float|auto", "automatic", "expected a number or auto"),
    ("float|null", "x", "expected a number or null"),
    ("pair<float>", [1.0], "expected a pair"),
    ("pair<int>|null", [1, 2.0], "expected an integer, got 2.0"),
    ("choice:a,b", None, "expected one of"),
    ("float", float("inf"), "expected a finite number, got inf"),
    ("float>0", float("nan"), "expected a finite number, got nan"),
    pytest.param("float", 10 ** 400, "expected a finite number",
                 id="int_beyond_float_range"),
    pytest.param("int>=1", 10 ** 400,
                 "expected an integer within float range",
                 id="int_key_beyond_float_range"),
])
def test_schema_tag_rejects(kind, value, message):
    with pytest.raises(ConfigError, match=f"^k: {message}"):
        _check_type("k", kind, value)


def test_exit_code_2_on_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nonsense_key: 1\n")
    assert run_cli(["--config", bad, "--out", tmp_path / "o", "psf"]) == 2


def test_exit_code_3_on_runtime_error(tmp_path):
    code = run_cli(["--config", CONFIG, "--out", tmp_path / "o",
                    "reconstruct", tmp_path / "missing.ocme"])
    assert code == 3


def test_exit_code_3_on_event_file_without_geometry(tmp_path):
    events = tmp_path / "bare.ocme"
    write_events(events, EventStream(
        frame=np.array([0, 0], np.uint64), ix=np.array([3, 9], np.uint16),
        iy=np.array([3, 9], np.uint16), t_bin=np.array([0, 0], np.uint16),
        n_frames=2, detector=DetectorConfig()))
    # OCME: 6-byte magic and version, u32 header length, header, records
    data = events.read_bytes()
    body = 10 + int.from_bytes(data[6:10], "little")
    blob = json.dumps({**json.loads(data[10:body]), "detector": {}}).encode()
    events.write_bytes(data[:6] + len(blob).to_bytes(4, "little") + blob
                       + data[body:])
    with pytest.raises(CorruptEventFile, match="bad detector"):
        read_events(events)
    code = run_cli(["--config", CONFIG, "--out", tmp_path / "o",
                    "reconstruct", events])
    assert code == 3


@pytest.mark.parametrize("setting, command, named", [
    ("grid.nx=0", "psf", "grid.nx"),
    ("detector.pde=1.5", "simulate", "detector"),
    ("acquisition.pair_rate_hz=-5.0", "simulate", "acquisition.source"),
    ("reconstruction.accidental_offset_frames=-1", "reconstruct",
     "reconstruction.accidental_offset_frames"),
    ("system.pupil_radius_m=-1.0", "psf", "system"),
    ("system.magnification=0.0", "psf", "system"),
    ("aperture.pitch_m=1.0e-5", "psf", "aperture"),
    ("system.pupil_profile=gaussian", "psf", "system"),
    ("reconstruction.window_s=-1.0e-9", "reconstruct",
     "reconstruction.window_s"),
    ("reconstruction.min_xi_pixels=-3", "reconstruct",
     "reconstruction.min_xi_pixels"),
    ("ocm.n_photons=0", "psf", "ocm.n_photons"),
    ("ocm.n_photons=-2", "psf", "ocm.n_photons"),
    ("acquisition.wall_time_s=0.0", "simulate", "acquisition.wall_time_s"),
    ("acquisition.wall_time_s=1.0e-7", "simulate", "acquisition.wall_time_s"),
    ("acquisition.far_field_correlation_px=-1.0", "simulate",
     "acquisition.far_field_correlation_px"),
    ("reconstruction.window_s=.inf", "reconstruct", "reconstruction.window_s"),
    ("system.pupil_radius_m=.nan", "psf", "system.pupil_radius_m"),
    ("grid.nx=1" + "0" * 400, "psf", "grid.nx"),
    ("phase_matching.crystal_length_m=-1.0", "reconstruct", "phase_matching"),
    # each record refuses what it cannot use before any density is built
    ("system={pupil_profile: gaussian, pupil_sigma_m: -1}", "simulate",
     "system"),
    ("aperture.line_width_m=-1e-6", "simulate", "aperture"),
    ("aperture.slit_length_m=-1e-6", "simulate", "aperture"),
    ("aperture={kind: rectangle, width_m: -1e-6}", "simulate", "aperture"),
    ("aperture={kind: gaussian_spot, waist_m: -1e-6}", "simulate",
     "aperture"),
    ("aperture={kind: gaussian_spot, waist_m: 0}", "simulate", "aperture"),
], ids=["grid_nx_0", "pde_above_1", "negative_rate", "negative_offset",
        "negative_pupil", "zero_magnification", "pitch_below_line_width",
        "gaussian_pupil_without_sigma", "negative_window", "negative_min_xi",
        "zero_photons", "negative_photons", "zero_wall_time",
        "wall_time_below_one_frame", "negative_far_field_correlation",
        "infinite_window", "nan_pupil", "grid_nx_beyond_float_range",
        "negative_crystal_length", "gaussian_sigma_negative",
        "negative_line_width", "negative_slit_length",
        "negative_rectangle_width", "negative_waist", "zero_waist"])
def test_out_of_range_value_exits_2(tmp_path, capsys, two_frame_events,
                                    setting, command, named):
    args = ["--config", CONFIG, *FAST, "--set", setting,
            "--out", tmp_path / "o", command]
    assert run_cli(args + ([two_frame_events] if command == "reconstruct"
                           else [])) == 2
    assert f"configuration error: {named}: " in capsys.readouterr().err


@pytest.mark.parametrize("kind, setting", [
    *((kind, f"acquisition.pair_rate_hz={rate}")
      for kind in ("ocm", "coherent", "incoherent", "point", "far_field")
      for rate in ("-5.0", "0.0")),
    ("point", "aperture.waist_m=-1.0"),
])
def test_refused_source_exits_2(tmp_path, capsys, kind, setting):
    """Every source kind refuses a rate that is not > 0 when it is built,
    and the point source a waist that is not; NumPy never sees them."""
    code = run_cli(["--config", CONFIG, *FAST, "--set",
                    f"acquisition.source={kind}", "--set", setting,
                    "--out", tmp_path / "o", "simulate"])
    assert code == 2
    assert "configuration error: acquisition.source: " in \
        capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_rejected_by_the_parser(tmp_path, threads):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--config", CONFIG, *FAST, "--threads", threads,
                 "--out", tmp_path, "simulate"])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_pde_auto_looks_up_the_wavelength():
    cfg = load_config(CONFIG, ["detector.pde=auto"])
    assert cfg.detector(810e-9).pde == 0.008
    assert cfg.detector(405e-9).pde == 0.05
    with pytest.raises(ConfigError, match="detector.pde"):
        cfg.detector(532e-9)


def test_custom_sellmeier_file_gives_the_shipped_poling_period(tmp_path):
    copy = tmp_path / "index.yaml"
    copy.write_text(resources.files("ocmsim.data")
                    .joinpath("ppktp_z.yaml").read_text())
    custom = load_config(CONFIG, [
        f"phase_matching.sellmeier.data_file={copy}"]).phase_matching()
    shipped = load_config(CONFIG).phase_matching()
    assert custom.poling_period == shipped.poling_period


SELLMEIER = ("sellmeier: {A: 2.12725, B: 1.18431, C: 0.0514852, D: 0.6603,"
             " E: 100.00507, F: 9.68956e-3}\n")


@pytest.mark.parametrize("text, named", [
    ("foo: 1\n", "`sellmeier` mapping"),
    ("- A\n- B\n", "`sellmeier` mapping"),
    ("sellmeier: {A: 2.1, B: 1.2, C: 0.05, D: 0.66, F: 0.01}\n", "['E']"),
    ("sellmeier: {A: x, B: 1.2, C: 0.05, D: true, E: 100.0, F: 0.01}\n",
     "['A', 'D']"),
    ("sellmeier: [\n", "not YAML"),
    (f"{SELLMEIER}thermal: {{n1: [x]}}\n", "['n1']"),
    (f"{SELLMEIER}thermal: {{n1: abc}}\n", "['n1']"),
    (f"{SELLMEIER}thermal: {{reference_temperature_C: warm}}\n",
     "['reference_temperature_C']"),
], ids=["no_sellmeier_key", "yaml_list", "missing_coefficient",
        "coefficient_not_a_number", "not_yaml", "thermal_not_a_number",
        "thermal_a_string", "reference_temperature_not_a_number"])
def test_malformed_sellmeier_file_exits_2(tmp_path, capsys, text, named):
    # at 30 C the thermal terms are evaluated, so a value that loaded
    # unchecked would end in a NumPy traceback
    data = tmp_path / "index.yaml"
    data.write_text(text)
    code = run_cli(["--config", CONFIG, *FAST, "--set",
                    f"phase_matching.sellmeier.data_file={data}",
                    "--set", "phase_matching.sellmeier.temperature_C=30.0",
                    "--out", tmp_path / "o", "simulate"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error: phase_matching: " in err
    assert str(data) in err and named in err


@pytest.mark.parametrize("temperature", ["1e300", "1e150", "1e100",
                                         "-274.0"])
def test_unphysical_crystal_temperature_exits_2(tmp_path, capsys,
                                                temperature):
    """A temperature below absolute zero, or one whose index or wavevectors
    are not finite, is a configuration error naming the temperature, with
    no NumPy warning on the way."""
    setting = f"phase_matching.sellmeier.temperature_C={temperature}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["--config", CONFIG, *FAST, "--set", setting,
                        "--out", tmp_path / "o", "simulate"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error: phase_matching: " in err
    assert "temperature_C = " in err


def test_cli_import_leaves_heavy_scipy_unloaded():
    heavy = ("scipy.signal", "scipy.stats", "scipy.optimize")
    proc = run_python("-c", "import sys, ocmsim.cli; "
                      f"print([m for m in {heavy!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_reconstruct_and_analyze_leave_scipy_unloaded(tmp_path):
    # profiling, slit scoring and reconstruction need no SciPy; a module-level
    # import of scipy.special or scipy.fft would add ~0.3 s to each command
    assert run_cli(["--config", CONFIG, *FAST, "--out", tmp_path / "sim",
                    "simulate"]) == 0
    rec, an = tmp_path / "rec", tmp_path / "an"
    script = (
        "import sys; from ocmsim.cli import main; "
        f"assert main(['--config', {str(CONFIG)!r}, '--out', {str(rec)!r}, "
        f"'reconstruct', {str(tmp_path / 'sim' / 'events.ocme')!r}]) == 0; "
        f"assert main(['--config', {str(CONFIG)!r}, '--out', {str(an)!r}, "
        f"'analyze', {str(rec / 'centroid_image.ocmg')!r}]) == 0; "
        "print([m for m in ('scipy.special', 'scipy.fft') "
        "if m in sys.modules])")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (an / "analyze_report.txt").exists()


def test_simulate_and_the_pair_sampler_load_no_scipy(tmp_path):
    # the sombrero PSF and the convolution need NumPy alone; importing SciPy
    # would add ~0.3 s and ~27 MB to every simulate
    script = (
        "import sys; from ocmsim.cli import main; "
        "from ocmsim.config import load_config; "
        "from ocmsim.detector import OcmPairSource; "
        f"assert main(['--config', {str(CONFIG)!r}, "
        f"'--set', 'acquisition.wall_time_s=0.01', "
        f"'--out', {str(tmp_path / 'sim')!r}, 'simulate']) == 0; "
        "print([m for m in sys.modules if m.startswith('scipy')]); "
        f"cfg = load_config({str(CONFIG)!r}); source = cfg.source(); "
        "assert isinstance(source, OcmPairSource); "
        "source.sampler(cfg.detector()); "
        "print([m for m in sys.modules if m.startswith('scipy')])")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]
    assert (tmp_path / "sim" / "events.ocme").exists()


def test_help_lists_every_config_key():
    proc = run_python("-m", "ocmsim.cli", "--help")
    assert proc.returncode == 0
    for path, _, _, _ in SCHEMA:
        assert path in proc.stdout


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def test_simulate_then_reconstruct(tmp_path):
    out = tmp_path / "sim"
    assert run_cli(["--config", CONFIG, *FAST, "--out", out, "simulate"]) == 0
    events = out / "events.ocme"
    assert events.exists()
    manifest = (out / "events.ocme.manifest.txt").read_text()
    assert "duty_cycle: 0.036" in manifest

    rec = tmp_path / "rec"
    assert run_cli(["--config", CONFIG, "--out", rec,
                    "reconstruct", events]) == 0
    grid = FieldGrid.load(rec / "centroid_image.ocmg")
    assert grid.values.shape == (63, 63)
    assert (rec / "centroid_image.csv").exists()


@pytest.mark.parametrize(
    "source", ["ocm", "coherent", "incoherent", "point", "far_field"])
def test_every_source_simulates_and_reconstructs(tmp_path, source):
    sim = ["--config", CONFIG, *FAST, "--set", "acquisition.wall_time_s=0.005",
           "--set", f"acquisition.source={source}"]
    assert run_cli([*sim, "--out", tmp_path / "sim", "simulate"]) == 0
    assert run_cli(["--config", CONFIG, "--out", tmp_path / "rec",
                    "reconstruct", tmp_path / "sim" / "events.ocme"]) == 0


@pytest.mark.parametrize("kind", ["point", "single_slit", "double_slit",
                                  "rectangle", "gaussian_spot", "uniform"])
def test_every_aperture_simulates(tmp_path, kind):
    assert run_cli(["--config", CONFIG, *FAST,
                    "--set", "acquisition.wall_time_s=0.005",
                    "--set", f"aperture.kind={kind}",
                    "--out", tmp_path, "simulate"]) == 0
    assert (tmp_path / "events.ocme").stat().st_size > 0


@pytest.fixture(scope="module")
def short_events(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run_cli(["--config", CONFIG, *FAST,
                    "--set", "acquisition.wall_time_s=0.005",
                    "--out", out, "simulate"]) == 0
    return out / "events.ocme"


def test_simulate_manifest_reads_back(short_events):
    manifest = read_manifest(str(short_events) + ".manifest.txt")
    source = load_config(CONFIG, FAST[1::2]).source()
    assert json.loads(manifest["source"]) == source.describe()
    assert manifest["detector_hash"] == stable_hash(
        read_events(short_events).detector.to_dict())


@pytest.mark.parametrize("mode", ["sum", "average", "weighted"])
def test_reconstruct_mode_selects_the_normalisation(tmp_path, short_events,
                                                    mode):
    """sum keeps the coverage; average divides by the pair count per bin;
    weighted by the phase-matching-weighted pair count."""
    assert run_cli(["--config", CONFIG, "--set", f"reconstruction.mode={mode}",
                    "--out", tmp_path, "reconstruct", short_events]) == 0
    report = (tmp_path / "reconstruct_report.txt").read_text()
    assert f"\nmode: {mode}\n" in report and "vignetting" not in report

    cfg = load_config(CONFIG, [f"reconstruction.mode={mode}"])
    events = read_events(short_events)
    pairs = extract_coincidences(events, 1e-9, 2, 1)
    expected = np.zeros((63, 63))
    np.add.at(expected, (pairs.cx, pairs.cy), 1.0)
    expected -= estimate_accidentals(events, 1e-9, 1, 1).values
    if mode != "sum":
        coverage = coverage_table(events.detector, 1, cfg.deviation_weight())
        expected = np.where(coverage > 0, expected / np.where(
            coverage > 0, coverage, 1.0), 0.0)
    image = FieldGrid.load(tmp_path / "centroid_image.ocmg").values
    assert np.array_equal(image, expected)


def test_time_ordered_event_file_reconstructs_alike(tmp_path, short_events):
    """Records sorted by (frame, t_bin, ix, iy), as older files hold them,
    give the report and image bytes of the pixel-ordered file."""
    events = read_events(short_events)
    order = np.lexsort((events.iy, events.ix, events.t_bin, events.frame))
    assert not np.array_equal(order, np.arange(len(events)))
    events = replace(events, **{name: getattr(events, name)[order]
                                for name in ("frame", "ix", "iy", "t_bin")})
    write_events(tmp_path / "timed.ocme", events)
    outputs = []
    for name, path in (("pixel", short_events),
                       ("timed", tmp_path / "timed.ocme")):
        assert run_cli(["--config", CONFIG, "--out", tmp_path / name,
                        "reconstruct", path]) == 0
        outputs.append({p.name: p.read_bytes()
                        for p in (tmp_path / name).iterdir()})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == ["centroid_image.csv", "centroid_image.ocmg",
                                  "reconstruct_report.txt"]


def test_reconstruct_takes_geometry_from_the_event_file(tmp_path):
    out = tmp_path / "sim"
    assert run_cli(["--config", CONFIG, *FAST,
                    "--set", "detector.n_pixels_x=16",
                    "--set", "detector.n_pixels_y=16",
                    "--out", out, "simulate"]) == 0
    rec = tmp_path / "rec"
    assert run_cli(["--config", CONFIG, "--out", rec,
                    "reconstruct", out / "events.ocme"]) == 0
    grid = FieldGrid.load(rec / "centroid_image.ocmg")
    assert grid.values.shape == (31, 31)


def test_compare_writes_only_what_it_reports(tmp_path):
    assert run_cli(["--config", CONFIG, *FAST,
                    "--set", "acquisition.wall_time_s=0.002",
                    "--out", tmp_path, "compare"]) == 0
    modes = ("ocm", "coherent", "coherent_half", "incoherent")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["compare_report.txt"] + [f"{m}_image.ocmg" for m in modes]
        + [f"{m}_profile.csv" for m in modes])


def test_simulate_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["--config", CONFIG, *FAST, "--out", out,
                        "simulate"]) == 0
    assert (a / "events.ocme").read_bytes() == (b / "events.ocme").read_bytes()


def test_simulate_writes_the_same_files_on_two_threads(tmp_path):
    """A 2 s real-sensor run is four 2**19-frame blocks; two threads share
    them out and write every file byte for byte as one thread does."""
    settings = ["detector={pde: auto, dark_count_rate_hz: 1e3}",
                "acquisition.wall_time_s=2.0"]
    cfg = load_config(CONFIG, settings)
    n_frames = cfg["acquisition.wall_time_s"] * cfg["detector.frame_rate_hz"]
    assert 3 << 19 < n_frames <= 4 << 19
    assert _block_frames(cfg.source(), cfg.detector()) == 1 << 19
    outs = {}
    for threads in ("2", "1"):
        outs[threads] = tmp_path / threads
        assert run_cli(["--config", CONFIG,
                        *(a for s in settings for a in ("--set", s)),
                        "--threads", threads, "--out", outs[threads],
                        "simulate"]) == 0
    names = sorted(p.name for p in outs["1"].iterdir())
    assert "events.ocme" in names
    assert sorted(p.name for p in outs["2"].iterdir()) == names
    for name in names:
        assert (outs["2"] / name).read_bytes() == \
            (outs["1"] / name).read_bytes(), name


def test_seed_flag_changes_stream(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["--config", CONFIG, *FAST, "--out", a, "simulate"]) == 0
    assert run_cli(["--config", CONFIG, *FAST, "--seed", "777", "--out", b,
                    "simulate"]) == 0
    assert (a / "events.ocme").read_bytes() != (b / "events.ocme").read_bytes()


def test_seed_flag_is_a_checked_seed_override(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["--config", CONFIG, *FAST, "--seed", "777", "--out", a,
                    "simulate"]) == 0
    assert run_cli(["--config", CONFIG, *FAST, "--set", "acquisition.seed=777",
                    "--out", b, "simulate"]) == 0
    assert (a / "events.ocme").read_bytes() == (b / "events.ocme").read_bytes()
    assert run_cli(["--config", CONFIG, "--seed", "1" + "0" * 400,
                    "--out", tmp_path / "c", "psf"]) == 2
    assert ("configuration error: acquisition.seed: expected an integer "
            "within float range") in capsys.readouterr().err


def test_psf_refines_a_coarse_grid_to_the_order_n_psf(tmp_path):
    assert run_cli(["--config", CONFIG, "--set", "grid.nx=64",
                    "--out", tmp_path, "psf"]) == 0
    # the default grid already samples the order-2 PSF: it is not refined,
    # so the default psf outputs keep their bytes
    cfg = load_config(CONFIG)
    assert cfg.object_grid().nx == cfg["grid.nx"]


def test_psf_report(tmp_path):
    out = tmp_path / "psf"
    assert run_cli(["--config", CONFIG, "--set", "grid.nx=384",
                    "--out", out, "psf"]) == 0
    report = dict(line.split(": ", 1)
                  for line in (out / "psf_report.txt").read_text().splitlines())
    ratio = float(report["ocm_vs_half_wavelength_fwhm_ratio"])
    assert abs(ratio - 1.0) < 0.05
    for stem in ("psf_classical", "psf_classical_half", "psf_ocm",
                 "psf_classical_pairs"):
        assert (out / f"{stem}.ocmg").exists()
        assert (out / f"{stem}_profile.csv").exists()


@pytest.fixture(scope="module")
def psf_out(tmp_path_factory):
    """``psf`` outputs, and ``analyze`` of ``psf_ocm.ocmg`` in ``analyze/``."""
    out = tmp_path_factory.mktemp("psf")
    assert run_cli(["--config", CONFIG, "--set", "grid.nx=256",
                    "--out", out, "psf"]) == 0
    assert run_cli(["--config", CONFIG, "--set", "analysis.n_slits=0",
                    "--out", out / "analyze", "analyze",
                    out / "psf_ocm.ocmg"]) == 0
    return out


def test_profile_csvs_load_back_exactly(psf_out):
    profile = cross_section(FieldGrid.load(psf_out / "psf_ocm.ocmg"), "x")
    for path in (psf_out / "psf_ocm_profile.csv",
                 psf_out / "analyze" / "psf_ocm_profile.csv"):
        back = np.loadtxt(path, delimiter=",", comments="#")
        assert np.array_equal(back[:, 0], profile.positions)
        assert np.array_equal(back[:, 1], profile.values)


def test_analyze_psf_without_slit_scoring(psf_out):
    report = dict(line.split(": ", 1) for line in
                  (psf_out / "analyze" / "analyze_report.txt").read_text()
                  .splitlines())
    assert float(report["psf_ocm_fwhm_m"]) > 0
    assert not any(key.endswith("_slit_contrast") for key in report)


def test_psf_gaussian_pupil_flags_sql(tmp_path):
    out = tmp_path / "psfg"
    assert run_cli(["--config", CONFIG, "--set", "grid.nx=384",
                    "--set", "system.pupil_profile=gaussian",
                    "--set", "system.pupil_sigma_m=0.5e-3",
                    "--out", out, "psf"]) == 0
    report = dict(line.split(": ", 1)
                  for line in (out / "psf_report.txt").read_text().splitlines())
    assert report["sql_scaling"] == "True"
    assert abs(float(report["quantum_scaling_alpha"]) - 0.5) < 0.03


def test_analyze_reconstructed_image(tmp_path):
    out = tmp_path / "sim"
    run_cli(["--config", CONFIG, *FAST,
             "--set", "acquisition.wall_time_s=0.1", "--out", out, "simulate"])
    rec = tmp_path / "rec"
    run_cli(["--config", CONFIG, "--out", rec, "reconstruct",
             out / "events.ocme"])
    an = tmp_path / "an"
    assert run_cli(["--config", CONFIG, "--out", an, "analyze",
                    rec / "centroid_image.ocmg"]) == 0
    text = (an / "analyze_report.txt").read_text()
    assert "centroid_image_slit_contrast" in text
    assert (an / "centroid_image_profile.csv").exists()


def test_analyze_records_an_unscorable_image_and_goes_on(tmp_path):
    """An empty image, as a zero-event ``reconstruct`` writes, has no peaks
    to score: its errors are recorded and the triple slit beside it is
    still scored."""
    x = -1e-3 + 10e-6 * np.arange(200)
    slits = sum(np.exp(-(x - c) ** 2 / (2 * 40e-6 ** 2))
                for c in (-264e-6, 0.0, 264e-6))
    for name, values in (("empty", np.zeros(200)), ("good", slits)):
        FieldGrid(np.repeat(values[:, None], 5, axis=1), 10e-6, 10e-6,
                  (-1e-3, 0.0)).save(tmp_path / f"{name}.ocmg")
    an = tmp_path / "an"
    assert run_cli(["--config", CONFIG, "--out", an, "analyze",
                    tmp_path / "empty.ocmg", tmp_path / "good.ocmg"]) == 0
    report = read_manifest(an / "analyze_report.txt")
    assert report["empty_slit_error"] == "PeaksNotFound"
    assert report["empty_width_error"] == "NoPeak"
    assert report["good_resolved"] == "True"
    assert float(report["good_slit_contrast"]) > 0.5


def test_analyze_projects_the_configured_band(tmp_path):
    rng = np.random.default_rng(8)
    grid = FieldGrid(rng.random((40, 30)), 1e-6, 1e-6, (-20e-6, -15e-6))
    grid.save(tmp_path / "img.ocmg")
    an = tmp_path / "an"
    assert run_cli(["--config", CONFIG, "--set", "analysis.band=[5, 12]",
                    "--set", "analysis.n_slits=0", "--out", an, "analyze",
                    tmp_path / "img.ocmg"]) == 0
    for band, name in (((5, 12), "band.csv"), (None, "all.csv")):
        export_profile_csv(cross_section(grid, "x", band), tmp_path / name)
    written = (an / "img_profile.csv").read_bytes()
    assert written == (tmp_path / "band.csv").read_bytes()
    assert written != (tmp_path / "all.csv").read_bytes()
