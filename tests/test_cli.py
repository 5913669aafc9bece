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
from hypothesis import example, given
from hypothesis import strategies as st

import ocmsim
from ocmsim import config
from ocmsim import (DetectorConfig, EventStream, FieldGrid, coverage_table,
                    estimate_accidentals, extract_coincidences, read_events,
                    read_manifest, singles_image, write_events)
from ocmsim.analysis import cross_section, export_profile_csv
from ocmsim.cli import (cmd_analyze, cmd_compare, cmd_psf, cmd_reconstruct,
                        cmd_simulate, main)
from ocmsim.config import SCHEMA, _check_type, load_config
from ocmsim.detector import _block_frames, child_seed
from ocmsim.errors import ConfigError, CorruptEventFile
from ocmsim.events_io import (_RECORD, OCME_MAGIC, canonical_json, stable_hash,
                             write_framed)
from ocmsim.phasematch import SPEED_OF_LIGHT
from conftest import WORKLOADS
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


def test_schema_defaults_are_the_shipped_file():
    """One table of defaults: the shipped file restates every schema
    default, so a run loads the same values with it as without it."""
    assert load_config().values == load_config(CONFIG).values


def test_config_file_is_optional(tmp_path):
    """Without ``--config`` a run loads the schema defaults, which the
    shipped file restates, so simulate writes the same bytes either way."""
    for name, config in (("with", ["--config", CONFIG]), ("without", [])):
        assert run_cli([*config, *FAST, "--out", tmp_path / name,
                        "simulate"]) == 0
    for name in ("events.ocme", "events.ocme.manifest.txt"):
        assert (tmp_path / "with" / name).read_bytes() == \
            (tmp_path / "without" / name).read_bytes()


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


def test_config_not_in_utf8_is_a_configuration_error(tmp_path, capsys):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes("# radius in \u00b5m\nsystem:\n  pupil_radius_m: 1.5e-3\n"
                    .encode("latin-1"))
    with pytest.raises(ConfigError, match=re.escape(
            f"{bad}: YAML syntax error: unacceptable character #x00b5")):
        load_config(bad)
    assert run_cli(["--config", bad, "--out", tmp_path / "o", "psf"]) == 2
    assert f"configuration error: {bad}: " in capsys.readouterr().err


def test_config_in_utf16_with_a_byte_order_mark_loads(tmp_path):
    # YAML streams may be UTF-16 when a byte order mark says so
    utf16 = tmp_path / "utf16.yaml"
    utf16.write_text("# \u00b5m\n" + CONFIG.read_text(), encoding="utf-16")
    assert utf16.read_bytes()[:2] in (b"\xff\xfe", b"\xfe\xff")
    assert load_config(utf16).values == load_config(CONFIG).values


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
# a random subset of keys, each at a value its type tag accepts
DRAWN = st.sets(st.sampled_from(sorted(KINDS))).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: tag_values(KINDS[key]) for key in sorted(keys)}))


def drawn_sources(path: Path, drawn: dict) -> tuple[list[str], list[str]]:
    """``drawn`` written as a YAML file at ``path``, and returned as one
    ``--set`` per key and as one section mapping ``--set`` per section."""
    nested: dict = {}
    for key, value in drawn.items():
        *sections, leaf = key.split(".")
        node = nested
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
    path.write_text(yaml.safe_dump(nested))
    return ([f"{key}={json.dumps(value)}" for key, value in drawn.items()],
            [f"{section}={json.dumps(mapping)}"
             for section, mapping in nested.items()])


def load_outcome(path, overrides):
    """The loaded values, or the configuration error's message."""
    try:
        return load_config(path, overrides).values
    except ConfigError as exc:
        return str(exc)


@given(drawn=DRAWN)
@example(drawn={"acquisition.wall_time_s": 1e-7})
@example(drawn={"analysis.band": [0, -1]})
@example(drawn={"analysis.band": [-2, 3], "detector.frame_rate_hz": 0.5})
@example(drawn={"acquisition.wall_time_s": 1e300, "analysis.band": [0, -1]})
def test_file_leaf_sets_and_section_sets_load_alike(tmp_path_factory, drawn):
    """A random subset of keys, written as a YAML file, as one ``--set``
    per key and as one section mapping per section, loads one outcome: the
    defaults with every drawn key at its checked value, or, exactly when
    those values break a load-level rule, that rule's error."""
    path = tmp_path_factory.getbasetemp() / "drawn.yaml"
    leaf_sets, section_sets = drawn_sources(path, drawn)
    loaded = load_outcome(path, [])
    assert load_outcome(None, leaf_sets) == loaded
    assert load_outcome(None, section_sets) == loaded
    values = {**load_config().values,
              **{key: _check_type(key, KINDS[key], value)
                 for key, value in drawn.items()}}
    band = values["analysis.band"]
    frames = (values["acquisition.wall_time_s"]
              * values["detector.frame_rate_hz"])
    if frames < 1:
        assert loaded == ("acquisition.wall_time_s: shorter than one frame "
                          "period of detector.frame_rate_hz")
    elif frames > 2 ** 63:
        assert loaded == ("acquisition.wall_time_s: more than 2**63 frame "
                          "periods of detector.frame_rate_hz")
    elif band is not None and not 0 <= band[0] <= band[1]:
        assert loaded == (f"analysis.band: expected 0 <= lo <= hi, got "
                          f"{list(band)}")
    else:
        assert loaded == values


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


# the configuration loader rebuilt on PyYAML's pure-Python parser, which
# reads where PyYAML was built without libyaml
PYTHON_LOADER = type("PythonLoader", (yaml.SafeLoader,), {
    "yaml_implicit_resolvers": config._Loader.yaml_implicit_resolvers})


def with_python_loader(call, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "_Loader", PYTHON_LOADER)
        return call(*args)


@pytest.mark.parametrize("path", [
    CONFIG, resources.files("ocmsim.data").joinpath("ppktp_z.yaml")],
    ids=["default", "ppktp_z"])
def test_libyaml_and_python_loaders_read_the_shipped_files_alike(path):
    raw = path.read_bytes()
    assert (yaml.load(raw, Loader=config._Loader)
            == yaml.load(raw, Loader=PYTHON_LOADER))
    # the data file's loader, without the exponent resolver
    assert (yaml.load(raw, Loader=getattr(yaml, "CSafeLoader",
                                          yaml.SafeLoader))
            == yaml.safe_load(raw))


def test_libyaml_and_python_loaders_read_exponents_alike():
    text = "[1e-3, 2E+9, 1.0e3, -4e+06, 5.5E-1]"
    expected = [1e-3, 2e9, 1e3, -4e6, 0.55]
    for loader in (config._Loader, PYTHON_LOADER):
        values = yaml.load(text, Loader=loader)
        assert values == expected
        assert all(type(value) is float for value in values)


@given(drawn=DRAWN)
@example(drawn={"aperture.center_m": [1e-3, 2e9]})
def test_libyaml_and_python_loaders_load_drawn_configs_alike(
        tmp_path_factory, drawn):
    """The drawn file, leaf ``--set``s and section ``--set``s load one
    outcome on either loader."""
    path = tmp_path_factory.getbasetemp() / "drawn_loaders.yaml"
    for overrides in ([], *drawn_sources(path, drawn)):
        source = path if overrides == [] else None
        assert load_outcome(source, overrides) == \
            with_python_loader(load_outcome, source, overrides)


@pytest.mark.parametrize("text", ["a: b: c\n", "system:\n  pupil_radius_m: "
                                  "[unclosed\n"], ids=["mapping", "flow"])
def test_libyaml_and_python_loaders_address_syntax_errors_alike(tmp_path,
                                                               text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    where = [message.split(": YAML syntax error: ")[0]
             for message in (load_outcome(bad, []),
                             with_python_loader(load_outcome, bad, []))]
    assert where[0] == where[1]
    assert re.fullmatch(rf"{re.escape(str(bad))}:\d+:\d+", where[0])


@pytest.mark.parametrize("setting, outcome", [
    ("phase_matching.sellmeier.data_file=1e3x", "1e3x"),
    ("phase_matching.sellmeier.data_file='1e3'", "1e3"),
    ("phase_matching.sellmeier.data_file=auto", "auto"),
    ("grid.nx=1_000", 1000),
    ("analysis.band=[1_0, 2E1]", ConfigError("expected an integer, got 20.0")),
    # an unquoted exponent is a number, so a string key needs it quoted
    ("phase_matching.sellmeier.data_file=1e3",
     ConfigError("expected a string or null, got 1000.0")),
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


@pytest.mark.parametrize("below, error", [("sub", "NotADirectoryError"),
                                          ("", "FileExistsError")])
def test_exit_code_3_when_the_output_directory_cannot_be_made(
        tmp_path, capsys, below, error):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run_cli(["--config", CONFIG, "--out", afile / below, "psf"]) == 3
    assert f"psf: {error}: " in capsys.readouterr().err


def test_exit_code_3_on_event_file_without_geometry(tmp_path):
    events = tmp_path / "bare.ocme"
    records = np.zeros(2, _RECORD)
    records["ix"] = records["iy"] = [3, 9]
    write_framed(events, OCME_MAGIC, {"n_frames": 2, "detector": {}}, records,
                 "event file")
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
    # psf takes any N; the event pipeline only pairs
    ("ocm.n_photons=3", "simulate", "acquisition.source"),
    ("ocm.n_photons=3", "compare", "acquisition.source"),
    ("acquisition.wall_time_s=0.0", "simulate", "acquisition.wall_time_s"),
    ("acquisition.wall_time_s=1.0e-7", "simulate", "acquisition.wall_time_s"),
    ("acquisition.wall_time_s=1e300", "simulate", "acquisition.wall_time_s"),
    ("acquisition.wall_time_s=1e300", "compare", "acquisition.wall_time_s"),
    ("acquisition.source=far_field", "simulate", "acquisition.source"),
    ("acquisition.far_field_correlation_px=0.5", "simulate",
     "acquisition.far_field_correlation_px"),
    ("detector.n_pixels_x=1", "simulate", "detector.n_pixels_x"),
    ("detector.n_pixels_y=1", "reconstruct", "detector.n_pixels_y"),
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
        "zero_photons", "negative_photons", "simulate_three_photons",
        "compare_three_photons", "zero_wall_time",
        "wall_time_below_one_frame", "simulate_past_2_63_frames",
        "compare_past_2_63_frames", "far_field_source",
        "far_field_correlation_key", "one_pixel_x", "one_pixel_y",
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
    assert not list((tmp_path / "o").rglob("*"))


@pytest.mark.parametrize("kind, setting", [
    (kind, f"acquisition.pair_rate_hz={rate}")
    for kind in ("ocm", "coherent", "incoherent")
    for rate in ("-5.0", "0.0")])
def test_refused_source_exits_2(tmp_path, capsys, kind, setting):
    """Every source kind refuses a rate that is not > 0 when it is built;
    NumPy never sees it."""
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


def detector_at(lam):
    return load_config(CONFIG, ["detector.pde=auto",
                                f"system.wavelength_m={lam!r}"]).detector()


def test_pde_auto_looks_up_the_wavelength():
    assert detector_at(810e-9).pde == 0.008
    assert detector_at(405e-9).pde == 0.05
    with pytest.raises(ConfigError, match="detector.pde"):
        detector_at(532e-9)


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


def test_the_pipeline_its_target_and_a_mask_sampler_load_no_scipy():
    # an acquisition, its pairs, accidentals and weighted image, criterion
    # 5's interpolated target and a mask aperture's sampler in one fresh
    # interpreter: importing scipy.interpolate there would add ~50 MB
    proc = run_python(str(ROOT / "tools" / "pipeline_memory.py"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["scipy"] == []


@pytest.fixture(scope="module")
def cli_modules():
    """The ``ocmsim`` modules each step of the CLI pipeline loads, each
    step in a fresh interpreter."""
    proc = run_python(str(ROOT / "tools" / "cli_modules.py"))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("command, unused", [
    ("simulate", {"analysis", "reconstruction"}),
    ("reconstruct", {"analysis", "detector", "ocm", "optics"}),
    ("analyze", {"detector", "ocm", "optics", "phasematch", "reconstruction"}),
])
def test_each_command_loads_only_the_layers_it_runs(cli_modules, command,
                                                    unused):
    # every module compiles from source in a fresh process, so a layer the
    # command does not run is start-up time spent for nothing
    loaded = {name.removeprefix("ocmsim.") for name in cli_modules[command]}
    assert {"cli", "config"} <= loaded
    assert sorted(loaded & unused) == []


def test_importing_the_package_loads_no_submodule():
    proc = run_python("-c", "import sys, ocmsim; print(sorted(name for name "
                      "in sys.modules if name.startswith('ocmsim.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    manifest = read_manifest(out / "events.ocme.manifest.txt")
    assert manifest["duty_cycle"] == 0.036

    rec = tmp_path / "rec"
    assert run_cli(["--config", CONFIG, "--out", rec,
                    "reconstruct", events]) == 0
    grid = FieldGrid.load(rec / "centroid_image.ocmg")
    assert grid.values.shape == (63, 63)
    assert (rec / "centroid_image.csv").exists()


@pytest.mark.parametrize("source", ["ocm", "coherent", "incoherent"])
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
    assert manifest["source"] == source.describe()
    assert manifest["detector_hash"] == stable_hash(
        read_events(short_events).detector.to_dict())


@pytest.mark.parametrize("mode", ["sum", "average", "weighted"])
def test_reconstruct_mode_selects_the_normalisation(tmp_path, short_events,
                                                    mode):
    """sum keeps the coverage; average divides by the pair count per bin;
    weighted by the phase-matching-weighted pair count."""
    assert run_cli(["--config", CONFIG, "--set", f"reconstruction.mode={mode}",
                    "--out", tmp_path, "reconstruct", short_events]) == 0
    report = read_manifest(tmp_path / "reconstruct_report.txt")
    assert report["mode"] == mode
    assert not any("vignetting" in key for key in report)

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


def test_every_record_is_canonical_json_that_reads_back_typed(tmp_path):
    """Each command's report and the simulate manifest is one line of
    ``canonical_json``; ``read_manifest`` gives back the report the command
    returned, numbers, booleans, lists and the source object typed."""
    cfg = load_config(CONFIG, FAST[1::2] + ["acquisition.wall_time_s=0.005"])
    out = {name: tmp_path / name for name in
           ("psf", "simulate", "reconstruct", "analyze", "compare")}
    for path in out.values():
        path.mkdir()
    reports = {"psf": cmd_psf(cfg, out["psf"])}
    cmd_simulate(cfg, out["simulate"])
    reports["reconstruct"] = cmd_reconstruct(
        cfg, out["simulate"] / "events.ocme", out["reconstruct"])
    reports["analyze"] = cmd_analyze(
        cfg, [out["reconstruct"] / "centroid_image.ocmg"], out["analyze"])
    reports["compare"] = cmd_compare(cfg, out["compare"])
    files = {name: out[name] / f"{name}_report.txt" for name in reports}
    files["simulate"] = out["simulate"] / "events.ocme.manifest.txt"
    records = {name: read_manifest(path) for name, path in files.items()}
    for name, path in files.items():
        assert path.read_text() == canonical_json(records[name]) + "\n"
    for name, report in reports.items():    # JSON tells True, 1 and 1.0 apart
        assert canonical_json(records[name]) == canonical_json(report), name
    assert records["simulate"]["source"] == cfg.source().describe()
    assert records["reconstruct"]["grid_shape"] == [63, 63]
    assert records["analyze"]["centroid_image_resolved"] is True
    assert set(records["compare"]["resolved_modes"]) <= {
        "ocm", "coherent", "coherent_half", "incoherent"}


def test_compare_writes_only_what_it_reports(tmp_path):
    assert run_cli(["--config", CONFIG, *FAST,
                    "--set", "acquisition.wall_time_s=0.002",
                    "--out", tmp_path, "compare"]) == 0
    modes = ("ocm", "coherent", "coherent_half", "incoherent")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["compare_report.txt"] + [f"{m}_image.ocmg" for m in modes]
        + [f"{m}_profile.csv" for m in modes])


def test_compare_runs_every_acquisition_on_the_given_threads(tmp_path,
                                                            monkeypatch):
    threads = []
    acquire = ocmsim.detector.run_acquisition

    def recording(*args, n_threads=1):
        threads.append(n_threads)
        return acquire(*args, n_threads=n_threads)

    # the command imports its layers when it runs, so the patch goes there
    monkeypatch.setattr("ocmsim.detector.run_acquisition", recording)
    assert run_cli(["--config", CONFIG, *FAST, "--threads", "2",
                    "--out", tmp_path, "compare"]) == 0
    assert threads == [2, 2, 2, 2]


def test_compare_projects_singles_over_the_pixel_rows_of_the_band(tmp_path):
    """``analysis.band`` counts centroid rows; pixel row i is centroid row
    2i, so centroid rows 30-34 hold pixel rows 15-17."""
    out, expected = tmp_path / "out", tmp_path / "expected"
    expected.mkdir()
    assert run_cli(["--config", CONFIG, *FAST, "--set",
                    "analysis.band=[30, 34]", "--out", out, "compare"]) == 0
    for name, band in [("ocm", (30, 34)), ("coherent", (15, 17))]:
        grid = FieldGrid.load(out / f"{name}_image.ocmg")
        export_profile_csv(cross_section(grid, "x", band),
                           expected / f"{name}_profile.csv")
        assert (out / f"{name}_profile.csv").read_bytes() == \
            (expected / f"{name}_profile.csv").read_bytes(), name


def test_each_compare_run_is_a_simulate_run_of_its_own_config(tmp_path):
    """The OCM image is ``reconstruct`` of ``simulate`` at the run's seed,
    and the lambda/N image is the singles of a coherent ``simulate`` at
    405 nm, whose ``pde: auto`` is 0.05, not the 0.008 of 810 nm."""
    base = [*FAST, "--set", "detector.pde=auto"]
    seed = load_config(CONFIG)["acquisition.seed"]
    out = {name: tmp_path / name for name in ("compare", "ocm", "rec", "half")}
    assert run_cli(["--config", CONFIG, *base, "--out", out["compare"],
                    "compare"]) == 0
    assert run_cli(["--config", CONFIG, *base, "--seed",
                    child_seed(seed, "ocm"), "--out", out["ocm"],
                    "simulate"]) == 0
    assert run_cli(["--config", CONFIG, *base, "--out", out["rec"],
                    "reconstruct", out["ocm"] / "events.ocme"]) == 0
    assert (out["compare"] / "ocm_image.ocmg").read_bytes() == \
        (out["rec"] / "centroid_image.ocmg").read_bytes()
    assert run_cli(["--config", CONFIG, *base,
                    "--set", "acquisition.source=coherent",
                    "--set", "system.wavelength_m=4.05e-07", "--seed",
                    child_seed(seed, "coherent_half"), "--out", out["half"],
                    "simulate"]) == 0
    events = read_events(out["half"] / "events.ocme")
    assert events.detector.pde == 0.05
    singles_image(events).save(out["half"] / "singles.ocmg")
    assert (out["compare"] / "coherent_half_image.ocmg").read_bytes() == \
        (out["half"] / "singles.ocmg").read_bytes()


@pytest.mark.parametrize("band", ["[3, 3]", "[62, 70]"])
def test_compare_refuses_a_band_without_a_pixel_row_before_writing(
        tmp_path, band, capsys):
    """Centroid row 3 lies between pixel rows 1 and 2, and row 70 is past
    the 63 centroid rows: exit 2 before the first acquisition, no file."""
    out = tmp_path / "out"
    assert run_cli(["--config", CONFIG, *FAST, "--set",
                    f"analysis.band={band}", "--out", out, "compare"]) == 2
    assert "analysis.band" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("band", ["[5, 2]", "[-3, 2]"])
@pytest.mark.parametrize("command", [["compare"], ["analyze", "x.ocmg"]])
def test_band_below_zero_or_reversed_is_a_configuration_error(
        tmp_path, band, command, capsys):
    assert run_cli(["--config", CONFIG, *FAST, "--set",
                    f"analysis.band={band}", "--out", tmp_path / "out",
                    *command]) == 2
    assert "analysis.band: expected 0 <= lo <= hi" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reconstruct", "compare"])
def test_window_beyond_a_frame_writes_what_a_frame_window_writes(
        tmp_path, short_events, command):
    """A window of one frame (45 ns) admits every same-frame pair, so one
    of 1e300 s, whose time-bin count overflows any integer, writes the
    same files, byte for byte."""
    outputs = []
    for window in ("4.5e-8", "1e300"):
        out = tmp_path / window
        assert run_cli(["--config", CONFIG, *FAST,
                        "--set", "acquisition.wall_time_s=0.002",
                        "--set", f"reconstruction.window_s={window}",
                        "--out", out, command]
                       + ([short_events] if command == "reconstruct"
                          else [])) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]


def test_frame_limit_is_2_63_frames():
    """A run may hold 2**63 frames, the most an event stream numbers, and
    no more."""
    def run(wall_time):
        return load_config(CONFIG, ["detector.frame_rate_hz=1",
                                    f"acquisition.wall_time_s={wall_time!r}"])

    assert run(2.0 ** 63)["acquisition.wall_time_s"] == 2 ** 63
    with pytest.raises(ConfigError, match="more than 2\\*\\*63 frame"):
        run(float(np.nextafter(2.0 ** 63, np.inf)))


def test_an_allocation_failure_exits_3(tmp_path, capsys, monkeypatch):
    """A run too large for memory ends in a one-line report, no
    traceback."""
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.56 PiB")

    monkeypatch.setattr("ocmsim.cli.cmd_simulate", too_large)
    assert run_cli(["--config", CONFIG, "--out", tmp_path, "simulate"]) == 3
    assert capsys.readouterr().err == \
        "simulate: MemoryError: Unable to allocate 2.56 PiB\n"


def test_the_pair_photons_take_the_system_wavelength():
    """Phase matching reads ``system.wavelength_m`` for signal and idler;
    the keys that once set them apart are unknown."""
    cfg = load_config(CONFIG, ["system.wavelength_m=700e-9"])
    omega = 2.0 * np.pi * SPEED_OF_LIGHT / 700e-9
    for pm in (cfg.phase_matching(), cfg.source().phase_matching):
        assert (pm.omega_s, pm.omega_i) == (omega, omega)
    for key in ("signal", "idler"):
        with pytest.raises(ConfigError, match=f"^phase_matching.{key}_"
                           "wavelength_m: unknown configuration key$"):
            load_config(CONFIG, [f"phase_matching.{key}_wavelength_m=810e-9"])


def test_out_is_the_one_output_directory(tmp_path, monkeypatch, capsys,
                                         two_frame_events):
    """Without ``--out`` a run writes to ``out`` in the working directory;
    an ``io`` section, which once named it too, is an unknown key."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(["--config", CONFIG, "reconstruct", two_frame_events]) == 0
    assert (tmp_path / "out" / "reconstruct_report.txt").is_file()
    assert run_cli(["--config", CONFIG, "--set", "io.output_dir=elsewhere",
                    "reconstruct", two_frame_events]) == 2
    assert "configuration error: io.output_dir: unknown configuration key" \
        in capsys.readouterr().err
    assert not (tmp_path / "elsewhere").exists()


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


def test_psf_takes_any_photon_number(tmp_path):
    """Only the event pipeline needs pairs: psf images at N = 3 too."""
    assert run_cli(["--config", CONFIG, "--set", "grid.nx=256",
                    "--set", "ocm.n_photons=3", "--out", tmp_path, "psf"]) == 0
    report = read_manifest(tmp_path / "psf_report.txt")
    assert report["n_photons"] == 3
    assert abs(report["ocm_vs_half_wavelength_fwhm_ratio"] - 1.0) < 0.05


def test_psf_report(tmp_path):
    out = tmp_path / "psf"
    assert run_cli(["--config", CONFIG, "--set", "grid.nx=384",
                    "--out", out, "psf"]) == 0
    report = read_manifest(out / "psf_report.txt")
    assert abs(report["ocm_vs_half_wavelength_fwhm_ratio"] - 1.0) < 0.05
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
    report = read_manifest(psf_out / "analyze" / "analyze_report.txt")
    assert report["psf_ocm_fwhm_m"] > 0
    assert not any(key.endswith("_slit_contrast") for key in report)


def test_psf_gaussian_pupil_flags_sql(tmp_path):
    out = tmp_path / "psfg"
    assert run_cli(["--config", CONFIG, "--set", "grid.nx=384",
                    "--set", "system.pupil_profile=gaussian",
                    "--set", "system.pupil_sigma_m=0.5e-3",
                    "--out", out, "psf"]) == 0
    report = read_manifest(out / "psf_report.txt")
    assert report["sql_scaling"] is True
    assert abs(report["quantum_scaling_alpha"] - 0.5) < 0.03


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
    assert report["good_resolved"] is True
    assert report["good_slit_contrast"] > 0.5


def test_analyze_refuses_two_images_with_one_file_stem(tmp_path, capsys):
    """Each image's outputs are named by its file stem, so two images with
    one stem are refused before anything is read or written."""
    for folder in ("sum", "weighted"):
        (tmp_path / folder).mkdir()
        FieldGrid(np.ones((4, 3)), 1e-6, 1e-6, (0.0, 0.0)).save(
            tmp_path / folder / "centroid_image.ocmg")
    an = tmp_path / "an"
    assert run_cli(["--config", CONFIG, "--out", an, "analyze",
                    tmp_path / "sum" / "centroid_image.ocmg",
                    tmp_path / "weighted" / "centroid_image.ocmg"]) == 2
    assert "'centroid_image'" in capsys.readouterr().err
    assert list(an.iterdir()) == []


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
