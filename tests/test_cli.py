import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import ocmsim
from ocmsim import (DetectorConfig, EventStream, FieldGrid, coverage_table,
                    estimate_accidentals, extract_coincidences, read_events,
                    read_manifest, write_events)
from ocmsim.analysis import cross_section, export_profile_csv
from ocmsim.cli import main
from ocmsim.config import SCHEMA, _check_type, load_config
from ocmsim.errors import ConfigError, CorruptEventFile
from ocmsim.events_io import stable_hash

CONFIG = Path(__file__).parent.parent / "configs" / "default.yaml"

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
], ids=["grid_nx_0", "pde_above_1", "negative_rate", "negative_offset",
        "negative_pupil", "zero_magnification", "pitch_below_line_width",
        "gaussian_pupil_without_sigma", "negative_window", "negative_min_xi",
        "zero_photons", "negative_photons", "zero_wall_time",
        "wall_time_below_one_frame", "negative_far_field_correlation",
        "infinite_window", "nan_pupil", "grid_nx_beyond_float_range"])
def test_out_of_range_value_exits_2(tmp_path, capsys, setting, command,
                                    named):
    events = tmp_path / "two.ocme"
    write_events(events, EventStream(
        frame=np.array([0, 0, 1], np.uint64), ix=np.array([3, 9, 4], np.uint16),
        iy=np.array([3, 9, 5], np.uint16), t_bin=np.zeros(3, np.uint16),
        n_frames=2, detector=DetectorConfig()))
    args = ["--config", CONFIG, *FAST, "--set", setting,
            "--out", tmp_path / "o", command]
    assert run_cli(args + ([events] if command == "reconstruct" else [])) == 2
    assert f"configuration error: {named}: " in capsys.readouterr().err


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


def test_seed_flag_changes_stream(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["--config", CONFIG, *FAST, "--out", a, "simulate"]) == 0
    assert run_cli(["--config", CONFIG, *FAST, "--seed", "777", "--out", b,
                    "simulate"]) == 0
    assert (a / "events.ocme").read_bytes() != (b / "events.ocme").read_bytes()


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
