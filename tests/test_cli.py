import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ocmsim
from ocmsim import EventStream, FieldGrid, write_events
from ocmsim.cli import main
from ocmsim.config import SCHEMA, load_config
from ocmsim.errors import ConfigError

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
        n_frames=2))
    code = run_cli(["--config", CONFIG, "--out", tmp_path / "o",
                    "reconstruct", events])
    assert code == 3


def test_cli_import_leaves_heavy_scipy_unloaded():
    heavy = ("scipy.signal", "scipy.stats", "scipy.optimize")
    proc = run_python("-c", "import sys, ocmsim.cli; "
                      f"print([m for m in {heavy!r} if m in sys.modules])")
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
    manifest = (out / "events.ocme.manifest.txt").read_text()
    assert "duty_cycle: 0.036" in manifest

    rec = tmp_path / "rec"
    assert run_cli(["--config", CONFIG, "--out", rec,
                    "reconstruct", events]) == 0
    grid = FieldGrid.load(rec / "centroid_image.ocmg")
    assert grid.values.shape == (63, 63)
    assert (rec / "centroid_image.csv").exists()


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
