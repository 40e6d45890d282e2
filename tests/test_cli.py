"""Command-line harness: exit codes, outputs, config diagnostics."""
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracblow.cli import main
from fracblow.reporting import load_field, save_field
from fracblow.grid import Field, GridSpec

import numpy as np

BASE = """
[problem]
n = 1
p = 2.0
lambda = 1j
alpha = auto

[grid]
L = 40
N = 4096

[quadrature]
tol = 1e-6
"""


def write_config(tmp_path, extra=""):
    path = tmp_path / "run.ini"
    path.write_text(BASE + extra)
    return str(path)


def test_constants_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "constants.json").read_text())
    assert manifest["schema"] == "fracblow/1"
    for key in ("A_hat", "B", "C", "D", "W_n"):
        assert key in manifest["constants"]
    assert manifest["constants"]["B"]["error"] <= 1e-8


def test_cli_process_runs_without_scipy(tmp_path):
    # a fresh interpreter: this test process has scipy loaded by the oracles
    cfg = write_config(tmp_path)
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from fracblow.cli import main\n"
        f"assert main(['constants', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("libc", [
    pytest.param(OSError("no C library"), id="cdll-raises"),
    pytest.param(object(), id="no-mallopt"),
])
def test_constants_without_mallopt(tmp_path, monkeypatch, libc):
    def fake_cdll(name):
        if isinstance(libc, Exception):
            raise libc
        return libc

    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "constants.json").exists()


def test_frac_apply_command(tmp_path):
    cfg = write_config(tmp_path, """
[frac_apply]
profile = bracket
q = 2.0
points = 0, 1, 2
""")
    out = tmp_path / "out"
    assert main(["frac-apply", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "frac_apply.csv").read_text().strip().splitlines()
    assert lines[0] == "x,pv_value,pv_error,spectral_value"
    row = lines[2].split(",")  # x = 1: the closed form vanishes
    assert abs(float(row[1])) < 1e-6


def test_verify_lemma_command(tmp_path):
    cfg = write_config(tmp_path, """
[lemma]
dims = 1
q_values = 2
gaussian = false
""")
    out = tmp_path / "out"
    assert main(["verify-lemma", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "lemma_report.json").read_text())
    assert report["verdicts"][0]["matched"] is True
    assert (out / "lemma_n1_q2.csv").exists()
    assert (out / "a_hat_table.csv").exists()


def test_verify_lemma_default_suite(tmp_path):
    # defaults: both dimensions, four q values each
    cfg = write_config(tmp_path, """
[lemma]
gaussian = false
""")
    out = tmp_path / "out"
    assert main(["verify-lemma", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "lemma_report.json").read_text())
    assert len(report["verdicts"]) == 8
    assert all(v["matched"] for v in report["verdicts"])
    # the (n=2, q=1) degeneracy: exact decay -3, one power below the q<n rate
    (degenerate,) = [v for v in report["verdicts"] if v["n"] == 2 and v["q"] == 1.0]
    assert degenerate["predicted_exponent"] == -3
    assert degenerate["fitted_exponent"] == pytest.approx(-3.0, abs=0.02)
    table = (out / "a_hat_table.csv").read_text().strip().splitlines()
    assert len(table) == 9  # header + 8 rows


def test_verify_lemma_empty_q_list_warns(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[lemma]
dims = 1
q_values =
""")
    out = tmp_path / "out"
    assert main(["verify-lemma", "--config", cfg, "--out", str(out)]) == 0
    assert "empty q list" in capsys.readouterr().err
    assert not (out / "lemma_report.json").exists()


def test_evolve_command(tmp_path):
    cfg = write_config(tmp_path, """
[evolve]
data = inner-singular
mu = 30
k = 0.25
dt = 0.001
t_max = 0.2
r = auto
""")
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["blew_up"] is True
    assert manifest["t_num"] < manifest["t_bound"]
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,m_r,sup_norm,l2_norm"
    assert load_field(out / "final_state").grid.N == 4096


def test_sweep_command(tmp_path):
    cfg = write_config(tmp_path, """
[sweep]
kind = inner-singular
k = 0.25
count = 4
mu_min = 25
mu_max = 250
""")
    path = Path(cfg)
    path.write_text(path.read_text().replace("N = 4096", "N = 16384"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_result.json").read_text())
    assert summary["fitted_exponent_t_bound"] == pytest.approx(
        summary["predicted_exponent"], rel=1e-9)


def test_malformed_config_exits_one_no_partial_files(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[problem]\nn = banana\np = 2\nlambda = 1j\n")
    out = tmp_path / "out"
    assert main(["constants", "--config", str(bad), "--out", str(out)]) == 1
    assert not (out / "constants.json").exists()


@pytest.mark.parametrize("extra, section, key", [
    ("[sweep]\nkind = inner-singular\nseed = 3\n", "sweep", "seed"),
    ("[sweep]\nkind = inner-singular\ndt_facter = 0.5\n", "sweep", "dt_facter"),
    ("[quadrature]\ntol = 1e-6\nradial_node = 14\n", "quadrature", "radial_node"),
])
def test_unknown_key_exits_one_naming_it(tmp_path, capsys, extra, section, key):
    path = tmp_path / "run.ini"
    path.write_text(BASE.replace("[quadrature]\ntol = 1e-6\n", "") + extra)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"unknown key {key!r} in section [{section}]" in err
    assert not (out / "sweep_rows.csv").exists()


@pytest.mark.parametrize("command, text, section, key", [
    pytest.param("sweep", BASE + "[sweep]\ndt_factor = 0.08x\n", "sweep", "dt_factor",
                 id="sweep-dt_factor"),
    pytest.param("sweep", BASE + "[sweep]\ncount = 2.5\n", "sweep", "count", id="sweep-count"),
    pytest.param("evolve", BASE + "[evolve]\nmu = thirty\n", "evolve", "mu", id="evolve-mu"),
    pytest.param("evolve", BASE + "[evolve]\nr = automatic\n", "evolve", "r", id="evolve-r"),
    pytest.param("verify-lemma", "[lemma]\nfit_window = 100\n", "lemma", "fit_window",
                 id="lemma-fit_window-one-value"),
    pytest.param("verify-lemma", "[lemma]\nfit_window = 1e4, 1e2\n", "lemma", "fit_window",
                 id="lemma-fit_window-decreasing"),
    pytest.param("verify-lemma", "[lemma]\ngaussian = maybe\n", "lemma", "gaussian",
                 id="lemma-gaussian"),
    pytest.param("verify-lemma", "[lemma]\ndims = 1, 3\n", "lemma", "dims", id="lemma-dims"),
    pytest.param("frac-apply", BASE + "[frac_apply]\npoints = 0, 1, x\n", "frac_apply", "points",
                 id="frac_apply-points"),
    pytest.param("constants", BASE.replace("alpha = auto", "alpha = 1+x"), "problem", "alpha",
                 id="problem-alpha"),
])
def test_bad_value_exits_one_naming_it(tmp_path, capsys, command, text, section, key):
    path = tmp_path / "run.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert f"bad value for [{section}] {key} = " in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_readme_example_lists_every_known_key():
    import configparser

    from fracblow.config import _KNOWN_KEYS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    parser.read_string(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    listed = {section: set(parser.options(section)) for section in parser.sections()}
    assert listed == {section: set(keys) for section, keys in _KNOWN_KEYS.items()}


def test_unknown_section_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "[swep]\nkind = inner-singular\n")
    assert main(["constants", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown section [swep]" in capsys.readouterr().err


def test_shipped_configs_load(tmp_path):
    # the README example and the benchmark's generated configs use known keys only
    import importlib.util

    from fracblow.config import load_config

    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    texts = [readme.split("```ini\n", 1)[1].split("```", 1)[0]]
    spec = importlib.util.spec_from_file_location("fracbench_inputs",
                                                  root / "fracbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    texts += [inputs.config_text(w, s) for w in inputs.WORKLOADS for s in (0, 1)]
    for i, text in enumerate(texts):
        path = tmp_path / f"shipped_{i}.ini"
        path.write_text(text)
        assert load_config(path).quadrature is not None


def test_missing_config_file_exits_one(tmp_path):
    assert main(["constants", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 1


def test_usage_error_exits_one(tmp_path):
    assert main(["no-such-command", "--config", "x", "--out", "y"]) == 1


def test_numerical_failure_exits_two(tmp_path):
    # a ceiling-tight tolerance with a tiny cutoff cannot be certified
    cfg = write_config(tmp_path, """
[frac_apply]
profile = bracket
q = 0.5
points = 0
""").replace("run.ini", "run.ini")
    path = tmp_path / "run.ini"
    text = path.read_text().replace("tol = 1e-6", "tol = 1e-13\ny_max = 2")
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["frac-apply", "--config", str(path), "--out", str(out)]) == 2
    assert not (out / "frac_apply.csv").exists()


def test_field_roundtrip(tmp_path):
    g = GridSpec(2, 5.0, 16)
    f = Field.from_function(g, lambda x, y: np.exp(-(x**2 + y**2)) * (1 + 1j))
    save_field(f, tmp_path / "state")
    back = load_field(tmp_path / "state")
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
