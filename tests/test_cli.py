"""Command-line harness: exit codes, outputs, config diagnostics."""
import csv
import ctypes
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fracblow import cli, pv
from fracblow.cli import _lemma_csv_name, main
from fracblow.lemma import verify_lemma
from fracblow.reporting import save_field
from fracblow.grid import GridSpec
from verification import load_field, sample

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
    assert manifest["constants"]["A_hat"] == {
        "value": 1.2, "source": "closed form sup |op w/w| = n, x margin 1.2"}
    assert manifest["constants"]["B"]["error"] <= 1e-8


#: what a command may import while it runs: the FFTs, and the locale
#: module that argparse's gettext reads
COMMAND_IMPORTS = re.compile(r"numpy\.fft(\..*)?|_?locale")
#: a small config per command whose sweep reaches its exponent fits
IMPORT_GUARD_CONFIGS = {
    "constants": "",
    "frac-apply": "[frac_apply]\npoints = 0, 1\n",
    "verify-lemma": "[lemma]\ndims = 1, 2\nq_values = 1\ngaussian = false\n",
    "evolve": "[evolve]\ndata = inner-singular\nmu = 30\nk = 0.25\ndt = 0.001\nt_max = 0.01\n",
    "sweep": "[sweep]\nkind = inner-singular\nk = 0.25\ncount = 4\nmu_min = 25\nmu_max = 250\n",
}


def test_cli_process_runs_without_scipy(tmp_path):
    # a fresh interpreter per command: this test process has scipy loaded by
    # the oracles, and one command's imports would hide the next one's
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for command, extra in IMPORT_GUARD_CONFIGS.items():
        (tmp_path / command).mkdir()
        cfg = write_config(tmp_path / command, extra)
        if command == "sweep":
            path = Path(cfg)
            path.write_text(path.read_text().replace("N = 4096", "N = 16384"))
        out = tmp_path / command / "out"
        code = (
            "import json, sys\n"
            "from fracblow.cli import main\n"
            "before = set(sys.modules)\n"
            f"code = main([{command!r}, '--config', {cfg!r}, '--out', {str(out)!r}])\n"
            "print(json.dumps([code, sorted(set(sys.modules) - before),\n"
            "                  sorted(m for m in sys.modules\n"
            "                         if m.split('.')[0] in ('scipy', 'concurrent', 'mpmath'))]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (command, proc.stderr)
        code, loaded, heavy = json.loads(proc.stdout.strip().splitlines()[-1])
        assert (command, code, heavy) == (command, 0, [])
        assert (command, [m for m in loaded if not COMMAND_IMPORTS.fullmatch(m)]) == (command, [])
    # the sweep's fit, which used to import numpy.ma, ran
    result = json.loads((tmp_path / "sweep" / "out" / "sweep_result.json").read_text())
    assert result["fitted_exponent_t_num"]


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


#: a small config per command, added to BASE
FILE_SET_CONFIGS = {
    "constants": "",
    "frac-apply": "[frac_apply]\npoints = 0, 1\n",
    "verify-lemma": "[lemma]\ndims = 1\nq_values = 1\ngaussian = true\n",
    "evolve": "[evolve]\ndata = inner-singular\nmu = 30\nk = 0.25\ndt = 0.001\nt_max = 0.01\n",
    # one row out of regime (R* = 25), which is not evolved
    "sweep": "[sweep]\nkind = inner-singular\nk = 0.25\ncount = 1\nmu_min = 1\nmu_max = 1\n",
}


def documented_files(command):
    """The files docs/formats.md lists for a command, with the lemma cases of
    FILE_SET_CONFIGS (n = 1, q = 1, and the Gaussian) filled in."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    (row,) = [line for line in doc.splitlines() if line.startswith(f"| `{command}` |")]
    return {name.format(n=1, q="1") for name in re.findall(r"`([^`]+)`", row.split("|")[2])}


@pytest.mark.parametrize("command", list(FILE_SET_CONFIGS))
def test_each_command_writes_its_documented_files(tmp_path, command):
    cfg = write_config(tmp_path, FILE_SET_CONFIGS[command])
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert {path.name for path in out.iterdir()} == documented_files(command)


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


def test_frac_apply_mirror_points_bitwise(tmp_path):
    # the profile is radial: x and -x are sampled at one radius |x|, in 1D
    # and on the axis in 2D
    for n in (1, 2):
        path = tmp_path / f"n{n}.ini"
        path.write_text(BASE.replace("n = 1", f"n = {n}").split("[grid]")[0]
                        + "[frac_apply]\npoints = 1.3, -1.3, 0.7, -0.7\n")
        out = tmp_path / f"out{n}"
        assert main(["frac-apply", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "frac_apply.csv", newline="") as fh:
            rows = [(r["pv_value"], r["pv_error"]) for r in csv.DictReader(fh)]
        assert rows[0] == rows[1] and rows[2] == rows[3] and rows[0] != rows[2]


@pytest.mark.parametrize("command", ["frac-apply", "constants"])
@pytest.mark.parametrize("points", ["0, inf", "0, nan", "-inf", "1e400", "1, -nan"])
def test_non_finite_points_exit_one_on_read(tmp_path, capsys, command, points):
    # without a [grid] no lattice bounds the points; the cast refuses them
    path = tmp_path / "run.ini"
    path.write_text(BASE.split("[grid]")[0] + f"[frac_apply]\npoints = {points}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"bad value for [frac_apply] points = {points!r}" in err and "finite" in err
    assert not list(out.glob("*"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow notes on the way
def test_overflowing_initial_sup_exits_two(tmp_path, capsys):
    # the source squares |u|: data whose blow-up threshold squares past the
    # largest float are refused before a step, rather than halved to a t_num
    cfg = write_config(tmp_path, "[evolve]\nmu = 1e154\nr = 1\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert "numerical failure: initial sup norm" in capsys.readouterr().err
    assert not list(out.glob("*"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow notes on the way
@pytest.mark.parametrize("command, text", [
    pytest.param("frac-apply", "[frac_apply]\npoints = 0, 1e300\n", id="frac_apply-2d-1e300"),
    pytest.param("verify-lemma", "[lemma]\ndims = 2\nq_values = 3\ngaussian = false\n"
                 "fit_window = 1e200, 1e202\n", id="lemma-2d-window-1e200"),
])
def test_overflowing_radius_exits_two(tmp_path, capsys, command, text):
    # the 2D far field past radius r squares about 3 r: a Python float overflow
    path = tmp_path / "run.ini"
    path.write_text(BASE.replace("n = 1", "n = 2").split("[grid]")[0] + text)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_frac_apply_past_the_default_cutoff(tmp_path):
    # a 1D point past y_max = 256 certifies: its far field starts past the origin's core
    path = tmp_path / "run.ini"
    path.write_text(BASE.split("[grid]")[0] + "[frac_apply]\npoints = 300\n")
    out = tmp_path / "out"
    assert main(["frac-apply", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "frac_apply.csv") as fh:
        row, = csv.DictReader(fh)
    exact = (1.0 - 300.0**2) / (1.0 + 300.0**2) ** 2
    assert abs(float(row["pv_value"]) - exact) <= float(row["pv_error"])


def frac_apply_rows(tmp_path, n, q, points=None):
    """The rows of ``frac-apply`` of the weight <x>^(-q) in n dimensions, with no lattice."""
    path = tmp_path / f"n{n}_q{q:g}.ini"
    path.write_text(BASE.replace("n = 1", f"n = {n}").split("[grid]")[0]
                    + f"[frac_apply]\nprofile = bracket\nq = {q:g}\n"
                    + ("" if points is None else f"points = {', '.join(map(repr, points))}\n"))
    out = tmp_path / f"out_n{n}_q{q:g}"
    assert main(["frac-apply", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "frac_apply.csv", newline="") as fh:
        return [{k: float(v) for k, v in row.items() if v} for row in csv.DictReader(fh)]


@pytest.mark.parametrize("n, q", [(1, 0.5), (1, 1.0), (2, 1.0)])
def test_frac_apply_slowly_decaying_weight_at_the_origin(tmp_path, n, q):
    # the sampler grows the far cutoff of <x>^(-q), q <= n, until the far
    # field meets the rule's tolerance.  At the origin the value is
    # B_n omega_n int_0^inf (1 - <rho>^(-q)) rho^(-2) drho, with B_n omega_n
    # = 2/pi in 1D and 1 in 2D, and the integral sqrt(pi) G((q+1)/2) / G(q/2)
    origin = frac_apply_rows(tmp_path, n, q)[0]
    exact = (2.0 / math.pi if n == 1 else 1.0) * math.sqrt(math.pi) \
        * math.gamma(0.5 * (q + 1.0)) / math.gamma(0.5 * q)
    assert origin["x"] == 0.0
    assert abs(origin["pv_value"] - exact) <= origin["pv_error"]


def test_frac_apply_2d_identity(tmp_path):
    # (-Delta)^(1/2) <x>^(1-n) = (n - 1) <x>^(-n-1): <x>^(-3) for n = 2
    for row in frac_apply_rows(tmp_path, 2, 1.0):
        exact = (1.0 + row["x"] ** 2) ** -1.5
        assert abs(row["pv_value"] - exact) <= row["pv_error"], row


@pytest.mark.parametrize("n, q", [(1, 0.5), (1, 1.0), (2, 1.0)])
def test_frac_apply_agrees_with_the_lemma_samples(tmp_path, n, q):
    # one sampler with one far-cutoff rule: from the default cutoff and from
    # the lemma's, with their own tolerances, at the lemma's radii
    path = tmp_path / "lemma.ini"
    path.write_text(f"[lemma]\ndims = {n}\nq_values = {q:g}\ngaussian = false\n")
    out = tmp_path / "lemma"
    assert main(["verify-lemma", "--config", str(path), "--out", str(out)]) == 0
    with open(out / _lemma_csv_name(n, q), newline="") as fh:
        lemma = [(float(r["r"]), float(r["g"]), float(r["certified_error"]))
                 for r in csv.DictReader(fh)]
    shared = lemma[::4]  # the origin, the midrange and the fit window
    rows = frac_apply_rows(tmp_path, n, q, [r for r, _, _ in shared])
    for (r, g, err), row in zip(shared, rows, strict=True):
        assert abs(row["pv_value"] - g) <= row["pv_error"] + err, (r, row, g, err)


def test_frac_apply_refuses_a_radius_past_max_radius(tmp_path, capsys):
    # at 1e20 the default cutoff's certificate would not hold: a numerical failure
    path = tmp_path / "run.ini"
    path.write_text(BASE.split("[grid]")[0] + "[frac_apply]\npoints = 1, 1e20\n")
    out = tmp_path / "out"
    assert main(["frac-apply", "--config", str(path), "--out", str(out)]) == 2
    assert "radius 1e+20 too large" in capsys.readouterr().err
    assert not list(out.glob("*"))


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


def test_verify_lemma_csv_reads_back_exactly(tmp_path):
    # r, g and certified_error are written in full, so g stays within its certificate
    cfg = write_config(tmp_path, """
[lemma]
dims = 1
q_values = 3
gaussian = false
""")
    out = tmp_path / "out"
    assert main(["verify-lemma", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "lemma_n1_q3.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = [(float(r["r"]), float(r["g"]), float(r["certified_error"])) for r in rows]
    v = verify_lemma(1, 3.0)
    assert got == list(zip(v.r, v.g, v.certified_error))


def test_verify_lemma_negativity_only_judged_from_q_equals_n(tmp_path):
    cfg = write_config(tmp_path, """
[lemma]
dims = 1
q_values = 0.5, 1, 2
""")
    out = tmp_path / "out"
    assert main(["verify-lemma", "--config", cfg, "--out", str(out)]) == 0
    verdicts = json.loads((out / "lemma_report.json").read_text())["verdicts"]
    assert [v["regime"] for v in verdicts] == ["q<n", "q=n", "q>n", "gaussian"]
    assert verdicts[0]["negativity_ok"] is None
    assert all(isinstance(v["negativity_ok"], bool) for v in verdicts[1:])


@pytest.fixture
def no_sampling(monkeypatch):
    """Make the CLI fail a test that samples any lemma case."""
    def sample(*args, **kwargs):
        raise AssertionError("a case was sampled")

    monkeypatch.setattr(cli, "verify_lemma", sample)
    monkeypatch.setattr(cli, "verify_gaussian_remark", sample)


@pytest.mark.parametrize("lemma, values", [
    pytest.param("dims = 1\nq_values = 1, 1.0000001\ngaussian = false\n",
                 "n=1 q=1.0 and n=1 q=1.0000001", id="same-q-to-6-digits"),
    pytest.param("dims = 1, 1\nq_values = 2, 2\n", "n=1 q=2.0 and n=1 q=2.0",
                 id="repeated-dims-and-q"),
])
def test_verify_lemma_cases_sharing_a_csv_exit_one(tmp_path, capsys, no_sampling,
                                                   lemma, values):
    # refused before any sampling: the verdict functions are never called
    cfg = write_config(tmp_path, "[lemma]\n" + lemma)
    out = tmp_path / "out"
    assert main(["verify-lemma", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: [lemma]" in err and values in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("window", ["0.1, 10", "0.2, 20", "0.25, 25"])
def test_verify_lemma_window_at_or_below_the_midrange_start_exits_one(tmp_path, capsys,
                                                                        no_sampling, window):
    # the sampled midrange starts at 0.25, so the window must start above it;
    # refused on read, before any sampling
    cfg = write_config(tmp_path, f"[lemma]\ndims = 1\nq_values = 2\nfit_window = {window}\n")
    out = tmp_path / "out"
    assert main(["verify-lemma", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"bad value for [lemma] fit_window = {window!r}" in err and "0.25" in err
    assert not list(out.glob("*"))


def test_verify_lemma_gaussian_case(tmp_path):
    # the Gaussian is q = null in the report, has its own CSV, no row in the
    # a_hat table, and a_hat = C_hat, the smallest certified |g|<r>^(n+1) in
    # [8, 800], recomputed from that CSV to the bit
    cfg = write_config(tmp_path, """
[lemma]
dims = 1
q_values = 2
gaussian = true
""")
    out = tmp_path / "out"
    assert main(["verify-lemma", "--config", cfg, "--out", str(out)]) == 0
    verdicts = json.loads((out / "lemma_report.json").read_text())["verdicts"]
    (gaussian,) = [v for v in verdicts if v["regime"] == "gaussian"]
    assert gaussian["q"] is None and gaussian["n"] == 1
    assert gaussian["csv"] == "lemma_n1_gaussian.csv"
    with open(out / "lemma_n1_gaussian.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["bound_case"] == "gaussian" for row in rows)
    samples = [(float(r["r"]), float(r["g"]), float(r["certified_error"])) for r in rows]
    c_hat = min(max(-g - e, 0.0) * float(np.sqrt(1.0 + np.square(r))) ** 2.0
                for r, g, e in samples if 8.0 <= r <= 800.0)
    assert gaussian["a_hat"] == c_hat
    with open(out / "a_hat_table.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [(row["n"], row["q"], row["regime"]) for row in table] == [("1", "2", "q>n")]


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
    # only the log model, fitted at q = n, measures a log coefficient
    for v in report["verdicts"]:
        assert (v["log_coeff"] > 0.0) if v["q"] == v["n"] else (v["log_coeff"] is None)
    # the (n=2, q=1) degeneracy: exact decay -3, one power below the q<n rate
    (degenerate,) = [v for v in report["verdicts"] if v["n"] == 2 and v["q"] == 1.0]
    assert degenerate["predicted_exponent"] == -3
    assert degenerate["fitted_exponent"] == pytest.approx(-3.0, abs=0.02)
    table = (out / "a_hat_table.csv").read_text().strip().splitlines()
    assert len(table) == 9  # header + 8 rows


def test_verify_lemma_empty_q_list_is_default(tmp_path):
    # an empty q_values means the per-dimension default {n/2, n, n+1, n+2}
    cfg = write_config(tmp_path, """
[lemma]
dims = 1
q_values =
gaussian = false
""")
    out = tmp_path / "out"
    assert main(["verify-lemma", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "lemma_report.json").read_text())
    assert [v["q"] for v in report["verdicts"]] == [0.5, 1.0, 2.0, 3.0]
    assert all(v["matched"] for v in report["verdicts"])


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
    assert load_field(out / "final_state")[0].N == 4096


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


@pytest.mark.parametrize("bound", ["mu_min = 20", "mu_max = 200"])
def test_sweep_half_given_range_exits_one(tmp_path, capsys, bound):
    # one bound alone must not fall back silently to the automatic range
    cfg = write_config(tmp_path, f"[sweep]\nkind = inner-singular\n{bound}\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "mu_min" in err and "mu_max" in err
    assert not list(out.glob("*"))


def test_malformed_config_exits_one_no_partial_files(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[problem]\nn = banana\np = 2\nlambda = 1j\n")
    out = tmp_path / "out"
    assert main(["constants", "--config", str(bad), "--out", str(out)]) == 1
    assert not (out / "constants.json").exists()


@pytest.mark.parametrize("extra, section, key", [
    ("[sweep]\nkind = inner-singular\nseed = 3\n", "sweep", "seed"),
    ("[sweep]\nkind = inner-singular\ndt_facter = 0.5\n", "sweep", "dt_facter"),
])
def test_unknown_key_exits_one_naming_it(tmp_path, capsys, extra, section, key):
    path = tmp_path / "run.ini"
    path.write_text(BASE + extra)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"unknown key {key!r} in section [{section}]" in err
    assert not (out / "sweep_rows.csv").exists()


@pytest.mark.parametrize("command, text, section, key", [
    pytest.param("sweep", BASE + "[sweep]\ndt_factor = 0.08x\n", "sweep", "dt_factor",
                 id="sweep-dt_factor"),
    pytest.param("sweep", BASE + "[sweep]\ncount = 2.5\n", "sweep", "count", id="sweep-count"),
    pytest.param("sweep", BASE + "[sweep]\ncount = 0\n", "sweep", "count", id="sweep-count-0"),
    pytest.param("sweep", BASE + "[sweep]\ncount = -1\n", "sweep", "count",
                 id="sweep-count-negative"),
    pytest.param("evolve", BASE + "[evolve]\nmu = thirty\n", "evolve", "mu", id="evolve-mu"),
    pytest.param("evolve", BASE + "[evolve]\nr = automatic\n", "evolve", "r", id="evolve-r"),
    pytest.param("verify-lemma", "[lemma]\nfit_window = 100\n", "lemma", "fit_window",
                 id="lemma-fit_window-one-value"),
    pytest.param("verify-lemma", "[lemma]\nfit_window = 1e4, 1e2\n", "lemma", "fit_window",
                 id="lemma-fit_window-decreasing"),
    pytest.param("verify-lemma", "[lemma]\nfit_window = 100, 1000\n", "lemma", "fit_window",
                 id="lemma-fit_window-one-decade"),
    pytest.param("verify-lemma", "[lemma]\nfit_window = 0, 1e4\n", "lemma", "fit_window",
                 id="lemma-fit_window-zero"),
    pytest.param("verify-lemma", "[lemma]\ngaussian = maybe\n", "lemma", "gaussian",
                 id="lemma-gaussian"),
    pytest.param("verify-lemma", "[lemma]\ndims = 1, 3\n", "lemma", "dims", id="lemma-dims"),
    pytest.param("verify-lemma", "[lemma]\nq_values = 2, 0\n", "lemma", "q_values",
                 id="lemma-q_values-zero"),
    pytest.param("frac-apply", BASE + "[frac_apply]\npoints = 0, 1, x\n", "frac_apply", "points",
                 id="frac_apply-points"),
    pytest.param("constants", BASE.replace("alpha = auto", "alpha = 1+x"), "problem", "alpha",
                 id="problem-alpha"),
    pytest.param("frac-apply", BASE + "[frac_apply]\nprofile = box\n", "frac_apply", "profile",
                 id="frac_apply-profile"),
    # every section is checked, whichever command reads the file
    pytest.param("constants", BASE + "[sweep]\ncount = 2.5\n", "sweep", "count",
                 id="constants-sweep-count"),
    pytest.param("constants", BASE + "[evolve]\nr = automatic\n", "evolve", "r",
                 id="constants-evolve-r"),
    pytest.param("constants", BASE + "[lemma]\nfit_window = 100, 1000\n", "lemma", "fit_window",
                 id="constants-lemma-fit_window-one-decade"),
    pytest.param("constants", BASE + "[lemma]\nq_values = 2, 0\n", "lemma", "q_values",
                 id="constants-lemma-q_values-zero"),
    # family rules and rules across keys are checked on read as well
    pytest.param("constants", BASE + "[sweep]\nkind = bogus\n", "sweep", "kind",
                 id="constants-sweep-kind"),
    pytest.param("constants", BASE + "[evolve]\ndata = bogus\n", "evolve", "data",
                 id="constants-evolve-data"),
    pytest.param("constants", BASE + "[sweep]\nmu_min = 20\n", "sweep", "mu_min",
                 id="constants-sweep-mu_min-alone"),
    pytest.param("evolve", BASE + "[evolve]\ndata = integrable\nr = auto\n", "evolve", "r",
                 id="evolve-integrable-r-auto"),
    # only the inner singularity has a cap
    pytest.param("evolve", BASE + "[evolve]\ndata = outer-decay\nk = 0.75\ncap_radius = 0.3\n",
                 "evolve", "cap_radius", id="evolve-outer-decay-cap_radius"),
    pytest.param("constants", BASE + "[evolve]\ndata = integrable\nr = 5\ncap_radius = 0.3\n",
                 "evolve", "cap_radius", id="constants-evolve-integrable-cap_radius"),
])
def test_bad_value_exits_one_naming_it(tmp_path, capsys, command, text, section, key):
    path = tmp_path / "run.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert f"bad value for [{section}] {key} = " in capsys.readouterr().err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command, text, key", [
    pytest.param("evolve", BASE + "[evolve]\ndt = nan\n", "dt", id="evolve-dt-nan"),
    pytest.param("sweep", BASE + "[sweep]\nmu_min = 25\nmu_max = 250\ncount = 4\n"
                 "dt_base = -0.2\n", "dt_base", id="sweep-dt_base-negative"),
    pytest.param("sweep", BASE + "[sweep]\nmu_min = nan\nmu_max = 250\ncount = 4\n",
                 "mu values", id="sweep-mu_min-nan"),
    pytest.param("sweep", BASE + "[sweep]\nworkers = 2\n", "workers", id="sweep-workers-2"),
    pytest.param("constants", BASE.replace("L = 40", "L = nan"), "half-width L",
                 id="grid-L-nan"),
    pytest.param("evolve", BASE.replace("L = 40", "L = nan"), "half-width L",
                 id="evolve-grid-L-nan"),
    pytest.param("evolve", BASE + "[evolve]\nmu = nan\n", "amplitude mu", id="evolve-mu-nan"),
    pytest.param("evolve", BASE + "[evolve]\nmu = inf\n", "amplitude mu", id="evolve-mu-inf"),
    pytest.param("evolve", BASE + "[evolve]\ncap_radius = nan\n", "cap_radius",
                 id="evolve-cap_radius-nan"),
    # inner-singular needs k < n/2 = 0.5: a plan error, raised before any row runs
    pytest.param("sweep", BASE + "[sweep]\nk = 0.7\nmu_min = 25\nmu_max = 250\ncount = 4\n",
                 "inner-singular needs k < n/2: k=0.7", id="sweep-k-above-half-n"),
    pytest.param("sweep", BASE + "[sweep]\nk = nan\nmu_min = 25\nmu_max = 250\ncount = 4\n",
                 "inner-singular needs k < n/2: k=nan", id="sweep-k-nan"),
    # with L = 4, x = 5 and x = 9 have no lattice site for the spectral value
    pytest.param("frac-apply", BASE.replace("L = 40", "L = 4").replace("N = 4096", "N = 64")
                 + "[frac_apply]\npoints = 0, 3.9, 5, 9\n",
                 "[frac_apply] points must lie in [-L, L) of [grid], L = 4; outside: 5, 9",
                 id="frac_apply-points-off-lattice"),
    # a NaN profile parameter would give NaN values with NaN certificates
    pytest.param("frac-apply", BASE + "[frac_apply]\nq = nan\n", "q=nan", id="frac_apply-q-nan"),
    pytest.param("frac-apply", BASE + "[frac_apply]\nr = nan\n", "R=nan", id="frac_apply-r-nan"),
    pytest.param("frac-apply", BASE + "[frac_apply]\nprofile = gaussian\nwidth = nan\n",
                 "gaussian width", id="frac_apply-width-nan"),
    pytest.param("frac-apply", BASE.replace("p = 2.0", "p = inf"),
                 "bad [problem] section: nonlinearity power", id="frac_apply-p-inf"),
    pytest.param("constants", BASE.replace("p = 2.0", "p = inf"),
                 "bad [problem] section: nonlinearity power", id="constants-p-inf"),
    pytest.param("constants", BASE.replace("lambda = 1j", "lambda = nan"),
                 "bad [problem] section: lambda and alpha must be finite",
                 id="constants-lambda-nan"),
    pytest.param("constants", BASE.replace("alpha = auto", "alpha = nan"),
                 "bad [problem] section: lambda and alpha must be finite",
                 id="constants-alpha-nan"),
    pytest.param("constants", BASE.replace("alpha = auto", "alpha = 1e400"),
                 "bad [problem] section: lambda and alpha must be finite",
                 id="constants-alpha-inf"),
    pytest.param("constants", BASE.replace("lambda = 1j", "lambda = inf"),
                 "bad [problem] section: lambda and alpha must be finite",
                 id="constants-lambda-inf"),
    pytest.param("constants", BASE.replace("alpha = auto", "alpha = 1+infi"),
                 "bad [problem] section: lambda and alpha must be finite",
                 id="constants-alpha-inf-literal"),
])
def test_out_of_range_value_exits_one(tmp_path, capsys, command, text, key):
    # rejected when the config is read, before any point, step or row runs
    path = tmp_path / "run.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command, text, section", [
    pytest.param("sweep", "[sweep]\ncount = 4\n", "problem", id="sweep-problem"),
    pytest.param("sweep", BASE.split("[grid]")[0], "grid", id="sweep-grid"),
    pytest.param("evolve", BASE.split("[grid]")[0], "grid", id="evolve-grid"),
    pytest.param("constants", "[lemma]\ndims = 1\n", "problem", id="constants-problem"),
])
def test_missing_section_exits_one_naming_it(tmp_path, capsys, command, text, section):
    path = tmp_path / "run.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert f"config error: this command needs a [{section}] section" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})


def test_readme_example_lists_every_known_key():
    import configparser

    from fracblow.config import KEYS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    parser.read_string(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    listed = {section: set(parser.options(section)) for section in parser.sections()}
    assert listed == {section: set(keys) for section, keys in KEYS.items()}


def test_unknown_section_exits_one(tmp_path, capsys):
    # a misspelt section, and [quadrature]: the PV rule is fixed in code
    for section in ("swep", "quadrature"):
        cfg = write_config(tmp_path, f"[{section}]\nkind = inner-singular\n")
        assert main(["constants", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"unknown section [{section}]" in capsys.readouterr().err


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
        load_config(path)


def test_missing_config_file_exits_one(tmp_path):
    assert main(["constants", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 1


def test_usage_error_exits_one(tmp_path):
    assert main(["no-such-command", "--config", "x", "--out", "y"]) == 1


def test_numerical_failure_exits_two(tmp_path, monkeypatch):
    # with its cutoff grown, the default rule meets its tolerance 1e-6 on
    # every profile a config names; a one-node coarse rule differs from the
    # fine rule by far more
    monkeypatch.setattr(pv, "RADIAL_NODES", 1)
    cfg = write_config(tmp_path, """
[frac_apply]
profile = bracket
q = 0.5
points = 0
""")
    out = tmp_path / "out"
    assert main(["frac-apply", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "frac_apply.csv").exists()


def test_degenerate_fit_exits_two(tmp_path, capsys):
    # <x>^(-1) in 2D is about 1e-18 to 1e-24 in this window, below the noise
    # floor of the fit: a numerical failure, not a config error
    path = tmp_path / "run.ini"
    path.write_text("[lemma]\ndims = 2\nq_values = 1\ngaussian = false\nfit_window = 1e6, 1e8\n")
    out = tmp_path / "out"
    assert main(["verify-lemma", "--config", str(path), "--out", str(out)]) == 2
    assert "numerical failure: degenerate fit" in capsys.readouterr().err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("window", ["1e100, 1e102", "1e79, 1e81"])
def test_underflowed_window_exits_two(tmp_path, capsys, window):
    # the half-Laplacian of <x>^(-3) underflows to 0 past |x| ~ 1e80, so too
    # few samples survive in the window: a numerical failure, not a config error
    path = tmp_path / "run.ini"
    path.write_text("[lemma]\ndims = 1\nq_values = 3\ngaussian = false\n"
                    f"fit_window = {window}\n")
    out = tmp_path / "out"
    assert main(["verify-lemma", "--config", str(path), "--out", str(out)]) == 2
    assert "need >= 8 nonzero samples over two decades" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_field_roundtrip(tmp_path):
    g = GridSpec(2, 5.0, 16)
    f = sample(g, lambda x, y: np.exp(-(x**2 + y**2)) * (1 + 1j))
    save_field(g, f, tmp_path / "state")
    back_grid, back = load_field(tmp_path / "state")
    assert back_grid == g
    assert np.array_equal(back, f)
