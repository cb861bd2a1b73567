"""The experiment scripts under scripts/, each run as a subprocess at a
small size in a temporary directory."""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _start(tmp_path, script, *args) -> subprocess.CompletedProcess:
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)


def _run(tmp_path, script, *args) -> str:
    proc = _start(tmp_path, script, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_table(tmp_path):
    out = _run(tmp_path, "reproduce_table.py", "--sf-list", "3,5")
    rows = {int(line.split()[0]): line.split() for line in out.splitlines()
            if re.match(r"\s+\d+\s", line)}
    assert sorted(rows) == [3, 5]
    # SF, M, eta, max|Re C|, B99/B, Pd %, Dmax dB
    assert rows[3][1:3] == ["8", "0.37500"]
    assert float(rows[3][4]) == pytest.approx(1.500, abs=0.01)
    assert rows[5][5] == "3.1250"
    assert "computed in" in out
    assert out.split()[:3] == ["SF", "M", "eta"]


@pytest.mark.parametrize("script", ["reproduce_table.py", "spectrum_demo.py"])
@pytest.mark.parametrize("sf_list, message", [
    ("", "error: --sf-list '' names no spreading factor"),
    ("x", "error: bad --sf-list 'x': invalid literal for int"),
])
def test_scripts_reject_a_bad_sf_list(tmp_path, script, sf_list, message):
    proc = _start(tmp_path, script, "--sf-list", sf_list)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(message)


def test_spectrum_demo(tmp_path):
    out = _run(tmp_path, "spectrum_demo.py", "--sf-list", "3,7", "--outdir", "out")
    for sf, m, n_points in ((3, 8, 8193), (7, 128, 131073)):
        psd = np.loadtxt(tmp_path / "out" / f"psd_sf{sf}.csv", delimiter=",", skiprows=1)
        lines = np.loadtxt(tmp_path / "out" / f"lines_sf{sf}.csv", delimiter=",",
                           skiprows=1)
        assert psd.shape == (n_points, 2)  # the default grid, step B/(64M)
        assert psd[-1, 0] == 8.0
        assert lines[:, 1].sum() == pytest.approx(1.0 / m, abs=1e-4)
        captured = re.search(rf"SF={sf}: wrote .* power captured ([0-9.]+)", out)
        assert float(captured.group(1)) == pytest.approx(1.0, abs=1e-4)


def test_mask_demo(tmp_path):
    out = _run(tmp_path, "mask_demo.py")
    verdicts = re.findall(r"carrier (\d+\.\d) MHz: (PASS|FAIL)", out)
    assert verdicts == [("868.3", "PASS"), ("868.1", "PASS"), ("868.3", "PASS"),
                        ("868.5", "PASS")]
    # every segment at every carrier is covered by one 1 kHz bin per kHz
    segments = re.findall(r"([0-9.]+)-([0-9.]+) MHz .* \((\d+) bins\)", out)
    assert len(segments) == 4 * 5
    assert all(round((float(hi) - float(lo)) * 1000) == int(n) for lo, hi, n in segments)


def test_welch_demo(tmp_path):
    out = _run(tmp_path, "welch_demo.py", "--payloads", "4", "--out", "welch.csv")
    data = np.loadtxt(tmp_path / "welch.csv", delimiter=",", skiprows=1)
    delta_f = 125e3 / 256
    assert np.max(np.abs(data[:, 0])) <= 1.9 * 125e3
    np.testing.assert_allclose(np.diff(data[:, 0]), delta_f)
    in_band = float(re.search(r"over \|f\| <= B/2: ([0-9.]+) dB", out).group(1))
    assert in_band < 3.0
    assert "in the tails" in out
