"""Tests of the benchmark itself (not part of the library suite).

    python3 -m pytest perfbench/test_benchmark.py -q

The repeatability tests run every workload twice in traced mode, which
takes a few minutes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lorachirp  # noqa: E402
import lorachirp.analysis  # noqa: E402
import lorachirp.spectrum  # noqa: E402
from tracer import END, NAME, PARENT, START, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Figures that vary from run to run by nature; every other one must repeat.
NOISY = {"trace.overhead_s", "trace.overhead_est_s"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_tracer_wraps_every_binding_and_restores():
    original = lorachirp.spectrum.psd_via_dft
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = lorachirp.spectrum.psd_via_dft
        assert wrapped is not original
        assert lorachirp.analysis.psd_via_dft is wrapped
        assert lorachirp.psd_via_dft is wrapped
        lorachirp.occupied_bandwidth(lorachirp.LoraParams(sf=3, b=1.0), 0.99)
    finally:
        tracer.uninstall()
    assert lorachirp.spectrum.psd_via_dft is original
    assert lorachirp.analysis.psd_via_dft is original

    names = [s[NAME] for s in tracer.spans]
    outer = names.index("analysis.occupied_bandwidth")
    inner = names.index("spectrum.psd_via_dft")
    assert tracer.spans[inner][PARENT] == outer
    own = tracer.self_times()
    total = tracer.spans[outer][END] - tracer.spans[outer][START]
    children = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] == outer)
    assert own[outer] == pytest.approx(total - children)
    layer = tracer.layer_metrics(1)
    # the bandwidth search uses 16*M samples per symbol, zero-padded 512/M times
    assert layer["spectrum.psd_via_dft.fft_points"] == 8 * (16 * 8) * (512 // 8)
    assert layer["analysis.calls"] == 1 and layer["spectrum.calls"] == 1


@pytest.fixture(scope="module")
def traced_pairs():
    pairs = {}
    for w in SPEC["workloads"]:
        runs = []
        for _ in range(2):
            out = run_bench("--workload", w["name"], "--seed", "7", "--seconds", "0",
                            "--trace", "1")
            assert out.returncode == 0, out.stderr
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        pairs[w["name"]] = runs
    return pairs


def test_counts_repeat_exactly(traced_pairs):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, (a, b) in traced_pairs.items():
        assert a["correct"] and b["correct"], name
        assert set(a["metrics"]) == set(units), name
        for metric, unit in units.items():
            if unit != "s" and metric not in NOISY:
                assert a["metrics"][metric] == b["metrics"][metric], (name, metric)


def test_every_layer_metric_is_measured_somewhere(traced_pairs):
    seen = {m for a, _ in traced_pairs.values()
            for m, v in a["metrics"].items() if v["value"] != 0}
    expected = {m["name"] for m in SPEC["per_layer"]
                if not m["name"].endswith(".failed") and m["name"] not in NOISY}
    assert expected <= seen, sorted(expected - seen)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "link", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
