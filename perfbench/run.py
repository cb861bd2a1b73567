"""lorachirp benchmark: one workload per run, metrics as JSON on the last line.

Run from the repository root:

    python3 perfbench/run.py --workload {table,spectrum,link} --seed N \
        --seconds S --trace {0,1}

The library is imported from ./src; nothing is installed or built.  With
--trace 0 the run measures, with tracing off, the end-to-end metrics named
in BENCHMARK.json: the median wall time of the workload iterations that
follow one untimed warm-up, rescaled to a reference host speed sampled
during each iteration (see speed.py; the raw median is on the summary
line), the median set-up time of several fresh interpreters, the peak resident memory of this fresh process after its
first full iteration, and the workload's accuracy figure.  With --trace 1
it alternates untraced and traced iterations and prints the per-layer
metrics instead, plus the tracing overhead.  Every iteration's output is
checked; failed checks are counted, not raised.  Scratch files go to a
temporary directory in the repository root that is removed on exit.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 3
SETUP_CODE = """\
import time
t = time.perf_counter()
import lorachirp
from lorachirp.analysis import MaskSpec
from lorachirp.cli import example_mask_path
MaskSpec.from_json(example_mask_path())
print(time.perf_counter() - t)
"""


def cap_threads(nproc: int) -> dict[str, int]:
    """Pin BLAS/OpenMP pools to at most nproc threads before numpy loads;
    child interpreters inherit the caps."""
    caps = {}
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        caps[var] = min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(caps[var])
    return caps


def measure_setup(runs: int) -> float:
    """Median time to import lorachirp and load the shipped mask in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             cwd=ROOT, capture_output=True, text=True, timeout=60,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def tail_note(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    beyond = 10
    if n <= beyond:
        return f"no percentile has {beyond} samples beyond it with n={n}"
    pct = 100.0 * (n - beyond) / n
    value = sorted(samples)[n - beyond - 1]
    return f"p{pct:.1f} {value:.4f} s"


class Runner:
    """Runs checked iterations of one workload and tallies their checks."""

    def __init__(self, workload, checks):
        self.workload = workload
        self.checks = checks
        self.quality: list[float] = []
        self.extras: dict[str, float] = {}

    def iteration(self, clock: Stopwatch) -> bool:
        """One iteration timed by `clock`, then checked; False if either raised."""
        try:
            with clock:
                output = self.workload.run()
            value, self.extras = self.workload.check(output, self.checks)
        except Exception:  # a failing program is reported, not fatal to the run
            traceback.print_exc()
            self.checks.expect(False)
            return False
        self.quality.append(value)
        return True


def untraced(runner: Runner, seconds: float, probe: SpeedProbe):
    """Iterations for at least `seconds`: raw and host-normalized wall times,
    and the peak RSS after the first iteration."""
    raw, norm, probes, runs, rss = [], [], [], 0, 0.0
    start = time.perf_counter()
    while runs == 0 or time.perf_counter() - start < seconds:
        ok = runner.iteration(probe)
        runs += 1
        if runs == 1:
            rss = peak_rss_mb()
        if ok:
            raw.append(probe.elapsed)
            norm.append(probe.normalized())
            probes.append(probe.probe_s())
    return raw, norm, probes, rss


def traced(runner: Runner, seconds: float, tracer: Tracer, clock: Stopwatch):
    """Untraced/traced iteration pairs for at least `seconds`."""
    plain, with_trace, runs = [], [], 0
    start = time.perf_counter()
    while runs == 0 or time.perf_counter() - start < seconds:
        if runner.iteration(clock):
            plain.append(clock.elapsed)
        tracer.install()
        try:
            ok = runner.iteration(clock)
        finally:
            tracer.uninstall()
        if ok:
            with_trace.append(clock.elapsed)
        runs += 1
    return plain, with_trace, runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
    if not (SRC / "lorachirp" / "__init__.py").is_file():
        print(f"error: no lorachirp sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    caps = cap_threads(nproc)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from speed import SpeedProbe, Stopwatch
    from tracer import Tracer, wrapper_cost
    from workloads import WORKLOADS, Checks

    print(json.dumps({
        "workload": args.workload, "why": whys[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": nproc,
        "thread_caps": caps, "setup_runs": SETUP_RUNS,
    }), flush=True)

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        checks = Checks()
        workload = WORKLOADS[args.workload](args.seed, scratch)
        runner = Runner(workload, checks)
        if args.trace:
            workload.warm_up()
            tracer = Tracer()
            plain, with_trace, runs = traced(runner, args.seconds, tracer, Stopwatch())
            layer = tracer.layer_metrics(runs)
            layer.update(runner.extras)
            if plain and with_trace:
                layer["trace.overhead_s"] = (statistics.median(with_trace)
                                             - statistics.median(plain))
            layer["trace.overhead_est_s"] = layer["trace.spans"] * wrapper_cost()
            wanted = spec["per_layer"]
            values = {m["name"]: layer.get(m["name"], 0.0) for m in wanted}
        else:
            setup_s = measure_setup(SETUP_RUNS)
            workload.warm_up()
            raw, norm, probes, rss = untraced(runner, args.seconds, SpeedProbe())
            if not raw:
                print("error: no iteration completed", file=sys.stderr)
                return 1
            name, unit = workload.quality
            quality = statistics.median(runner.quality)
            print(f"wall_s median {statistics.median(raw):.4f} s over {len(raw)} "
                  f"samples ({tail_note(raw)}); speed probe "
                  f"{1e3 * statistics.median(probes):.4f} ms; wall_norm_s "
                  f"{statistics.median(norm):.4f} s; "
                  f"failed_frac {checks.failed}/{checks.attempted}; "
                  f"{name} {quality:.6g} {unit}", flush=True)
            values = {"wall_norm_s": statistics.median(norm), "setup_s": setup_s,
                      "peak_rss_mb": rss, "accuracy_err": quality}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
