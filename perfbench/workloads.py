"""The three benchmark workloads and the checks run on every iteration.

Each workload is built from the seed and a scratch directory, and offers
`warm_up()` (the same call chain at a small size, so imports and first-call
set-up are paid before timing), `run()` (one timed iteration, through the
library's public names so that an installed tracer sees every call) and
`check(output, checks)`, which counts each correctness check into `checks`
and returns the workload's accuracy figure and any extra per-layer counts.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

import lorachirp
import lorachirp.cli


class Checks:
    """Correctness checks attempted and failed; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


# The paper's table, sf: (eff, max|Re C|, b99/B, pd, delta_max_db), with the
# tolerances of acceptance criterion 1.
TABLE_I = {
    3: (0.375, 0.212, 1.500, 0.125, 1.04),
    5: (0.156, 0.091, 1.185, 0.03125, 0.41),
    7: (0.055, 0.045, 1.045, 0.0078125, 0.20),
    10: (0.0098, 0.015, 0.990, 2.0 ** -10, 0.07),
    12: (0.00293, 0.0075, 0.986, 2.0 ** -12, 0.03),
}


class Table:
    """reproduce_table over the paper's spreading factors; the seed is unused."""

    quality = ("b99_err_b", "B")

    def __init__(self, seed: int, scratch: Path):
        pass

    def warm_up(self):
        lorachirp.reproduce_table([3])

    def run(self):
        return lorachirp.reproduce_table(list(TABLE_I))

    def check(self, rows, checks: Checks):
        checks.expect([r.sf for r in rows] == list(TABLE_I))
        worst = 0.0
        for r in rows:
            eff, re_c, b99, pd, delta = TABLE_I[r.sf]
            eff_tol = 10.0 ** -len(str(eff).split(".")[1]) / 2  # printed rounding
            b99_tol = 0.01 if r.sf == 3 else 0.005
            checks.expect(r.eff == r.sf / 2 ** r.sf and abs(r.eff - eff) <= eff_tol)
            checks.expect(abs(r.max_re_c - re_c) <= 0.001)
            checks.expect(abs(r.b99_b - b99) <= b99_tol)
            checks.expect(r.pd == pd)
            checks.expect(abs(r.delta_max_db - delta) <= 0.01)
            worst = max(worst, abs(r.b99_b - b99))
        return worst, {}


SF_SPECTRUM = 7
SF_MASK = 9
MASK_SEGMENTS = 5  # segments of the shipped mask


class Spectrum:
    """`spectrum` and `mask-check` through cli.main, CSVs into the scratch
    directory; the seed is unused."""

    quality = ("line_sum_err", "1")

    def __init__(self, seed: int, scratch: Path):
        self.psd_csv = scratch / "psd.csv"
        self.lines_csv = scratch / "lines.csv"
        self.mask = str(lorachirp.cli.example_mask_path())

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = lorachirp.cli.main(argv)
        return rc, out.getvalue()

    def _spectrum(self, sf):
        return self._cli(["spectrum", "--sf", str(sf), "--bw", "125e3",
                          "--out-psd", str(self.psd_csv),
                          "--out-lines", str(self.lines_csv)])

    def _mask_check(self, sf):
        return self._cli(["mask-check", "--mask", self.mask, "--f0", "868.3e6",
                          "--sf", str(sf), "--bw", "125e3", "--ps-dbm", "14"])

    def warm_up(self):
        self._spectrum(3)
        self._mask_check(5)

    def run(self):
        return self._spectrum(SF_SPECTRUM), self._mask_check(SF_MASK)

    def check(self, output, checks: Checks):
        (rc_spec, _), (rc_mask, mask_out) = output
        checks.expect(rc_spec == 0)
        with self.lines_csv.open(newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        line_sum = sum(float(row[1]) for row in rows[1:])
        line_sum_err = abs(line_sum - 2.0 ** -SF_SPECTRUM)
        checks.expect(line_sum_err < 1e-4)
        checks.expect(rc_mask == 0)
        report = json.loads(mask_out) if rc_mask in (0, 2) else {}
        checks.expect(report.get("passed") is True)
        segments = report.get("segments", [])
        checks.expect(len(segments) == MASK_SEGMENTS)
        for seg in segments:
            checks.expect(seg["n_bins"] > 0)
        return line_sum_err, {}


LINK_SF = 7
LINK_SYMBOLS = 100_000
LINK_SNR_DB = -10.0
# At -10 dB the SF 7 dechirp receiver misses about 3.7 % of symbols; a
# broken receiver misses nearly all of them.
LINK_SER_LIMIT = 0.1


class Link:
    """Random symbols through modulate -> awgn -> float32 file -> demodulate,
    plus Welch on the capture read back."""

    quality = ("ser", "1")

    def __init__(self, seed: int, scratch: Path):
        self.p = lorachirp.LoraParams(sf=LINK_SF, b=125e3)
        rng = np.random.default_rng(seed)
        self.symbols = rng.integers(0, self.p.m, LINK_SYMBOLS).tolist()
        self.noise_seed = int(rng.integers(2 ** 63))
        self.path = scratch / "link.iq"

    def _chain(self, symbols):
        lorachirp.write_iq(lorachirp.awgn(lorachirp.modulate(self.p, symbols),
                                          snr_db=LINK_SNR_DB, seed=self.noise_seed),
                           self.path)
        capture = lorachirp.read_iq(self.path)
        decoded = lorachirp.demodulate_stream(capture, self.p)
        freqs, _ = lorachirp.welch_psd(capture, segment_len=256)
        return decoded, len(freqs)

    def warm_up(self):
        self._chain(self.symbols[:1000])

    def run(self):
        return self._chain(self.symbols)

    def check(self, output, checks: Checks):
        decoded, welch_points = output
        checks.expect(len(decoded) == len(self.symbols))
        errors = sum(d != s for d, s in zip(decoded, self.symbols))
        ser = errors / len(self.symbols)
        checks.expect(ser < LINK_SER_LIMIT)
        checks.expect(welch_points == 256)
        return ser, {"receiver.symbol_errors": errors}


WORKLOADS = {"table": Table, "spectrum": Spectrum, "link": Link}
