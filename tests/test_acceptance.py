"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are pinned here and
mirror the library's documented guarantees; run order does not matter.
"""
import time

import numpy as np

from lorachirp import (LoraParams, MaskSpec, awgn, bin_estimate,
                       binned_power, correlation_matrix, dechirp,
                       demodulate_stream, discrete_spectrum_lines,
                       fresnel_spectrum, mask_check,
                       mean_envelope_magnitude, modulate,
                       orthogonality_offsets, payload_to_symbols, phase,
                       reproduce_table, welch_psd)
from lorachirp.analysis import _mask_spectrum
from lorachirp.cli import example_mask_path, main as cli_main
from lorachirp.spectrum import _kfun
from oracles import (fresnel_quadrature, mean_power_quadrature,
                     numeric_cross_correlation_matrix, psd_via_dft)

TABLE_I = {
    # sf: (eff, max|Re C|, b99/B, pd, delta_max_db)
    3: (0.375, 0.212, 1.500, 0.125, 1.04),
    5: (0.156, 0.091, 1.185, 0.03125, 0.41),
    7: (0.055, 0.045, 1.045, 0.0078125, 0.20),
    10: (0.0098, 0.015, 0.990, 2.0 ** -10, 0.07),
    12: (0.00293, 0.0075, 0.986, 2.0 ** -12, 0.03),
}


def _report(cid: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    rows = reproduce_table([3, 5, 7, 10, 12])
    elapsed = time.monotonic() - t0
    worst = []
    for row in rows:
        eff_ref, re_ref, b99_ref, pd_ref, d_ref = TABLE_I[row.sf]
        eff_tol = 10.0 ** -(len(str(eff_ref).split(".")[1])) / 2  # printed rounding
        assert row.eff == row.sf / 2 ** row.sf
        assert abs(row.eff - eff_ref) <= eff_tol, (row.sf, "eff")
        assert abs(row.max_re_c - re_ref) <= 0.001, (row.sf, "max_re_c")
        b99_tol = 0.01 if row.sf == 3 else 0.005
        assert abs(row.b99_b - b99_ref) <= b99_tol, (row.sf, "b99")
        assert row.pd == pd_ref, (row.sf, "pd")
        assert abs(row.delta_max_db - d_ref) <= 0.01, (row.sf, "delta_max")
        worst.append(abs(row.b99_b - b99_ref))
    ok = elapsed <= 60.0
    _report("criterion 1", ok,
            f"table SF=3,5,7,10,12 matches every cell "
            f"(worst |b99 err| {max(worst):.4f} B) in {elapsed:.1f} s (limit 60 s)")


def test_criterion_2_discrete_power_identity():
    worst_sum = 0.0
    worst_quad = 0.0
    for sf in (3, 5, 7, 10):
        p = LoraParams(sf=sf, b=1.0)
        numeric = float(discrete_spectrum_lines(p)[:, 1].sum())
        worst_sum = max(worst_sum, abs(numeric - 1.0 / p.m))
        pd_quad = mean_power_quadrature(
            lambda t: mean_envelope_magnitude(p, t), p.ts, p.m)
        worst_quad = max(worst_quad, abs(pd_quad - 1.0 / p.m))
    ok = worst_sum < 1e-4 and worst_quad < 1e-6
    _report("criterion 2", ok,
            f"line sums reach 1/M (worst {worst_sum:.2e} < 1e-4); mean-envelope "
            f"quadrature gives 1/M (worst {worst_quad:.2e} < 1e-6)")


def test_criterion_3_cross_correlation_oracle():
    worst = 0.0
    for sf in range(3, 8):
        p = LoraParams(sf=sf, b=1.0)
        dev = np.max(np.abs(numeric_cross_correlation_matrix(p, steps=1 << 16)
                            - correlation_matrix(p)))
        worst = max(worst, float(dev))
    worst_orth = 0.0
    for sf in range(3, 8):
        p = LoraParams(sf=sf, b=1.0)
        C = correlation_matrix(p)
        for d in orthogonality_offsets(p):
            ls = np.arange(p.m - d)
            worst_orth = max(worst_orth, float(np.max(np.abs(C[ls, ls + d]))))
    ok = worst < 1e-6 and worst_orth < 1e-9
    _report("criterion 3", ok,
            f"closed form vs trapezoid oracle, SF 3..7 all pairs: max dev "
            f"{worst:.2e} < 1e-6; predicted orthogonal offsets |C| "
            f"{worst_orth:.2e} < 1e-9")


def test_criterion_4_discrete_time_orthogonality():
    worst_gram = 0.0
    for sf in range(3, 11):
        p = LoraParams(sf=sf, b=1.0)
        X = np.array([modulate(p, [a]).samples for a in range(p.m)])
        G = X @ X.conj().T / p.m
        worst_gram = max(worst_gram, float(np.max(np.abs(G - np.eye(p.m)))))
    worst_spike = 0.0
    for sf in (3, 7, 10):
        p = LoraParams(sf=sf, b=1.0)
        for a in range(p.m):
            X = np.fft.fft(dechirp(p, modulate(p, [a]).samples))
            ref = np.zeros(p.m, dtype=complex)
            ref[a] = p.m
            worst_spike = max(worst_spike, float(np.max(np.abs(X - ref)) / p.m))
    ok = worst_gram < 1e-10 and worst_spike < 1e-9
    _report("criterion 4", ok,
            f"chip Gram matrix = identity within {worst_gram:.2e} (SF<=10); "
            f"dechirped DFT = M*delta within {worst_spike:.2e} relative")


def test_criterion_5_phase_continuity_and_envelope():
    worst_phase = 0.0
    worst_env = 0.0
    for sf in range(3, 13):
        p = LoraParams(sf=sf, b=1.0)
        a = np.arange(p.m)
        end = np.array([phase(p, int(ai), p.ts) for ai in a])
        worst_phase = max(worst_phase, float(
            np.max(np.abs(end - 2 * np.pi * np.round(end / (2 * np.pi))))))
        for ai in range(0, p.m, max(1, p.m // 256)):
            mags = np.abs(modulate(p, [ai]).samples)
            worst_env = max(worst_env, float(np.max(np.abs(mags - 1.0))))
    ok = worst_phase < 1e-9 and worst_env < 1e-12
    _report("criterion 5", ok,
            f"phase(Ts) = 0 mod 2pi within {worst_phase:.2e} rad (SF 3..12, all a); "
            f"envelope constant within {worst_env:.2e}")


def test_criterion_6_spectrum_cross_validation():
    worst_rel = 0.0
    for sf in (3, 7, 10):
        p = LoraParams(sf=sf, b=1.0)
        n_sym = max(64 * p.m, 1024)
        res = psd_via_dft(p, zero_pad_factor=2, n_per_symbol=n_sym)
        ref = fresnel_spectrum(p, f_max=2.0 * p.b, step=p.b / (2 * p.m))
        sel = np.abs(res.grid) <= 2.0 * p.b + 1e-12
        np.testing.assert_allclose(res.grid[sel], ref.grid, rtol=0, atol=1e-9 * p.b)
        g_dft = res.continuous[sel]
        g_fr = ref.continuous
        worst_rel = max(worst_rel, float(np.max(np.abs(g_fr - g_dft)) / g_fr.max()))
    worst_fres = 0.0
    for x in np.logspace(-3, 3, 25):
        c_ref, s_ref = fresnel_quadrature(float(x))
        k = _kfun(float(x))
        worst_fres = max(worst_fres, abs(k.real - c_ref), abs(k.imag - s_ref))
    ok = worst_rel < 1e-6 and worst_fres < 1e-9
    _report("criterion 6", ok,
            f"Fresnel vs zero-padded-DFT PSD over |f|<=2B, SF 3/7/10: max dev "
            f"{10 * np.log10(worst_rel):.1f} dB of peak (< -60 dB); Fresnel vs "
            f"quadrature oracle {worst_fres:.2e} < 1e-9")


def test_criterion_7_welch_vs_analytic_binned():
    p = LoraParams(sf=7, b=125e3)
    rng = np.random.default_rng(20190507)
    # one 16-byte payload is ~19 symbols, far too few for 1 dB estimator
    # accuracy; concatenate 64 independent random payloads like the long
    # experimental captures the method is meant for
    symbols = []
    for _ in range(64):
        symbols.extend(payload_to_symbols(rng.bytes(16), p.sf))
    iq = modulate(p, symbols, oversample=4)
    delta_f = p.b / 256
    seg = int(round(iq.fs / delta_f))  # grid step = delta_f
    freqs, pxx = welch_psd(iq, segment_len=seg, overlap=0.5, window="hann")

    res = fresnel_spectrum(p, f_max=8.0 * p.b, step=p.b / (8 * p.m))
    ref = binned_power(res, delta_f=delta_f, ps_dbm=0.0)
    ref_idx = np.round(ref.bin_centers / delta_f).astype(int)

    def band_dev(n_lo, n_hi):
        centers = np.arange(n_lo, n_hi + 1) * delta_f
        est_db = bin_estimate(freqs, pxx, centers, delta_f)
        sel = np.isin(ref_idx, np.arange(n_lo, n_hi + 1))
        return float(np.max(np.abs(est_db - ref.bin_power_dbm[sel])))

    in_band = band_dev(-128, 128)  # |f| <= B/2
    tail = max(band_dev(-486, -130), band_dev(130, 486))  # out to ~1.9B
    ok = in_band <= 1.0
    _report("criterion 7", ok,
            f"Welch (64 random 16-byte payloads, fs=4B) vs analytic bins: "
            f"max |dev| {in_band:.2f} dB over |f|<=B/2 (limit 1 dB); tail "
            f"|f| in (B/2, 1.9B] deviates up to {tail:.2f} dB (reported, "
            f"aliasing at fs=4B)")


def test_criterion_8_mask_verdicts(tmp_path, capsys):
    p = LoraParams(sf=7, b=125e3)
    mask = MaskSpec.from_json(example_mask_path())
    # the span the CLI computes: every segment covered by whole bins
    res = _mask_spectrum(p, mask, [868.3e6])
    binned = binned_power(res, delta_f=1000.0, ps_dbm=14.0)
    rep = mask_check(binned, mask, f0=868.3e6)
    rep_tight = mask_check(binned, mask.tightened(40.0), f0=868.3e6)
    # same verdicts via the CLI, which must exit 0 / 2
    rc_pass = cli_main(["mask-check", "--mask", str(example_mask_path()),
                        "--f0", "868.3e6", "--sf", "7", "--bw", "125e3",
                        "--ps-dbm", "14"])
    tight_path = tmp_path / "tight.json"
    mask.tightened(40.0).to_json(tight_path)
    rc_fail = cli_main(["mask-check", "--mask", str(tight_path),
                        "--f0", "868.3e6", "--sf", "7", "--bw", "125e3",
                        "--ps-dbm", "14"])
    capsys.readouterr()
    covered = all(s.n_bins * s.segment.rbw_hz == s.segment.f_stop_hz - s.segment.f_start_hz
                  for s in rep.segments)
    ok = (rep.passed and covered and not rep_tight.passed and rc_pass == 0 and rc_fail == 2)
    _report("criterion 8", ok,
            f"SF=7 B=125 kHz Ps=14 dBm passes example G1 mask (worst margin "
            f"{rep.worst_margin_db:+.1f} dB); tightening 40 dB flips the verdict "
            f"(worst margin {rep_tight.worst_margin_db:+.1f} dB); CLI exits 0/2")


def test_criterion_9_roundtrip_identity():
    p = LoraParams(sf=7, b=125e3)
    rng = np.random.default_rng(1234)
    symbols = [int(s) for s in rng.integers(0, p.m, 10_000)]
    iq = modulate(p, symbols, oversample=1)
    clean_ok = demodulate_stream(iq, p) == symbols
    noisy_ok = demodulate_stream(awgn(iq, 20.0, seed=99), p) == symbols
    ok = clean_ok and noisy_ok
    _report("criterion 9", ok,
            "modulate->demodulate identity on 10^4 random symbols, noiseless "
            "and at SNR = 20 dB (SF=7)")
