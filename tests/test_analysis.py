import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lorachirp
from lorachirp import analysis
from lorachirp import (BinnedSpectrum, IqBuffer, LoraParams, MaskSegment, MaskSpec,
                       bin_estimate, binned_power, bit_rate, mask_check, modulate,
                       occupied_bandwidth, reproduce_table,
                       spectral_efficiency, welch_psd)
from oracles import psd_via_dft

P7 = LoraParams(sf=7, b=125e3)


def test_bit_rate_values():
    assert bit_rate(P7) == pytest.approx(6835.9375)
    assert bit_rate(LoraParams(sf=12, b=125e3)) == pytest.approx(366.2109375)
    assert P7.b * P7.tc == 1.0


def test_spectral_efficiency_values():
    assert spectral_efficiency(3) == 0.375
    assert spectral_efficiency(7) == pytest.approx(0.055, abs=5e-4)
    assert spectral_efficiency(12) == pytest.approx(0.00293, abs=5e-6)
    with pytest.raises(ValueError):
        spectral_efficiency(0)


@pytest.fixture(scope="module")
def spec7():
    return psd_via_dft(LoraParams(sf=7, b=1.0), zero_pad_factor=4)


def test_b99_matches_reported_value(spec7):
    p = LoraParams(sf=7, b=1.0)
    w = occupied_bandwidth(p, 0.99, spectrum=spec7)
    assert w == pytest.approx(1.045, abs=0.005)


def test_occupied_bandwidth_monotone(spec7):
    p = LoraParams(sf=7, b=1.0)
    widths = [occupied_bandwidth(p, fr, spectrum=spec7) for fr in (0.5, 0.9, 0.99)]
    assert widths[0] < widths[1] < widths[2]


def test_occupied_bandwidth_errors(spec7):
    p = LoraParams(sf=7, b=1.0)
    with pytest.raises(ValueError):
        occupied_bandwidth(p, 1.5, spectrum=spec7)
    with pytest.raises(ValueError, match="captures only"):
        occupied_bandwidth(p, 0.9999999, spectrum=spec7)


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this lorachirp; a
    call that does not return within 60 s fails the test."""
    src = str(Path(lorachirp.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


_BISECT = """
import sys
from lorachirp import LoraParams, occupied_bandwidth
p = LoraParams(sf=7, b=1.0)
try:
    width = occupied_bandwidth(p, 0.99, tol=float(sys.argv[1]))
except ValueError as exc:
    print("ValueError:", exc)
else:
    print(abs(width - occupied_bandwidth(p, 0.99)) <= 1e-3)
"""


@pytest.mark.parametrize("tol", ["0.0", "-1.0", "nan", "inf"])
def test_occupied_bandwidth_rejects_bad_tol(tol):
    proc = _run_python(_BISECT, tol)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError: tol must be finite and positive")


def test_occupied_bandwidth_ends_when_the_bracket_cannot_be_split():
    # tol below the float spacing of the bracket: bisection stops at adjacent floats
    proc = _run_python(_BISECT, "1e-300")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_reproduce_table_row_sf5():
    row = reproduce_table([5])[0]
    assert row.eff == pytest.approx(0.156, abs=5e-4)
    assert row.max_re_c == pytest.approx(0.091, abs=1e-3)
    assert row.b99_b == pytest.approx(1.185, abs=5e-3)
    assert row.pd == 2.0 ** -5
    assert row.delta_max_db == pytest.approx(0.41, abs=0.01)


def test_reproduce_table_b99_is_pinned():
    # bisection endpoints are dyadic multiples of the 8B span
    rows = reproduce_table([3, 5, 7, 10, 12])
    assert [r.b99_b for r in rows] == [1.5, 1.185546875, 1.0458984375,
                                       0.990234375, 0.986328125]


def test_reproduce_table_rejects_out_of_range():
    with pytest.raises(ValueError):
        reproduce_table([2])


def test_binned_power_conserves_total(spec7):
    ps_dbm = 20.0
    binned = binned_power(spec7, delta_f=1.0 / 64, ps_dbm=ps_dbm)
    total_mw = binned.bin_power_mw.sum()
    assert total_mw == pytest.approx(10 ** (ps_dbm / 10), rel=5e-3)


def test_binned_power_is_additive_under_merging(spec7):
    # edge-aligned grids so that pairs of delta_f bins tile one 2*delta_f bin
    df = 1.0 / 64
    fine = binned_power(spec7, delta_f=df, ps_dbm=0.0, origin=df / 2)
    coarse = binned_power(spec7, delta_f=2 * df, ps_dbm=0.0, origin=df)
    fine_mw = fine.bin_power_mw
    for j, c in enumerate(coarse.bin_centers):
        members = np.abs(fine.bin_centers - c) < df * 0.75
        if members.sum() == 2:
            assert fine_mw[members].sum() == pytest.approx(
                coarse.bin_power_mw[j], rel=1e-9)


@pytest.mark.parametrize("ps_dbm", [np.nan, np.inf, -np.inf])
def test_binned_levels_reject_non_finite_power(spec7, ps_dbm):
    with pytest.raises(ValueError, match="ps_dbm must be a finite number"):
        binned_power(spec7, delta_f=1.0 / 128, ps_dbm=ps_dbm)
    centers = np.array([-0.25, 0.0, 0.25])
    with pytest.raises(ValueError, match="ps_dbm must be a finite number"):
        bin_estimate(spec7.grid, spec7.continuous, centers, 1.0 / 128, ps_dbm=ps_dbm)


@pytest.mark.parametrize("delta_f", [np.nan, np.inf, 0.0, -1.0])
def test_binned_power_rejects_bad_bin_width(spec7, delta_f):
    with pytest.raises(ValueError, match="delta_f must be finite and positive"):
        binned_power(spec7, delta_f=delta_f, ps_dbm=14.0)


def test_binned_peak_level_consistent_with_reported_scale():
    # B=125 kHz, delta_f=B/256, Ps=27 dBm: in-band bins hold roughly
    # delta_f/B of the power, so peak bins sit near 27 - 24 dBm
    res = psd_via_dft(LoraParams(sf=7, b=125e3), zero_pad_factor=4)
    binned = binned_power(res, delta_f=125e3 / 256, ps_dbm=27.0)
    peak = binned.bin_power_dbm.max()
    assert 27.0 - 24.1 == pytest.approx(peak, abs=3.0)
    assert abs(binned.bin_centers[np.argmax(binned.bin_power_dbm)]) < 125e3


def _example_mask():
    from lorachirp.cli import example_mask_path
    return MaskSpec.from_json(example_mask_path())


@pytest.fixture(scope="module")
def binned_125k():
    res = psd_via_dft(LoraParams(sf=7, b=125e3), zero_pad_factor=4,
                      n_per_symbol=32 * 128)
    return binned_power(res, delta_f=1000.0, ps_dbm=14.0)


def test_mask_check_passes_example_mask(binned_125k):
    report = mask_check(binned_125k, _example_mask(), f0=868.3e6)
    assert report.passed
    assert report.worst_margin_db > 0


def test_mask_check_fails_when_tightened(binned_125k):
    tightened = _example_mask().tightened(40.0)
    report = mask_check(binned_125k, tightened, f0=868.3e6)
    assert not report.passed
    assert report.worst_margin_db < 0


def test_mask_check_empty_mask_passes(binned_125k):
    report = mask_check(binned_125k, MaskSpec(label="empty"), f0=868.3e6)
    assert report.passed
    assert report.segments == ()


def test_mask_check_rejects_rbw_mismatch(binned_125k):
    mask = MaskSpec(label="bad rbw", segments=(
        MaskSegment(868.0e6, 868.6e6, 14.0, 500.0),))
    with pytest.raises(ValueError, match="rbw"):
        mask_check(binned_125k, mask, f0=868.3e6)


def test_mask_margins_stable_under_grid_refinement(binned_125k):
    # refining the PSD grid (not the rbw) must not move the margins
    res_fine = psd_via_dft(LoraParams(sf=7, b=125e3), zero_pad_factor=8,
                           n_per_symbol=32 * 128)
    binned_fine = binned_power(res_fine, delta_f=1000.0, ps_dbm=14.0)
    mask = _example_mask()
    r1 = mask_check(binned_125k, mask, f0=868.3e6)
    r2 = mask_check(binned_fine, mask, f0=868.3e6)
    assert r1.passed == r2.passed
    for s1, s2 in zip(r1.segments, r2.segments):
        assert s1.worst_margin_db == pytest.approx(s2.worst_margin_db, abs=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mask_check_rejects_non_finite_levels(binned_125k, bad):
    levels = binned_125k.bin_power_dbm.copy()
    i = int(np.searchsorted(binned_125k.bin_centers, 1000.0))
    levels[i] = bad
    binned = BinnedSpectrum(binned_125k.bin_centers, levels,
                            binned_125k.delta_f, binned_125k.ps_dbm)
    with pytest.raises(ValueError, match=r"868301000\.0 Hz in mask segment \[868000000\.0, "):
        mask_check(binned, _example_mask(), f0=868.3e6)


def test_mask_check_ignores_non_finite_levels_outside_the_mask():
    # only the levels a segment checks must be finite
    binned = BinnedSpectrum(np.array([0.0, 1000.0]), np.array([-20.0, np.nan]),
                            1000.0, 14.0)
    mask = MaskSpec(label="one bin", segments=(MaskSegment(-500.0, 500.0, 0.0, 1000.0),))
    report = mask_check(binned, mask, f0=0.0)
    assert report.passed and report.segments[0].n_bins == 1


@pytest.mark.parametrize("f0", [np.nan, np.inf, -np.inf])
def test_mask_check_rejects_non_finite_carrier(binned_125k, f0):
    with pytest.raises(ValueError, match=f"f0 must be a finite number, got {f0!r}"):
        mask_check(binned_125k, _example_mask(), f0=f0)


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mask_segment_fields_must_be_finite(field, bad):
    values = [868.0e6, 868.6e6, 14.0, 1000.0]
    values[field] = bad
    key = ("f_start_hz", "f_stop_hz", "limit_dbm", "rbw_hz")[field]
    with pytest.raises(ValueError, match=f"{key} must be a finite number"):
        MaskSegment(*values)


@pytest.mark.parametrize("delta_db", [np.nan, np.inf])
def test_tightened_rejects_non_finite_delta(delta_db):
    with pytest.raises(ValueError, match="limit_dbm must be a finite number"):
        _example_mask().tightened(delta_db)


def test_mask_segments_must_not_overlap():
    with pytest.raises(ValueError):
        MaskSpec(label="overlap", segments=(
            MaskSegment(0.0, 10.0, 0.0, 1.0),
            MaskSegment(5.0, 15.0, 0.0, 1.0)))


def test_mask_json_roundtrip(tmp_path):
    mask = _example_mask()
    path = tmp_path / "mask.json"
    mask.to_json(path)
    again = MaskSpec.from_json(path)
    assert again == mask


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(allow_nan=False), st.text(max_size=4))


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mask") / "mask.json"


@given(doc=st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3)))
def test_mask_top_level_must_be_an_object(json_path, doc):
    json_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="'segments'"):
        MaskSpec.from_json(json_path)


@given(segments=st.one_of(_JSON_SCALARS,
                          st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2)))
def test_mask_segments_must_be_a_list(json_path, segments):
    json_path.write_text(json.dumps({"label": "bad", "segments": segments}))
    with pytest.raises(ValueError, match="'segments' must be a list"):
        MaskSpec.from_json(json_path)


def test_welch_tone_level_and_location():
    fs, b = 500e3, 125e3
    t = np.arange(1 << 17) / fs
    amp = 0.7
    tone = IqBuffer(amp * np.exp(2j * np.pi * (b / 8) * t), fs=fs)
    freqs, pxx = welch_psd(tone, segment_len=1024)
    peak = np.argmax(pxx)
    assert freqs[peak] == pytest.approx(b / 8, abs=fs / 1024)
    df = freqs[1] - freqs[0]
    mainlobe = pxx[peak - 2:peak + 3].sum() * df
    assert 10 * np.log10(mainlobe / amp ** 2) == pytest.approx(0.0, abs=0.2)


def test_welch_integral_equals_mean_power(rng):
    x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    x[100:200] *= 15.0  # deliberately non-stationary
    iq = IqBuffer(x, fs=2.0)
    freqs, pxx = welch_psd(iq, segment_len=256, overlap=0.5)
    assert np.trapezoid(pxx, freqs) == pytest.approx(iq.mean_power, rel=1e-2)


def test_welch_white_noise_variance_shrinks(rng):
    n = 1 << 16
    x = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
    iq = IqBuffer(x, fs=1.0)
    _, p_few = welch_psd(IqBuffer(x[: n // 16], fs=1.0), segment_len=256)
    _, p_many = welch_psd(iq, segment_len=256)
    # 16x the segments: per-bin std should drop by about 4
    ratio = np.std(p_few) / np.std(p_many)
    assert 2.0 < ratio < 8.0
    assert np.mean(p_many) == pytest.approx(1.0, rel=0.05)


def _scipy_welch(iq, segment_len, overlap, window):
    """scipy.signal.welch, rescaled to the buffer's mean power like welch_psd."""
    from scipy import signal
    noverlap = min(int(round(overlap * segment_len)), segment_len - 1)
    freqs, pxx = signal.welch(iq.samples, fs=iq.fs, window=window, nperseg=segment_len,
                              noverlap=noverlap, detrend=False,
                              return_onesided=False, scaling="density")
    freqs, pxx = np.fft.fftshift(freqs), np.fft.fftshift(pxx).real
    return freqs, pxx * (iq.mean_power / np.trapezoid(pxx, freqs))


@pytest.mark.parametrize("window, scipy_window", [
    ("hann", "hann"), ("hamming", "hamming"), ("blackman", "blackman"),
    ("rect", "boxcar"), ("boxcar", "boxcar")])
def test_welch_matches_scipy(rng, window, scipy_window):
    x = rng.normal(size=3000) + 1j * rng.normal(size=3000)
    x[500:900] *= 10.0
    iq = IqBuffer(x, fs=2.0e3)
    for segment_len in (2, 3, 255, 256, 1000):
        for overlap in (0.0, 0.3, 0.5, 0.75, 0.999):
            freqs, pxx = welch_psd(iq, segment_len, overlap, window)
            ref_freqs, ref = _scipy_welch(iq, segment_len, overlap, scipy_window)
            np.testing.assert_array_equal(freqs, ref_freqs)
            assert np.max(np.abs(pxx - ref)) <= 1e-12 * ref.max()


def test_welch_matches_scipy_over_a_partial_last_block(rng):
    segment_len, step = 256, 128
    per_block = analysis._BLOCK_SAMPLES // segment_len
    n_seg = 6 * per_block + per_block // 3
    assert n_seg % per_block
    n = (n_seg - 1) * step + segment_len + step - 1  # a partial segment left over
    assert n > 3 * analysis._BLOCK_SAMPLES
    iq = IqBuffer(rng.normal(size=n) + 1j * rng.normal(size=n), fs=1.0)
    freqs, pxx = welch_psd(iq, segment_len, overlap=0.5)
    ref_freqs, ref = _scipy_welch(iq, segment_len, 0.5, "hann")
    np.testing.assert_array_equal(freqs, ref_freqs)
    assert np.max(np.abs(pxx - ref)) <= 1e-12 * ref.max()


def test_import_loads_no_scipy_signal_or_stats():
    proc = _run_python("import sys, lorachirp; print(sorted(m for m in sys.modules "
                       "if m.startswith(('scipy.signal', 'scipy.stats'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_welch_rejects_bad_arguments():
    iq = IqBuffer(np.ones(128, dtype=complex), fs=1.0)
    with pytest.raises(ValueError):
        welch_psd(iq, segment_len=256)
    with pytest.raises(ValueError):
        welch_psd(iq, segment_len=64, overlap=1.0)
    with pytest.raises(ValueError):
        welch_psd(iq, segment_len=64, window="flattop")
    for bad in (64.0, 64.5, True, "64"):
        with pytest.raises(ValueError, match="segment_len must be an integer"):
            welch_psd(iq, segment_len=bad)


def test_welch_agrees_with_analytic_spectrum_smoke(rng):
    p = LoraParams(sf=7, b=1.0)
    symbols = [int(s) for s in rng.integers(0, p.m, 600)]
    iq = modulate(p, symbols, oversample=4)
    freqs, pxx = welch_psd(iq, segment_len=1024)
    res = psd_via_dft(p, zero_pad_factor=8)
    df = 1.0 / 256
    centers = np.arange(-96, 97) * df  # |f| <= 0.375 B, well inside the band
    est_db = bin_estimate(freqs, pxx, centers, df)
    ref = binned_power(res, delta_f=df, ps_dbm=0.0)
    sel = np.isin(np.round(ref.bin_centers / df), np.round(centers / df))
    assert np.max(np.abs(est_db - ref.bin_power_dbm[sel])) < 1.5
