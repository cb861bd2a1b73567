import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lorachirp
from lorachirp import analysis, correlation
from lorachirp import (BinnedSpectrum, IqBuffer, LoraParams, MaskSegment, MaskSpec, awgn,
                       bin_estimate, binned_power, bit_rate, fresnel_spectrum, mask_check,
                       modulate, occupied_bandwidth, payload_to_symbols, reproduce_table,
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


@functools.lru_cache(maxsize=None)
def _bisection_spectrum(sf: int):
    """occupied_bandwidth's default spectrum at B = 1 Hz."""
    p = LoraParams(sf=sf, b=1.0)
    k = max(1, 512 // p.m)
    return fresnel_spectrum(p, f_max=4.0, step=1.0 / (k * p.m))


@pytest.mark.parametrize("sf,bound", [(9, 1.1e-3), (10, 5e-4), (11, 2.2e-4), (12, 9.5e-5)])
def test_default_lattice_b99_error_is_bounded_but_exceeds_tol(sf, bound):
    # A known defect: from SF 9 up the default spectrum is the k = 1 line
    # lattice, whose trapezoid integral reads the continuous power low, so
    # b99 at tol = 1e-7 B is 0.09e-3 to 1.04e-3 B below the k = 16 value:
    # tol bounds the bracket, not the answer.  k = 2 is within 2.3e-5 B.
    # These bounds pin the defect's size; a fix may only tighten them.
    p = LoraParams(sf=sf, b=1.0)

    def b99(k):
        spec = fresnel_spectrum(p, f_max=4.0, step=1.0 / (k * p.m))
        return occupied_bandwidth(p, 0.99, spectrum=spec, tol=1e-7)

    ref = b99(16)
    assert abs(occupied_bandwidth(p, 0.99, tol=1e-7) - ref) <= bound
    assert abs(b99(2) - ref) <= 3e-5


@pytest.mark.parametrize("sf", [3, 7, 10])
def test_occupied_bandwidth_ignores_the_order_of_the_lines(sf):
    spec = _bisection_spectrum(sf)
    order = np.random.default_rng(sf).permutation(len(spec.lines))
    shuffled = dataclasses.replace(spec, lines=spec.lines[order])
    for fraction in (0.5, 0.99):
        assert (occupied_bandwidth(spec.params, fraction, spectrum=shuffled)
                == occupied_bandwidth(spec.params, fraction, spectrum=spec))


@given(sf=st.integers(3, 9), n=st.integers(0, 4 * 512),
       nudge=st.sampled_from([1.0, 1 - 1e-12, 1 + 1e-12]))
def test_line_term_equals_the_masked_sum(sf, n, nudge):
    # h = n*B/M puts the edge exactly on a line (inclusive), or just inside
    # or outside it
    spec = _bisection_spectrum(sf)
    h = n % (4 * spec.params.m + 1) / spec.params.m * nudge
    ref = spec.line_powers[np.abs(spec.line_frequencies) <= h].sum()
    assert abs(analysis._lines_within(spec)(h) - ref) <= 1e-15


def test_reproduce_table_scans_the_correlations_once_per_row(monkeypatch):
    calls = []
    scan = correlation.max_cross_correlation

    def counted(p):
        calls.append(p.sf)
        return scan(p)

    monkeypatch.setattr(correlation, "max_cross_correlation", counted)
    monkeypatch.setattr(analysis, "max_cross_correlation", counted)
    rows = reproduce_table(range(3, 13))
    assert calls == list(range(3, 13))
    for row in rows:
        assert row.delta_max_db == scan(LoraParams(sf=row.sf, b=1.0)).penalty_db


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


@pytest.mark.parametrize("origin", [np.nan, np.inf, -np.inf])
def test_binned_power_rejects_a_non_finite_origin(spec7, origin):
    with pytest.raises(ValueError, match="origin must be a finite number"):
        binned_power(spec7, delta_f=1.0 / 128, ps_dbm=14.0, origin=origin)


@pytest.mark.parametrize("name, call", [
    ("delta_f", lambda spec, v: binned_power(spec, delta_f=v, ps_dbm=14.0)),
    ("ps_dbm", lambda spec, v: binned_power(spec, delta_f=1.0 / 128, ps_dbm=v)),
    ("carrier frequency f0", lambda spec, v: mask_check(
        binned_power(spec, delta_f=1.0 / 128, ps_dbm=14.0), MaskSpec("empty"), f0=v)),
    ("f_max", lambda spec, v: fresnel_spectrum(LoraParams(sf=3, b=1.0), f_max=v)),
    ("step", lambda spec, v: fresnel_spectrum(LoraParams(sf=7, b=128.0), f_max=4.0, step=v)),
    ("tol", lambda spec, v: occupied_bandwidth(spec.params, 0.99, spectrum=spec, tol=v)),
    ("mask segment rbw_hz", lambda spec, v: MaskSegment(0.0, 1.0, 0.0, rbw_hz=v)),
    ("snr_db", lambda spec, v: awgn(modulate(P7, [1]), snr_db=v, seed=0)),
    ("origin", lambda spec, v: binned_power(spec, delta_f=1.0 / 128, ps_dbm=14.0, origin=v)),
    ("fraction", lambda spec, v: occupied_bandwidth(spec.params, v, spectrum=spec)),
    ("overlap", lambda spec, v: welch_psd(modulate(P7, [1]), 16, overlap=v))],
    ids=["delta_f", "ps_dbm", "f0", "f_max", "step", "tol", "rbw_hz", "snr_db", "origin",
         "fraction", "overlap"])
@pytest.mark.parametrize("value", [True, "10"], ids=["bool", "str"])
def test_real_arguments_reject_a_bool_or_a_string(spec7, name, call, value):
    message = re.escape(f"{name} must be a real number, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(spec7, value)


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


def test_mask_check_an_unchecked_segment_cannot_pass(binned_125k):
    # no bin of the spectrum falls in 900-901 MHz around a 868.3 MHz carrier
    far = MaskSegment(900.0e6, 901.0e6, -36.0, 1000.0)
    report = mask_check(binned_125k, MaskSpec(label="far", segments=(far,)), f0=868.3e6)
    assert not report.complete and not report.passed
    assert report.segments[0].n_bins == 0 and report.worst_margin_db is None
    # beside segments that pass, it still fails the verdict
    mask = _example_mask()
    report = mask_check(binned_125k, MaskSpec(mask.label, mask.segments + (far,)), f0=868.3e6)
    assert not report.complete and not report.passed and report.worst_margin_db > 0
    report = mask_check(binned_125k, mask, f0=868.3e6)
    assert report.complete and report.passed


@given(data=st.data())
def test_adding_mask_segments_never_turns_a_fail_into_a_pass(data):
    levels = data.draw(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    binned = BinnedSpectrum(np.arange(float(len(levels))), np.array(levels), 1.0, 0.0)
    # disjoint segments between integer edges, some beyond the bins
    edges = sorted(set(data.draw(st.lists(st.integers(-5, 25), min_size=2, max_size=12))))
    segments = [MaskSegment(lo - 0.5, hi - 0.5, data.draw(st.floats(-50, 50)), 1.0)
                for lo, hi in zip(edges, edges[1:])]
    kept = data.draw(st.lists(st.booleans(), min_size=len(segments), max_size=len(segments)))
    subset = MaskSpec("subset", tuple(s for s, keep in zip(segments, kept) if keep))
    if not mask_check(binned, subset, f0=0.0).passed:
        assert not mask_check(binned, MaskSpec("all", tuple(segments)), f0=0.0).passed


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


def test_mask_check_rejects_centers_and_levels_of_unequal_lengths():
    binned = BinnedSpectrum(np.array([0.0, 1e3, 2e3]), np.array([1.0]), 1e3, 0.0)
    mask = MaskSpec("m", (MaskSegment(0.0, 3e3, 0.0, 1e3),))
    with pytest.raises(ValueError, match="^binned spectrum has 3 bin centers but 1 levels$"):
        mask_check(binned, mask, 0.0)


def test_array_holding_results_compare_and_hash_by_identity(binned_125k):
    res = fresnel_spectrum(LoraParams(sf=3, b=8.0))
    for value, twin in [(res, fresnel_spectrum(LoraParams(sf=3, b=8.0))),
                        (binned_125k, dataclasses.replace(binned_125k))]:
        assert value == value and value != twin
        assert hash(value) == object.__hash__(value) and {value: 1}[value] == 1
    # the parameters keep their value equality, which lru_caches key on
    assert res.params == LoraParams(sf=3, b=8.0)


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


def test_import_loads_no_scipy():
    proc = _run_python("import sys, lorachirp, lorachirp.cli; print(sorted(m for m in "
                       "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_CLI_SCIPY = """
import sys
from lorachirp import spectrum
from lorachirp.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

sig, psd, lines = sys.argv[1:]
for argv in (["modulate", "--sf", "7", "--bw", "125e3", "--symbols", "3,1,4,127,0,9",
              "--out", sig],
             ["demod", "--sf", "7", "--bw", "125e3", "--in", sig],
             ["welch", "--in", sig, "--segment", "256", "--out", psd],
             ["xcorr", "--sf", "7"]):
    assert main(argv) == 0, argv
before = scipy_modules()
assert main(["spectrum", "--sf", "5", "--bw", "1.0", "--out-psd", psd,
             "--out-lines", lines]) == 0
import scipy.special
print(before, "scipy.special" in scipy_modules(),
      spectrum._scipy_fresnel is scipy.special.fresnel)
"""


def test_time_domain_commands_load_no_scipy_and_spectrum_loads_scipy_special(tmp_path):
    proc = _run_python(_CLI_SCIPY, str(tmp_path / "sig.cf32"), str(tmp_path / "psd.csv"),
                       str(tmp_path / "lines.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] True True"


_FIRST_CALL = """
import hashlib, sys
import numpy as np
name, eager = sys.argv[1], sys.argv[2] == "1"
if eager:
    import scipy.special
from lorachirp import LoraParams, fresnel_spectrum, mean_envelope_magnitude
from lorachirp.spectrum import _kfun
loaded = "scipy.special" in sys.modules
digest = hashlib.sha256()
for sf in (5, 7):
    p = LoraParams(sf=sf, b=125e3)
    if name == "_kfun":
        arrays = [_kfun(np.linspace(-3.0 * p.m, 3.0 * p.m, 4001))]
    elif name == "fresnel_spectrum":
        res = fresnel_spectrum(p)
        arrays = [res.grid, res.continuous, res.lines]
    else:
        arrays = [mean_envelope_magnitude(p, np.linspace(0.0, p.ts, 1001)[:-1])]
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
print(loaded, digest.hexdigest())
"""


@pytest.mark.parametrize("name", ["_kfun", "fresnel_spectrum", "mean_envelope_magnitude"])
def test_first_call_loads_scipy_and_gives_the_same_bits(name):
    # the first call in a fresh interpreter imports scipy.special itself;
    # its values must equal those computed with scipy imported up front
    lazy, eager = (_run_python(_FIRST_CALL, name, flag) for flag in ("0", "1"))
    assert lazy.returncode == 0, lazy.stderr
    assert eager.returncode == 0, eager.stderr
    lazy_loaded, lazy_digest = lazy.stdout.split()
    eager_loaded, eager_digest = eager.stdout.split()
    assert (lazy_loaded, eager_loaded) == ("False", "True")
    assert lazy_digest == eager_digest


_INTEGER_ARGUMENTS = pytest.mark.parametrize("call,name", [
    (spectral_efficiency, "sf"),
    (lambda sf: reproduce_table([sf])[0], "sf"),
    (lambda sf: payload_to_symbols(b"ab", sf), "sf"),
], ids=["spectral_efficiency", "reproduce_table", "payload_to_symbols"])


@_INTEGER_ARGUMENTS
@pytest.mark.parametrize("bad", [True, 7.0, 7.5, "7"], ids=repr)
def test_integer_arguments_reject_bools_floats_and_strings(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        call(bad)


@_INTEGER_ARGUMENTS
def test_integer_arguments_accept_numpy_integers(call, name):
    assert call(np.int64(7)) == call(7)


def test_welch_rejects_bad_arguments():
    iq = IqBuffer(np.ones(128, dtype=complex), fs=1.0)
    with pytest.raises(ValueError):
        welch_psd(iq, segment_len=256)
    with pytest.raises(ValueError):
        welch_psd(iq, segment_len=64, overlap=1.0)
    for window in ("flattop", ["hann"], None):
        with pytest.raises(ValueError, match="^window must be one of"):
            welch_psd(iq, segment_len=64, window=window)
    for bad in (64.0, 64.5, True, "64"):
        with pytest.raises(ValueError, match="segment_len must be an integer"):
            welch_psd(iq, segment_len=bad)


@pytest.mark.parametrize("index, value", [(0, np.nan), (-3, np.nan), (100, np.inf),
                                          (2000, 1e200)],
                         ids=["nan-first", "nan-under-no-segment", "inf", "power-overflows"])
def test_welch_rejects_a_buffer_whose_mean_power_is_not_finite(index, value):
    # 4101 samples hold 31 segments of 256 at hop 128; the last 5 are in none
    samples = np.ones(4101, dtype=complex)
    samples[index] = value
    held = IqBuffer(samples, fs=1.0)
    lazy = IqBuffer._lazy(len(samples), lambda lo, hi, out: np.copyto(out, samples[lo:hi]),
                          fs=1.0)
    for iq in (held, lazy):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^buffer mean power .* is not finite"):
                welch_psd(iq, segment_len=256)


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
