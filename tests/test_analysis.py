import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lorachirp
from lorachirp import analysis, correlation
from lorachirp.cli import main
from lorachirp import (BinnedSpectrum, IqBuffer, LoraParams, MaskSegment, MaskSpec,
                       SpectrumResult, awgn, bin_estimate, binned_power, bit_rate,
                       fresnel_spectrum, mask_check, modulate, occupied_bandwidth,
                       payload_to_symbols, reproduce_table, spectral_efficiency, welch_psd)
from oracles import captured_power_exact, occupied_bandwidth_bisection, psd_via_dft

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
    with pytest.raises(ValueError, match=r"^fraction 0\.9999999 unreachable: computed span "
                                         r"\|f\| <= 4 Hz captures only 0\.99999"):
        occupied_bandwidth(p, 0.9999999, spectrum=spec7)


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this lorachirp; a
    call that does not return within 60 s fails the test."""
    src = str(Path(lorachirp.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


@functools.lru_cache(maxsize=None)
def _lattice_spectrum(sf: int, k: int):
    """fresnel_spectrum over |f| <= 4B at step B/(k*M), B = 1 Hz."""
    p = LoraParams(sf=sf, b=1.0)
    return fresnel_spectrum(p, f_max=4.0, step=1.0 / (k * p.m))


def _default_spectrum(sf: int):
    """occupied_bandwidth's default spectrum at B = 1 Hz."""
    return _lattice_spectrum(sf, max(1, 512 // (1 << sf)))


def _assert_equals_bisection(spec, fractions):
    # the exact width lies within the oracle's 1e-12 B bracket, give or take
    # the oracle's own 1e-12 relative edge for the lines
    for fraction in fractions:
        width = occupied_bandwidth(spec.params, fraction, spectrum=spec)
        ref = occupied_bandwidth_bisection(spec, fraction, tol=1e-12 * spec.params.b)
        assert abs(width - ref) <= 1e-11 * spec.params.b, (fraction, width, ref)


_FRACTIONS = (0.1, 0.5, 0.9, 0.99, 0.999, 0.9999)


@pytest.mark.parametrize("sf", range(3, 13))
def test_occupied_bandwidth_equals_the_bisection_oracle(sf):
    spec = _default_spectrum(sf)
    _assert_equals_bisection(spec, _FRACTIONS)
    assert occupied_bandwidth(spec.params, 0.99) == occupied_bandwidth(spec.params, 0.99,
                                                                       spectrum=spec)


@pytest.mark.parametrize("sf", range(3, 13))
def test_occupied_bandwidth_captures_its_fraction_in_exact_arithmetic(sf):
    # the bisection oracle sums its cells in the solver's own order; summed
    # exactly, the power inside the solved width is the fraction to a few
    # 1e-15 (1.7e-15 at worst), or the fraction lies on the step of a line
    # at the width's edge (SF 3 at 99 %)
    spec = _default_spectrum(sf)
    for fraction in _FRACTIONS:
        width = occupied_bandwidth(spec.params, fraction, spectrum=spec)
        inside, with_edge = captured_power_exact(spec, width)
        assert inside - 4e-15 <= fraction <= with_edge + 4e-15, (fraction, width)


def test_occupied_bandwidth_equals_the_bisection_oracle_on_the_dft_spectrum(spec7):
    _assert_equals_bisection(spec7, _FRACTIONS)


def test_occupied_bandwidth_drops_the_lines_beyond_the_grid():
    # a grid of |f| <= 1.5B given the lines of the 4B grid: those beyond
    # 1.5B change no bit of the width
    narrow = fresnel_spectrum(LoraParams(sf=7, b=1.0), f_max=1.5, step=1.0 / 512)
    spec = dataclasses.replace(narrow, lines=_lattice_spectrum(7, 4).lines)
    assert np.abs(spec.line_frequencies).max() == 4.0
    _assert_equals_bisection(spec, (0.5, 0.99))
    for fraction in (0.5, 0.99):
        assert (occupied_bandwidth(spec.params, fraction, spectrum=spec)
                == occupied_bandwidth(spec.params, fraction, spectrum=narrow))


@pytest.mark.parametrize("sf", range(3, 13))
def test_occupied_bandwidth_on_the_k1_lattice_does_not_depend_on_the_span(sf):
    # at k = 1 every PSD point and line is two table values, so spectra over
    # 1.5B, 2B, 4B and 8B agree bit for bit where they overlap; summed from
    # 0 Hz, each gives the same width to the bit
    p = LoraParams(sf=sf, b=1.0)
    specs = [fresnel_spectrum(p, f_max=f_max, step=1.0 / p.m) for f_max in (1.5, 2.0, 4.0, 8.0)]
    mid = len(specs[-1].grid) // 2
    for spec in specs:
        n = len(spec.grid) // 2
        assert np.array_equal(spec.continuous, specs[-1].continuous[mid - n:mid + n + 1])
        assert np.array_equal(spec.lines, specs[-1].lines[mid - n:mid + n + 1])
    for fraction in (0.5, 0.9, 0.99):
        widths = [occupied_bandwidth(p, fraction, spectrum=spec) for spec in specs]
        assert widths == widths[-1:] * len(specs), (fraction, widths)


def test_occupied_bandwidth_is_exact_at_a_line_step():
    # SF 3 reaches 99 % only with the lines at +-0.75B, so b99 is 1.5B to
    # the bit, and so is every fraction that their step crosses
    spec = _default_spectrum(3)
    assert occupied_bandwidth(spec.params, 0.99, spectrum=spec) == 1.5
    f = np.abs(spec.line_frequencies)
    within = np.abs(spec.grid) <= 0.75
    before = (np.trapezoid(spec.continuous[within], spec.grid[within])
              + spec.line_powers[f < 0.75].sum())
    step = spec.line_powers[f == 0.75].sum()
    assert before < 0.99 < before + step
    for share in (0.01, 0.5, 0.99):
        fraction = before + share * step
        assert occupied_bandwidth(spec.params, fraction, spectrum=spec) == 1.5
    _assert_equals_bisection(spec, (0.99, before + 0.5 * step))


def test_occupied_bandwidth_solves_inside_the_last_cell():
    # a flat PSD of 0.5 over [-1, 1] on a grid of step 0.25 and no lines:
    # a width W captures W/2, so 0.9 is reached only in the cell (0.75, 1]
    grid = np.arange(-4, 5) * 0.25
    spec = SpectrumResult(grid=grid, continuous=np.full(9, 0.5), lines=np.empty((0, 2)),
                          params=LoraParams(sf=3, b=1.0))
    assert occupied_bandwidth(spec.params, 0.9, spectrum=spec) == pytest.approx(1.8, abs=1e-15)
    assert occupied_bandwidth(spec.params, 0.9999, spectrum=spec) == pytest.approx(1.9998,
                                                                                   abs=1e-15)
    _assert_equals_bisection(spec, (0.1, 0.9, 0.9999))


def test_occupied_bandwidth_at_a_cell_with_no_continuous_power():
    # the lines of SF 7 alone: every cell's continuous power is 0, so each
    # fraction is reached at the line that crosses it, with no division by
    # the zero rise of a cell
    spec = _default_spectrum(7)
    lines_only = dataclasses.replace(spec, continuous=np.zeros_like(spec.continuous))
    f = spec.line_frequencies
    p0 = spec.line_powers[f == 0.0].sum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fraction in (0.25, 0.5, 0.9):
            fraction /= spec.params.m
            width = occupied_bandwidth(spec.params, fraction, spectrum=lines_only)
            # the narrowest symmetric set of lines that reaches the fraction
            inside = spec.line_powers[np.abs(f) <= width / 2].sum()
            assert width / 2 in f and inside >= fraction
            assert spec.line_powers[np.abs(f) < width / 2].sum() < fraction
        # the line at 0 Hz alone reaches a fraction below its power
        assert occupied_bandwidth(spec.params, p0 / 2, spectrum=lines_only) == 0.0
    _assert_equals_bisection(lines_only, (0.25 / spec.params.m, 0.9 / spec.params.m))


@pytest.mark.parametrize("change, match", [
    (lambda s: dict(lines=s.lines + [1.0 / 2048, 0.0]), "every line within the grid on a grid"),
    (lambda s: dict(grid=s.grid[1:], continuous=s.continuous[1:]), "a grid symmetric about 0"),
    (lambda s: dict(grid=s.grid + 1.0 / 2048), "a grid symmetric about 0"),
    (lambda s: dict(grid=s.grid[3:6], continuous=s.continuous[3:6]), "a grid symmetric about 0"),
], ids=["lines-off-grid", "grid-one-point-short", "grid-shifted", "grid-off-0"])
def test_occupied_bandwidth_rejects_a_spectrum_it_cannot_invert(change, match):
    spec = _default_spectrum(7)
    with pytest.raises(ValueError, match=match):
        occupied_bandwidth(spec.params, 0.5, spectrum=dataclasses.replace(spec, **change(spec)))


@pytest.mark.parametrize("sf,bound", [(9, 1.1e-3), (10, 5e-4), (11, 2.2e-4), (12, 9.5e-5)])
def test_default_lattice_b99_error_is_bounded(sf, bound):
    # A known defect: from SF 9 up the default spectrum is the k = 1 line
    # lattice, whose trapezoid integral reads the continuous power low, so
    # the exact b99 on it is 0.09e-3 to 1.04e-3 B below the k = 16 value.
    # k = 2 is within 2.3e-5 B.  These bounds pin the defect's size; a fix
    # may only tighten them.
    p = LoraParams(sf=sf, b=1.0)

    def b99(k):
        return occupied_bandwidth(p, 0.99, spectrum=_lattice_spectrum(sf, k))

    ref = b99(16)
    assert abs(occupied_bandwidth(p, 0.99) - ref) <= bound
    assert abs(b99(2) - ref) <= 3e-5


@pytest.mark.parametrize("sf", [9, 10, 11, 12])
def test_default_lattice_band_power_error_is_bounded(sf):
    # The same defect as a band power: continuous trapezoid integral plus the
    # lines in [1.1B, 2.1B] reads 13.2 to 13.3 % low on the k = 1 lattice
    # against k = 16, and k = 2 is within 1.3e-4.  A fix may only tighten these.
    def band_power(k):
        spec = _lattice_spectrum(sf, k)
        cum = analysis._cumulative_trapezoid(spec.grid, spec.continuous)
        f = spec.line_frequencies
        return (np.interp(2.1, spec.grid, cum) - np.interp(1.1, spec.grid, cum)
                + spec.line_powers[(f >= 1.1) & (f <= 2.1)].sum())

    ref = band_power(16)
    assert abs(band_power(1) - ref) <= 0.14 * ref
    assert abs(band_power(2) - ref) <= 2e-4 * ref


@pytest.mark.parametrize("sf", [3, 7, 10])
def test_occupied_bandwidth_ignores_the_order_of_the_lines(sf):
    spec = _default_spectrum(sf)
    order = np.random.default_rng(sf).permutation(len(spec.lines))
    shuffled = dataclasses.replace(spec, lines=spec.lines[order])
    for fraction in (0.5, 0.99):
        assert (occupied_bandwidth(spec.params, fraction, spectrum=shuffled)
                == occupied_bandwidth(spec.params, fraction, spectrum=spec))


def test_default_occupied_bandwidth_builds_no_mirrored_spectrum():
    # the f >= 0 half only: with a mirrored spectrum and its two-sided
    # integral the call would peak at about 154 bytes per half-grid point
    p = LoraParams(12, 1.0)
    occupied_bandwidth(p, 0.99)
    tracemalloc.start()
    try:
        occupied_bandwidth(p, 0.99)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 110 * (4 * p.m + 1)


@pytest.mark.parametrize("sf", range(3, 17))
def test_default_occupied_bandwidth_equals_the_given_default_spectrum(sf):
    # the f >= 0 half path against the mirrored spectrum, bit for bit
    for b in (1.0, 125e3):
        p = LoraParams(sf, b)
        spec = fresnel_spectrum(p, f_max=4.0 * b, step=b / (max(1, 512 // p.m) * p.m))
        for fraction in (0.1, 0.5, 0.9, 0.99, 0.999):
            assert (occupied_bandwidth(p, fraction)
                    == occupied_bandwidth(p, fraction, spectrum=spec)), (b, fraction)


def test_occupied_bandwidth_of_an_asymmetric_spectrum_equals_the_bisection_oracle():
    # G and the lines at f > 0 times 1.5: the two sides of every width
    # differ, and every width captures more than on the even spectrum
    spec = _default_spectrum(7)
    lines = spec.lines.copy()
    lines[lines[:, 0] > 0, 1] *= 1.5
    continuous = np.where(spec.grid > 0, 1.5 * spec.continuous, spec.continuous)
    skewed = dataclasses.replace(spec, continuous=continuous, lines=lines)
    _assert_equals_bisection(skewed, _FRACTIONS)
    for fraction in _FRACTIONS:
        assert occupied_bandwidth(spec.params, fraction, spectrum=skewed) < occupied_bandwidth(
            spec.params, fraction, spectrum=spec)


def _malformed(spec, part, where, value):
    """spec with one value replaced: of the grid or the PSD, or of the
    lines' frequencies or powers."""
    if part in ("grid", "continuous"):
        values = getattr(spec, part).copy()
        values[where] = value
        return dataclasses.replace(spec, **{part: values})
    lines = spec.lines.copy()
    lines[where, ("frequencies", "powers").index(part)] = value
    return dataclasses.replace(spec, lines=lines)


# index 2058 is 0.0195 Hz on the SF 7, k = 4 grid, inside the 99 % width;
# line -1 is the one at 4B, beyond it
_MALFORMED = [
    ("continuous", 2058, np.nan, "PSD value at 0.01953125 Hz is nan, not a finite number >= 0"),
    ("continuous", 2058, np.inf, "PSD value at 0.01953125 Hz is inf, not a finite number >= 0"),
    ("continuous", 2058, -1.0, r"PSD value at 0.01953125 Hz is -1\.0, not a finite number >= 0"),
    ("powers", -1, np.nan, "line power at 4.0 Hz is nan, not a finite number >= 0"),
    ("powers", 0, -np.inf, "line power at -4.0 Hz is -inf, not a finite number >= 0"),
    ("frequencies", 5, np.nan, "line frequencies must hold only finite numbers, got nan"),
    ("grid", -1, np.inf, "grid must hold only finite numbers, got inf"),
]


@pytest.mark.parametrize("part, where, value, match", _MALFORMED)
def test_occupied_bandwidth_rejects_a_malformed_spectrum(part, where, value, match):
    spec = _default_spectrum(7)
    with pytest.raises(ValueError, match=match):
        occupied_bandwidth(spec.params, 0.99, spectrum=_malformed(spec, part, where, value))


@pytest.mark.parametrize("part, where, value, match", _MALFORMED)
def test_binned_power_rejects_a_malformed_spectrum(part, where, value, match):
    spec = _default_spectrum(7)
    with pytest.raises(ValueError, match=match):
        binned_power(_malformed(spec, part, where, value), delta_f=1.0 / 128, ps_dbm=14.0)


@pytest.mark.parametrize("sf_list, message", [
    ("", "--sf-list '' names no spreading factor"),
    (" , ", "--sf-list ' , ' names no spreading factor"),
    ("3,x", "bad --sf-list '3,x': invalid literal for int"),
])
def test_cli_table_rejects_a_bad_sf_list(capsys, sf_list, message):
    assert main(["table", "--sf-list", sf_list]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


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
    # the exact widths on the default spectra; SF 3 is a line's step
    rows = reproduce_table([3, 5, 7, 10, 12])
    np.testing.assert_allclose([r.b99_b for r in rows],
                               [1.5, 1.1848099746737, 1.0452514474734,
                                0.9893012619787, 0.9862669347123], rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("delta_f, message", [(np.nan, "must be a finite number"),
                                              (np.inf, "must be a finite number"),
                                              (0.0, "must be positive"),
                                              (-1.0, "must be positive")],
                         ids=["nan", "inf", "0.0", "-1.0"])
def test_binned_power_rejects_bad_bin_width(spec7, delta_f, message):
    with pytest.raises(ValueError, match=f"^delta_f {message}, got {delta_f!r}$"):
        binned_power(spec7, delta_f=delta_f, ps_dbm=14.0)
    # bin_estimate too: a width of 0 or less would read -300 dBm in every
    # bin, a level that passes any mask
    centers = np.array([-0.25, 0.0, 0.25])
    with pytest.raises(ValueError, match=f"^delta_f {message}, got {delta_f!r}$"):
        bin_estimate(spec7.grid, spec7.continuous, centers, delta_f)


_FREQS = np.linspace(-0.5, 0.5, 65)
_CENTERS = np.array([-0.25, 0.0, 0.25])


@pytest.mark.parametrize("freqs, psd, centers, match", [
    (_FREQS, np.ones(64), _CENTERS, "freqs and psd must be 1-D and of equal length"),
    (_FREQS[::-1], np.ones(65), _CENTERS, "freqs must be strictly ascending"),
    (np.where(_FREQS == 0.0, np.nan, _FREQS), np.ones(65), _CENTERS,
     "^freqs must hold only finite numbers$"),
    (np.append(_FREQS[:-1], np.inf), np.ones(65), _CENTERS,
     "^freqs must hold only finite numbers$"),
    (_FREQS, np.where(_FREQS == 0.0, np.nan, 1.0), _CENTERS,
     "^psd must hold only finite numbers$"),
    (_FREQS, np.ones(65), np.array([-0.25, np.nan, 0.25]),
     "^centers must hold only finite numbers$"),
    (_FREQS, np.ones(65), [1 + 0j], r"^centers must hold only real numbers, got \(1\+0j\)$"),
    (_FREQS, np.ones(65), [object()], "^centers must hold only real numbers, got <object "),
    (_FREQS, np.ones(65), ["5"], "^centers must hold only real numbers, got '5'$"),
    (_FREQS, np.ones(65), [True], "^centers must hold only real numbers, got True$"),
    (_FREQS, np.ones(65), [0.0, 10 ** 400], "^centers must hold only finite numbers$"),
    (_FREQS, np.ones(65, dtype=complex), _CENTERS,
     r"^psd must hold only real numbers, got \(1\+0j\)$"),
    (_FREQS.astype(str), np.ones(65), _CENTERS, "^freqs must hold only real numbers, got '-0.5'$"),
    (_FREQS.reshape(5, 13), np.ones((5, 13)), _CENTERS,
     r"^freqs and psd must be 1-D and of equal length, got shapes \(5, 13\) and \(5, 13\)$"),
], ids=["unequal_lengths", "descending", "nan-frequency", "inf-frequency", "nan-density",
        "nan-center", "complex-center", "object-center", "text-center", "bool-center",
        "int-beyond-float-center", "complex-density", "text-frequency", "2-D"])
def test_bin_estimate_rejects_malformed_spectra(freqs, psd, centers, match):
    # the trapezoid integral needs an ascending grid: a descending one would
    # read -300 dBm in every bin; a NaN center or density value read NaN levels.
    # An array of complex numbers, bools, text or objects is no array of
    # real numbers, though numpy would cast some of them to floats
    with pytest.raises(ValueError, match=match):
        bin_estimate(freqs, psd, centers, 1.0 / 128)


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
    ("mask segment rbw_hz", lambda spec, v: MaskSegment(0.0, 1.0, 0.0, rbw_hz=v)),
    ("snr_db", lambda spec, v: awgn(modulate(P7, [1]), snr_db=v, seed=0)),
    ("origin", lambda spec, v: binned_power(spec, delta_f=1.0 / 128, ps_dbm=14.0, origin=v)),
    ("fraction", lambda spec, v: occupied_bandwidth(spec.params, v, spectrum=spec)),
    ("overlap", lambda spec, v: welch_psd(modulate(P7, [1]), 16, overlap=v))],
    ids=["delta_f", "ps_dbm", "f0", "f_max", "step", "rbw_hz", "snr_db", "origin", "fraction",
         "overlap"])
@pytest.mark.parametrize("value, kind", [(True, "a real number"), ("10", "a real number"),
                                         (np.nan, "a finite number"), (np.inf, "a finite number"),
                                         (-np.inf, "a finite number")],
                         ids=["bool", "str", "nan", "inf", "-inf"])
def test_real_arguments_reject_a_bool_or_a_string(spec7, name, call, value, kind):
    message = re.escape(f"{name} must be {kind}, got {value!r}")
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


def test_mask_segment_fields_are_kept_as_floats():
    seg = MaskSegment(np.int64(868_000_000), 868_600_000, np.float32(14.0), 1000)
    assert [type(getattr(seg, key)) for key in analysis._MASK_KEYS] == [float] * 4
    assert seg == MaskSegment(868.0e6, 868.6e6, 14.0, 1000.0)


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


def test_import_builds_no_csv_tables():
    # the CSV formatter's tables are built by the first CSV write, so
    # importing lorachirp (setup_s) stays as cheap as it was
    proc = _run_python("import lorachirp, lorachirp.cli; from lorachirp import _numtext; "
                       "print(_numtext._tables.cache_info().currsize)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


_CLI_SCIPY = """
import sys
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
print(before, "scipy.special" in scipy_modules())
"""


def test_time_domain_commands_load_no_scipy_and_spectrum_loads_scipy_special(tmp_path):
    proc = _run_python(_CLI_SCIPY, str(tmp_path / "sig.cf32"), str(tmp_path / "psd.csv"),
                       str(tmp_path / "lines.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] True"


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


@pytest.mark.parametrize("name", ["_kfun", "fresnel_spectrum"])
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


def test_mean_envelope_magnitude_loads_no_scipy():
    # scipy is loaded neither by the import nor by the call
    code = _FIRST_CALL + "print('scipy' in sys.modules)"
    proc = _run_python(code, "mean_envelope_magnitude", "0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[::2] == ["False", "False"]


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


@pytest.mark.parametrize("call, name, lo, hi", [
    (lambda v: LoraParams(sf=v, b=1.0), "sf", 1, 16),
    (spectral_efficiency, "sf", 1, None),
    (lambda v: reproduce_table([v]), "sf", 3, 12),
    (lambda v: payload_to_symbols(b"ab", v), "sf", 1, 16),
    (lambda v: modulate(P7, [1], oversample=v), "oversample", 1, None),
    (lambda v: awgn(modulate(P7, [1]), 10.0, seed=v), "seed", 0, None),
    (lambda v: welch_psd(modulate(P7, [1]), v), "segment_len", 2, 128),
], ids=["LoraParams", "spectral_efficiency", "reproduce_table", "payload_to_symbols",
        "oversample", "seed", "segment_len"])
def test_integer_arguments_check_their_range(call, name, lo, hi):
    for bad in (True, 7.0):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            call(bad)
    allowed = f"an integer >= {lo}" if hi is None else re.escape(f"in [{lo}, {hi}]")
    for bad in [lo - 1] + ([] if hi is None else [hi + 1]):
        with pytest.raises(ValueError, match=f"^{name} must be {allowed}, got {bad}$"):
            call(bad)
    for good in [lo] + ([] if hi is None else [hi]):
        call(good)


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
