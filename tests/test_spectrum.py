import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
import scipy.special
from scipy.special import polygamma

import lorachirp
from lorachirp import (LoraParams, fresnel_spectrum, occupied_bandwidth, spectrum, w_integral,
                       waveform_at, waveform_fourier_transform)
from lorachirp.spectrum import _kfun
from oracles import (chirp_integral_quadrature, continuous_psd_loop,
                     fourier_transform_quadrature, fresnel_quadrature,
                     lattice_sums_whole_table, psd_via_dft, transform_sums_loop)


def test_fresnel_at_zero():
    assert _kfun(0.0) == 0.0


def test_fresnel_at_one_frozen_values():
    # K = C + jS, frozen from the quadrature oracle of the defining integrals
    k = _kfun(1.0)
    assert k.real == pytest.approx(0.779893, abs=1e-6)
    assert k.imag == pytest.approx(0.438259, abs=1e-6)


def test_fresnel_is_odd():
    assert _kfun(-1.0) == -_kfun(1.0)


def test_fresnel_vs_quadrature_oracle():
    for x in np.logspace(-3, 3, 13):
        c_ref, s_ref = fresnel_quadrature(float(x))
        k = _kfun(float(x))
        assert abs(k.real - c_ref) < 1e-9 and abs(k.imag - s_ref) < 1e-9


@given(x=st.floats(-1e4, 1e4, allow_nan=False))
def test_fresnel_stays_bounded(x):
    k = _kfun(x)
    assert abs(k.real) <= 0.8 and abs(k.imag) <= 0.8


def test_fresnel_vectorized():
    k = _kfun(np.array([0.0, 1.0, -1.0]))
    assert k.shape == (3,)
    assert k[1] == -k[2]


def test_w_integral_empty_interval_is_zero():
    assert w_integral(0.3, 2.0, 1.5, 1.5) == pytest.approx(0.0, abs=1e-15)


@given(a=st.floats(-3, 3), b=st.floats(0.1, 4.0),
       t1=st.floats(-2, 2), dt=st.floats(0.0, 2.0))
def test_w_integral_matches_quadrature(a, b, t1, dt):
    val = w_integral(a, b, t1, t1 + dt)
    ref = chirp_integral_quadrature(a, b, t1, t1 + dt)
    assert abs(val - ref) < 1e-7


def test_w_integral_phase_free_reduction():
    # a = 0, b = 1/2: (1/sqrt(2)) * [K(sqrt(2) t2) - K(sqrt(2) t1)]
    got = w_integral(0.0, 0.5, 0.25, 1.75)
    ref = (_kfun(np.sqrt(2) * 1.75) - _kfun(np.sqrt(2) * 0.25)) / np.sqrt(2)
    assert got == pytest.approx(ref, abs=1e-14)


def test_w_integral_rejects_bad_arguments():
    with pytest.raises(ValueError, match="^b must be positive"):
        w_integral(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="^b must be positive"):
        w_integral(0.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="^need t1 <= t2"):
        w_integral(0.0, 1.0, 1.0, 0.0)
    # each of these once gave NaN, a RuntimeWarning, or took True as b = 1
    for args, match in [((np.nan, 1.0, 0.0, 1.0), "^a must hold only finite numbers$"),
                        (([0.0, np.inf], 1.0, 0.0, 1.0), "^a must hold only finite numbers$"),
                        (([0.0, 10**400], 1.0, 0.0, 1.0), "^a must hold only finite numbers$"),
                        # numpy would drop the imaginary part, with a ComplexWarning
                        ((np.array([1 + 1j]), 1.0, 0.0, 1.0),
                         r"^a must hold only real numbers, got \(1\+1j\)$"),
                        (([0.5, "5"], 1.0, 0.0, 1.0), "^a must hold only real numbers, got '0.5'$"),
                        (([True], 1.0, 0.0, 1.0), "^a must hold only real numbers, got True$"),
                        ((0.0, 1.0, 0.0, np.nan), "^t2 must be a finite number, got nan$"),
                        ((0.0, 1.0, -np.inf, 1.0), "^t1 must be a finite number, got -inf$"),
                        ((0.0, np.inf, 0.0, 1.0), "^b must be a finite number, got inf$"),
                        ((0.0, np.nan, 0.0, 1.0), "^b must be a finite number, got nan$"),
                        ((0.0, True, 0.0, 1.0), "^b must be a real number, got True$")]:
        with pytest.raises(ValueError, match=match):
            w_integral(*args)


@pytest.mark.parametrize("f", [np.nan, np.inf, -np.inf, [0.0, np.nan]],
                         ids=["nan", "inf", "-inf", "array-holding-nan"])
def test_fourier_transform_rejects_a_frequency_that_is_not_finite(f):
    with pytest.raises(ValueError, match="^f must hold only finite numbers$"):
        waveform_fourier_transform(LoraParams(sf=4, b=1.0), 3, f)


def test_fourier_transform_rejects_f_over_b_beyond_float_range():
    # the transform is taken at f/B: at B = 1e-300 Hz a 1 GHz offset has none
    with pytest.raises(ValueError, match=r"^f/B at b = 1e-300 Hz must hold only finite numbers$"):
        waveform_fourier_transform(LoraParams(sf=4, b=1e-300), 3, [0.0, 1e9])


def test_w_integral_and_fourier_transform_take_an_array_of_any_shape():
    # a 2-D `a` or `f` is the 1-D result reshaped, and a NaN anywhere in it
    # is the named ValueError (the finiteness check once reduced axis 0 only)
    p = LoraParams(sf=4, b=1.0)
    grid = np.linspace(-0.7, 0.9, 6)
    for fn, name in [(lambda v: w_integral(v, 1.0, 0.0, 1.0), "a"),
                     (lambda v: waveform_fourier_transform(p, 3, v), "f")]:
        np.testing.assert_array_equal(fn(grid.reshape(2, 3)), fn(grid).reshape(2, 3))
        assert fn(np.zeros((2, 3))).shape == (2, 3)
        bad = grid.reshape(2, 3).copy()
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must hold only finite numbers$"):
            fn(bad)


def test_fourier_transform_matches_direct_quadrature():
    p = LoraParams(sf=4, b=1.0)
    for l, f in [(0, 0.0), (3, 0.2), (11, -0.45), (15, 1.3)]:
        got = waveform_fourier_transform(p, l, f)
        ref = fourier_transform_quadrature(p, l, f)
        assert abs(got - ref) < 1e-9, (l, f)


def test_fourier_transform_parseval():
    p = LoraParams(sf=5, b=1.0)
    f = np.arange(-8 * 16 * p.m, 8 * 16 * p.m + 1) / (16 * p.m)
    for l in (0, p.m // 2):
        energy = np.trapezoid(np.abs(waveform_fourier_transform(p, l, f)) ** 2, f)
        assert energy == pytest.approx(p.ts, rel=1e-3)


def test_fourier_transform_symbols_differ_but_share_energy():
    p = LoraParams(sf=4, b=1.0)
    f = np.linspace(-2, 2, 257)
    x0 = np.abs(waveform_fourier_transform(p, 0, f))
    x8 = np.abs(waveform_fourier_transform(p, p.m // 2, f))
    assert np.max(np.abs(x0 - x8)) > 1e-3
    e0 = np.trapezoid(x0 ** 2, f)
    e8 = np.trapezoid(x8 ** 2, f)
    assert e0 == pytest.approx(e8, rel=5e-3)


def test_continuous_psd_is_symmetric_and_nonnegative():
    # Time reversal maps symbol l onto (M - l) mod M, so
    # X(-f; l) = e^{j*2*pi*f*Ts} * X(f; (M - l) mod M) and sum_l |X|^2 and
    # |sum_l X| are even.  The engine computes f >= 0 only and mirrors it, so
    # the evenness is checked on the waveform and the per-symbol transforms.
    for sf in (3, 5, 8):
        p = LoraParams(sf=sf, b=125e3)
        t = (np.arange(999) + 0.37) * p.ts / 999
        for l in range(p.m):
            reversed_l = waveform_at(p, l, p.ts - t)
            assert np.max(np.abs(reversed_l - waveform_at(p, (p.m - l) % p.m, t))) <= 1e-11
        # on and off the lattices n*B/(k*M)
        f = p.b / p.m * np.array([0.0, 0.37, 1.0, 2.5, 7.13, p.m / 2 + 0.41, 1.7 * p.m])
        sum_abs2, sum_x = transform_sums_loop(p, f)
        sum_abs2_neg, sum_x_neg = transform_sums_loop(p, -f)
        np.testing.assert_allclose(sum_abs2_neg, sum_abs2, rtol=1e-11, atol=0)
        np.testing.assert_allclose(np.abs(sum_x_neg), np.abs(sum_x), rtol=0,
                                   atol=1e-11 * np.sqrt(p.m * sum_abs2).max())
    res = fresnel_spectrum(LoraParams(sf=5, b=1.0), f_max=3.0)
    assert np.all(res.continuous >= 0)
    assert np.array_equal(res.grid, -res.grid[::-1])
    assert np.array_equal(res.continuous, res.continuous[::-1])
    assert np.array_equal(res.line_frequencies, -res.line_frequencies[::-1])
    assert np.array_equal(res.line_powers, res.line_powers[::-1])


def test_continuous_psd_integrates_to_one_minus_discrete_share():
    p = LoraParams(sf=5, b=1.0)
    res = fresnel_spectrum(p)  # step B/(64M) over |f| <= 8B
    integral = np.trapezoid(res.continuous, res.grid)
    assert integral == pytest.approx(1.0 - 1.0 / p.m, rel=5e-3)


def test_continuous_psd_shape_plateau_and_rolloff():
    # flat near 0 dB (relative to B) for |f| < B/2, steep drop beyond:
    # power conservation pins the plateau at 10*log10(1 - 1/M) ~ 0 dB
    p = LoraParams(sf=7, b=1.0)
    res = fresnel_spectrum(p, f_max=1.0)
    plateau = res.continuous[np.abs(res.grid) <= 0.4]
    plateau_db = 10 * np.log10(np.mean(plateau) * p.b)
    assert -2.0 < plateau_db < 1.0
    assert res.grid[-1] == 1.0
    assert 10 * np.log10(res.continuous[-1] * p.b) < -25.0


def test_lines_sit_on_exact_multiples_of_b_over_m():
    p = LoraParams(sf=3, b=125e3)
    lines = fresnel_spectrum(p, f_max=4 * p.b, step=p.b / p.m).lines
    n = np.round(lines[:, 0] / (p.b / p.m))
    np.testing.assert_allclose(lines[:, 0], n * p.b / p.m, rtol=0, atol=1e-6)


def test_line_power_totals():
    p = LoraParams(sf=5, b=1.0)
    lines = fresnel_spectrum(p, f_max=4 * p.b, step=p.b / p.m).line_powers
    assert abs(lines.sum() - 1.0 / p.m) < 1e-4
    # SF=12 line share is 0.024% of the signal power
    assert 1.0 / LoraParams(sf=12, b=1.0).m == pytest.approx(0.024e-2, abs=5e-6)


def test_dft_path_grid_spacing_without_padding():
    p = LoraParams(sf=4, b=32.0)
    res = psd_via_dft(p, zero_pad_factor=1)
    assert np.diff(res.grid)[0] == pytest.approx(p.b / p.m, rel=1e-12)


def test_dft_path_center_line_matches_fresnel_path():
    p = LoraParams(sf=3, b=1.0)
    res = psd_via_dft(p, zero_pad_factor=1, n_per_symbol=64 * p.m)
    i0 = np.argmin(np.abs(res.line_frequencies))
    lines = fresnel_spectrum(p, f_max=4 * p.b, step=p.b / p.m).lines
    ref = lines[np.argmin(np.abs(lines[:, 0])), 1]
    assert res.line_powers[i0] == pytest.approx(ref, rel=1e-6)


def test_dft_path_agrees_with_fresnel_path():
    p = LoraParams(sf=3, b=1.0)
    res = psd_via_dft(p, zero_pad_factor=2, n_per_symbol=128 * p.m)
    sel = np.abs(res.grid) <= 2.0 * p.b
    ref = fresnel_spectrum(p, f_max=2.0 * p.b, step=p.b / (2 * p.m))
    np.testing.assert_allclose(res.grid[sel], ref.grid, rtol=0, atol=1e-12)
    g_fr = ref.continuous
    assert np.max(np.abs(g_fr - res.continuous[sel])) < 1e-6 * g_fr.max()


@pytest.mark.parametrize("sf", [3, 5, 7, 10])
def test_dft_path_conserves_power(sf):
    p = LoraParams(sf=sf, b=1.0)
    k = max(1, 128 // p.m)
    res = psd_via_dft(p, zero_pad_factor=k, n_per_symbol=16 * p.m)
    total = np.trapezoid(res.continuous, res.grid) + res.line_powers.sum()
    assert total == pytest.approx(1.0, abs=5e-3)


def test_fresnel_spectrum_assembles_both_parts():
    p = LoraParams(sf=3, b=1.0)
    res = fresnel_spectrum(p, f_max=4.0, step=1.0 / (16 * p.m))
    assert res.grid[0] == -4.0 and res.grid[-1] == 4.0
    assert np.all(res.continuous >= 0)
    assert len(res.lines) == 2 * 4 * p.m + 1
    assert res.params is p


@pytest.mark.parametrize("sf,k", [pytest.param(sf, 2 if sf >= 10 else 8, id=str(sf))
                                  for sf in (3, 7, 10, 12)]
                         + [pytest.param(sf, 1, id=f"{sf}-k1") for sf in (3, 7, 10, 12)])
def test_lattice_engine_matches_per_symbol_loop(sf, k):
    # 201 points spread over |f| <= 8B, edges included: the deepest tail
    # point sits about 88 dB below the peak at SF 12; k = 1 puts every
    # point on a line, where the engine leaves out the beta terms
    p = LoraParams(sf=sf, b=1.0)
    res = fresnel_spectrum(p, step=p.b / (k * p.m))
    assert res.grid[-1] == 8.0 * p.b
    idx = np.linspace(0, len(res.grid) - 1, 201).astype(int)
    ref = continuous_psd_loop(p, res.grid[idx])
    assert np.all(ref > 0)
    got = res.continuous[idx]
    assert np.max(np.abs(got - ref)) <= 1e-12 * ref.max()
    assert np.max(np.abs(got - ref) / ref) <= 1e-4


@pytest.mark.parametrize("sf", [3, 5])
def test_transforms_share_their_magnitude_on_the_lines(sf):
    # at f = n*B/M, w = 1 and beta = 0: |X(f;l)| = |alpha|/(2*sqrt(b)) for every l,
    # also beyond |n| = 2M
    p = LoraParams(sf=sf, b=1.0)
    f = np.arange(-3 * p.m, 3 * p.m + 1) * p.b / p.m
    mag = np.array([np.abs(waveform_fourier_transform(p, l, f)) for l in range(p.m)])
    np.testing.assert_allclose(mag, np.broadcast_to(mag[0], mag.shape), rtol=1e-11, atol=0)


@pytest.mark.parametrize("sf", [3, 7, 10])
def test_continuous_psd_on_the_lines_is_m_minus_1_times_the_line(sf):
    # equal magnitudes give sum_l |X|^2 = |sum_l X|^2, so
    # Gc(n*B/M) = (M - 1)*Ts*P_line(n) at every point of a k = 1 grid
    p = LoraParams(sf=sf, b=125e3)
    res = fresnel_spectrum(p, step=p.b / p.m)
    assert np.array_equal(res.line_frequencies, res.grid)
    np.testing.assert_allclose(res.continuous, (p.m - 1) * p.ts * res.line_powers,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("sf", [1, 3, 7, 10, 12])
def test_line_window_of_e_is_a_quadratic_gauss_sum(sf):
    # on the line n*B/M the M phases E_l = exp(-j*pi*u^2/M), u = l - M/2 - n,
    # sum to sqrt(M)*e^{-j*pi/4} for every n: the identity that gives each
    # line from two table values
    M = 2 ** sf
    for n in (0, 1, M // 2 + 3, 4 * M):
        u = np.arange(M) - M // 2 - n
        s_e = np.sum(spectrum._lattice_phase(M, 1, u))
        assert abs(s_e - np.sqrt(M) * np.exp(-1j * np.pi / 4)) <= 1e-12 * np.sqrt(M)


@pytest.mark.parametrize("sf,k", [(3, 64), (7, 64), (12, 1), (12, 2), (16, 1), (5, 3)])
def test_lattice_phase_has_the_bits_of_the_complex_exp(sf, k):
    # cos and sin of one real phase give the bits of the complex exp it
    # replaced, signed zeros included: compared as uint64, on a span that
    # crosses j = 0 and holds a whole period k^2*M on either side
    M = 2 ** sf
    period = k * k * M
    j = np.arange(-period - 5, period + 6)
    want = np.exp(-1j * np.pi * ((j * j) % (2 * k * k * M)) / (k * k * M))
    got = spectrum._lattice_phase(M, k, j)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("sf,k,f_max", [(3, 1, 8.0), (7, 1, 8.0), (10, 1, 2.0), (12, 1, 8.0),
                                        (9, 16, 0.25), (5, 3, 8.0), (7, 64, 8.0)],
                         ids=["k1-sf3", "k1-sf7", "k1-sf10", "k1-sf12", "k16-0.25B", "k3-8B",
                              "k64-8B"])
def test_window_sums_are_built_only_on_the_psd_grid(monkeypatch, sf, k, f_max):
    # the lines take two table values each, so k = 1 builds no window sum,
    # and k > 1 builds them for the grid's n = 0..round(f_max/step) only,
    # from prefix sums of the four columns over each of the k*M + n + 1
    # table points once, whether the table is built at once or in parts
    # (k64-8B, 73 729 points in eight fills)
    calls = {"prefixed": 0, "points": 0}

    def prefix_spy(values, k, out):
        calls["prefixed"] += len(values)
        return strided_prefix(values, k, out)

    def sums_spy(M, d_top, *args):
        calls["points"] += len(d_top)
        return factorized_sums(M, d_top, *args)

    strided_prefix, factorized_sums = spectrum._strided_prefix, spectrum._factorized_sums
    monkeypatch.setattr(spectrum, "_strided_prefix", prefix_spy)
    monkeypatch.setattr(spectrum, "_factorized_sums", sums_spy)
    p = LoraParams(sf=sf, b=1.0)
    res = fresnel_spectrum(p, f_max=f_max, step=p.b / (k * p.m))
    n = len(res.grid) // 2
    assert n == round(f_max * k * p.m)
    assert len(res.lines) == 2 * (n // k) + 1
    assert calls == ({"prefixed": 0, "points": 0} if k == 1
                     else {"prefixed": 4 * (k * p.m + n + 1), "points": n + 1})


@pytest.mark.parametrize("sf,k,f_max", [(9, 16, 0.25), (5, 3, 1.5), (7, 4, 3.9), (4, 2, 0.5)])
def test_a_narrow_grid_is_the_middle_of_the_4b_grid(sf, k, f_max):
    # a narrow grid builds its own, smaller table: each line is two table
    # values, the same bits as on the 4B grid, while the window sums start
    # at the table's bottom and so move the PSD by rounding alone (measured
    # within 6.3e-16 of the peak)
    p = LoraParams(sf=sf, b=1.0)
    narrow = fresnel_spectrum(p, f_max=f_max, step=p.b / (k * p.m))
    wide = fresnel_spectrum(p, f_max=4.0, step=p.b / (k * p.m))
    n, mid = len(narrow.grid) // 2, len(wide.grid) // 2
    middle = slice(mid - n, mid + n + 1)
    assert np.array_equal(narrow.grid, wide.grid[middle])
    assert np.array_equal(narrow.lines, wide.lines[mid // k - n // k:mid // k + n // k + 1])
    peak = wide.continuous.max()
    assert np.max(np.abs(narrow.continuous - wide.continuous[middle])) <= 2e-15 * peak


@pytest.mark.parametrize("sf", [7, 9, 12])
def test_far_lines_follow_the_tail_law(sf):
    # beyond the band D is the asymptotic series, whose leading terms give
    # P_n = M/(4*pi^2*(n^2 - M^2/4)^2) * (1 - 21*M^2/(4*pi^2*n^4) + ...);
    # at 2B, 8B and 31B the relative error of the leading law is within M^2/n^4
    p = LoraParams(sf=sf, b=1.0)
    M = p.m
    lines = fresnel_spectrum(p, f_max=31.0, step=1.0 / M).lines
    n = np.array([2, 8, 31]) * M
    law = M / (4 * np.pi ** 2 * (n ** 2.0 - M ** 2 / 4) ** 2)
    # the relative error in units of M^2/n^4
    scaled = (lines[len(lines) // 2 + n, 1] / law - 1) * n ** 4.0 / M ** 2
    assert np.all(np.abs(scaled) <= 1)
    # the first correction's sign and size at 8B: -0.546 against 21/(4*pi^2) = 0.532
    assert -0.56 <= scaled[1] <= -0.52


def _tail_law_remainder(M: int, n_last: int) -> float:
    """sum over n > n_last of M/(4*pi^2*(n^2 - a^2)^2), a = M/2, in closed
    form: 1/(n^2 - a^2)^2 = [1/(n-a)^2 + 1/(n+a)^2]/(4a^2)
    - [1/(n-a) - 1/(n+a)]/(4a^3), whose first sums are trigamma values and
    whose last telescopes to the M terms 1/m, n_last - a < m <= n_last + a."""
    a = M // 2
    squares = (polygamma(1, n_last + 1 - a) + polygamma(1, n_last + 1 + a)) / (4 * a * a)
    harmonic = math.fsum(1.0 / m for m in range(n_last + 1 - a, n_last + a + 1)) / (4 * a ** 3)
    return M / (4 * math.pi ** 2) * (squares - harmonic)


@pytest.mark.parametrize("sf", [7, 9])
@pytest.mark.parametrize("f_max", [8.0, 32.0])
def test_lines_carry_one_mth_of_the_power(sf, f_max):
    # the paper's 1/M: M * (sum of the computed lines + the tail law beyond
    # the last line, both signs) is 1 (measured within 1e-15)
    p = LoraParams(sf=sf, b=1.0)
    lines = fresnel_spectrum(p, f_max=f_max, step=p.b / (2 * p.m)).lines
    n_last = round(lines[-1, 0] * p.m)
    assert n_last == f_max * p.m
    total = p.m * (math.fsum(lines[:, 1]) + 2 * _tail_law_remainder(p.m, n_last))
    assert abs(total - 1.0) <= 1e-13


@pytest.mark.parametrize("sf,n_max", [(3, None), (7, None), (10, 1024)])
def test_line_powers_match_per_symbol_loop(sf, n_max):
    # the 4M lines of the k = 1 lattice, or the |n| <= n_max of them
    p = LoraParams(sf=sf, b=1.0)
    lines = fresnel_spectrum(p, f_max=4 * p.b, step=p.b / p.m).lines
    if n_max is not None:
        lines = lines[4 * p.m - n_max:4 * p.m + n_max + 1]
    _, sum_x = transform_sums_loop(p, lines[:, 0])
    ref = np.abs(sum_x) ** 2 / (p.ts ** 2 * p.m ** 2)
    assert np.max(np.abs(lines[:, 1] - ref)) <= 1e-16


@pytest.mark.parametrize("f_max,n_lines", [(2.0, 2 * 8), (4.0, 4 * 8), (8.0, 8 * 8),
                                           (8.1, 8 * 8)])
def test_fresnel_spectrum_lines_cover_the_grid(f_max, n_lines):
    p = LoraParams(sf=3, b=1.0)
    res = fresnel_spectrum(p, f_max=f_max, step=1.0 / (4 * p.m))
    np.testing.assert_array_equal(res.line_frequencies,
                                  np.arange(-n_lines, n_lines + 1) / p.m)


@pytest.mark.parametrize("sf,step,n_points", [(3, 1.0 / (64 * 8), 8193),
                                              (7, 1.0 / (64 * 128), 131073),
                                              (12, 1.0 / 8192, 131073)],
                         ids=["sf3", "sf7", "sf12"])
def test_fresnel_spectrum_default_grid(sf, step, n_points):
    # step max(B/(64M), B/8192) over |f| <= 8B
    res = fresnel_spectrum(LoraParams(sf=sf, b=1.0))
    assert len(res.grid) == n_points
    assert res.grid[-1] == 8.0 and res.grid[0] == -8.0
    np.testing.assert_allclose(np.diff(res.grid), step, rtol=1e-12)


@pytest.mark.parametrize("step", [(1 + 1e-6) / 64, 1.0 / 100, 2.0 / 8, 0.0, -1.0 / 64,
                                  float("nan"), float("inf")])
def test_fresnel_spectrum_rejects_step_off_the_lattice(step):
    p = LoraParams(sf=3, b=1.0)  # lattice steps are 1/(8k)
    # a step that is not a finite number is no lattice step either
    match = r"B/\(k\*M\)" if np.isfinite(step) else f"^step must be a finite number, got {step!r}$"
    with pytest.raises(ValueError, match=match):
        fresnel_spectrum(p, step=step)


def test_fresnel_spectrum_takes_a_step_within_tolerance():
    p = LoraParams(sf=3, b=1.0)
    res = fresnel_spectrum(p, f_max=1.0, step=(1 + 1e-11) / 128)
    np.testing.assert_array_equal(res.grid, np.arange(-128, 129) / 128)


@pytest.mark.parametrize("sf", [3, 7, 12])
@pytest.mark.parametrize("grid", ["default", "mask_check", "occupied_bandwidth", "narrow"])
def test_fresnel_spectrum_lines_equal_discrete_spectrum_lines(sf, grid):
    # the lines are every k-th point of the spectrum's own lattice sums:
    # the same bits as the k = 1 spectrum over the same span, every point
    # of which is a line
    p = LoraParams(sf=sf, b=125e3)
    k, f_max = {"default": (max(1, min(64, 8192 // p.m)), 8.0 * p.b),
                "mask_check": (4, 8.0 * p.b),
                "occupied_bandwidth": (max(1, 512 // p.m), 4.0 * p.b),
                "narrow": (4, 0.5 * p.b)}[grid]
    res = fresnel_spectrum(p, f_max=f_max, step=p.b / (k * p.m))
    n = len(res.grid) // 2
    ref = fresnel_spectrum(p, f_max=(n // k) * p.b / p.m, step=p.b / p.m)
    assert np.array_equal(res.lines, ref.lines)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("sf,k,f_max", [(5, 1, None), (4, 3, None), (3, 64, None),
                                        (5, 3, 1.5)], ids=["k1", "k3", "k64", "crop"])
def test_fresnel_spectrum_is_the_same_across_chunk_boundaries(monkeypatch, chunk, sf, k,
                                                              f_max):
    # every block of the lattice walk reads and writes its own slices, so
    # where the blocks end changes no bit, on the default grids and on one
    # of 1.5B
    p = LoraParams(sf=sf, b=1.0)
    ref = fresnel_spectrum(p, f_max=f_max, step=p.b / (k * p.m))
    monkeypatch.setattr(spectrum, "_CHUNK", chunk)
    got = fresnel_spectrum(p, f_max=f_max, step=p.b / (k * p.m))
    assert len(ref.grid) // 2 + 1 > 2 * chunk  # three blocks or more
    for name in ("grid", "continuous", "lines"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def _lattice_cases():
    """(sf, k, f_max in B, _CHUNK or None) for the streamed lattice engine:
    the default grids, strides whose blocks end off the stride, narrow and
    wide spans, the mask-check grid and block sizes about k*M."""
    cases = [(sf, max(1, min(64, 8192 // 2 ** sf)), 8.0, None) for sf in range(3, 17)]
    cases += [(9, 3, 8.0, None), (7, 7, 8.0, None), (12, 3, 1.5, None), (5, 7, 64.0, None),
              (12, 16, 0.25, None), (9, 16, 0.25, None), (10, 4, 1.5, None), (5, 3, 1.5, None),
              (9, 4, 8.0, None), (12, 4, 8.0, None), (3, 4, 8.0, None), (12, 1, 1.5, None),
              (7, 64, 1.5, None), (10, 7, 1.5, None)]
    for sf, k in ((5, 3), (4, 7), (6, 1)):
        for chunk in (1, 7, 64, k * 2 ** sf - 1, k * 2 ** sf + 1):
            cases.append((sf, k, 8.0, chunk))
    return cases


@pytest.mark.parametrize("sf,k,f_max,chunk", _lattice_cases())
def test_streamed_lattice_sums_equal_the_whole_table(monkeypatch, sf, k, f_max, chunk):
    # the window and its refills change no bit of any sum or line: every
    # prefix sum is added in the order of one cumsum over the whole table
    M = 2 ** sf
    n = round(f_max * k * M)
    if chunk is not None:
        monkeypatch.setattr(spectrum, "_CHUNK", chunk)
    got = spectrum._lattice_sums(M, k, n)
    ref = lattice_sums_whole_table(M, k, n)
    for name, g, r in zip(("psd", "lines"), got, ref):
        assert g.shape == r.shape and np.array_equal(g, r), name


@pytest.mark.parametrize("sf,f_max,k,bound_mb", [(7, None, None, 4.0), (12, None, None, 5.0),
                                                 (5, 256.0, 64, 28.0)],
                         ids=["sf7-default", "sf12-default", "sf5-256B-k64"])
def test_fresnel_spectrum_peak_memory(sf, f_max, k, bound_mb):
    # the table streams through a window of k*M + max(2*_CHUNK, k*M) + 1
    # points; the rest is the results.  Measured peaks: 3.25, 4.26 and
    # 25.5 MB (8.87, 9.25 and 65.3 MB with the whole table held); the
    # SF 5 call's two-sided results alone take about 21 MB
    p = LoraParams(sf=sf, b=1.0)
    step = None if k is None else p.b / (k * p.m)

    def call():
        return fresnel_spectrum(p, f_max=f_max, step=step)

    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


@pytest.mark.parametrize("sf,f_max,step,fills", [
    (5, None, None, 1), (5, 1.0, 1.0 / 64, 1), (5, 8.0, 1.0 / 32, 1), (5, 300.0, 1.0 / 32, 1),
    (10, "mask", None, 2), (11, "mask", None, 2), (7, 1.5, 1.0 / 8192, 2)],
    ids=["None-None", "1.0-0.015625", "8.0-0.03125", "300.0-0.03125", "sf10-mask", "sf11-mask",
         "sf7-k64-1.5"])
def test_fresnel_spectrum_evaluates_one_fresnel_table(monkeypatch, sf, f_max, step, fills):
    # each fill of the table evaluates the part of the band it holds: the
    # shipped-mask grids at SF 10 and 11 (1118 + 331 and 1810 + 237
    # points) and the 1.5B span at SF 7, k = 64 (4096 + 4095) take two
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return scipy_fresnel(x)

    scipy_fresnel = scipy.special.fresnel
    monkeypatch.setattr(scipy.special, "fresnel", counted)
    p = LoraParams(sf=sf, b=125e3 if f_max == "mask" else 1.0)
    if f_max == "mask":
        from lorachirp.analysis import _mask_spectrum
        mask = lorachirp.MaskSpec.from_json(lorachirp.cli.example_mask_path())
        got = _mask_spectrum(p, mask, [868.3e6])
    else:
        got = fresnel_spectrum(p, f_max=f_max, step=step)
    k = round(p.b / (p.m * (got.grid[1] - got.grid[0])))
    # scipy sees only |x| < 8 of the table, x = sqrt(2/M)*j/k for
    # -k*M/2 - n <= j <= k*M/2, and each of those points once, in
    # ascending order, whichever fill holds it
    n = len(got.grid) // 2
    j = np.arange(-(k * p.m // 2) - n, k * p.m // 2 + 1)
    x = j / k * np.sqrt(2.0 / p.m)
    np.testing.assert_array_equal(np.concatenate(calls), x[np.abs(x) < 8])
    assert sum(len(c) > 0 for c in calls) == fills
    if sf % 2:
        # at odd SF x = j/(k*2^((SF-1)/2)) is exact: |x| < 8 is
        # |j| < 8k*2^((SF-1)/2), and the table's top is j = k*M/2
        r = 8 * k * 2 ** ((sf - 1) // 2)
        np.testing.assert_array_equal(np.concatenate(calls),
                                      np.arange(-r + 1, min(r, k * p.m // 2 + 1)) / (r / 8))


_REFERENCE = json.loads(Path(__file__).with_name("fresnel_reference.json").read_text())


@pytest.mark.parametrize("sf,k", [(7, 2), (8, 2), (12, 1), (16, 1)])
def test_lattice_fresnel_table_matches_40_digit_values(sf, k):
    # D = K + (1+j)/2 at x = sqrt(2/M)*j/k against mpmath (make_fresnel_reference.py)
    rows = [r for r in _REFERENCE["table"] if (r["sf"], r["k"]) == (sf, k)]
    M = 2 ** sf
    j = np.array([r["j"] for r in rows])
    ref = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    d = spectrum._fresnel_table(M, k, j, spectrum._lattice_phase(M, k, j))
    rel = np.abs(d - ref) / np.abs(ref)
    x = np.sqrt(2.0 / M) * (j / k)
    tail = np.abs(x) >= 8
    # both signs, out to |x| = 5e4, and the points either side of |x| = 8
    assert x.min() < -4.9e4 and x.max() > 4.9e4
    for side in (-1, 1):
        near = side * x
        assert np.any((near > 7.9) & (near < 8)) and np.any((near >= 8) & (near < 8.1))
    # the series with E's exact phase: a few ulp, at even SF too
    assert rel[tail].max() <= 1e-15
    # |x| < 8 is scipy's fresnel at the rounded x: at even SF its phase
    # pi*x^2/2 is off by about x^2*eps, 1e-14 relative where |x| nears 8
    assert rel[~tail].max() <= 5e-14


@pytest.mark.parametrize("sf", [9, 12])
def test_lines_match_40_digit_per_symbol_sums(sf):
    # |sum_l X|^2/M^4 at 8 n from the band centre to 8B, summed symbol by
    # symbol in mpmath: each line from two table values is within 2e-15
    # (the window sums of E gave up to 2.0e-14)
    rows = [r for r in _REFERENCE["lines"] if r["sf"] == sf]
    assert len(rows) == 8
    res = fresnel_spectrum(LoraParams(sf=sf, b=1.0), step=1.0 / 2 ** sf)
    mid = len(res.lines) // 2
    for sign in (1, -1):
        rel = [abs(res.line_powers[mid + sign * r["n"]] / float(r["power"]) - 1) for r in rows]
        assert max(rel) <= 2e-15


@pytest.mark.parametrize("sf", [7, 8])
def test_fresnel_spectrum_matches_40_digit_psd(sf):
    # Gc just off the lines at 8B, 32B and 128B, k = 2, against mpmath
    k, M = 2, 2 ** sf
    res = fresnel_spectrum(LoraParams(sf=sf, b=1.0), f_max=128.0, step=1.0 / (k * M))
    mid = len(res.grid) // 2
    rows = [r for r in _REFERENCE["psd"] if (r["sf"], r["k"]) == (sf, k)]
    assert [r["n"] for r in rows] == [8 * k * M + 1, 32 * k * M + 1, 128 * k * M - 1]
    # Gc is even, so each reference value is read at +n and at -n
    for sign in (1, -1):
        rel = [abs(res.continuous[mid + sign * r["n"]] - float(r["gc"])) / float(r["gc"])
               for r in rows]
        assert max(rel) <= 5e-10
        # the far tail: with scipy's rounded phase, SF 8 was 5.5e-9 off at 128B
        assert rel[-1] <= 1e-10


@pytest.mark.parametrize("sf,k", [(7, 64), (8, 32), (9, 16), (10, 8), (12, 2)])
def test_default_grid_psd_matches_40_digit_values(sf, k):
    # Gc off the lines at about B, 4B and 8B on the grids `lorachirp
    # spectrum` writes by default, against mpmath
    M = 2 ** sf
    res = fresnel_spectrum(LoraParams(sf, 1.0))
    mid = len(res.grid) // 2
    rows = [r for r in _REFERENCE["psd"] if (r["sf"], r["k"]) == (sf, k)]
    assert [r["n"] for r in rows] == [k * M + 1, 4 * k * M + 1, 8 * k * M - 1]
    for sign in (1, -1):
        rel = [abs(res.continuous[mid + sign * r["n"]] - float(r["gc"])) / float(r["gc"])
               for r in rows]
        assert [res.grid[mid + sign * r["n"]] * (k * M) for r in rows] == [
            sign * r["n"] for r in rows]
        assert max(rel) <= 1e-12


@pytest.mark.parametrize("call,named", [
    (lambda p: fresnel_spectrum(p, f_max=1e15), "f_max = 1000000000000000.0 Hz"),
    (lambda p: fresnel_spectrum(p, f_max=1e300, step=p.b / p.m), "f_max = 1e+300 Hz"),
    (lambda p: fresnel_spectrum(p, step=1e-7), "grid step 1e-07 Hz"),
], ids=["f_max", "f_max_overflow", "step"])
def test_oversized_lattice_raises_before_allocating(call, named):
    # each table would take terabytes or more, which numpy refuses outright
    with pytest.raises(ValueError, match="more than the 4194304") as info:
        call(LoraParams(sf=7, b=125e3))
    assert str(info.value).startswith(named)


def test_a_step_far_off_the_table_quotes_k_in_64_characters():
    # k has 305 digits here; the message names it by its first 64 and its length
    with pytest.raises(ValueError) as info:
        fresnel_spectrum(LoraParams(sf=16, b=1e300), step=1e-9)
    assert str(info.value).startswith("grid step 1e-09 Hz (k = 1525878906250000016752721602")
    assert "... (305 characters))" in str(info.value)
    assert len(str(info.value)) < 200


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sf", [3, 7, 12, 16])
def test_b_only_scales_the_spectrum(sf):
    # the kernel is computed at B = 1, so at every B the line powers are
    # those of B = 1 and the density is B = 1's divided by B, bit for bit;
    # carried through the kernel, B^2/(2M), Ts and Ts^2 over- or underflowed
    # at both ends of this range (a PSD and lines of zeros at 1e160)
    one = LoraParams(sf=sf, b=1.0)
    ref = fresnel_spectrum(one)
    x_ref = waveform_fourier_transform(one, 3, 0.3)
    width_ref = occupied_bandwidth(one, 0.99)
    for b in (1e-300, 1e-150, 125e3, 1e160, 1e300):
        p = LoraParams(sf=sf, b=b)
        res = fresnel_spectrum(p)
        assert np.array_equal(res.line_powers, ref.line_powers), b
        assert np.array_equal(res.continuous, ref.continuous / b), b
        assert np.all(np.isfinite(res.continuous)), b
        # the grid and the line frequencies are B/(k*M) and B/M apart
        for got, want in ((res.grid, ref.grid), (res.line_frequencies, ref.line_frequencies)):
            assert np.allclose(got / b, want, rtol=1e-15, atol=0.0), b
        x = b * waveform_fourier_transform(p, 3, 0.3 * b)
        assert abs(x - x_ref) <= 1e-14 * abs(x_ref), b
        assert occupied_bandwidth(p, 0.99) / b == pytest.approx(width_ref, rel=1e-13, abs=0.0), b


def test_a_bandwidth_beyond_the_grid_range_is_named():
    # at SF 16 and B = 4e-304 the step B/M is the subnormal 6.1e-309 Hz,
    # whose multiples are no uniform grid; at B = 3e307 the default span
    # 8B overflows, an f_max the caller never gave
    with pytest.raises(ValueError, match=r"^b = 4e-304 Hz gives a grid step B/\(k\*M\) = "
                                         r"6\.1\d*e-309 Hz \(k = 1\) that is not a normal float$"):
        fresnel_spectrum(LoraParams(sf=16, b=4e-304))
    with pytest.raises(ValueError, match=r"^b = 3e\+307 Hz gives a default span \|f\| <= 8B "
                                         r"beyond float range$"):
        fresnel_spectrum(LoraParams(sf=7, b=3e307))
    # a span the caller gives is taken as it is
    res = fresnel_spectrum(LoraParams(sf=7, b=3e307), f_max=3e307)
    assert res.grid[-1] == 3e307 and np.all(np.isfinite(res.continuous))


@pytest.mark.filterwarnings("error")
def test_line_frequencies_near_the_top_of_float_range():
    # m*(B/M), as the grid is i*step: m*B would overflow before the division
    p = LoraParams(sf=7, b=1e307)
    res = fresnel_spectrum(p)
    n = len(res.lines) // 2
    assert np.array_equal(res.line_frequencies, np.arange(-n, n + 1) * (p.b / p.m))
    assert res.line_frequencies[-1] == res.grid[-1] == 8.0 * p.b


def test_a_lattice_beyond_float_range_reads_inf_points():
    # k = B/(M*step) is about 1.5e304 here, so kM + 1 is an int that no
    # float holds: the size is given as inf, not an OverflowError raised
    with pytest.raises(ValueError, match=r"needs a lattice table of inf points, more than"):
        fresnel_spectrum(LoraParams(sf=16, b=1e300), step=1e-9)


def test_lattice_size_bound_is_exact(monkeypatch):
    # k*M + n + 1 points: at SF 3, k = 2, f_max = 2B (n = 32) it is 49
    p = LoraParams(sf=3, b=1.0)
    monkeypatch.setattr(spectrum, "_MAX_LATTICE", 49)
    fresnel_spectrum(p, f_max=2.0, step=1.0 / 16)
    with pytest.raises(ValueError, match="f_max = 2.0625 Hz"):
        fresnel_spectrum(p, f_max=2.0625, step=1.0 / 16)
    # a step's smallest table is kM + 1 points: a limit of 24 holds k = 2
    # up to n = 7, and no table of k = 3
    monkeypatch.setattr(spectrum, "_MAX_LATTICE", 24)
    fresnel_spectrum(p, f_max=7.0 / 16, step=1.0 / 16)
    with pytest.raises(ValueError, match=r"^grid step 0.041666666666666664 Hz \(k = 3\) needs"):
        fresnel_spectrum(p, f_max=1.0, step=1.0 / 24)


def test_public_names_resolve():
    for name in lorachirp.__all__:
        assert getattr(lorachirp, name) is not None, name
