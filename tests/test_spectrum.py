import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lorachirp
from lorachirp import (LoraParams, fresnel_spectrum, spectrum, w_integral,
                       waveform_fourier_transform)
from lorachirp.spectrum import _kfun
from oracles import (chirp_integral_quadrature, continuous_psd_loop,
                     fourier_transform_quadrature, fresnel_quadrature,
                     psd_via_dft, transform_sums_loop)


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
    with pytest.raises(ValueError):
        w_integral(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        w_integral(0.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        w_integral(0.0, 1.0, 1.0, 0.0)


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
    p = LoraParams(sf=5, b=1.0)
    g = fresnel_spectrum(p, f_max=3.0).continuous
    assert np.all(g >= 0)
    np.testing.assert_allclose(g[::-1], g, rtol=1e-9)


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


@pytest.mark.parametrize("sf", [3, 7, 10, 12])
def test_line_lattice_builds_only_the_e_window_sums(monkeypatch, sf):
    # k = 1: each window sum of E_l = exp(-j*pi*u_l^2/M) over l = 0..M-1 is the
    # quadratic Gauss sum sqrt(M)*e^{-j*pi/4}, and no beta window sums are built
    seen = []

    def spy(p, d_top, d_bot, w, s_e, beta_sums=None):
        seen.append((s_e.copy(), beta_sums))
        return factorized_sums(p, d_top, d_bot, w, s_e, beta_sums)

    factorized_sums = spectrum._factorized_sums
    monkeypatch.setattr(spectrum, "_factorized_sums", spy)
    p = LoraParams(sf=sf, b=1.0)
    fresnel_spectrum(p, step=p.b / p.m)
    assert all(beta_sums is None for _, beta_sums in seen)
    s_e = np.concatenate([s for s, _ in seen])
    assert len(s_e) == 2 * (8 * p.m + 1)
    gauss = np.sqrt(p.m) * np.exp(-1j * np.pi / 4)
    assert np.max(np.abs(s_e - gauss)) <= 1e-12 * np.sqrt(p.m)


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


@pytest.mark.parametrize("f_max,n_lines", [(2.0, 4 * 8), (4.0, 4 * 8), (8.0, 8 * 8),
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
    with pytest.raises(ValueError, match=r"B/\(k\*M\)"):
        fresnel_spectrum(p, step=step)


def test_fresnel_spectrum_takes_a_step_within_tolerance():
    p = LoraParams(sf=3, b=1.0)
    res = fresnel_spectrum(p, f_max=1.0, step=(1 + 1e-11) / 128)
    np.testing.assert_array_equal(res.grid, np.arange(-128, 129) / 128)


@pytest.mark.parametrize("sf", [3, 7, 12])
@pytest.mark.parametrize("grid", ["default", "mask_check", "occupied_bandwidth", "narrow"])
def test_fresnel_spectrum_lines_equal_discrete_spectrum_lines(sf, grid):
    # the lines are every k-th point of the spectrum's own lattice sums,
    # which a grid narrower than 4B extends to 4B: the same bits as the
    # k = 1 spectrum, every point of which is a line
    p = LoraParams(sf=sf, b=125e3)
    k, f_max = {"default": (max(1, min(64, 8192 // p.m)), 8.0 * p.b),
                "mask_check": (4, 8.0 * p.b),
                "occupied_bandwidth": (max(1, 512 // p.m), 4.0 * p.b),
                "narrow": (4, 0.5 * p.b)}[grid]
    res = fresnel_spectrum(p, f_max=f_max, step=p.b / (k * p.m))
    n = len(res.grid) // 2
    ref = fresnel_spectrum(p, f_max=max(4 * p.m, n // k) * p.b / p.m, step=p.b / p.m)
    assert np.array_equal(res.lines, ref.lines)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("sf,k,f_max", [(5, 1, None), (4, 3, None), (3, 64, None),
                                        (5, 3, 1.5)], ids=["k1", "k3", "k64", "crop"])
def test_fresnel_spectrum_is_the_same_across_chunk_boundaries(monkeypatch, chunk, sf, k,
                                                              f_max):
    # every block of the lattice walk reads and writes its own slices, so
    # where the blocks end changes no bit; f_max = 1.5B is cropped from 4B
    p = LoraParams(sf=sf, b=1.0)
    ref = fresnel_spectrum(p, f_max=f_max, step=p.b / (k * p.m))
    monkeypatch.setattr(spectrum, "_CHUNK", chunk)
    got = fresnel_spectrum(p, f_max=f_max, step=p.b / (k * p.m))
    assert len(ref.grid) // 2 + 1 > 2 * chunk  # three blocks or more
    for name in ("grid", "continuous", "lines"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


@pytest.mark.parametrize("f_max,step", [(None, None), (1.0, 1.0 / 64), (8.0, 1.0 / 32)])
def test_fresnel_spectrum_evaluates_one_fresnel_table(monkeypatch, f_max, step):
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return scipy_fresnel(x)

    scipy_fresnel = spectrum._scipy_fresnel
    monkeypatch.setattr(spectrum, "_scipy_fresnel", counted)
    p = LoraParams(sf=5, b=1.0)
    fresnel_spectrum(p, f_max=f_max, step=step)
    assert len(calls) == 1
    # scipy sees only |x| < 8, the table's points with -32k < j <= 16k at
    # SF 5 (x = j/(4k), exact); the asymptotic series gives the rest
    k = max(1, min(64, 8192 // p.m)) if step is None else round(1.0 / (p.m * step))
    np.testing.assert_array_equal(calls[0], np.arange(-32 * k + 1, 16 * k + 1) / (4 * k))


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


@pytest.mark.parametrize("sf", [7, 8])
def test_fresnel_spectrum_matches_40_digit_psd(sf):
    # Gc just off the lines at 8B, 32B and 128B, k = 2, against mpmath
    k, M = 2, 2 ** sf
    res = fresnel_spectrum(LoraParams(sf=sf, b=1.0), f_max=128.0, step=1.0 / (k * M))
    mid = len(res.grid) // 2
    rows = [r for r in _REFERENCE["psd"] if (r["sf"], r["k"]) == (sf, k)]
    assert [r["n"] for r in rows] == [8 * k * M + 1, 32 * k * M + 1, 128 * k * M - 1]
    rel = [abs(res.continuous[mid + r["n"]] - float(r["gc"])) / float(r["gc"]) for r in rows]
    assert max(rel) <= 5e-10
    # the far tail: with scipy's rounded phase, SF 8 was 5.5e-9 off at 128B
    assert rel[-1] <= 1e-10


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


def test_lattice_size_bound_is_exact(monkeypatch):
    # k*M + max(n, 4kM) + 1 points: at SF 3, k = 2, f_max = 5B (n = 80) it is 97
    p = LoraParams(sf=3, b=1.0)
    monkeypatch.setattr(spectrum, "_MAX_LATTICE", 97)
    fresnel_spectrum(p, f_max=5.0, step=1.0 / 16)
    with pytest.raises(ValueError, match="f_max = 5.0625 Hz"):
        fresnel_spectrum(p, f_max=5.0625, step=1.0 / 16)
    # a step's smallest table is 5kM + 1 points
    monkeypatch.setattr(spectrum, "_MAX_LATTICE", 81)
    fresnel_spectrum(p, f_max=1.0, step=1.0 / 16)
    with pytest.raises(ValueError, match=r"^grid step 0.041666666666666664 Hz \(k = 3\) needs"):
        fresnel_spectrum(p, f_max=1.0, step=1.0 / 24)


def test_public_names_resolve():
    for name in lorachirp.__all__:
        assert getattr(lorachirp, name) is not None, name
