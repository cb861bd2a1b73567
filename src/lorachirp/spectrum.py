"""Exact power spectrum of randomly modulated chirp streams.

For equiprobable symbols the PSD of the modulated stream splits into a
continuous density and discrete lines at multiples of B/M:

    Gc(f) = (1/(Ts*M)) * [sum_l |X(f;l)|^2 - (1/M)*|sum_l X(f;l)|^2]
    line power at n*B/M = |sum_l X(n*B/M;l)|^2 / (Ts^2 * M^2)

where X(f;l) is the Fourier transform of the single-symbol waveform,
available in closed form through Fresnel integrals.  The lines carry
exactly a fraction 1/M of the total signal power.  On the frequency
lattice f = n*B/(k*M) the sums over l for all frequencies come from one
table of O(k*M + Nf) Fresnel values (fresnel_spectrum), the one
spectrum path of the package; each line takes two of its values, since
there the sum over l is a quadratic Gauss sum.  With M even, time
reversal maps symbol l onto (M - l) mod M, x(Ts - t; l) = x(t; (M - l)
mod M), so X(-f; l) = exp(j*2*pi*f*Ts)*X(f; (M - l) mod M): sum_l |X|^2
and |sum_l X| are even, and both parts are computed on f >= 0 and mirrored.
scipy's fresnel gives the table's points with |x| < 8; beyond, an
asymptotic series and the lattice's exactly reduced phase give them to a
few ulp, at even SF too, where scipy's phase at the rounded argument
would be off by about x^2*eps.
The engine's independent cross-checks, a zero-padded DFT of the
sampled waveforms and the per-symbol loop over closed-form transforms,
live with the tests.  All spectra here are those of the unit-power
complex envelope, as every waveform of the package is; absolute power
enters as ps_dbm in the analysis layer.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .params import (LoraParams, Symbol, _finite_array, _positive, _quote, _real, _spans,
                     validate_symbol)


def _kfun(x):
    """K(x) = C(x) + j*S(x) with the Fresnel integrals
    C(x) = int_0^x cos(pi*t^2/2) dt and S(x) = int_0^x sin(pi*t^2/2) dt.

    Odd in x, accurate to well below 1e-9 absolute over |x| <= 1e4
    (Cephes rational approximations via scipy, imported here so that only
    a closed-form spectrum loads scipy).
    """
    from scipy.special import fresnel
    s, c = fresnel(x)
    return c + 1j * s


def w_integral(a, b: float, t1: float, t2: float):
    """int_{t1}^{t2} exp{j*2*pi*(a*t + b*t^2)} dt for b > 0.

    Closed form via Fresnel integrals:
        (1/(2*sqrt(b))) * e^{-j*2*pi*a^2/(4b)}
            * [K(2*sqrt(b)*(t2 + a/(2b))) - K(2*sqrt(b)*(t1 + a/(2b)))]
    `a` may be an array (vectorized over frequency offsets).  b must be
    finite and positive, t1 and t2 finite numbers with t1 <= t2, and a
    must hold only finite numbers, otherwise ValueError.
    """
    b, t1, t2 = _positive(b, "b"), _real(t1, "t1"), _real(t2, "t2")
    if t1 > t2:
        raise ValueError(f"need t1 <= t2, got {t1} > {t2}")
    a = _finite_array(a, "a")
    rb = np.sqrt(b)
    shift = a / (2.0 * b)
    pref = np.exp(-2j * np.pi * a * a / (4.0 * b)) / (2.0 * rb)
    out = pref * (_kfun(2.0 * rb * (t2 + shift)) - _kfun(2.0 * rb * (t1 + shift)))
    return complex(out) if out.ndim == 0 else out


def waveform_fourier_transform(p: LoraParams, l: Symbol, f):
    """Fourier transform X(f;l) of the unit-amplitude symbol waveform.

    Splits the integral at the frequency-wrap instant tau_l = (M-l)/B;
    each piece is a w_integral with chirp rate B^2/(2M).  `f` may be an
    array, and must hold only finite numbers, otherwise ValueError.
    """
    l = validate_symbol(p, l)
    f_arr = _finite_array(f, "f")
    M, B = p.m, p.b
    b = B * B / (2.0 * M)
    tau_l = (M - l) / B
    out = (w_integral(B * (l / M - 0.5) - f_arr, b, 0.0, tau_l)
           + w_integral(B * (l / M - 1.5) - f_arr, b, tau_l, M / B))
    return complex(out) if np.ndim(f) == 0 else out


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Two-sided baseband power spectrum, unit total power.

    grid:       frequency grid in Hz (uniform, ascending, symmetric about 0)
    continuous: PSD of the continuous part, linear power/Hz, >= 0, even in f
    lines:      array of shape (K, 2) with columns (frequency, power);
                frequencies are integer multiples of B/M, powers even in f
    """

    grid: np.ndarray
    continuous: np.ndarray
    lines: np.ndarray
    params: LoraParams

    @property
    def line_frequencies(self) -> np.ndarray:
        return self.lines[:, 0]

    @property
    def line_powers(self) -> np.ndarray:
        return self.lines[:, 1]


def _psd_combine(sum_abs2: np.ndarray, abs2_sum: np.ndarray, p: LoraParams) -> np.ndarray:
    """Continuous PSD from sum_l |X|^2 and |sum_l X|^2; clipped at zero
    (Cauchy-Schwarz guarantees nonnegativity analytically)."""
    g = (sum_abs2 - abs2_sum / p.m) / (p.ts * p.m)
    return np.maximum(g, 0.0)


# The most points, k*M + n + 1, that the table of one lattice may hold:
# its Fresnel values, prefix sums and per-frequency sums peak at about 130
# bytes a point (90 for k = 1, with no prefix sums; traced by tracemalloc),
# so 2^22 points take about 0.55 GB.  The default grids stay far below it
# (at most 589 825 points, at SF 16).
_MAX_LATTICE = 1 << 22


def _check_lattice(points, what: str) -> None:
    """ValueError naming `what` unless a lattice table of `points` points
    (an int or a float, possibly inf) fits in _MAX_LATTICE; checked before
    any of it is allocated.  A size beyond float range reads inf."""
    if not points <= _MAX_LATTICE:
        size = points if points <= sys.float_info.max else math.inf
        raise ValueError(f"{what} needs a lattice table of {size:.4g} points, "
                         f"more than the {_MAX_LATTICE} a spectrum may hold")


def _lattice_k(p: LoraParams, step: float) -> int:
    """The integer k >= 1 with step = B/(k*M), to within 1e-9 relative.

    Spectra are computed on the lattice f = n*B/(k*M); a step off that
    lattice raises ValueError rather than being snapped to a nearby one,
    and so does a step whose smallest table, k*M + 1 points, exceeds
    _MAX_LATTICE.
    """
    step = _real(step, "step")
    ratio = p.b / (p.m * step) if step > 0 else 0.0
    k = round(ratio) if np.isfinite(ratio) else 0
    if k < 1 or abs(ratio - k) > 1e-9 * ratio:
        raise ValueError(
            f"grid step {step!r} Hz is not B/(k*M) = {p.b / p.m!r} Hz / k "
            "for an integer k >= 1")
    _check_lattice(k * p.m + 1, f"grid step {step!r} Hz (k = {_quote(k)})")
    return k


def _factorized_sums(p: LoraParams, d_top, d_bot, w, s_e, s_d, s_d2, s_ed):
    """sum_l |X(f;l)|^2 and sum_l X(f;l) from the window sums.

    With phi = f*M/B, u_l = l - M/2 - phi, a0 = sqrt(2/M), b = B^2/(2M),
    K = C + jS and E_l = exp(-j*pi*u_l^2/M), every transform factors as

        X(f;l) = E_l/(2*sqrt(b)) * [alpha + beta*K(a0*u_l)]
        alpha = K(a0*u_M) - w*K(a0*u_0),  beta = w - 1,  w = exp(-j*2*pi*phi).

    The identity holds with K replaced throughout by D = K - c for any
    constant c, which lets the caller anchor D near 0 where it is summed.
    Inputs: d_top = D(a0*u_M), d_bot = D(a0*u_0), and the sums over
    l = 0..M-1 of E_l (s_e), D(a0*u_l) (s_d), |D|^2 (s_d2) and E_l*D (s_ed).
    """
    four_b = 2.0 * p.b * p.b / p.m
    alpha = d_top - w * d_bot
    beta = w - 1.0
    sum_abs2 = (p.m * np.abs(alpha) ** 2 + 2.0 * np.real(np.conj(alpha) * beta * s_d)
                + np.abs(beta) ** 2 * s_d2) / four_b
    sum_x = (alpha * s_e + beta * s_ed) / np.sqrt(four_b)
    return sum_abs2, sum_x


def _strided_prefix(values: np.ndarray, k: int) -> np.ndarray:
    """Exclusive prefix sums along stride k: out[i] = values[i - k] +
    values[i - 2k] + ..., for i < len(values)."""
    rows = -(-len(values) // k)
    out = np.zeros(rows * k, dtype=values.dtype)
    out[k:len(values)] = values[:len(values) - k]
    block = out.reshape(rows, k)
    np.cumsum(block, axis=0, out=block)
    return out


# Frequencies per block of work: a block's temporaries (64 KiB for a
# complex one) stay in cache and are reused by the allocator; larger blocks
# run slower, as theirs fault fresh pages in on every call.
_CHUNK = 1 << 12
# The lattice table takes K from scipy for |x| < _TAIL_X and from the
# auxiliary functions f and g beyond (Abramowitz & Stegun 7.3.27-28): with
# y = 1/(pi*x^2), f = (1/(pi*x)) * F and g = (y/(pi*x)) * G, where
# F = sum_m (-1)^m (4m-1)!! y^(2m) and G = sum_m (-1)^m (4m+1)!! y^(2m).
# Term m counts where it is at least 1e-17 of the first, |x| <
# _SERIES_X[m]; the series alternate with falling terms there, so one left
# out errs by less than that.  Term 8 is below 1e-17 at every |x| >= 8.
_TAIL_X = 8.0
# row m: the coefficients of G and -F
_SERIES = np.array([[(-1) ** m * math.prod(range(1, 4 * m + 2, 2)),
                     -(-1) ** m * math.prod(range(1, 4 * m, 2))] for m in range(8)], dtype=float)
_SERIES_X = np.array([np.inf] + [(math.pi * (1e-17 / abs(g)) ** (0.5 / m)) ** -0.5
                                 for m, g in enumerate(_SERIES[:, 0]) if m])


def _lattice_phase(M: int, k: int, j: np.ndarray) -> np.ndarray:
    """E = exp(-j*pi*u^2/M) at u = j/k, the phase reduced exactly in
    integers (j^2 mod 2k^2M); E = exp(-j*pi*x^2/2) at x = sqrt(2/M)*u."""
    return np.exp(-1j * np.pi * ((j * j) % (2 * k * k * M)) / (k * k * M))


def _tail_into(out: np.ndarray, x: np.ndarray, e: np.ndarray, terms: list, c: complex) -> None:
    """out = c - sign(x)*(g + j*f)*conj(e) for |x| >= _TAIL_X, given
    e = exp(-j*pi*x^2/2).  (g + j*f)*conj(e) is int_|x|^inf
    exp(j*pi*t^2/2) dt = (1+j)/2 - K(|x|), so c = 1+j gives
    D = K + (1+j)/2 where x > 0, and c = 0 where x < 0.  terms[m] is the
    slice of points where term m of the series counts (each holds the
    next).  Two temporaries are allocated, and every pass runs over a
    whole column: fresh pages and short inner loops cost more here than
    the arithmetic.
    """
    scale = np.multiply(x, np.pi)
    np.divide(1.0, scale, out=scale)  # 1/(pi*x), which carries sign(x)
    z = scale / x
    z *= z  # y^2
    # out holds G - j*F, by Horner in y^2, each step over the points it counts at
    out.fill(0.0)
    g, f = out.real, out.imag
    for (coef_g, coef_f), s in zip(_SERIES[::-1], terms[::-1]):
        if s.start != s.stop:
            z_s, g_s, f_s = z[s], g[s], f[s]
            g_s *= z_s
            g_s += coef_g
            f_s *= z_s
            f_s += coef_f
    f *= scale
    g *= scale
    np.divide(scale, x, out=scale)  # y
    g *= scale
    # now sign(x)*(g - j*f); times e, the conjugate of what c loses
    out *= e
    np.subtract(c.real, g, out=g)
    np.add(f, c.imag, out=f)


def _fresnel_table(M: int, k: int, j: np.ndarray, e: np.ndarray) -> np.ndarray:
    """D = K(x) + (1+j)/2 at x = sqrt(2/M)*j/k for ascending integers j,
    given E = _lattice_phase(M, k, j).

    For |x| < _TAIL_X, K is scipy's fresnel at the rounded x.  Beyond, the
    table uses int_|x|^inf exp(j*pi*t^2/2) dt = T(|x|)*exp(j*pi*x^2/2)
    with T = g + j*f from the asymptotic series (see _SERIES):
    D = T(|x|)*conj(E) for x <= -8 and D = (1+j) - T(x)*conj(E) for
    x >= 8.  The phase is E's, reduced exactly, and the rounded x enters
    only the slowly varying T, so there D is exact to a few ulp even at
    even SF, where sqrt(2/M) is rounded and scipy's phase pi*x^2/2 would
    be off by about x^2*eps.  Each tail is one pass over its whole slice.
    """
    from scipy.special import fresnel
    x = j / k
    x *= np.sqrt(2.0 / M)
    neg = np.searchsorted(x, -_TAIL_X, side="right")
    pos = np.searchsorted(x, _TAIL_X, side="left")
    d = np.empty(len(j), dtype=complex)
    s, c = fresnel(x[neg:pos])
    np.add(c, 0.5, out=d.real[neg:pos])
    np.add(s, 0.5, out=d.imag[neg:pos])
    # term m counts on the side of each tail next to the band
    starts = np.searchsorted(x[:neg], -_SERIES_X, side="right")
    _tail_into(d[:neg], x[:neg], e[:neg], [slice(a, neg) for a in starts], 0j)
    ends = np.searchsorted(x[pos:], _SERIES_X, side="left")
    _tail_into(d[pos:], x[pos:], e[pos:], [slice(0, b) for b in ends], 1 + 1j)
    return d


def _lattice_sums(p: LoraParams, k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sum_l |X(f;l)|^2 and |sum_l X(f;l)|^2 at f = i*B/(k*M), 0 <= i <= n,
    and the two (equal) at the lines f = m*B/M, 0 <= k*m <= n.

    On this lattice u_l = j/k with j = k*l - k*M/2 - i, so the M arguments
    of one frequency are a stride-k window of a single table over j, of
    k*M + n + 1 points.  On a line w = 1, beta = 0 and, M being even,
    |sum_l E_l|^2 = M, a complete quadratic Gauss sum (Landsberg-Schaar),
    so both sums are M*|D(a0*u_M) - D(a0*u_0)|^2/(4b) and the line power
    is P_n = |D(a0*(M/2 - n)) - D(a0*(-M/2 - n))|^2/(2*M^2).  k = 1 is
    all lines.  For k > 1 the window sums of _factorized_sums are
    differences of strided prefix sums from the table's bottom.  The table
    holds D = K + (1+j)/2, which decays to 0 as j -> -inf, so far out the
    prefix sums stay small and the PSD is no difference of O(M) terms.
    """
    M = p.m
    top = k * M
    j = np.arange(-(top // 2) - n, top // 2 + 1)
    # j^2 mod 2k^2M has period k^2M in j (M is even), so one period of E serves
    e = np.resize(_lattice_phase(M, k, j[:k * top]), len(j))
    d = _fresnel_table(M, k, j, e)
    four_b = 2.0 * p.b * p.b / M
    # table index t holds l = 0 of frequency n - t and l = M at t + top
    lines = M * np.abs(d[n % k + top::k] - d[n % k:n + 1:k])[::-1] ** 2 / four_b
    if k == 1:
        return lines, lines, lines
    # |D|^2 and E*D live only while their prefix sums are built
    prefix = [_strided_prefix(v, k) for v in (e, d, d.real ** 2 + d.imag ** 2, e * d)]
    # w = exp(-j*2*pi*i/k) for i mod k = 0..k-1
    roots = np.exp(-2j * np.pi * np.arange(k) / k)
    sum_abs2, abs2_sum = np.empty((2, n + 1))
    # lo ascending: every read is a forward slice, every write a reversed one
    for lo, hi in _spans(n + 1, _CHUNK):
        # window sums of l = 0..M-1 from index lo
        sums = [c[lo + top:hi + top] - c[lo:hi] for c in prefix]
        w = roots[(n - np.arange(lo, hi)) % k]
        out = slice(n + 1 - hi, n + 1 - lo)
        sum_abs2[out][::-1], sum_x = _factorized_sums(
            p, d[lo + top:hi + top], d[lo:hi], w, *sums)
        abs2_sum[out][::-1] = np.abs(sum_x) ** 2
    return sum_abs2, abs2_sum, lines


def _half_spectrum(p: LoraParams, f_max: float,
                   k: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The f >= 0 half of fresnel_spectrum(p, f_max, B/(k*M)): the grid
    step, the continuous PSD at f = i*step, 0 <= i <= n = round(f_max/step),
    and the line powers at f = m*B/M, 0 <= k*m <= n.  f_max must be finite
    and positive, and the table of k*M + n + 1 points must fit in
    _MAX_LATTICE, otherwise ValueError."""
    f_max = _positive(f_max, "f_max")
    step = p.b / (k * p.m)
    # n stays a float until checked: beyond float range it is inf
    n = f_max / step
    _check_lattice(k * p.m + n + 1, f"f_max = {f_max!r} Hz at grid step {step!r} Hz")
    n = round(n)
    sum_abs2, abs2_sum, line_sums = _lattice_sums(p, k, n)
    return step, _psd_combine(sum_abs2, abs2_sum, p), line_sums / (p.ts ** 2 * p.m ** 2)


def fresnel_spectrum(p: LoraParams, f_max: float | None = None,
                     step: float | None = None) -> SpectrumResult:
    """Exact spectrum from the Fresnel closed form on the lattice
    f = n*B/(k*M), |f| <= f_max, plus the lines n*B/M within that grid.

    `step` must equal B/(k*M) for an integer k >= 1 (to 1e-9 relative),
    otherwise ValueError.  The defaults are |f| <= 8B and
    k = max(1, min(64, 8192 // M)), i.e. step max(B/(64M), B/8192), so
    the grid holds at most 131 073 points.  One table of k*M + n + 1
    Fresnel values, n = round(f_max/step), gives every line from two of
    its values and, through strided prefix sums, every grid point with
    f >= 0.  The spectrum is even in f (see the module docstring): f < 0
    is the exact mirror image.  The cost is O(k*M + len(grid)).  For
    k = 1 every grid point is a line, and the PSD comes from the line
    values (see _lattice_sums).  A table of more than _MAX_LATTICE points
    raises ValueError naming f_max and the step.  The tests check these
    values against a zero-padded DFT of the sampled waveforms.
    """
    k = max(1, min(64, 8192 // p.m)) if step is None else _lattice_k(p, step)
    step, continuous, lines = _half_spectrum(p, 8.0 * p.b if f_max is None else f_max, k)
    n, n_lines = len(continuous) - 1, len(lines) - 1
    # f < 0 mirrors f >= 0
    continuous, lines = (np.concatenate([v[:0:-1], v]) for v in (continuous, lines))
    lines = np.column_stack([np.arange(-n_lines, n_lines + 1) * p.b / p.m, lines])
    return SpectrumResult(grid=np.arange(-n, n + 1) * step, continuous=continuous,
                          lines=lines, params=p)
