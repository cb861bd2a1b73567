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
spectrum path of the package.  scipy's fresnel gives the table's
points with |x| < 8; beyond, an asymptotic series and the lattice's
exactly reduced phase give them to a few ulp, at even SF too, where
scipy's phase at the rounded argument would be off by about x^2*eps.
The engine's independent cross-checks, a zero-padded DFT of the
sampled waveforms and the per-symbol loop over closed-form transforms,
live with the tests.  All spectra here are those of the unit-power
complex envelope, as every waveform of the package is; absolute power
enters as ps_dbm in the analysis layer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import LoraParams, Symbol, _real, _spans, validate_symbol


def _load_fresnel(x):
    """scipy.special.fresnel(x), imported on the first call, so that only
    a closed-form spectrum loads scipy.  The call rebinds _scipy_fresnel
    to scipy's function unless something else has been bound there."""
    global _scipy_fresnel
    from scipy.special import fresnel
    if _scipy_fresnel is _load_fresnel:
        _scipy_fresnel = fresnel
    return fresnel(x)


_scipy_fresnel = _load_fresnel


def _kfun(x):
    """K(x) = C(x) + j*S(x) with the Fresnel integrals
    C(x) = int_0^x cos(pi*t^2/2) dt and S(x) = int_0^x sin(pi*t^2/2) dt.

    Odd in x, accurate to well below 1e-9 absolute over |x| <= 1e4
    (Cephes rational approximations via scipy).
    """
    s, c = _scipy_fresnel(x)
    return c + 1j * s


def w_integral(a, b: float, t1: float, t2: float):
    """int_{t1}^{t2} exp{j*2*pi*(a*t + b*t^2)} dt for b > 0.

    Closed form via Fresnel integrals:
        (1/(2*sqrt(b))) * e^{-j*2*pi*a^2/(4b)}
            * [K(2*sqrt(b)*(t2 + a/(2b))) - K(2*sqrt(b)*(t1 + a/(2b)))]
    `a` may be an array (vectorized over frequency offsets).
    """
    if not b > 0:
        raise ValueError(f"quadratic chirp rate b must be positive, got {b}")
    if t1 > t2:
        raise ValueError(f"need t1 <= t2, got {t1} > {t2}")
    a = np.asarray(a, dtype=float)
    rb = np.sqrt(b)
    shift = a / (2.0 * b)
    pref = np.exp(-2j * np.pi * a * a / (4.0 * b)) / (2.0 * rb)
    out = pref * (_kfun(2.0 * rb * (t2 + shift)) - _kfun(2.0 * rb * (t1 + shift)))
    return complex(out) if out.ndim == 0 else out


def waveform_fourier_transform(p: LoraParams, l: Symbol, f):
    """Fourier transform X(f;l) of the unit-amplitude symbol waveform.

    Splits the integral at the frequency-wrap instant tau_l = (M-l)/B;
    each piece is a w_integral with chirp rate B^2/(2M).  `f` may be an
    array.
    """
    l = validate_symbol(p, l)
    f_arr = np.asarray(f, dtype=float)
    M, B = p.m, p.b
    b = B * B / (2.0 * M)
    tau_l = (M - l) / B
    out = (w_integral(B * (l / M - 0.5) - f_arr, b, 0.0, tau_l)
           + w_integral(B * (l / M - 1.5) - f_arr, b, tau_l, M / B))
    return complex(out) if np.ndim(f) == 0 else out


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Two-sided baseband power spectrum, unit total power.

    grid:       frequency grid in Hz (uniform, ascending)
    continuous: PSD of the continuous part, linear power/Hz, >= 0
    lines:      array of shape (K, 2) with columns (frequency, power);
                frequencies are integer multiples of B/M
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


def _psd_combine(sum_abs2: np.ndarray, sum_x: np.ndarray, p: LoraParams) -> np.ndarray:
    """Continuous PSD from the per-symbol transform sums; clipped at zero
    (Cauchy-Schwarz guarantees nonnegativity analytically)."""
    g = (sum_abs2 - np.abs(sum_x) ** 2 / p.m) / (p.ts * p.m)
    return np.maximum(g, 0.0)


# The most points, k*M + n_max + 1, that the table of one lattice may hold:
# its Fresnel values, prefix sums and per-frequency sums peak at about 180
# bytes a point (130 for k = 1), so 2^22 points take about 0.7 GB.  The
# default grids stay far below it (at most 589 825 points, at SF 16).
_MAX_LATTICE = 1 << 22


def _check_lattice(points, what: str) -> None:
    """ValueError naming `what` unless a lattice table of `points` points
    (an int or a float, possibly inf) fits in _MAX_LATTICE; checked before
    any of it is allocated."""
    if not points <= _MAX_LATTICE:
        raise ValueError(f"{what} needs a lattice table of {_real(points, what):.4g} points, "
                         f"more than the {_MAX_LATTICE} a spectrum may hold")


def _lattice_k(p: LoraParams, step: float) -> int:
    """The integer k >= 1 with step = B/(k*M), to within 1e-9 relative.

    Spectra are computed on the lattice f = n*B/(k*M); a step off that
    lattice raises ValueError rather than being snapped to a nearby one,
    and so does a step whose smallest table, 5*k*M + 1 points, exceeds
    _MAX_LATTICE.
    """
    step = _real(step, "step")
    ratio = p.b / (p.m * step) if step > 0 else 0.0
    k = round(ratio) if np.isfinite(ratio) else 0
    if k < 1 or abs(ratio - k) > 1e-9 * ratio:
        raise ValueError(
            f"grid step {step!r} Hz is not B/(k*M) = {p.b / p.m!r} Hz / k "
            "for an integer k >= 1")
    _check_lattice(5 * k * p.m + 1, f"grid step {step!r} Hz (k = {k})")
    return k


def _factorized_sums(p: LoraParams, d_top, d_bot, w, s_e, beta_sums=None):
    """sum_l |X(f;l)|^2 and sum_l X(f;l) from the window sums.

    With phi = f*M/B, u_l = l - M/2 - phi, a0 = sqrt(2/M), b = B^2/(2M),
    K = C + jS and E_l = exp(-j*pi*u_l^2/M), every transform factors as

        X(f;l) = E_l/(2*sqrt(b)) * [alpha + beta*K(a0*u_l)]
        alpha = K(a0*u_M) - w*K(a0*u_0),  beta = w - 1,  w = exp(-j*2*pi*phi).

    The identity holds with K replaced throughout by D = K - c for any
    constant c, which lets the caller anchor D near 0 where it is summed.
    Inputs: d_top = D(a0*u_M), d_bot = D(a0*u_0), s_e the sum over
    l = 0..M-1 of E_l and beta_sums those of D(a0*u_l), |D|^2 and E_l*D.
    On the lines f = n*B/M, w = 1 and beta = 0: there beta_sums is None
    and the sums are M*|alpha|^2/(4b) and alpha*s_e/(2*sqrt(b)), the
    general expressions with their zero beta terms left out.
    """
    four_b = 2.0 * p.b * p.b / p.m
    if beta_sums is None:
        alpha = d_top - d_bot
        return p.m * np.abs(alpha) ** 2 / four_b, alpha * s_e / np.sqrt(four_b)
    s_d, s_d2, s_ed = beta_sums
    alpha = d_top - w * d_bot
    beta = w - 1.0
    sum_abs2 = (p.m * np.abs(alpha) ** 2 + 2.0 * np.real(np.conj(alpha) * beta * s_d)
                + np.abs(beta) ** 2 * s_d2) / four_b
    sum_x = (alpha * s_e + beta * s_ed) / np.sqrt(four_b)
    return sum_abs2, sum_x


def _strided_prefix(values: np.ndarray, k: int) -> np.ndarray:
    """Exclusive prefix sums along stride k: out[i] = values[i - k] +
    values[i - 2k] + ..., for i < len(values) + k."""
    rows = -(-len(values) // k) + 1
    out = np.zeros(rows * k, dtype=values.dtype)
    out[k:k + len(values)] = values
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
    x = j / k
    x *= np.sqrt(2.0 / M)
    neg = np.searchsorted(x, -_TAIL_X, side="right")
    pos = np.searchsorted(x, _TAIL_X, side="left")
    d = np.empty(len(j), dtype=complex)
    s, c = _scipy_fresnel(x[neg:pos])
    np.add(c, 0.5, out=d.real[neg:pos])
    np.add(s, 0.5, out=d.imag[neg:pos])
    # term m counts on the side of each tail next to the band
    starts = np.searchsorted(x[:neg], -_SERIES_X, side="right")
    _tail_into(d[:neg], x[:neg], e[:neg], [slice(a, neg) for a in starts], 0j)
    ends = np.searchsorted(x[pos:], _SERIES_X, side="left")
    _tail_into(d[pos:], x[pos:], e[pos:], [slice(0, b) for b in ends], 1 + 1j)
    return d


def _lattice_sums(p: LoraParams, k: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_l |X(f;l)|^2 and sum_l X(f;l) at f = n*B/(k*M), |n| <= n_max.

    On this lattice u_l = j/k with j = k*l - k*M/2 - n, so the M arguments
    of one frequency are a stride-k window of a single table over j, and
    the window sums of _factorized_sums are differences of strided
    prefix sums.  The table holds D = K + (1+j)/2, which decays to 0 as
    j -> -inf, so in the far tail of f > 0 the prefix sums stay small and
    the PSD is not left as a difference of O(M) terms.  K is odd and E
    even in u: the window of -n is the window of +n shifted by one step
    (l = 1..M) with D negated, which is K - (1+j)/2, small as j -> +inf.
    One table over j <= k*M/2 thus serves both signs of f; scipy's fresnel
    gives its points with |x| < 8, at most 16*k*sqrt(M/2), and the
    asymptotic series with E's exact phase the rest (_fresnel_table).
    For k = 1 every point is a line, where beta = 0: only E and its prefix
    sums are built, not those of D, |D|^2 and E*D.
    """
    M = p.m
    j = np.arange(-(k * M // 2) - n_max, k * M // 2 + 1)
    # j^2 mod 2k^2M has period k^2M in j (M is even), so one period of E serves
    e = np.resize(_lattice_phase(M, k, j[:k * k * M]), len(j))
    d = _fresnel_table(M, k, j, e)
    # |D|^2 and E*D live only while their prefix sums are built
    prefix = [_strided_prefix(v, k)
              for v in ((e,) if k == 1 else (e, d, d.real ** 2 + d.imag ** 2, e * d))]
    # w = exp(-j*2*pi*|n|/k) for |n| mod k = 0..k-1
    roots = np.exp(-2j * np.pi * np.arange(k) / k)
    sum_abs2 = np.empty(2 * n_max + 1)
    sum_x = np.empty(2 * n_max + 1, dtype=complex)
    top = k * M
    # Table index lo holds l = 0 of n = +|n| with |n| = n_max - lo, so walking
    # lo upwards makes every read a forward slice: -|n| lands at lo, +|n|
    # at 2*n_max - lo (a reversed slice); n = 0 is written last by +|n|.
    for lo, hi in _spans(n_max + 1, _CHUNK):
        # window sums from index lo: l = 0..M-1 (n = +|n|) at offset 0, l = 1..M (-|n|) at k
        s_e, *s = [c[lo + top:hi + top + k] - c[lo:hi + k] for c in prefix]
        # the lines (k = 1) have no beta terms, so they need no w
        w = roots[(n_max - np.arange(lo, hi)) % k] if s else None
        sum_abs2[lo:hi], sum_x[lo:hi] = _factorized_sums(
            p, -d[lo:hi], -d[lo + top:hi + top], np.conj(w) if s else None, s_e[k:],
            (-s[0][k:], s[1][k:], -s[2][k:]) if s else None)
        pos = slice(2 * n_max + 1 - hi, 2 * n_max + 1 - lo)
        sum_abs2[pos][::-1], sum_x[pos][::-1] = _factorized_sums(
            p, d[lo + top:hi + top], d[lo:hi], w, s_e[:hi - lo],
            tuple(v[:hi - lo] for v in s) if s else None)
    return sum_abs2, sum_x


def fresnel_spectrum(p: LoraParams, f_max: float | None = None,
                     step: float | None = None) -> SpectrumResult:
    """Exact spectrum from the Fresnel closed form on the lattice
    f = n*B/(k*M), |f| <= f_max, plus the lines n*B/M for
    |n| <= max(4M, f_max*M/B), so the lines cover the whole grid.

    `step` must equal B/(k*M) for an integer k >= 1 (to 1e-9 relative),
    otherwise ValueError.  The defaults are |f| <= 8B and
    k = max(1, min(64, 8192 // M)), i.e. step max(B/(64M), B/8192), so
    the grid holds at most 131 073 points.  One table of Fresnel values
    shared through strided prefix sums gives every grid point and, at
    every k-th point, every line; a grid narrower than 4B is extended to
    4B for the lines and the PSD cropped back.  The cost is
    O(k*M + len(grid)).  For k = 1 every grid point is a line, and only
    the table of E_l and its prefix sums are built (see _lattice_sums).
    A table of more than _MAX_LATTICE points raises ValueError naming
    f_max and the step.  The tests check these values against a
    zero-padded DFT of the sampled waveforms.
    """
    if f_max is None:
        f_max = 8.0 * p.b
    k = max(1, min(64, 8192 // p.m)) if step is None else _lattice_k(p, step)
    if not (np.isfinite(_real(f_max, "f_max")) and f_max > 0):
        raise ValueError(f"f_max must be finite and positive, got {f_max}")
    step = p.b / (k * p.m)
    # n stays a float until checked: beyond float range it is inf
    n = f_max / step
    _check_lattice(k * p.m + max(n, 4 * k * p.m) + 1,
                   f"f_max = {f_max!r} Hz at grid step {step!r} Hz")
    n = round(n)
    n_ext = max(n, 4 * k * p.m)
    sum_abs2, sum_x = _lattice_sums(p, k, n_ext)
    crop = slice(n_ext - n, n_ext + n + 1)
    n_lines = n_ext // k  # the lines n*B/M are every k-th lattice point
    lines = np.column_stack([np.arange(-n_lines, n_lines + 1) * p.b / p.m,
                             np.abs(sum_x[n_ext % k::k]) ** 2 / (p.ts ** 2 * p.m ** 2)])
    return SpectrumResult(grid=np.arange(-n, n + 1) * step, lines=lines, params=p,
                          continuous=_psd_combine(sum_abs2[crop], sum_x[crop], p))
