"""Exact power spectrum of randomly modulated chirp streams.

For equiprobable symbols the PSD of the modulated stream splits into a
continuous density and discrete lines at multiples of B/M:

    Gc(f) = (1/(Ts*M)) * [sum_l |X(f;l)|^2 - (1/M)*|sum_l X(f;l)|^2]
    line power at n*B/M = |sum_l X(n*B/M;l)|^2 / (Ts^2 * M^2)

where X(f;l) is the Fourier transform of the single-symbol waveform,
available in closed form through Fresnel integrals.  The lines carry
exactly a fraction 1/M of the total signal power.  Both depend on f and
B only through phi = f*M/B: X(f;l) = X_1(f/B;l)/B, with X_1 the transform
at B = 1 Hz, so B*Gc(f) and the line powers are those at B = 1 Hz and
f/B.  The kernel is computed at B = 1, in units of B; B scales the grid
and the line frequencies (B/(k*M), B/M) and divides the density once, at
the public edge (fresnel_spectrum, waveform_fourier_transform), so no
bandwidth that LoraParams accepts overflows or underflows inside it.  On
the frequency lattice f = n*B/(k*M) the sums over l for all frequencies
come from one table of O(k*M + Nf) Fresnel values (fresnel_spectrum),
the one spectrum path of the package; each line takes two of its values,
since there the sum over l is a quadratic Gauss sum.  With M even, time
reversal maps symbol l onto (M - l) mod M, x(Ts - t; l) = x(t; (M - l)
mod M), so X(-f; l) = exp(j*2*pi*f*Ts)*X(f; (M - l) mod M): sum_l |X|^2
and |sum_l X| are even, and both parts are computed on f >= 0 and mirrored.
scipy's fresnel gives the table's points with |x| < 8, each fill of the
table evaluating the part of that band it holds; beyond, an asymptotic
series and the lattice's exactly reduced phase give them to a few ulp,
at even SF too, where scipy's phase at the rounded argument would be off
by about x^2*eps.
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

from .params import (LoraParams, Symbol, _finite_array, _finite_normal, _positive, _quote, _real,
                     _spans, validate_symbol)


def _kfun(x):
    """K(x) = C(x) + j*S(x) with the Fresnel integrals
    C(x) = int_0^x cos(pi*t^2/2) dt and S(x) = int_0^x sin(pi*t^2/2) dt.

    Odd in x, accurate to well below 1e-9 absolute over |x| <= 1e4
    (Cephes rational approximations via scipy).  This is the package's
    one scipy call: w_integral and every fill of the lattice table
    (_fresnel_table) evaluate K here, and scipy.special is imported here
    so that only a closed-form spectrum loads it.
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

    Computed at B = 1 and scaled: X(f;l) = X_1(f/B;l)/B.  At B = 1 the
    integral splits at the frequency-wrap instant tau_l = M - l; each
    piece is a w_integral with chirp rate 1/(2M).  `f` may be an array,
    and must hold only finite numbers, as must f/B, otherwise ValueError.
    """
    l = validate_symbol(p, l)
    f_arr = _finite_array(f, "f")
    M, B = p.m, p.b
    with np.errstate(over="ignore"):  # an f/B beyond float range is reported, not warned
        f_1 = _finite_array(f_arr / B, f"f/B at b = {B!r} Hz")
    b = 0.5 / M
    out = (w_integral(l / M - 0.5 - f_1, b, 0.0, M - l)
           + w_integral(l / M - 1.5 - f_1, b, M - l, M)) / B
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


# The most points, k*M + n + 1, that the table of one lattice may hold.
# At most k*M + max(2*_CHUNK, k*M) + 1 of them are held at once, in a
# window that peaks at 120 bytes a point (72 for k = 1, with no prefix
# sums; traced by tracemalloc), beside results of about 49 bytes per grid
# point f >= 0 (81 for k = 1).  So 2^22 points take at most about 0.5 GB,
# where k*M makes up most of them.  The default grids stay far below it
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


def _factorized_sums(M: int, d_top, d_bot, w, s_e, s_d, s_d2, s_ed):
    """sum_l |X_1(f/B;l)|^2 and sum_l X_1(f/B;l) from the window sums, X_1
    being the transform at B = 1 (see the module docstring).

    With phi = f*M/B, u_l = l - M/2 - phi, a0 = sqrt(2/M), K = C + jS and
    E_l = exp(-j*pi*u_l^2/M), every transform factors as

        X_1(f/B;l) = (E_l/a0) * [alpha + beta*K(a0*u_l)]
        alpha = K(a0*u_M) - w*K(a0*u_0),  beta = w - 1,  w = exp(-j*2*pi*phi).

    The identity holds with K replaced throughout by D = K - c for any
    constant c, which lets the caller anchor D near 0 where it is summed.
    Inputs: d_top = D(a0*u_M), d_bot = D(a0*u_0), and the sums over
    l = 0..M-1 of E_l (s_e), D(a0*u_l) (s_d), |D|^2 (s_d2) and E_l*D (s_ed).
    """
    a0_sq = 2.0 / M
    alpha = d_top - w * d_bot
    beta = w - 1.0
    sum_abs2 = (M * np.abs(alpha) ** 2 + 2.0 * np.real(np.conj(alpha) * beta * s_d)
                + np.abs(beta) ** 2 * s_d2) / a0_sq
    sum_x = (alpha * s_e + beta * s_ed) / np.sqrt(a0_sq)
    return sum_abs2, sum_x


def _strided_prefix(values: np.ndarray, k: int, out: np.ndarray) -> None:
    """Continue prefix sums along stride k: out[i + k] = out[i] + values[i]
    for i < len(values), added in that order, given out[:k].  Whole rows of
    k are summed, so out must hold k*(ceil(len(values)/k) + 1) values;
    those past len(values) + k are left as scratch."""
    rows = -(-len(values) // k) + 1
    out[k:k + len(values)] = values
    out[k + len(values):rows * k] = 0.0
    block = out[:rows * k].reshape(rows, k)
    np.cumsum(block, axis=0, out=block)


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
    integers (j^2 mod 2k^2M); E = exp(-j*pi*x^2/2) at x = sqrt(2/M)*u.

    The phase -(j^2 mod 2k^2M)*pi*(1/(k^2M)) is one float array, negated
    while it is still an integer so that it is +0, not -0, where j^2 is a
    multiple of 2k^2M; cos and sin are written into E's real and
    imaginary parts.  E has the bits, signed zeros included, of
    np.exp(-1j*pi*(j^2 mod 2k^2M)/(k^2M)) (whose complex division
    multiplies by the reciprocal) without its complex temporaries and
    complex exp.
    """
    r = j * j
    r %= 2 * k * k * M
    theta = np.negative(r, out=r) * np.pi
    theta *= 1.0 / (k * k * M)
    e = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=e.real)
    np.sin(theta, out=e.imag)
    return e


def _tail_into(out: np.ndarray, x: np.ndarray, e: np.ndarray, terms: list, c: complex) -> None:
    """out = c - sign(x)*(g + j*f)*conj(e) for |x| >= _TAIL_X, given
    e = exp(-j*pi*x^2/2).  (g + j*f)*conj(e) is int_|x|^inf
    exp(j*pi*t^2/2) dt = (1+j)/2 - K(|x|), so c = 1+j gives
    D = K + (1+j)/2 where x > 0, and c = 0 where x < 0.  terms[m] is the
    slice of points where term m of the series counts (each holds the
    next).  Two temporaries are allocated, and every pass runs over a
    whole column: fresh pages and short inner loops cost more here than
    the arithmetic.  An empty tail, as in most of a table built in parts,
    costs no numpy call.
    """
    if not len(x):
        return
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


def _fresnel_table(M: int, k: int, j: np.ndarray, e: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """D = K(x) + (1+j)/2 at x = sqrt(2/M)*j/k for ascending integers j,
    given E = _lattice_phase(M, k, j), into `out` if given.

    x has the same bits wherever j is cut, and the points with |x| <
    _TAIL_X, the band, are scipy's fresnel at the rounded x through
    _kfun, which is elementwise: so a table built in parts evaluates each
    band point once, in the part that holds it, with the bits of one call
    over the whole band.  Beyond, the table uses
    int_|x|^inf exp(j*pi*t^2/2) dt = T(|x|)*exp(j*pi*x^2/2) with
    T = g + j*f from the asymptotic series (see _SERIES):
    D = T(|x|)*conj(E) for x <= -8 and D = (1+j) - T(x)*conj(E) for
    x >= 8.  The phase is E's, reduced exactly, and the rounded x enters
    only the slowly varying T, so there D is exact to a few ulp even at
    even SF, where sqrt(2/M) is rounded and scipy's phase pi*x^2/2 would
    be off by about x^2*eps.  Each tail is one pass over its whole slice.
    """
    x = j / k
    x *= np.sqrt(2.0 / M)
    neg, pos = x.searchsorted(-_TAIL_X, side="right"), x.searchsorted(_TAIL_X, side="left")
    d = np.empty(len(j), dtype=complex) if out is None else out
    d[neg:pos] = _kfun(x[neg:pos]) + (0.5 + 0.5j)
    # term m counts on the side of each tail next to the band
    starts = x[:neg].searchsorted(-_SERIES_X, side="right")
    _tail_into(d[:neg], x[:neg], e[:neg], [slice(a, neg) for a in starts], 0j)
    ends = x[pos:].searchsorted(_SERIES_X, side="left")
    _tail_into(d[pos:], x[pos:], e[pos:], [slice(0, b) for b in ends], 1 + 1j)
    return d


def _lattice_sums(M: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """B*Gc and the line powers of the f >= 0 lattice, computed at B = 1:
    the density at phi = i/k, 0 <= i <= n, and the line powers at
    phi = m, 0 <= k*m <= n (phi = f*M/B; see the module docstring).

    On this lattice u_l = j/k with j = k*l - k*M/2 - i, so the M arguments
    of one frequency are a stride-k window of a single table over j, of
    k*M + n + 1 points.  On a line w = 1, beta = 0 and, M being even,
    |sum_l E_l|^2 = M, a complete quadratic Gauss sum (Landsberg-Schaar),
    so the line power is P_m = |D(a0*(M/2 - m)) - D(a0*(-M/2 - m))|^2/(2*M^2),
    and there sum_l |X_1|^2 = |sum_l X_1|^2 = M^3*P_m.  k = 1 is all
    lines, and its density is M*(M - 1)*P_m.  For k > 1 the window sums
    of _factorized_sums are differences of strided prefix sums from the
    table's bottom.  The table holds D = K + (1+j)/2, which decays to 0 as
    j -> -inf, so far out the prefix sums stay small and the PSD is no
    difference of O(M) terms.  The density is combined and clipped at
    zero (Cauchy-Schwarz makes it nonnegative analytically) block by block.

    The table is built from the bottom up through a window of
    k*M + max(2*_CHUNK, k*M) + 1 points (the 1 takes in a grid's last
    block of one point).  A fill only builds: D and, for k > 1, the four
    prefix sums, each going on from the last row of k before it, so
    every sum is added in the order of one cumsum over the whole table,
    and a table that fits the window is built at once.  One loop over
    blocks of _CHUNK frequencies reads it: a block reads from its l = 0
    to its l = M, k*M points further up, and takes its lines and window
    sums from those same two slices.  When a block reaches past the
    window, the part still to be read moves to the window's start and
    the window is filled on from there.  A fill depends only on its own
    integers j: it evaluates the part of the band |x| < _TAIL_X that it
    holds (each band point once per table), and takes E from one period
    of k^2*M points, computed once where it fits the window.
    """
    top = k * M
    size = top + n + 1
    width = min(size, top + max(2 * _CHUNK, top) + 1)
    j_bottom = -(top // 2) - n  # table index t holds j = j_bottom + t
    # j^2 mod 2k^2M has period k^2M in j (M is even), so one period of E
    # serves; a table built in parts keeps it where it fits the window
    period = k * top
    cache = (_lattice_phase(M, k, np.arange(j_bottom, j_bottom + period))
             if period <= width < size else None)
    # the window holds D from table index base on, and the exclusive
    # prefix sums there and k further (0 below index k)
    d = np.empty(width, dtype=complex)
    prefix = ([np.zeros(width + 2 * k, dtype=t) for t in (complex, complex, float, complex)]
              if k > 1 else [])
    base = built = 0
    psd, lines = np.empty(n + 1), np.empty(n // k + 1)
    # w = exp(-j*2*pi*i/k) for i mod k = 0..k-1
    roots = np.exp(-2j * np.pi * np.arange(k) / k)
    # lo ascending: every read is a forward slice, every write a reversed one
    for lo, hi in _spans(n + 1, _CHUNK):
        if built < hi + top:
            if lo:
                # what is still to be read moves to the window's start
                keep = built - lo
                d[:keep] = d[lo - base:built - base]
                for c in prefix:
                    c[:keep + k] = c[lo - base:built + k - base]
                base = lo
            stop = min(size, base + width)
            j = np.arange(j_bottom + built, j_bottom + stop)
            e = (_lattice_phase(M, k, j[:period]) if cache is None
                 else np.roll(cache, -(built % period)))
            if len(e) != len(j):
                e = np.resize(e, len(j))
            fill = _fresnel_table(M, k, j, e, d[built - base:stop - base])
            if k > 1:
                # |D|^2 and E*D live only while their prefix sums are built
                for c, v in zip(prefix, (e, fill, fill.real ** 2 + fill.imag ** 2, e * fill)):
                    _strided_prefix(v, k, c[built - base:])
                del v
            del j, e  # a fill's temporaries are gone before its blocks run
            built = stop
        a, b = lo - base, hi - base
        d_top, d_bot = d[a + top:b + top], d[a:b]
        # table index t holds l = 0 of frequency n - t and l = M at t + top,
        # so the block's lines are at t = n mod k, from lo + (n - lo) % k on;
        # abs writes a new array: written reversed, it takes numpy's scalar
        # loop, whose bits differ from the vector loop's
        s = (n - lo) % k
        power = np.abs(d_top[s::k] - d_bot[s::k])
        np.square(power, out=power)
        power /= 2 * M * M
        lines[(n - hi) // k + 1:(n - lo) // k + 1][::-1] = power
        out = slice(n + 1 - hi, n + 1 - lo)
        if k == 1:
            psd[out][::-1] = power * (M * (M - 1))
            continue
        # window sums of l = 0..M-1 from index lo
        sums = [c[a + top:b + top] - c[a:b] for c in prefix]
        w = roots[(n - np.arange(lo, hi)) % k]
        sum_abs2, sum_x = _factorized_sums(M, d_top, d_bot, w, *sums)
        g = (sum_abs2 - np.abs(sum_x) ** 2 / M) / (M * M)
        psd[out][::-1] = np.maximum(g, 0.0, out=g)
    return psd, lines


def _half_spectrum(p: LoraParams, f_max: float | None,
                   k: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The f >= 0 half of fresnel_spectrum(p, f_max, B/(k*M)): the grid
    step, the continuous PSD at f = i*step, 0 <= i <= n = round(f_max/step),
    and the line powers at f = m*B/M, 0 <= k*m <= n.  f_max None is the
    default span 8B.  The engine runs at B = 1; here the density is divided
    by B, once.  f_max must be finite and positive, and the table of
    k*M + n + 1 points must fit in _MAX_LATTICE, otherwise ValueError; so
    must the step B/(k*M) be a normal float and the default span finite,
    otherwise ValueError naming B."""
    B = p.b
    step = B / (k * p.m)
    if not _finite_normal(step):
        raise ValueError(f"b = {B!r} Hz gives a grid step B/(k*M) = {step!r} Hz (k = {k}) "
                         "that is not a normal float")
    if f_max is None and not math.isfinite(8.0 * B):
        raise ValueError(f"b = {B!r} Hz gives a default span |f| <= 8B beyond float range")
    f_max = _positive(8.0 * B if f_max is None else f_max, "f_max")
    # n stays a float until checked: beyond float range it is inf
    n = f_max / step
    _check_lattice(k * p.m + n + 1, f"f_max = {f_max!r} Hz at grid step {step!r} Hz")
    psd, lines = _lattice_sums(p.m, k, round(n))
    psd /= B
    return step, psd, lines


def fresnel_spectrum(p: LoraParams, f_max: float | None = None,
                     step: float | None = None) -> SpectrumResult:
    """Exact spectrum from the Fresnel closed form on the lattice
    f = n*B/(k*M), |f| <= f_max, plus the lines n*B/M within that grid.

    `step` must equal B/(k*M) for an integer k >= 1 (to 1e-9 relative),
    otherwise ValueError.  The defaults are |f| <= 8B and
    k = max(1, min(64, 8192 // M)), i.e. step max(B/(64M), B/8192), so
    the grid holds at most 131 073 points.  The Fresnel kernel is
    computed at B = 1 (see _lattice_sums): B only scales the grid, at
    i*(B/(k*M)), and the line frequencies, at m*(B/M), and divides the
    density, so every B gives the line powers of B = 1 and its density
    over B.  A B whose step is not a normal float, or whose default span
    8B overflows, raises ValueError.  One table of k*M + n + 1 Fresnel
    values, n = round(f_max/step), gives every line from two of its
    values and, through strided prefix sums, every grid point with
    f >= 0.  The spectrum is even in f (see the module docstring): f < 0
    is the exact mirror image.  The cost is O(k*M + len(grid)) in time;
    the table streams through a window of O(k*M + _CHUNK) points, at 120
    bytes each at most, beside results of about 49 bytes per grid point
    f >= 0 (see _MAX_LATTICE).  For k = 1 every grid point is a line, and
    the PSD comes from the line values (see _lattice_sums).  A table of
    more than _MAX_LATTICE points raises ValueError naming f_max and the
    step.  The tests check these values against a zero-padded DFT of the
    sampled waveforms.
    """
    k = max(1, min(64, 8192 // p.m)) if step is None else _lattice_k(p, step)
    step, continuous, lines = _half_spectrum(p, f_max, k)
    n, n_lines = len(continuous) - 1, len(lines) - 1
    # f < 0 mirrors f >= 0
    continuous, lines = (np.concatenate([v[:0:-1], v]) for v in (continuous, lines))
    lines = np.column_stack([np.arange(-n_lines, n_lines + 1) * (p.b / p.m), lines])
    return SpectrumResult(grid=np.arange(-n, n + 1) * step, continuous=continuous,
                          lines=lines, params=p)
