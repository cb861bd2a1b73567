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
spectrum path of the package.  Its independent cross-checks, a
zero-padded DFT of the sampled waveforms and the per-symbol loop over
closed-form transforms, live with the tests.  All spectra here are
normalized to the unit-power complex envelope (gamma = 1); absolute
power scaling belongs to the analysis layer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import fresnel as _scipy_fresnel

from .params import LoraParams, Symbol, validate_symbol


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


@dataclass(frozen=True)
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


def _lattice_k(p: LoraParams, step: float) -> int:
    """The integer k >= 1 with step = B/(k*M), to within 1e-9 relative.

    Spectra are computed on the lattice f = n*B/(k*M); a step off that
    lattice raises ValueError rather than being snapped to a nearby one.
    """
    ratio = p.b / (p.m * step) if step > 0 else 0.0
    k = round(ratio) if np.isfinite(ratio) else 0
    if k < 1 or abs(ratio - k) > 1e-9 * ratio:
        raise ValueError(
            f"grid step {step!r} Hz is not B/(k*M) = {p.b / p.m!r} Hz / k "
            "for an integer k >= 1")
    return k


def _factorized_sums(p: LoraParams, d_top, d_bot, w, s_d, s_d2, s_e, s_ed):
    """sum_l |X(f;l)|^2 and sum_l X(f;l) from the four window sums.

    With phi = f*M/B, u_l = l - M/2 - phi, a0 = sqrt(2/M), b = B^2/(2M),
    K = C + jS and E_l = exp(-j*pi*u_l^2/M), every transform factors as

        X(f;l) = E_l/(2*sqrt(b)) * [alpha + beta*K(a0*u_l)]
        alpha = K(a0*u_M) - w*K(a0*u_0),  beta = w - 1,  w = exp(-j*2*pi*phi).

    The identity holds with K replaced throughout by D = K - c for any
    constant c, which lets the caller anchor D near 0 where it is summed.
    Inputs: d_top = D(a0*u_M), d_bot = D(a0*u_0) and the sums over
    l = 0..M-1 of D(a0*u_l), |D|^2, E_l and E_l*D.
    """
    alpha = d_top - w * d_bot
    beta = w - 1.0
    four_b = 2.0 * p.b * p.b / p.m
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


_HALF = 0.5 + 0.5j  # K(x) -> +-(1+j)/2 as x -> +-inf
_CHUNK = 1 << 18  # frequencies per block of work


def _lattice_sums(p: LoraParams, k: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_l |X(f;l)|^2 and sum_l X(f;l) at f = n*B/(k*M), |n| <= n_max.

    On this lattice u_l = j/k with j = k*l - k*M/2 - n, so the M arguments
    of one frequency are a stride-k window of a single table over j, and
    the four window sums of _factorized_sums are differences of strided
    prefix sums.  The table holds D = K + (1+j)/2, which decays to 0 as
    j -> -inf, so in the far tail of f > 0 the prefix sums stay small and
    the PSD is not left as a difference of O(M) terms.  K is odd and E
    even in u: the window of -n is the window of +n shifted by one step
    (l = 1..M) with D negated, which is K - (1+j)/2, small as j -> +inf.
    One table over j <= k*M/2 thus serves both signs of f with
    k*M + n_max + 1 Fresnel evaluations.
    """
    M = p.m
    j = np.arange(-(k * M // 2) - n_max, k * M // 2 + 1)
    d = _kfun(np.sqrt(2.0 / M) * (j / k)) + _HALF
    # exp(-j*pi*u^2/M) with u = j/k, the phase reduced exactly in integers
    e = np.exp(-1j * np.pi * ((j * j) % (2 * k * k * M)) / (k * k * M))
    prefix = [_strided_prefix(v, k) for v in (d, d.real ** 2 + d.imag ** 2, e, e * d)]
    sum_abs2 = np.empty(2 * n_max + 1)
    sum_x = np.empty(2 * n_max + 1, dtype=complex)
    for start in range(0, n_max + 1, _CHUNK):
        m = np.arange(start, min(start + _CHUNK, n_max + 1))  # |n|
        lo = n_max - m  # table index of l = 0 for n = +m
        w = np.exp(-2j * np.pi * (m % k) / k)
        # windows l = 0..M-1 for n = +m, l = 1..M for n = -m
        s_pos = [c[lo + k * M] - c[lo] for c in prefix]
        s_neg = [c[lo + k * M + k] - c[lo + k] for c in prefix]
        sum_abs2[n_max - m], sum_x[n_max - m] = _factorized_sums(
            p, -d[lo], -d[lo + k * M], np.conj(w), -s_neg[0], s_neg[1], s_neg[2], -s_neg[3])
        sum_abs2[n_max + m], sum_x[n_max + m] = _factorized_sums(
            p, d[lo + k * M], d[lo], w, *s_pos)
    return sum_abs2, sum_x


def _line_powers(p: LoraParams, k: int, sum_x: np.ndarray, n_lines: int) -> np.ndarray:
    """Lines at n*B/M, |n| <= n_lines, from sum_x on the lattice
    f = n*B/(k*M): power |sum_l X|^2 / (Ts^2 * M^2) at every k-th point."""
    mid = len(sum_x) // 2
    sum_x = sum_x[mid - k * n_lines:mid + k * n_lines + 1:k]
    f = np.arange(-n_lines, n_lines + 1) * p.b / p.m
    return np.column_stack([f, np.abs(sum_x) ** 2 / (p.ts ** 2 * p.m ** 2)])


def discrete_spectrum_lines(p: LoraParams, n_max: int | None = None) -> np.ndarray:
    """Spectral-line powers at f = n*B/M for |n| <= n_max.

    n_max defaults to 4*M, which empirically captures the 1/M total to
    well below 1e-4 absolute (the truncated tail decays like 1/f^4).
    """
    if n_max is None:
        n_max = 4 * p.m
    if n_max < p.m:
        raise ValueError(f"n_max must be >= M = {p.m}, got {n_max}")
    n_max = int(n_max)
    return _line_powers(p, 1, _lattice_sums(p, 1, n_max)[1], n_max)


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
    O(k*M + len(grid)).  The tests check these values against a
    zero-padded DFT of the sampled waveforms.
    """
    if f_max is None:
        f_max = 8.0 * p.b
    k = max(1, min(64, 8192 // p.m)) if step is None else _lattice_k(p, step)
    if not (np.isfinite(f_max) and f_max > 0):
        raise ValueError(f"f_max must be finite and positive, got {f_max}")
    step = p.b / (k * p.m)
    n = int(round(f_max / step))
    n_ext = max(n, 4 * k * p.m)
    sum_abs2, sum_x = _lattice_sums(p, k, n_ext)
    crop = slice(n_ext - n, n_ext + n + 1)
    return SpectrumResult(grid=np.arange(-n, n + 1) * step,
                          continuous=_psd_combine(sum_abs2[crop], sum_x[crop], p),
                          lines=_line_powers(p, k, sum_x, n_ext // k), params=p)
