"""Exact power spectrum of randomly modulated chirp streams.

For equiprobable symbols the PSD of the modulated stream splits into a
continuous density and discrete lines at multiples of B/M:

    Gc(f) = (1/(Ts*M)) * [sum_l |X(f;l)|^2 - (1/M)*|sum_l X(f;l)|^2]
    line power at n*B/M = |sum_l X(n*B/M;l)|^2 / (Ts^2 * M^2)

where X(f;l) is the Fourier transform of the single-symbol waveform,
available in closed form through Fresnel integrals.  The lines carry
exactly a fraction 1/M of the total signal power.  All spectra here are
normalized to the unit-power complex envelope (gamma = 1); absolute
power scaling belongs to the analysis layer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import fresnel as _scipy_fresnel

from .params import LoraParams, Symbol, validate_symbol
from .waveform import _sample_symbols


@dataclass(frozen=True)
class FresnelPair:
    """Fresnel cosine and sine integrals C(x), S(x)."""

    c: float | np.ndarray
    s: float | np.ndarray


def fresnel(x) -> FresnelPair:
    """Fresnel integrals C(x) = int_0^x cos(pi t^2/2) dt and the sine analogue.

    Odd in x, accurate to well below 1e-9 absolute over |x| <= 1e4
    (Cephes rational approximations via scipy).
    """
    s, c = _scipy_fresnel(x)
    if np.ndim(x) == 0:
        return FresnelPair(float(c), float(s))
    return FresnelPair(c, s)


def _kfun(x):
    """K(x) = C(x) + j*S(x)."""
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


def _transform_sums(p: LoraParams, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate sum_l |X(f;l)|^2 and sum_l X(f;l) over the alphabet."""
    sum_abs2 = np.zeros(f.shape, dtype=float)
    sum_x = np.zeros(f.shape, dtype=complex)
    for l in range(p.m):
        X = waveform_fourier_transform(p, l, f)
        sum_abs2 += np.abs(X) ** 2
        sum_x += X
    return sum_abs2, sum_x


def continuous_psd(p: LoraParams, grid) -> np.ndarray:
    """Continuous spectral density Gc(f) on an arbitrary frequency grid
    (Fresnel closed form; cost scales with M * len(grid))."""
    f = np.atleast_1d(np.asarray(grid, dtype=float))
    sum_abs2, sum_x = _transform_sums(p, f)
    return _psd_combine(sum_abs2, sum_x, p)


def discrete_spectrum_lines(p: LoraParams, n_max: int | None = None) -> np.ndarray:
    """Spectral-line powers at f = n*B/M for |n| <= n_max.

    n_max defaults to 4*M, which empirically captures the 1/M total to
    well below 1e-4 absolute (the truncated tail decays like 1/f^4).
    """
    if n_max is None:
        n_max = 4 * p.m
    if n_max < p.m:
        raise ValueError(f"n_max must be >= M = {p.m}, got {n_max}")
    n = np.arange(-n_max, n_max + 1)
    f = n * p.b / p.m
    _, sum_x = _transform_sums(p, f)
    power = np.abs(sum_x) ** 2 / (p.ts ** 2 * p.m ** 2)
    return np.column_stack([f, power])


def discrete_power_total(p: LoraParams, n_max: int | None = None) -> tuple[float, float]:
    """(analytic, numeric) total power of the discrete spectrum.

    The analytic value is exactly 1/M; the numeric value sums the line
    powers up to n_max and agrees within 1e-4.
    """
    lines = discrete_spectrum_lines(p, n_max)
    return 1.0 / p.m, float(lines[:, 1].sum())


def fresnel_spectrum(p: LoraParams, f_max: float | None = None,
                     step: float | None = None) -> SpectrumResult:
    """Assemble a SpectrumResult from the Fresnel closed form.

    Defaults: symmetric grid |f| <= 8B with step B/(64M), lines for
    |n| <= 4M.  Cost grows as M^2, so prefer psd_via_dft for sf >= 10
    or pass a coarser step.
    """
    if f_max is None:
        f_max = 8.0 * p.b
    if step is None:
        step = p.b / (64.0 * p.m)
    if f_max <= 0 or step <= 0:
        raise ValueError("f_max and step must be positive")
    n = int(round(f_max / step))
    grid = np.arange(-n, n + 1) * step
    cont = continuous_psd(p, grid)
    lines = discrete_spectrum_lines(p)
    return SpectrumResult(grid=grid, continuous=cont, lines=lines, params=p)


def psd_via_dft(p: LoraParams, zero_pad_factor: int = 1,
                n_per_symbol: int | None = None) -> SpectrumResult:
    """Spectrum through zero-padded DFTs of the sampled waveforms.

    Each symbol waveform is sampled n_per_symbol times (default 16M) over
    [0, Ts) and transformed with a zero-padded FFT of size
    n_per_symbol * zero_pad_factor, giving frequency step B/(k*M).
    Composite-Simpson weights plus the known endpoint x(Ts) = 1 make each
    FFT a 4th-order quadrature of the Fourier integral; a plain Riemann
    sum would leave an O(1/N) boundary error visible at -35 dB.  The
    weighted quadrature degrades near the Nyquist edge (an alias image
    appears around fs/2), so the output is cropped to |f| <= fs/4; raise
    n_per_symbol for more span or accuracy.

    Requires n_per_symbol >= 8M for aliasing control and divisible by 2M
    so chip boundaries land on even sample indices.
    """
    if zero_pad_factor < 1:
        raise ValueError(f"zero_pad_factor must be >= 1, got {zero_pad_factor}")
    M, B, Ts = p.m, p.b, p.ts
    if n_per_symbol is None:
        n_per_symbol = 16 * M
    N = int(n_per_symbol)
    if N < 8 * M:
        raise ValueError(f"n_per_symbol must be >= 8*M = {8 * M} for aliasing control, got {N}")
    if N % (2 * M):
        raise ValueError(f"n_per_symbol must be a multiple of 2*M = {2 * M}, got {N}")
    k = int(zero_pad_factor)
    dt = Ts / N
    nfft = N * k
    unit = LoraParams(sf=p.sf, b=B)

    w = np.empty(N)
    w[0] = 1.0 / 3.0
    w[1::2] = 4.0 / 3.0
    w[2::2] = 2.0 / 3.0
    # closing Simpson term: every waveform ends at x(Ts) = 1 by phase continuity
    q = np.arange(nfft)
    end_term = (1.0 / 3.0) * np.exp(-2j * np.pi * q / k)

    sum_abs2 = np.zeros(nfft)
    sum_x = np.zeros(nfft, dtype=complex)
    for a in range(M):
        x = _sample_symbols(unit, [a], N // M)[0]
        X = dt * (np.fft.fft(w * x, nfft) + end_term)
        sum_abs2 += np.abs(X) ** 2
        sum_x += X

    grid = np.fft.fftshift(np.fft.fftfreq(nfft, d=dt))
    sum_abs2 = np.fft.fftshift(sum_abs2)
    sum_x = np.fft.fftshift(sum_x)

    f_crop = N * B / (4.0 * M)  # fs/4
    sel = np.abs(grid) <= f_crop * (1 + 1e-12)
    grid, sum_abs2, sum_x = grid[sel], sum_abs2[sel], sum_x[sel]

    cont = _psd_combine(sum_abs2, sum_x, p)
    # lines sit on every k-th grid point; the crop edge -fs/4 is one of them
    line_sel = np.zeros(len(grid), dtype=bool)
    line_sel[::k] = True
    lines = np.column_stack([grid[line_sel],
                             np.abs(sum_x[line_sel]) ** 2 / (Ts ** 2 * M ** 2)])
    return SpectrumResult(grid=grid, continuous=cont, lines=lines, params=p)
