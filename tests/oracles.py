"""Independent reference computations used to validate closed forms.

These stay deliberately dumb: direct quadrature of defining integrals,
per-chip Gauss-Legendre panels, the chip-rate formula written out, the
correlation closed form as a difference of exponentials, the
per-symbol loop over closed-form transforms and zero-padded DFTs of the
sampled waveforms.  None of them call the code paths they are checking;
the waveform oracles evaluate the continuous law waveform_at, never the
cyclic-shift sampler, and the spectrum oracles never touch the
factorized lattice sums: the loop oracles sum waveform_fourier_transform
symbol by symbol, and the DFT oracle transforms the samples that the
public modulate gives.  The one exception checks a layout, not a closed
form: lattice_sums_whole_table is the lattice engine as it was before it
streamed its table through a window, so the two must agree bit for bit.
"""
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import i0e

from lorachirp import (LoraParams, SpectrumResult, Symbol, modulate,
                       validate_symbol, waveform_at, waveform_fourier_transform)
from lorachirp.params import _spans
from lorachirp.spectrum import _CHUNK, _factorized_sums, _fresnel_table, _lattice_phase


def fresnel_quadrature(x: float) -> tuple[float, float]:
    """(C(x), S(x)) by adaptive quadrature of the defining integrals.

    For |x| > 1 the substitution u = t^2 turns the integrand into a
    weight function QUADPACK handles with its oscillatory rule, keeping
    the oracle accurate (~1e-13) out to |x| ~ 1e3.
    """
    sign = 1.0 if x >= 0 else -1.0
    x = abs(x)
    opts = dict(limit=3000, epsabs=1e-13, epsrel=1e-13)
    top = min(x, 1.0)
    c, _ = quad(lambda t: np.cos(np.pi * t * t / 2), 0.0, top, **opts)
    s, _ = quad(lambda t: np.sin(np.pi * t * t / 2), 0.0, top, **opts)
    if x > 1.0:
        c2, _ = quad(lambda u: 0.5 / np.sqrt(u), 1.0, x * x,
                     weight="cos", wvar=np.pi / 2, maxp1=200, **opts)
        s2, _ = quad(lambda u: 0.5 / np.sqrt(u), 1.0, x * x,
                     weight="sin", wvar=np.pi / 2, maxp1=200, **opts)
        c, s = c + c2, s + s2
    return sign * c, sign * s


def complex_quadrature(fn, a: float, b: float, **opts) -> complex:
    """Adaptive quadrature of a complex-valued integrand."""
    defaults = dict(limit=800, epsabs=1e-12, epsrel=1e-12)
    defaults.update(opts)
    re, _ = quad(lambda t: fn(t).real, a, b, **defaults)
    im, _ = quad(lambda t: fn(t).imag, a, b, **defaults)
    return re + 1j * im


def chirp_integral_quadrature(a: float, b: float, t1: float, t2: float) -> complex:
    """Direct quadrature of int exp{j*2*pi*(a*t + b*t^2)} dt."""
    return complex_quadrature(lambda t: np.exp(2j * np.pi * (a * t + b * t * t)), t1, t2)


def mean_power_quadrature(fn, t_max: float, n_panels: int, order: int = 32) -> float:
    """(1/t_max) * int_0^t_max fn(t)^2 dt with Gauss-Legendre panels.

    Panels should align with the integrand's kinks (one panel per chip
    for the mean-envelope magnitude).
    """
    nodes, weights = leggauss(order)
    edges = np.linspace(0.0, t_max, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = 0.5 * (hi - lo) * nodes + 0.5 * (lo + hi)
        total += 0.5 * (hi - lo) * float(np.sum(weights * fn(t) ** 2))
    return total / t_max


def fourier_transform_quadrature(p, l: int, f: float) -> complex:
    """Direct quadrature of X(f;l) = int_0^Ts x(t;l) e^{-j2pi f t} dt,
    split at the frequency-wrap instant."""
    tau = (p.m - l) / p.b
    fn = lambda t: waveform_at(p, l, t) * np.exp(-2j * np.pi * f * t)
    return (complex_quadrature(fn, 0.0, tau, limit=2000)
            + complex_quadrature(fn, tau, p.ts, limit=2000))


def transform_sums_loop(p: LoraParams, f) -> tuple[np.ndarray, np.ndarray]:
    """sum_l |X(f;l)|^2 and sum_l X(f;l), one closed-form transform per
    symbol: 4*M Fresnel evaluations per frequency."""
    f = np.atleast_1d(np.asarray(f, dtype=float))
    sum_abs2 = np.zeros(f.shape, dtype=float)
    sum_x = np.zeros(f.shape, dtype=complex)
    for l in range(p.m):
        X = waveform_fourier_transform(p, l, f)
        sum_abs2 += np.abs(X) ** 2
        sum_x += X
    return sum_abs2, sum_x


def continuous_psd_loop(p: LoraParams, f) -> np.ndarray:
    """Gc(f) = (sum |X|^2 - |sum X|^2/M)/(Ts*M) from the per-symbol loop,
    unclipped."""
    sum_abs2, sum_x = transform_sums_loop(p, f)
    return (sum_abs2 - np.abs(sum_x) ** 2 / p.m) / (p.ts * p.m)


def psd_via_dft(p: LoraParams, zero_pad_factor: int = 1,
                n_per_symbol: int | None = None) -> SpectrumResult:
    """Spectrum through zero-padded DFTs of the sampled waveforms.

    Each symbol waveform is sampled n_per_symbol = N times (default 16M)
    over [0, Ts) by modulate and transformed with a zero-padded FFT of
    size N * zero_pad_factor, giving frequency step B/(k*M) with
    k = zero_pad_factor.  Composite-Simpson weights plus the known
    endpoint x(Ts) = 1 make each FFT a 4th-order quadrature of the
    Fourier integral; a plain Riemann sum would leave an O(1/N) boundary
    error visible at -35 dB.  The Simpson rule needs N >= 8M, for
    aliasing control, and N a multiple of 2M, so chip boundaries land on
    even sample indices.

    The weighted quadrature degrades near the Nyquist edge (an alias
    image appears around fs/2), so the output is cropped to |f| <= fs/4.
    With N = 32M (crop at 8B) the PSD reads more than 0.1 dB low beyond
    about 4.5B, and up to 1.7 dB low at the crop; raise N for more span
    or accuracy.  Over |f| <= 2B it agrees with the Fresnel closed form
    to below -60 dB of the peak.
    """
    M, B, Ts = p.m, p.b, p.ts
    if n_per_symbol is None:
        n_per_symbol = 16 * M
    N = int(n_per_symbol)
    assert N >= 8 * M and N % (2 * M) == 0, f"n_per_symbol = {N} for M = {M}"
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
        x = modulate(unit, [a], oversample=N // M).samples
        X = dt * (np.fft.fft(w * x, nfft) + end_term)
        sum_abs2 += np.abs(X) ** 2
        sum_x += X

    grid = np.fft.fftshift(np.fft.fftfreq(nfft, d=dt))
    sum_abs2 = np.fft.fftshift(sum_abs2)
    sum_x = np.fft.fftshift(sum_x)

    f_crop = N * B / (4.0 * M)  # fs/4
    sel = np.abs(grid) <= f_crop * (1 + 1e-12)
    grid, sum_abs2, sum_x = grid[sel], sum_abs2[sel], sum_x[sel]

    # Cauchy-Schwarz makes the continuous PSD nonnegative; clip the rounding
    cont = np.maximum((sum_abs2 - np.abs(sum_x) ** 2 / M) / (Ts * M), 0.0)
    # lines sit on every k-th grid point; the crop edge -fs/4 is one of them
    line_sel = np.zeros(len(grid), dtype=bool)
    line_sel[::k] = True
    lines = np.column_stack([grid[line_sel],
                             np.abs(sum_x[line_sel]) ** 2 / (Ts ** 2 * M ** 2)])
    return SpectrumResult(grid=grid, continuous=cont, lines=lines, params=p)


def chip_rate_samples(p: LoraParams, a: Symbol) -> np.ndarray:
    """The paper's chip-rate model x[k] = exp{j*2*pi*k*(a/M - 1/2 + k/(2M))},
    k = 0..M-1, with no modulo step."""
    k = np.arange(p.m)
    return np.exp(2j * np.pi * k * (a / p.m - 0.5 + k / (2.0 * p.m)))


def difference_of_exponentials_correlation(p: LoraParams, l, m) -> np.ndarray:
    """C(l,m) = M*(e^{j2pi*l*d/M} - e^{j2pi*m*d/M}) / (j2pi*(M-|d|)*|d|),
    d = m - l, with C = 1 where l == m, broadcast over integer arrays l, m.

    The closed form before its reduction to polar form.  The phases
    l*d/M and m*d/M are reduced mod 1 in integers, so the only rounding
    left is that of one exponential each.
    """
    M = p.m
    l, m = np.asarray(l), np.asarray(m)
    d = m - l
    ad = np.where(d == 0, 1, np.abs(d))
    num = np.exp(2j * np.pi * ((l * d) % M) / M) - np.exp(2j * np.pi * ((m * d) % M) / M)
    return np.where(d == 0, 1.0, M * num / (2j * np.pi * (M - ad) * ad))


def numeric_cross_correlation_oracle(p: LoraParams, l: Symbol, m: Symbol,
                                     steps: int) -> complex:
    """Brute-force check of the closed form: trapezoidal integration of
    (1/Ts) * int_0^Ts x(t;l) x*(t;m) dt on a uniform grid of `steps` panels.

    Error is O(steps^-2); steps must be at least 64*M.
    """
    l = validate_symbol(p, l)
    m = validate_symbol(p, m)
    if steps < 64 * p.m:
        raise ValueError(f"steps must be >= 64*M = {64 * p.m}, got {steps}")
    t = np.linspace(0.0, p.ts, steps + 1)
    f = waveform_at(p, l, t) * np.conj(waveform_at(p, m, t))
    return complex(np.trapezoid(f, dx=p.ts / steps) / p.ts)


def numeric_cross_correlation_matrix(p: LoraParams, steps: int,
                                     chunk: int = 1 << 14) -> np.ndarray:
    """All-pairs trapezoidal oracle, computed as a weighted Gram matrix.

    Equivalent to calling the per-pair oracle for every (l, m) but runs as
    chunked matrix products over the shared time grid.
    """
    if steps < 64 * p.m:
        raise ValueError(f"steps must be >= 64*M = {64 * p.m}, got {steps}")
    M = p.m
    t = np.linspace(0.0, p.ts, steps + 1)
    w = np.ones(steps + 1)
    w[0] = w[-1] = 0.5
    G = np.zeros((M, M), dtype=complex)
    for start in range(0, steps + 1, chunk):
        tc = t[start:start + chunk]
        X = np.empty((M, len(tc)), dtype=complex)
        for a in range(M):
            X[a] = waveform_at(p, a, tc)
        G += (X * w[start:start + chunk]) @ X.conj().T
    return G * (p.ts / steps) / p.ts


def noncoherent_orthogonal_ser(m: int, snr: float) -> float:
    """Symbol error rate of the optimal noncoherent detector of m equally
    likely, equal-energy orthogonal signals in complex white Gaussian noise:

        Pe = 1 - int_0^inf r e^{-(r^2 + 2g)/2} I0(sqrt(2g) r) (1 - e^{-r^2/2})^{m-1} dr

    with g = Es/N0 = m * snr, snr being the per-sample SNR of a symbol of m
    chip samples.  e^{-(r^2 + 2g)/2} I0(a r) is rewritten as
    e^{-(r - a)^2/2} i0e(a r), a = sqrt(2g), which cannot overflow.  The
    first factor is the Rician density of the correct bin's magnitude and
    integrates to 1, so Pe is integrated directly as its product with
    1 - (1 - e^{-r^2/2})^{m-1}, the chance that one of the m - 1 other
    bins is larger; that keeps small error rates accurate.
    """
    a = np.sqrt(2.0 * m * snr)

    def integrand(r: float) -> float:
        tail = np.exp(-r * r / 2)
        wrong = 1.0 if tail == 1.0 else -np.expm1((m - 1) * np.log1p(-tail))
        return r * np.exp(-(r - a) ** 2 / 2) * i0e(a * r) * wrong

    edges = sorted({0.0, float(np.sqrt(2 * np.log(m))), float(a), float(a) + 40.0})
    return sum(quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges, edges[1:]))


def occupied_bandwidth_bisection(spec: SpectrumResult, fraction: float, tol: float) -> float:
    """Smallest two-sided width W capturing `fraction` of spec's power, by
    bisection on [0, 2*max(grid)] down to a bracket of width tol (or until
    the bracket cannot be halved in floating point); returns the bracket's
    upper end.

    The captured power at W is the trapezoid integral of the continuous PSD
    over [0, W/2] plus that over [-W/2, 0], each read by linear
    interpolation of its cumulative sum from 0 Hz out, plus the powers of
    the lines with |f| <= W/2, taken by a mask on every step (the edge
    widened by 1e-12 relative, so that a line on it counts).  It assumes
    nothing of the grid's symmetry or of where the lines sit, only that
    0 Hz is a grid point.
    """
    grid, psd = spec.grid, spec.continuous
    (zero,) = np.flatnonzero(grid == 0.0)
    # the distances from 0 Hz and the cumulative integrals out to them, f >= 0 then f <= 0
    sides = [(f, np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(f))]))
             for f, g in ((grid[zero:], psd[zero:]), (-grid[zero::-1], psd[zero::-1]))]
    freqs = np.abs(spec.line_frequencies)

    def captured(width: float) -> float:
        half = width / 2.0
        cont = sum(np.interp(half, f, cum) for f, cum in sides)
        return float(cont + spec.line_powers[freqs <= half * (1 + 1e-12)].sum())

    lo, hi = 0.0, 2.0 * float(grid[-1])
    assert captured(hi) >= fraction, f"fraction {fraction} beyond the span"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if captured(mid) >= fraction:
            hi = mid
        else:
            lo = mid
    return hi


def captured_power_exact(spec: SpectrumResult, width: float) -> tuple[Fraction, Fraction]:
    """The power a two-sided width W captures, in exact rational arithmetic
    on the float grid, PSD and line powers of spec: the trapezoid integral
    of the continuous PSD over [-W/2, W/2], taken over a partial cell as
    the share of the cell's trapezoid that a linear interpolation of the
    cumulative integral gives, plus the powers of the lines with |f| < W/2
    (first value) or |f| <= W/2 (second).  No sum depends on an order."""
    half = width / 2
    grid, psd = spec.grid.tolist(), spec.continuous.tolist()
    # every double here is an integer multiple of 2^-scale
    scale = max(v.as_integer_ratio()[1].bit_length() - 1 for v in grid + psd + [half])

    def exact(v: float) -> int:
        n, d = v.as_integer_ratio()
        return n << (scale - (d.bit_length() - 1))

    x, g, h = [exact(v) for v in grid], [exact(v) for v in psd], exact(half)
    # (g1 + g2) / 2 * (x2 - x1) over a whole cell, the share (hi - lo) / (x2 - x1) of it over a part
    doubled = sum((g[j] + g[j + 1]) * (min(x[j + 1], h) - max(x[j], -h))
                  for j in range(len(x) - 1) if max(x[j], -h) < min(x[j + 1], h))
    continuous = Fraction(doubled, 2 << (2 * scale))
    lines = [(abs(f), p) for f, p in zip(spec.line_frequencies.tolist(), spec.line_powers.tolist())
             if abs(f) <= half]
    inner = sum(Fraction(p) for f, p in lines if f < half)
    return continuous + inner, continuous + sum(Fraction(p) for _, p in lines)


def strided_prefix_whole(values: np.ndarray, k: int) -> np.ndarray:
    """Exclusive prefix sums along stride k: out[i] = values[i - k] +
    values[i - 2k] + ..., for i < len(values)."""
    rows = -(-len(values) // k)
    out = np.zeros(rows * k, dtype=values.dtype)
    out[k:len(values)] = values[:len(values) - k]
    block = out.reshape(rows, k)
    np.cumsum(block, axis=0, out=block)
    return out


def lattice_sums_whole_table(M: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """B*Gc and the line powers of the f >= 0 lattice at B = 1: the
    density at phi = f*M/B = i/k, 0 <= i <= n, and the line powers at
    phi = m, 0 <= k*m <= n.

    On this lattice u_l = j/k with j = k*l - k*M/2 - i, so the M arguments
    of one frequency are a stride-k window of a single table over j, of
    k*M + n + 1 points.  On a line w = 1, beta = 0 and, M being even,
    |sum_l E_l|^2 = M, a complete quadratic Gauss sum (Landsberg-Schaar),
    so the line power is P_m = |D(a0*(M/2 - m)) - D(a0*(-M/2 - m))|^2/(2*M^2)
    and, k = 1 being all lines, its density M*(M - 1)*P_m.  For k > 1 the
    window sums of _factorized_sums are differences of strided prefix
    sums from the table's bottom.  The table holds D = K + (1+j)/2, which
    decays to 0 as j -> -inf, so far out the prefix sums stay small and
    the PSD is no difference of O(M) terms.

    The whole table, its phases E and its four prefix sums are held at
    once, about 120 bytes a point; lorachirp.spectrum._lattice_sums holds
    only a window of them and must give the same bits.
    """
    top = k * M
    j = np.arange(-(top // 2) - n, top // 2 + 1)
    # j^2 mod 2k^2M has period k^2M in j (M is even), so one period of E serves
    e = np.resize(_lattice_phase(M, k, j[:k * top]), len(j))
    d = _fresnel_table(M, k, j, e)
    # table index t holds l = 0 of frequency n - t and l = M at t + top
    lines = np.abs(d[n % k + top::k] - d[n % k:n + 1:k])[::-1] ** 2 / (2 * M * M)
    if k == 1:
        return lines * (M * (M - 1)), lines
    # |D|^2 and E*D live only while their prefix sums are built
    prefix = [strided_prefix_whole(v, k) for v in (e, d, d.real ** 2 + d.imag ** 2, e * d)]
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
            M, d[lo + top:hi + top], d[lo:hi], w, *sums)
        abs2_sum[out][::-1] = np.abs(sum_x) ** 2
    # Cauchy-Schwarz makes the density nonnegative analytically
    return np.maximum((sum_abs2 - abs2_sum / M) / (M * M), 0.0), lines
