"""Closed-form cross-correlations between chirp waveforms.

For symbols l, m at distance d = m - l the normalized correlation of the
continuous waveforms is, in polar form,

    C(l,m) = A(d) * e^{j*theta},  A(d) = -M*sin(pi*d^2/M) / (pi*(M-|d|)*|d|),
                                  theta = pi*d*(l+m)/M,

with C(l,l) = 1.  Its magnitude |A(d)| depends on the distance only and
is bounded by 1/(sqrt(2M)-1), so the waveform set is asymptotically
orthogonal as M grows.  cross_correlation, correlation_matrix and
max_cross_correlation all read C from the one kernel _polar.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import LoraParams, Symbol, validate_symbol


def _polar(M: int, l, m) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude A and phase theta of C(l,m) = A*e^{j*theta}, broadcast
    over integer arrays l, m; A = 1 and theta = 0 where l == m."""
    l, m = np.asarray(l), np.asarray(m)
    d = m - l
    ad = np.where(d == 0, 1, np.abs(d))  # keeps the unused diagonal quotient finite
    amp = np.where(d == 0, 1.0, -M * np.sin(np.pi * d * d / M) / (np.pi * (M - ad) * ad))
    return amp, np.pi * d * (l + m) / M


def cross_correlation(p: LoraParams, l: Symbol, m: Symbol) -> complex:
    """Normalized complex cross-correlation of the baseband waveforms; its
    real part is the passband correlation."""
    amp, theta = _polar(p.m, validate_symbol(p, l), validate_symbol(p, m))
    return complex(amp * np.exp(1j * theta))


@dataclass(frozen=True)
class MaxCorrelation:
    """Maxima of |C| and |Re C| over all symbol pairs l != m."""

    max_abs: float
    max_abs_real: float
    argmax_abs: tuple[int, int]
    argmax_real: tuple[int, int]


def max_cross_correlation(p: LoraParams) -> MaxCorrelation:
    """Exhaustive scan of |C| and |Re C| maxima over l != m.

    |C| depends only on the symbol distance d, so the |C| maximum is an
    O(M) scan.  For |Re C| the distances are visited in decreasing order
    of |C|(d) and the scan stops once |C|(d) cannot beat the best |Re C|
    found; only a handful of distances are ever examined.
    """
    M = p.m
    d = np.arange(1, M)
    absvals = np.abs(_polar(M, 0, d)[0])
    i_abs = int(np.argmax(absvals))
    max_abs = float(absvals[i_abs])
    argmax_abs = (0, int(d[i_abs]))

    best_real = 0.0
    argmax_real = (0, int(d[i_abs]))
    for i in np.argsort(absvals)[::-1]:
        if absvals[i] <= best_real:
            break
        dd = int(d[i])
        ls = np.arange(M - dd)
        amp, theta = _polar(M, ls, ls + dd)
        vals = np.abs(amp * np.cos(theta))
        j = int(np.argmax(vals))
        if vals[j] > best_real:
            best_real = float(vals[j])
            argmax_real = (int(ls[j]), int(ls[j] + dd))
    return MaxCorrelation(max_abs, best_real, argmax_abs, argmax_real)


def correlation_bound(p: LoraParams) -> float:
    """Upper bound 1/(sqrt(2M) - 1) on max |C| over distinct pairs."""
    return 1.0 / (np.sqrt(2.0 * p.m) - 1.0)


def _penalty_db(max_abs_real: float) -> float:
    """-10*log10(1 - max|Re C|) in dB, from a max_cross_correlation scan."""
    return float(-10.0 * np.log10(1.0 - max_abs_real))


def snr_penalty_db(p: LoraParams) -> float:
    """Worst-case SNR penalty -10*log10(1 - max|Re C|) in dB relative to
    an orthogonal waveform set."""
    return _penalty_db(max_cross_correlation(p).max_abs_real)


def orthogonality_offsets(p: LoraParams) -> list[int]:
    """Symbol distances d = 2^((q+sf)/2) < M with q >= 0 of the same parity
    as sf.  Every returned distance gives exactly orthogonal waveform pairs
    (C == 0 for all l, l+d)."""
    return [1 << ((q + p.sf) // 2) for q in range(p.sf % 2, p.sf, 2)]


def real_orthogonality_condition(p: LoraParams, l: Symbol, m: Symbol) -> bool:
    """True when Re C(l,m) = 0 for l != m.

    Zeros of the real correlation occur when (m-l)^2/M is an integer or
    when (m^2-l^2)/M - 1/2 is an integer; the second condition matters
    only for passband waveforms and depends on the pair, not just the
    distance.
    """
    l = validate_symbol(p, l)
    m = validate_symbol(p, m)
    if l == m:
        return False
    M = p.m
    d = m - l
    if (d * d) % M == 0:
        return True
    return (2 * (m * m - l * l)) % (2 * M) == M


_MATRIX_SF_LIMIT = 8


def correlation_matrix(p: LoraParams) -> np.ndarray:
    """Dense M x M matrix of C(l,m); refuses sf > 8 (16M+ entries)."""
    if p.sf > _MATRIX_SF_LIMIT:
        raise ValueError(f"dense matrix limited to sf <= {_MATRIX_SF_LIMIT}, got sf={p.sf}")
    amp, theta = _polar(p.m, np.arange(p.m)[:, None], np.arange(p.m)[None, :])
    return amp * np.exp(1j * theta)
