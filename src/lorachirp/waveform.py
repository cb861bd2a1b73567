"""Time-domain synthesis of frequency-shift chirp waveforms.

The instantaneous frequency starts at a*B/M, increases linearly at rate
B/Ts and wraps back by B at tau_a = Ts*(1 - a/M).  The unit step uses the
right-continuous convention u(0) = 1 so the wrap applies exactly at tau_a
and the frequency stays in [0, B).  Complex envelopes are centered at
frequency zero (the chirp sweeps [-B/2, B/2)).
"""
from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import (IqBuffer, LoraParams, Symbol, _finite_normal, _integer, _quote,
                     validate_symbol)


def _as_time_array(t, t_max: float, closed: bool):
    """Validate t against [0, t_max) or [0, t_max] and return array + scalar flag."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    inside = (arr >= 0) & (arr <= t_max if closed else arr < t_max)
    if not np.all(inside):
        span = f"[0, {t_max}]" if closed else f"[0, {t_max})"
        raise ValueError(f"time {arr[~inside][0]} outside the symbol interval {span}")
    return arr, scalar


def instantaneous_frequency(p: LoraParams, a: Symbol, t):
    """Instantaneous frequency f(t;a) in Hz for t in [0, Ts).

    f(t;a) = a*B/M + (B/Ts)*t - B*u(t - tau_a), i.e. a linear sweep from
    the symbol-dependent start frequency, reduced modulo B.  Accepts a
    scalar or array of times.
    """
    a = validate_symbol(p, a)
    t, scalar = _as_time_array(t, p.ts, closed=False)
    tau_a = (p.m - a) / p.b
    f = a * p.b / p.m + (p.b / p.ts) * t - p.b * (t >= tau_a)
    return float(f[0]) if scalar else f


def phase(p: LoraParams, a: Symbol, t):
    """Accumulated phase in radians for t in [0, Ts], zero at t = 0.

    phase(t;a) = 2*pi*[a*B*t/M + B*t^2/(2*Ts) - B*(t - tau_a)*u(t - tau_a)].
    Continuous in t, and phase(Ts;a) is a multiple of 2*pi for every a.
    """
    a = validate_symbol(p, a)
    t, scalar = _as_time_array(t, p.ts, closed=True)
    tau_a = (p.m - a) / p.b
    wrap = (t - tau_a) * (t >= tau_a)
    ph = 2.0 * np.pi * (a * p.b * t / p.m + p.b * t * t / (2.0 * p.ts) - p.b * wrap)
    return float(ph[0]) if scalar else ph


def waveform_at(p: LoraParams, a: Symbol, t):
    """Complex envelope centered at frequency zero, for t in [0, Ts].

    x(t;a) = exp{j*(phase(t;a) - pi*B*t)}
           = exp{j*2*pi*B*t*[a/M - 1/2 + B*t/(2M) - u(t - (M-a)/B)]}

    the two forms differ by a multiple of 2*pi.  This is the only
    closed-form expression of the waveform; every sampled waveform is
    gathered from it by `_sample_symbols`.
    """
    x = np.exp(1j * (phase(p, a, t) - np.pi * p.b * np.asarray(t, dtype=float)))
    return complex(x) if np.ndim(t) == 0 else x


@functools.lru_cache(maxsize=16)
def _base_phase_windows(p: LoraParams, oversample: int) -> np.ndarray:
    """Read-only (L+1, L) view whose row s is the phase of the base upchirp
    x0 = x(.;0) cyclically shifted by s samples, L = oversample*M, taken
    over one copy of the phase concatenated with itself."""
    t = np.arange(oversample * p.m) / (oversample * p.b)
    theta0 = np.angle(waveform_at(p, 0, t))
    return sliding_window_view(np.concatenate([theta0, theta0]), len(theta0))


def _sample_symbols(p: LoraParams, a: np.ndarray, oversample: int) -> np.ndarray:
    """Rows x(n;a) = e^{j*pi*a*(1 - a/M)} * x0[(n + a*oversample) mod (oversample*M)].

    At the sampling instants t_n = n*Ts/(oversample*M) every symbol is a
    phase-rotated cyclic shift of the base upchirp x0 = x(.;0): read from
    its a-th chip on, x0 starts at frequency a*B/M and wraps back to its
    first chip exactly where x(t;a) wraps.  The rotation is added to the
    gathered phase rather than multiplied onto complex samples, so each
    sample's magnitude is rounded once, as in waveform_at.  `a` is an int64
    array of symbols already checked to lie in [0, M); returns a new
    (len(a), oversample*M) array whose rows depend only on their symbol.
    """
    oversample = _integer(oversample, "oversample", lo=1)
    try:
        rate = oversample * p.b
    except OverflowError:  # an int oversample beyond float range
        rate = math.inf
    if not (_finite_normal(rate) and _finite_normal(1.0 / rate)):
        raise ValueError(f"oversample = {_quote(oversample)} with b = {p.b} Hz gives a sample rate "
                         "oversample*b or sample period 1/(oversample*b) that is not a "
                         "finite normal float")
    phases = _base_phase_windows(p, oversample)[a * oversample]
    # a*(M - a) mod 2M keeps the rotation angle exact for every a
    phases += (np.pi * ((a * (p.m - a)) % (2 * p.m)) / p.m)[:, None]
    return np.exp(1j * phases)


def _symbol_array(p: LoraParams, symbols) -> np.ndarray:
    """The symbols as an int64 array, checked in bulk: the types, then the
    range of the whole array.  Only if that check fails are they checked
    one by one, so that validate_symbol names the first bad symbol."""
    symbols = list(symbols)
    if all(issubclass(t, (int, np.integer)) and not issubclass(t, bool)
           for t in set(map(type, symbols))):
        try:
            a = np.array(symbols, dtype=np.int64)
        except OverflowError:
            pass
        else:
            if len(a) == 0 or (a.min() >= 0 and a.max() < p.m):
                return a
    return np.array([validate_symbol(p, s) for s in symbols], dtype=np.int64)


def modulate(p: LoraParams, symbols: Sequence[Symbol], oversample: int = 1) -> IqBuffer:
    """Concatenate per-symbol waveforms into one phase-continuous stream.

    The modulation is memoryless: every symbol starts and ends at phase
    zero, so concatenation of independently synthesized waveforms is the
    exact modulator output.  Each symbol is sampled on the left-closed
    grid t_k = k*Ts/(oversample*M), oversample*M samples at rate
    oversample*B with none at t = Ts; modulate(p, [a]) gives the
    chip-rate samples of symbol a that the receiver works on.

    The buffer holds one sampled row per distinct symbol and the index of
    each symbol's row.  The library's passes gather the stream from them
    block by block; `samples` builds it whole on first access.
    """
    a = _symbol_array(p, symbols)
    if len(a) == 0:
        raise ValueError("symbols must be a non-empty sequence")
    # a stream holds at most M distinct rows: sample each once, and gather
    # the rows of the stream block by block only when they are read
    distinct, inverse = np.unique(a, return_inverse=True)
    table = _sample_symbols(p, distinct, oversample)
    return IqBuffer._lazy(table.shape[1] * len(a),
                          functools.partial(_gather_rows, table, inverse),
                          fs=oversample * p.b)


def _gather_rows(table: np.ndarray, rows: np.ndarray, lo: int, hi: int,
                 out: np.ndarray) -> None:
    """Write samples lo..hi-1 of the stream table[rows].ravel() into out.
    Whole rows are gathered in one np.take; a block that starts or ends
    inside a row copies that row's part on its own."""
    width = table.shape[1]
    row, col = divmod(lo, width)
    done = 0
    if col:
        done = min(width - col, hi - lo)
        out[:done] = table[rows[row], col:col + done]
        row += 1
    whole = (hi - lo - done) // width
    # mode="clip" skips the bounds check, which would buffer `out`;
    # every entry of rows indexes the table
    np.take(table, rows[row:row + whole], axis=0, mode="clip",
            out=out[done:done + whole * width].reshape(whole, width))
    done += whole * width
    if done < hi - lo:
        out[done:] = table[rows[row + whole], :hi - lo - done]


def mean_envelope_magnitude(p: LoraParams, t):
    """|E[x(t;A)]| for equiprobable symbols: |sin(pi*B*t)/(M*sin(pi*B*t/M))|.

    On [0, Ts) the denominator vanishes only at t = 0, where the value is
    its limit 1; it is not divided there, so no warning is raised.
    """
    t, scalar = _as_time_array(t, p.ts, closed=False)
    half = np.pi * p.b * t / p.m
    denom = p.m * np.sin(half)
    v = np.ones_like(half)
    np.divide(np.sin(p.m * half), denom, out=v, where=denom != 0)
    np.abs(v, out=v)
    return float(v[0]) if scalar else v


def payload_to_symbols(payload: bytes, sf: int) -> list[int]:
    """Map a byte payload onto SF-bit symbols.

    The payload is read as a big-endian bit stream, chunked into SF-bit
    groups (most significant bit first) and zero-padded at the tail.
    """
    sf = _integer(sf, "sf", 1, 16)
    if len(payload) == 0:
        raise ValueError("payload must be non-empty")
    bits = np.unpackbits(np.frombuffer(bytes(payload), dtype=np.uint8))
    pad = (-len(bits)) % sf
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    weights = 1 << np.arange(sf - 1, -1, -1)
    return [int(v) for v in bits.reshape(-1, sf) @ weights]
