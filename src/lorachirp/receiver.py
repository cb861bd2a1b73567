"""Chip-rate dechirping and DFT demodulation.

Sampled every Tc = 1/B seconds, symbol a is the base upchirp x(.;0)
cyclically shifted by a chips and rotated by a constant phase (see
waveform._sample_symbols); no modulo step is needed because the
frequency wrap adds a whole multiple of 2*pi at the chip instants.
Multiplying by the conjugate of the unit-amplitude base upchirp turns
the symbol into a complex sinusoid at frequency a/M cycles per chip,
whose M-point DFT peaks at bin a.
"""
from __future__ import annotations

import numpy as np

from .params import IqBuffer, LoraParams, Symbol
from .waveform import _sample_symbols


def dechirp(p: LoraParams, chips) -> np.ndarray:
    """Multiply chip-rate symbols (M samples on the last axis) by the
    conjugate base upchirp.

    For a clean symbol a the result is gamma * e^{j*2*pi*k*a/M}, k = 0..M-1.
    """
    chips = np.asarray(chips)
    if chips.shape[-1:] != (p.m,):
        raise ValueError(f"expected M = {p.m} chips on the last axis, got shape {chips.shape}")
    return chips * np.conj(_sample_symbols(LoraParams(sf=p.sf, b=p.b), [0], 1)[0])


def demodulate_stream(iq: IqBuffer, p: LoraParams) -> list[Symbol]:
    """Demodulate a chip-rate (or integer-oversampled) symbol stream.

    When iq.fs is an integer multiple of B, every (fs/B)-th sample is
    taken starting at index 0 with no anti-alias filtering: band-limiting
    would distort the chirps, and at chip instants the plain samples are
    already exact.  After decimation the length must be a whole number of
    symbols.  Each symbol is detected as argmax_q |DFT(dechirped)[q]|;
    ties break to the lowest bin.
    """
    if len(iq) == 0:
        raise ValueError("cannot demodulate an empty buffer")
    if not np.all(np.isfinite(iq.samples)):
        raise ValueError("cannot demodulate a buffer holding NaN or infinite samples")
    ratio = iq.fs / p.b
    r = int(round(ratio))
    if r < 1 or abs(ratio - r) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"fs = {iq.fs} Hz is not an integer multiple of B = {p.b} Hz")
    chips = iq.samples[::r]
    trailing = len(chips) % p.m
    if trailing:
        raise ValueError(
            f"decimated stream has {len(chips)} chips, not a multiple of "
            f"M = {p.m}: {trailing} trailing samples")
    blocks = dechirp(p, chips.reshape(-1, p.m))
    return np.argmax(np.abs(np.fft.fft(blocks, axis=1)), axis=1).tolist()


def awgn(iq: IqBuffer, snr_db: float, seed: int) -> IqBuffer:
    """Add circularly-symmetric complex Gaussian noise at the given SNR.

    The noise variance per complex sample is P/10^(snr_db/10) where P is
    the buffer's mean sample power (gamma^2 for synthesized streams),
    split equally between the quadratures.  Noise is drawn from
    numpy's PCG64 generator seeded with `seed`, so equal seeds give
    identical output.
    """
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    nvar = iq.mean_power / 10.0 ** (snr_db / 10.0)
    scale = np.sqrt(nvar / 2.0)
    n = len(iq)
    out = iq.samples.copy()
    # two draws, real part first: the order fixes the seeded output
    for part in (out.real, out.imag):
        draw = rng.standard_normal(n)
        draw *= scale
        part += draw
    return IqBuffer(out, fs=iq.fs, t0=iq.t0)
