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

import threading

import numpy as np

from .params import (_BLOCK_SAMPLES, IqBuffer, LoraParams, Symbol, _all_finite, _integer,
                     _finite_power, _map_chunks, _power_ratio, _spans)
from .waveform import _sample_symbols

# awgn draws one seeded noise stream per block of this many samples.  The
# length is part of the definition of awgn's output: changing it changes the
# noise for every seed.
_NOISE_BLOCK_SAMPLES = 1 << 16


def _dechirp_reference(p: LoraParams) -> np.ndarray:
    """Conjugate of the unit-amplitude base upchirp at chip rate."""
    return np.conj(_sample_symbols(p, np.zeros(1, np.int64), 1)[0])


def dechirp(p: LoraParams, chips) -> np.ndarray:
    """Multiply chip-rate symbols (M samples on the last axis) by the
    conjugate base upchirp.

    For a clean symbol a the result is e^{j*2*pi*k*a/M}, k = 0..M-1.
    """
    chips = np.asarray(chips)
    if chips.shape[-1:] != (p.m,):
        raise ValueError(f"expected M = {p.m} chips on the last axis, got shape {chips.shape}")
    return chips * _dechirp_reference(p)


def demodulate_stream(iq: IqBuffer, p: LoraParams) -> list[Symbol]:
    """Demodulate a chip-rate (or integer-oversampled) symbol stream.

    When iq.fs is an integer multiple of B, every (fs/B)-th sample is
    taken starting at index 0 with no anti-alias filtering: band-limiting
    would distort the chirps, and at chip instants the plain samples are
    already exact.  After decimation the length must be a whole number of
    symbols.  Each symbol is detected as argmax_q |DFT(dechirped)[q]|;
    ties break to the lowest bin.  The blocks of the stream are shared
    among the CPUs of the affinity mask.
    """
    if len(iq) == 0:
        raise ValueError("cannot demodulate an empty buffer")
    ratio = iq.fs / p.b
    r = int(round(ratio))
    if r < 1 or abs(ratio - r) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"fs = {iq.fs} Hz is not an integer multiple of B = {p.b} Hz")
    n_chips = -(-len(iq) // r)
    trailing = n_chips % p.m
    if trailing:
        raise ValueError(
            f"decimated stream has {n_chips} chips, not a multiple of "
            f"M = {p.m}: {trailing} trailing samples")
    # symbol-aligned blocks keep every temporary about _BLOCK_SAMPLES long;
    # each row is transformed on its own, so the blocking changes no output
    rows_per_block = max(1, _BLOCK_SAMPLES // (r * p.m))
    reference = _dechirp_reference(p)

    def decode(part: list) -> list[np.ndarray]:
        # scratch is allocated once per part and reused through out=, so
        # the allocator does not hand pages back and fault them in per block
        rows = np.empty((rows_per_block, p.m), dtype=np.complex128)
        mag = np.empty(rows.shape)
        symbols = []
        # at chip rate a lazy buffer's block is gathered straight into rows
        for block in iq._blocks(part, rows.reshape(-1) if r == 1 else None):
            if not _all_finite(block.view(np.float64)):
                raise ValueError("cannot demodulate a buffer holding NaN or infinite samples")
            chips = block[::r].reshape(-1, p.m)
            k = len(chips)
            np.multiply(chips, reference, out=rows[:k])
            np.fft.fft(rows[:k], axis=1, out=rows[:k])
            symbols.append(np.argmax(np.abs(rows[:k], out=mag[:k]), axis=1))
        return symbols

    spans = _spans(len(iq), r * p.m * rows_per_block)
    return np.concatenate(_map_chunks(decode, spans)).tolist()


def awgn(iq: IqBuffer, snr_db: float, seed: int) -> IqBuffer:
    """Add circularly-symmetric complex Gaussian noise at the given SNR.

    The noise variance per complex sample is P/10^(snr_db/10) where P is
    the buffer's mean sample power (1 for synthesized streams),
    split equally between the quadratures.

    The noise is defined block by block, and the block length of 2^16
    samples is part of that definition: block i holds samples
    i*2^16 .. (i+1)*2^16 - 1 (the last one may hold fewer, n_i), and its
    noise is the 2*n_i values of
    Generator(PCG64(SeedSequence(seed, spawn_key=(i,)))).standard_normal,
    taken as interleaved real and imaginary parts and scaled by
    sqrt(variance/2).  So a block's noise depends only on `seed` and i,
    and the output only on the samples, `snr_db` and `seed`, never on the
    number of CPUs the blocks are shared among.  `seed` must be a
    non-negative integer.

    The input is checked and P computed here; the noisy stream is not
    stored.  The result is a lazy buffer that keeps the input and draws
    the noise of a block whenever a pass reads it, so each pass over the
    result (write_iq, demodulate_stream, welch_psd, mean_power) draws the
    noise of the blocks it reads, and reading `samples` draws all of it
    once and keeps the sum.  A block of the result reads its input block
    once (a view of held samples, or a lazy input's block computed into
    the result's block) and adds to it the overlapping pieces of the
    noise blocks, each drawn into a scratch of the calling thread that
    keeps the last one drawn.
    """
    seed = _integer(seed, "seed", lo=0)
    ratio = _power_ratio(snr_db, "snr_db")
    nvar = _finite_power(iq) / ratio
    if not np.isfinite(nvar):
        raise ValueError(f"snr_db = {snr_db!r} gives a noise variance that is not finite")
    scale = np.sqrt(nvar / 2.0)
    n = len(iq)
    noise_blocks = _spans(n, _NOISE_BLOCK_SAMPLES)
    # per thread: the scaled noise of the last noise block drawn (a pass
    # that reads part of one reads the rest with its next block)
    local = threading.local()

    def fill(lo: int, hi: int, out: np.ndarray) -> None:
        # the input block, a view of held samples or computed into out
        x, = iq._blocks([(lo, hi)], out)
        for i in range(lo // _NOISE_BLOCK_SAMPLES, (hi - 1) // _NOISE_BLOCK_SAMPLES + 1):
            first, end = noise_blocks[i]
            if getattr(local, "block", None) != i:
                if not hasattr(local, "noise"):
                    local.noise = np.empty(min(n, _NOISE_BLOCK_SAMPLES), dtype=np.complex128)
                local.block = None
                # default_rng of a SeedSequence is Generator(PCG64(...))
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
                noise = local.noise[:end - first].view(np.float64)
                rng.standard_normal(out=noise)
                noise *= scale
                local.block = i
            a, b = max(lo, first), min(hi, end)
            np.add(x[a - lo:b - lo], local.noise[a - first:b - first], out=out[a - lo:b - lo])

    return IqBuffer._lazy(n, fill, fs=iq.fs)
