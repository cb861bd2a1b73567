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

from .params import (_BLOCK_SAMPLES, IqBuffer, LoraParams, Symbol, _map_chunks,
                     _power_ratio, _submit)
from .waveform import _sample_symbols


def _dechirp_reference(p: LoraParams) -> np.ndarray:
    """Conjugate of the unit-amplitude base upchirp at chip rate."""
    return np.conj(_sample_symbols(LoraParams(sf=p.sf, b=p.b), np.zeros(1, np.int64), 1)[0])


def dechirp(p: LoraParams, chips) -> np.ndarray:
    """Multiply chip-rate symbols (M samples on the last axis) by the
    conjugate base upchirp.

    For a clean symbol a the result is gamma * e^{j*2*pi*k*a/M}, k = 0..M-1.
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
    step = r * p.m * rows_per_block
    reference = _dechirp_reference(p)

    def decode(blocks: range) -> list[np.ndarray]:
        # scratch is allocated once per range and reused through out=, so
        # the allocator does not hand pages back and fault them in per block
        finite = np.empty(step, dtype=bool)
        rows = np.empty((rows_per_block, p.m), dtype=np.complex128)
        spec = np.empty_like(rows)
        mag = np.empty(rows.shape)
        symbols = []
        for i in blocks:
            block = iq.samples[i * step:(i + 1) * step]
            if not np.isfinite(block, out=finite[:len(block)]).all():
                raise ValueError("cannot demodulate a buffer holding NaN or infinite samples")
            chips = block[::r].reshape(-1, p.m)
            k = len(chips)
            np.multiply(chips, reference, out=rows[:k])
            np.fft.fft(rows[:k], axis=1, out=spec[:k])
            symbols.append(np.argmax(np.abs(spec[:k], out=mag[:k]), axis=1))
        return symbols

    return np.concatenate(_map_chunks(decode, -(-len(iq) // step))).tolist()


def awgn(iq: IqBuffer, snr_db: float, seed: int) -> IqBuffer:
    """Add circularly-symmetric complex Gaussian noise at the given SNR.

    The noise variance per complex sample is P/10^(snr_db/10) where P is
    the buffer's mean sample power (gamma^2 for synthesized streams),
    split equally between the quadratures.  Noise is drawn from
    numpy's PCG64 generator seeded with `seed`, so equal seeds give
    identical output, whatever the number of CPUs.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    ratio = _power_ratio(snr_db, "snr_db")
    power = iq.mean_power
    if not np.isfinite(power):
        raise ValueError(f"buffer mean power {power} is not finite: the samples hold "
                         "NaN or infinite values, or |x|^2 overflows")
    nvar = power / ratio
    if not np.isfinite(nvar):
        raise ValueError(f"snr_db = {snr_db!r} gives a noise variance that is not finite")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(nvar / 2.0)

    def add_noise(dst, src, noise):
        noise *= scale
        np.add(src, noise, out=dst)

    out = np.empty_like(iq.samples)
    ring = [np.empty(min(len(iq), _BLOCK_SAMPLES)) for _ in range(3)]
    pending = []
    # both parts are drawn here, real part first, block after block of one
    # seeded stream, which gives the same numbers as one full-length draw
    # per part; a worker scales each block and adds it to the samples while
    # the next is drawn, and a ring buffer is reused once its block is added
    for src, dst in ((iq.samples.real, out.real), (iq.samples.imag, out.imag)):
        for start in range(0, len(iq), _BLOCK_SAMPLES):
            block = slice(start, start + _BLOCK_SAMPLES)
            if len(pending) == len(ring):
                pending.pop(0).result()
            noise = ring[0][:len(src[block])]
            ring.append(ring.pop(0))
            rng.standard_normal(out=noise)
            pending.append(_submit(add_noise, dst[block], src[block], noise))
    for future in pending:
        future.result()
    return IqBuffer._adopt(out, fs=iq.fs, t0=iq.t0)
