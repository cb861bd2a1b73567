import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorachirp import IqBuffer, LoraParams, awgn, dechirp, demodulate_stream, modulate
from lorachirp.params import _BLOCK_SAMPLES
from oracles import noncoherent_orthogonal_ser

P7 = LoraParams(sf=7, b=125e3)


def test_first_chip_is_one_for_all_symbols():
    p = LoraParams(sf=5, b=1.0)
    for a in range(p.m):
        assert modulate(p, [a]).samples[0] == pytest.approx(1.0 + 0.0j)


def test_chip_vectors_are_orthonormal():
    p = LoraParams(sf=6, b=1.0)
    X = np.array([modulate(p, [a]).samples for a in range(p.m)])
    G = X @ X.conj().T / p.m
    assert np.max(np.abs(G - np.eye(p.m))) < 1e-10


def test_dechirp_validates_length():
    for shape in [(5,), (2, 127), (129,)]:
        with pytest.raises(ValueError):
            dechirp(P7, np.ones(shape, dtype=complex))


def test_dechirp_of_zero_symbol_is_all_ones():
    p = LoraParams(sf=4, b=1.0)
    np.testing.assert_allclose(dechirp(p, modulate(p, [0]).samples), 1.0, atol=1e-12)


def test_dechirp_gives_complex_sinusoid():
    p = LoraParams(sf=6, b=1.0)
    for a in (1, 17, 63):
        vals = dechirp(p, modulate(p, [a]).samples)
        assert vals[1] == pytest.approx(np.exp(2j * np.pi * a / p.m), abs=1e-12)
        k = np.arange(p.m)
        np.testing.assert_allclose(vals, np.exp(2j * np.pi * k * a / p.m), atol=1e-10)


def test_dechirp_keeps_amplitude_gamma():
    # the reference is unit-amplitude: a symbol of amplitude gamma keeps it
    p, gamma = LoraParams(sf=5, b=1.0), 2.0
    vals = dechirp(p, gamma * modulate(p, [3]).samples)
    np.testing.assert_allclose(np.abs(vals), gamma, atol=1e-12)


def test_dft_of_dechirped_is_spike_at_symbol():
    p = LoraParams(sf=5, b=1.0)
    for a in (0, 3, 31):
        X = np.fft.fft(dechirp(p, modulate(p, [a]).samples))
        expected = np.zeros(p.m, dtype=complex)
        expected[a] = p.m
        np.testing.assert_allclose(X, expected, atol=1e-9 * p.m)


def test_demodulate_clean_symbol():
    assert demodulate_stream(modulate(P7, [5]), P7) == [5]


def test_demodulate_invariant_to_positive_scaling():
    chips = modulate(P7, [99]).samples
    assert demodulate_stream(IqBuffer(chips * 0.003, fs=P7.b), P7) == [99]
    assert demodulate_stream(IqBuffer(chips * 40.0, fs=P7.b), P7) == [99]


@given(symbols=st.lists(st.integers(0, 127), min_size=1, max_size=6),
       oversample=st.sampled_from([1, 2, 4]))
@settings(max_examples=25)
def test_stream_roundtrip(symbols, oversample):
    iq = modulate(P7, symbols, oversample=oversample)
    assert demodulate_stream(iq, P7) == symbols


def test_stream_rejects_empty_buffer():
    with pytest.raises(ValueError):
        demodulate_stream(IqBuffer(np.array([], dtype=complex), fs=P7.b), P7)


@pytest.mark.parametrize("index,bad", [(slice(None), np.nan), (130, np.inf),
                                       (5, complex(0.0, -np.inf))])
def test_stream_rejects_non_finite_samples(index, bad):
    samples = modulate(P7, [1, 2], oversample=1).samples.copy()
    samples[index] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        demodulate_stream(IqBuffer(samples, fs=P7.b), P7)


@pytest.mark.parametrize("oversample, index", [(1, _BLOCK_SAMPLES + 7), (2, 3),
                                               (2, 2 * _BLOCK_SAMPLES + 1)],
                         ids=["past-first-block", "skipped-by-decimation",
                              "skipped-past-first-block"])
def test_stream_rejects_non_finite_samples_in_every_block(oversample, index):
    iq = modulate(P7, [5] * (3 * _BLOCK_SAMPLES // P7.m), oversample)
    samples = iq.samples.copy()
    samples[index] = np.nan
    with pytest.raises(ValueError, match="NaN or infinite"):
        demodulate_stream(IqBuffer(samples, fs=iq.fs), P7)


@pytest.mark.parametrize("oversample", [1, 2])
def test_blocked_stream_decodes_like_one_unblocked_pass(oversample):
    # noisy enough for errors, so the argmax ties and near-ties are exercised
    symbols = np.random.default_rng(3).integers(0, P7.m, 3 * _BLOCK_SAMPLES // P7.m + 5)
    noisy = awgn(modulate(P7, symbols.tolist(), oversample), -12.0, seed=11)
    chips = noisy.samples[::oversample].reshape(-1, P7.m)
    expected = np.argmax(np.abs(np.fft.fft(dechirp(P7, chips), axis=1)), axis=1)
    decoded = demodulate_stream(noisy, P7)
    assert decoded == expected.tolist()
    assert decoded != symbols.tolist()


def test_stream_reports_trailing_samples():
    iq = modulate(P7, [1, 2], oversample=1)
    bad = IqBuffer(iq.samples[:-3], fs=iq.fs)
    with pytest.raises(ValueError, match=r"125 trailing"):
        demodulate_stream(bad, P7)


def test_stream_rejects_non_integer_rate():
    iq = modulate(P7, [1], oversample=1)
    with pytest.raises(ValueError, match="integer multiple"):
        demodulate_stream(IqBuffer(iq.samples, fs=1.5 * P7.b), P7)


def test_stream_rejects_a_rate_ratio_beyond_float_range():
    # fs/B = 1e308/1e-300 overflows to inf, which int() cannot take
    iq = modulate(P7, [1], oversample=1)
    with pytest.raises(ValueError, match="is not an integer multiple of B"):
        demodulate_stream(IqBuffer(iq.samples, fs=1e308), LoraParams(sf=7, b=1e-300))


@pytest.mark.parametrize("fs, factor", [(1e20, "100000000000000000000"),
                                        (1e300, "1000000000000000052504760255204420248704468581"
                                                "108159154915854115... (301 characters)")],
                         ids=["1e20", "1e300"])
def test_stream_names_fs_b_and_the_factor_when_fewer_than_m_chips_are_left(fs, factor):
    # fs/B is a whole number far above the buffer length: one chip is left
    iq = modulate(P7, [1, 2], oversample=1)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"fs = {fs!r} Hz over B = 1.0 Hz decimates by {factor}: the 256 samples leave "
            "1 chips, fewer than the M = 128 of one symbol") + "$"):
        demodulate_stream(IqBuffer(iq.samples, fs=fs), LoraParams(sf=7, b=1.0))


def test_stream_rejects_fewer_chips_than_one_symbol():
    iq = modulate(P7, [1], oversample=2)
    with pytest.raises(ValueError, match=r"the 127 samples leave 64 chips, fewer than the "
                                         r"M = 128 of one symbol"):
        demodulate_stream(IqBuffer(iq.samples[:127], fs=iq.fs), P7)


def test_awgn_is_deterministic_under_seed():
    iq = modulate(P7, [1, 2, 3], oversample=1)
    a = awgn(iq, 10.0, seed=123)
    b = awgn(iq, 10.0, seed=123)
    c = awgn(iq, 10.0, seed=124)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert np.any(a.samples != c.samples)


def test_awgn_equals_the_complex_noise_formula():
    # one PCG64 stream per block of 2^16 samples, spawned from the seed with
    # the block index as its key; its 2*n_i normals are the interleaved real
    # and imaginary parts, scaled and added
    symbols = np.arange(5 * 2**15 // 256) % P7.m
    stream = modulate(P7, symbols, oversample=2)
    inputs = [IqBuffer(stream.samples[:n], fs=stream.fs)
              for n in (1, 2**16 - 1, 2**16, 2**16 + 1, 5 * 2**15)]
    # a lazy input, whose blocks are computed into awgn's output
    inputs.append(modulate(P7, symbols, oversample=2))
    for iq in inputs:
        n = len(iq)
        out = awgn(iq, -7.5, seed=2024)
        scale = np.sqrt(iq.mean_power / 10.0 ** (-7.5 / 10.0) / 2.0)
        expected = []
        for i, lo in enumerate(range(0, n, 2**16)):
            block = stream.samples[lo:lo + min(n - lo, 2**16)]
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2024,
                                                                             spawn_key=(i,))))
            expected.append(block + scale * rng.standard_normal(2 * len(block)).view(complex))
        expected = np.concatenate(expected)
        # spans that start or end inside a noise block, read before the samples are built
        spans = [(lo, hi) for lo, hi in [(2**16 - 5, 2**16 + 7), (3, 2**17 + 1)] if hi <= n]
        for (lo, hi), block in zip(spans, out._blocks(spans)):
            np.testing.assert_array_equal(block, expected[lo:hi], err_msg=f"n = {n}")
        np.testing.assert_array_equal(out.samples, expected, err_msg=f"n = {n}")


def test_awgn_noise_of_a_block_depends_only_on_the_seed_and_its_index():
    samples = np.full(3 * 2**16 + 5, 0.6 + 0.8j)  # the same mean power at every length
    whole = awgn(IqBuffer(samples, fs=1.0), 2.0, seed=77).samples
    for k in (2**16, 2 * 2**16, 3 * 2**16):
        np.testing.assert_array_equal(awgn(IqBuffer(samples[:k], fs=1.0), 2.0, seed=77).samples,
                                      whole[:k])


def test_awgn_very_high_snr_is_identity():
    iq = modulate(P7, [7, 70], oversample=1)
    out = awgn(iq, 200.0, seed=1)
    assert np.max(np.abs(out.samples - iq.samples)) < 1e-8


def test_awgn_noise_power_calibration():
    n = 1_000_000
    iq = IqBuffer(np.ones(n, dtype=complex), fs=1.0)
    out = awgn(iq, 3.0, seed=42)
    measured = np.mean(np.abs(out.samples - iq.samples) ** 2)
    nominal = 10 ** (-3.0 / 10.0)
    assert measured == pytest.approx(nominal, rel=0.01)


def test_awgn_rejects_non_finite_snr():
    iq = modulate(P7, [1], oversample=1)
    with pytest.raises(ValueError):
        awgn(iq, float("nan"), seed=0)


@pytest.mark.parametrize("snr_db", [-4000.0, 4000.0, 1e308, -1e308, np.float64(4000.0),
                                    -3200.0],
                         ids=["-4000", "4000", "1e308", "-1e308", "numpy-4000", "-3200"])
def test_awgn_rejects_snr_without_a_finite_noise_variance(snr_db):
    # 10**(snr_db/10) overflows, underflows to 0, or (at -3200) leaves
    # mean_power / 10**(snr_db/10) infinite
    with pytest.raises(ValueError, match="snr_db"):
        awgn(modulate(P7, [1]), snr_db, seed=0)


@pytest.mark.parametrize("samples", [[1.0, np.nan], [1e200, 1e200j]], ids=["nan", "overflow"])
def test_awgn_rejects_a_buffer_without_a_finite_mean_power(samples):
    # the buffer is at fault, not snr_db
    with pytest.raises(ValueError, match="buffer mean power .* is not finite"):
        awgn(IqBuffer(np.array(samples), fs=1.0), 0.0, seed=0)


@given(seed=st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                     st.lists(st.integers(0, 9), max_size=2)))
def test_awgn_rejects_non_integer_seed(seed):
    iq = IqBuffer(np.ones(8, dtype=complex), fs=1.0)
    with pytest.raises(ValueError, match="seed"):
        awgn(iq, 10.0, seed=seed)


@pytest.mark.parametrize("seed", [-1, np.int64(-5), -2**70])
def test_awgn_rejects_a_negative_seed_before_reading_the_samples(seed):
    # NaN samples would fail the mean-power check, so the seed is checked first
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {int(seed)}$"):
        awgn(IqBuffer(np.array([1.0, np.nan]), fs=1.0), 10.0, seed=seed)


def test_high_snr_monte_carlo_is_error_free(rng):
    symbols = [int(s) for s in rng.integers(0, P7.m, 2000)]
    iq = modulate(P7, symbols, oversample=1)
    noisy = awgn(iq, 20.0, seed=7)
    assert demodulate_stream(noisy, P7) == symbols


def _alternating_ser(m: int, snr: float) -> float:
    """The textbook finite sum for the same error rate; it cancels
    catastrophically for large m, so it serves only as a check at small m."""
    g = m * snr
    return math.fsum((-1) ** (k + 1) * math.comb(m - 1, k) / (k + 1) * math.exp(-k * g / (k + 1))
                     for k in range(1, m))


@pytest.mark.parametrize("m", [2, 4, 8, 16])
@pytest.mark.parametrize("snr_db", [-10.0, -5.0, 0.0, 5.0, 10.0])
def test_ser_integral_matches_the_alternating_sum_at_small_m(m, snr_db):
    snr = 10.0 ** (snr_db / 10.0)
    assert abs(noncoherent_orthogonal_ser(m, snr) - _alternating_ser(m, snr)) < 1e-12


# per-sample SNRs around each spreading factor's waterfall (theory about
# 0.33, 0.1 and 0.01-0.03); a noise level 1 dB off moves the error rate of
# every case by more than 4 sigma
@pytest.mark.parametrize("sf, oversample, n_symbols, snr_db", [
    (7, 1, 20_000, -13.0), (7, 1, 20_000, -11.0), (7, 1, 20_000, -9.0),
    (7, 2, 10_000, -11.0),
    (9, 1, 5_000, -18.0), (9, 1, 5_000, -16.0), (9, 1, 5_000, -15.0),
    (12, 1, 1_000, -26.0), (12, 1, 1_000, -24.5), (12, 1, 1_000, -23.5)])
def test_simulated_ser_is_within_4_sigma_of_theory(sf, oversample, n_symbols, snr_db):
    # decimation keeps the per-sample SNR, so oversampling leaves the theory as it is
    p = LoraParams(sf=sf, b=125e3)
    symbols = np.random.default_rng(sf).integers(0, p.m, n_symbols)
    noisy = awgn(modulate(p, symbols, oversample), snr_db, seed=1000 + sf)
    ser = np.mean(np.array(demodulate_stream(noisy, p)) != symbols)
    theory = noncoherent_orthogonal_ser(p.m, 10.0 ** (snr_db / 10.0))
    sigma = math.sqrt(theory * (1 - theory) / n_symbols)
    assert abs(ser - theory) < 4 * sigma, (ser, theory, sigma)
