import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorachirp import IqBuffer, LoraParams, awgn, dechirp, demodulate_stream, modulate

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
    p = LoraParams(sf=5, b=1.0, ps=2.0)
    vals = dechirp(p, modulate(p, [3]).samples)
    np.testing.assert_allclose(np.abs(vals), p.gamma, atol=1e-12)


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


def test_stream_reports_trailing_samples():
    iq = modulate(P7, [1, 2], oversample=1)
    bad = IqBuffer(iq.samples[:-3], fs=iq.fs)
    with pytest.raises(ValueError, match=r"125 trailing"):
        demodulate_stream(bad, P7)


def test_stream_rejects_non_integer_rate():
    iq = modulate(P7, [1], oversample=1)
    with pytest.raises(ValueError, match="integer multiple"):
        demodulate_stream(IqBuffer(iq.samples, fs=1.5 * P7.b), P7)


def test_awgn_is_deterministic_under_seed():
    iq = modulate(P7, [1, 2, 3], oversample=1)
    a = awgn(iq, 10.0, seed=123)
    b = awgn(iq, 10.0, seed=123)
    c = awgn(iq, 10.0, seed=124)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert np.any(a.samples != c.samples)


def test_awgn_equals_the_complex_noise_formula():
    # the same two PCG64 draws, real part first, scaled and added
    iq = modulate(P7, [3, 90, 127, 0], oversample=2)
    out = awgn(iq, -7.5, seed=2024)
    rng = np.random.default_rng(2024)
    n = len(iq)
    scale = np.sqrt(iq.mean_power / 10.0 ** (-7.5 / 10.0) / 2.0)
    expected = iq.samples + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    np.testing.assert_array_equal(out.samples, expected)


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


@given(seed=st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                     st.lists(st.integers(0, 9), max_size=2)))
def test_awgn_rejects_non_integer_seed(seed):
    iq = IqBuffer(np.ones(8, dtype=complex), fs=1.0)
    with pytest.raises(ValueError, match="seed"):
        awgn(iq, 10.0, seed=seed)


def test_high_snr_monte_carlo_is_error_free(rng):
    symbols = [int(s) for s in rng.integers(0, P7.m, 2000)]
    iq = modulate(P7, symbols, oversample=1)
    noisy = awgn(iq, 20.0, seed=7)
    assert demodulate_stream(noisy, P7) == symbols
