from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lorachirp import (IqBuffer, IqFileHeader, LoraParams, instantaneous_frequency,
                       mean_envelope_magnitude, modulate, payload_to_symbols,
                       phase, waveform_at)
from oracles import chip_rate_samples, mean_power_quadrature

P_SF3 = LoraParams(sf=3, b=8.0)  # Ts = 1 s


def test_params_invariants():
    p = LoraParams(sf=7, b=125e3)
    assert p.m == 128
    assert p.b * p.ts == p.m
    assert p.gamma == 1.0
    assert LoraParams(sf=7, b=125e3, ps=2.0).gamma == 2.0


@pytest.mark.parametrize("bad", [
    partial(LoraParams, sf=0, b=1.0), partial(LoraParams, sf=17, b=1.0),
    partial(LoraParams, sf=7, b=0.0), partial(LoraParams, sf=7, b=-1.0),
    partial(LoraParams, sf=7, b=1.0, f0=-1.0), partial(LoraParams, sf=2.5, b=1.0),
    partial(LoraParams, sf=7, b=np.inf), partial(LoraParams, sf=7, b=1.0, ps=np.inf),
    partial(LoraParams, sf=7, b=1.0, f0=np.nan),
    partial(IqBuffer, np.ones(4, dtype=complex), fs=np.inf),
    partial(IqFileHeader, "interleaved-f32-le", fs=np.inf)])
def test_params_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        bad()


def test_initial_frequency():
    assert instantaneous_frequency(P_SF3, 2, 0.0) == pytest.approx(2.0)


def test_frequency_wraps_exactly_at_tau():
    # tau_a = Ts*(1 - a/M) = 0.75 s for a=2; u(0)=1 applies the wrap there
    assert instantaneous_frequency(P_SF3, 2, 0.75) == pytest.approx(0.0)


def test_pure_upchirp_midpoint():
    assert instantaneous_frequency(P_SF3, 0, 0.5) == pytest.approx(4.0)


def test_frequency_domain_error():
    with pytest.raises(ValueError):
        instantaneous_frequency(P_SF3, 0, -1e-9)
    with pytest.raises(ValueError):
        instantaneous_frequency(P_SF3, 0, 1.0)  # t = Ts excluded


@given(sf=st.integers(1, 10), data=st.data())
def test_frequency_stays_in_band(sf, data):
    p = LoraParams(sf=sf, b=1.0)
    a = data.draw(st.integers(0, p.m - 1))
    t = data.draw(st.floats(0.0, p.ts, exclude_max=True, allow_nan=False))
    f = instantaneous_frequency(p, a, t)
    assert 0.0 <= f < p.b + 1e-12


def test_phase_starts_at_zero():
    for a in range(P_SF3.m):
        assert phase(P_SF3, a, 0.0) == 0.0


def test_phase_direct_substitution():
    # a=0, t=0.5: 2*pi*B*t^2/(2*Ts) = 2*pi
    assert phase(P_SF3, 0, 0.5) == pytest.approx(2 * np.pi)


@pytest.mark.parametrize("sf", range(3, 13))
def test_phase_continuity_at_symbol_end(sf):
    p = LoraParams(sf=sf, b=1.0)
    for a in range(p.m):
        ph = phase(p, a, p.ts)
        assert abs(ph - 2 * np.pi * round(ph / (2 * np.pi))) < 1e-9


def test_phase_domain_is_closed_at_ts():
    phase(P_SF3, 1, P_SF3.ts)  # allowed
    with pytest.raises(ValueError):
        phase(P_SF3, 1, P_SF3.ts + 1e-9)


def test_baseband_waveform_basics():
    buf = modulate(P_SF3, [0], oversample=4)
    assert isinstance(buf, IqBuffer)
    assert len(buf) == 4 * P_SF3.m
    assert buf.fs == 4 * P_SF3.b
    assert buf.samples[0] == pytest.approx(1.0 + 0.0j)


@given(sf=st.integers(1, 9), oversample=st.integers(1, 4), data=st.data())
def test_constant_envelope(sf, oversample, data):
    p = LoraParams(sf=sf, b=1.0)
    a = data.draw(st.integers(0, p.m - 1))
    buf = modulate(p, [a], oversample)
    assert np.max(np.abs(np.abs(buf.samples) - p.gamma)) < 1e-12


def test_chip_rate_sampling_matches_receiver_model():
    for sf in (3, 5, 8):
        p = LoraParams(sf=sf, b=1.0)
        for a in (0, 1, p.m // 2, p.m - 1):
            wf = modulate(p, [a], oversample=1).samples
            chips = chip_rate_samples(p, a)
            np.testing.assert_allclose(wf, chips, atol=1e-9)


@pytest.mark.parametrize("sf", range(3, 13))
@pytest.mark.parametrize("oversample", [1, 2, 4])
def test_modulate_matches_continuous_law_on_sampling_grid(sf, oversample):
    p = LoraParams(sf=sf, b=125e3)
    rng = np.random.default_rng(sf)
    symbols = [0, 1, p.m // 2, p.m - 1] + [int(a) for a in rng.integers(0, p.m, 4)]
    rows = modulate(p, symbols, oversample).samples.reshape(len(symbols), -1)
    t = np.arange(oversample * p.m) / (oversample * p.b)
    for a, row in zip(symbols, rows):
        assert np.max(np.abs(row - waveform_at(p, a, t))) < 1e-10, a


@pytest.mark.parametrize("bad", [True, 2.0, -1, P_SF3.m])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_modulate_rejects_bad_symbol_anywhere(bad, position):
    symbols = [3, 5, 7]
    symbols[position] = bad
    with pytest.raises(ValueError, match="symbol"):
        modulate(P_SF3, symbols)


def test_baseband_waveform_rejects_bad_oversample():
    with pytest.raises(ValueError):
        modulate(P_SF3, [0], oversample=0)


def test_modulate_single_symbol_equals_waveform():
    # memoryless: a symbol's samples do not depend on its neighbours
    one = modulate(P_SF3, [5], oversample=2)
    stream = modulate(P_SF3, [3, 5, 7], oversample=2)
    np.testing.assert_array_equal(one.samples, stream.samples[len(one):2 * len(one)])


def test_modulate_phase_continuous_at_boundary():
    p = LoraParams(sf=5, b=1.0)
    buf = modulate(p, [3, 17], oversample=8)
    n = len(buf) // 2
    # symbol boundary: next symbol starts at phase 0, previous ends there too
    assert abs(np.angle(buf.samples[n])) < 1e-9
    end_phase = phase(p, 3, p.ts)
    assert abs(end_phase - 2 * np.pi * round(end_phase / (2 * np.pi))) < 1e-9


@given(s1=st.lists(st.integers(0, 15), min_size=1, max_size=4),
       s2=st.lists(st.integers(0, 15), min_size=1, max_size=4))
def test_modulate_is_memoryless(s1, s2):
    p = LoraParams(sf=4, b=1.0)
    whole = modulate(p, s1 + s2, oversample=2).samples
    parts = np.concatenate([modulate(p, s1, 2).samples, modulate(p, s2, 2).samples])
    np.testing.assert_array_equal(whole, parts)


def test_modulate_rejects_empty():
    with pytest.raises(ValueError):
        modulate(P_SF3, [])


def test_mean_envelope_endpoints():
    p = LoraParams(sf=5, b=1.0)
    assert mean_envelope_magnitude(p, 0.0) == pytest.approx(1.0)
    assert mean_envelope_magnitude(p, p.tc) == pytest.approx(0.0, abs=1e-12)


def test_mean_envelope_power_is_one_over_m():
    p = LoraParams(sf=6, b=1.0)
    pd = mean_power_quadrature(lambda t: mean_envelope_magnitude(p, t), p.ts, p.m)
    assert pd == pytest.approx(1.0 / p.m, abs=1e-6)


def test_mean_envelope_matches_sampled_symbol_average():
    p = LoraParams(sf=4, b=1.0)
    t = np.linspace(0.0, p.ts, 257)[:-1]
    mean = np.mean([waveform_at(p, a, t) for a in range(p.m)], axis=0)
    np.testing.assert_allclose(np.abs(mean), mean_envelope_magnitude(p, t), atol=1e-12)


def test_payload_mapping_is_big_endian():
    # 0xFF 0x00: bits 11111111 00000000 -> sf=4 symbols 15, 15, 0, 0
    assert payload_to_symbols(b"\xff\x00", 4) == [15, 15, 0, 0]
    # sf=7 takes 16 bytes to ceil(128/7) = 19 symbols, tail zero-padded
    syms = payload_to_symbols(bytes(range(16)), 7)
    assert len(syms) == 19
    # first 7 bits of 0x00 0x01 ... : 0000000 -> 0; next: 0 00000001 000...
    assert syms[0] == 0
    assert all(0 <= s < 128 for s in syms)
    # tail: last symbol ends with 5 padding zero bits
    bits = np.unpackbits(np.frombuffer(bytes(range(16)), dtype=np.uint8))
    tail = int("".join(map(str, bits[126:])) + "00000", 2)
    assert syms[-1] == tail


def test_payload_mapping_rejects_empty():
    with pytest.raises(ValueError):
        payload_to_symbols(b"", 7)


def test_iqbuffer_is_immutable():
    buf = modulate(P_SF3, [1])
    with pytest.raises((ValueError, RuntimeError)):
        buf.samples[0] = 0.0
