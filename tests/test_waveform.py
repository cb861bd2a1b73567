import copy as copy_module
import dataclasses
import enum
import pickle
import re
import sys
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lorachirp import (IqBuffer, IqFileHeader, LoraParams, instantaneous_frequency,
                       mean_envelope_magnitude, modulate, payload_to_symbols,
                       phase, waveform_at)
from lorachirp.params import _integer, _positive, _real, validate_symbol
from lorachirp.waveform import _distinct_symbols, _sample_symbols
from oracles import chip_rate_samples, mean_power_quadrature

P_SF3 = LoraParams(sf=3, b=8.0)  # Ts = 1 s


def test_params_invariants():
    p = LoraParams(sf=7, b=125e3)
    assert p.m == 128
    assert p.b * p.ts == p.m
    assert [f.name for f in dataclasses.fields(LoraParams)] == ["sf", "b"]
    assert [f.name for f in dataclasses.fields(IqBuffer)] == ["samples", "fs"]


@pytest.mark.parametrize("bad", [
    partial(LoraParams, sf=0, b=1.0), partial(LoraParams, sf=17, b=1.0),
    partial(LoraParams, sf=7, b=0.0), partial(LoraParams, sf=7, b=-1.0),
    partial(LoraParams, sf=True, b=1.0), partial(LoraParams, sf=2.5, b=1.0),
    partial(LoraParams, sf=7, b=np.inf), partial(LoraParams, sf=7, b=np.nan),
    partial(IqBuffer, np.ones((2, 2), dtype=complex), fs=1.0),
    partial(IqBuffer, np.ones(4, dtype=complex), fs=np.inf),
    partial(IqFileHeader, "interleaved-f32-le", fs=np.inf)])
def test_params_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        bad()


@pytest.mark.parametrize("field", ["b"])
@pytest.mark.parametrize("value", [True, 10 ** 400, "5", None, 1 + 0j],
                         ids=["bool", "int-beyond-float", "str", "none", "complex"])
def test_params_rejects_a_numeric_field_that_is_not_a_finite_real(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        LoraParams(**{"sf": 7, "b": 1.0, field: value})


_RATE = (" with b = 4e+307 Hz gives a sample rate oversample*b or sample period "
         "1/(oversample*b) that is not a finite normal float")


@pytest.mark.parametrize("call, start, length, rest", [
    (lambda: _real(10 ** 400, "x"), "x must be a finite number, got 1", 401, ""),
    (lambda: _integer(10 ** 400, "sf", 1, 16), "sf must be in [1, 16], got 1", 401, ""),
    (lambda: _integer(-10 ** 400, "seed", lo=0), "seed must be an integer >= 0, got -1", 402, ""),
    (lambda: _positive(-10 ** 300, "b"), "b must be positive, got -1", 302, ""),
    (lambda: LoraParams(sf=7, b=10 ** 400), "b must be a finite number, got 1", 401, ""),
    (lambda: LoraParams(sf=10 ** 400, b=1.0), "sf must be in [1, 16], got 1", 401, ""),
    (lambda: modulate(LoraParams(sf=1, b=4e307), [0], 10 ** 400), "oversample = 1", 401, _RATE),
], ids=["real", "integer-range", "integer-floor", "positive", "params-b", "params-sf",
        "modulate-oversample"])
def test_messages_quote_at_most_64_characters_of_a_huge_value(call, start, length, rest):
    # a huge int is quoted by its first 64 characters and its length, with
    # no warning on the way
    with warnings.catch_warnings(), pytest.raises(ValueError) as info:
        warnings.simplefilter("error")
        call()
    message = str(info.value)
    assert message.startswith(start), message
    assert message.endswith(f"0... ({length} characters){rest}"), message
    assert len(message) < 120 + len(rest), message


@pytest.mark.parametrize("make, field", [
    (partial(IqBuffer, np.ones(4, dtype=complex)), "fs"),
    (partial(IqFileHeader, "csv"), "fs"),
    (partial(IqFileHeader, "csv", fs=1.0), "center_freq")],
    ids=["buffer-fs", "header-fs", "header-center_freq"])
@pytest.mark.parametrize("value", [True, "5", None, 10 ** 400, float("nan")],
                         ids=["bool", "str", "none", "int-beyond-float", "nan"])
def test_iq_fields_reject_a_value_that_is_not_a_finite_real(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        make(**{field: value})


@pytest.mark.parametrize("b", [np.float32(125e3), Fraction(125000), np.int64(125000), 125000],
                         ids=["float32", "Fraction", "int64", "int"])
def test_params_keep_b_as_a_float(b):
    # a float32 B kept as given made ts a float32, and the phase at Ts of
    # symbol 0 at SF 12 read 2048.00022 cycles
    p = LoraParams(sf=12, b=b)
    assert type(p.b) is float and p.b == 125e3 and type(p.ts) is float
    for a in (0, 1, 2047, 4095):
        cycles = phase(p, a, p.ts) / (2.0 * np.pi)
        assert abs(cycles - round(cycles)) <= 1e-9, a


def test_iq_fields_are_kept_as_floats():
    assert type(IqBuffer(np.ones(2, dtype=complex), fs=np.float32(1e6)).fs) is float
    header = IqFileHeader("csv", fs=np.int64(1_000_000), center_freq=np.float32(868e6))
    assert (type(header.fs), type(header.center_freq)) == (float, float)


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
    assert np.max(np.abs(np.abs(buf.samples) - 1.0)) < 1e-12


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


@pytest.mark.parametrize("bad", [True, 2.0, -1, P_SF3.m, 2 ** 70, np.int64(-1)])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_modulate_rejects_bad_symbol_anywhere(bad, position):
    symbols = [3, 5, 7]
    symbols[position] = bad
    with pytest.raises(ValueError, match="symbol"):
        modulate(P_SF3, symbols)


@pytest.mark.parametrize("bad", [True, np.bool_(True), 2.0, 2 ** 63, np.uint64(2 ** 63),
                                 np.int64(-1), P_SF3.m],
                         ids=["bool", "np.bool_", "float", "2**63", "uint64-2**63", "int64--1",
                              "M"])
@pytest.mark.parametrize("position", [0, 50, -1], ids=["first", "middle", "last"])
def test_modulate_raises_validate_symbols_message_for_the_first_bad_symbol(bad, position):
    symbols = [3, 5, 7] * 33 + [1]
    symbols[position] = bad
    if position != -1:
        symbols[-1] = -5  # a later bad symbol is not the one named
    with pytest.raises(ValueError) as expected:
        validate_symbol(P_SF3, bad)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        modulate(P_SF3, symbols)


def test_modulate_accepts_int_enum_members_and_iterators():
    class Symbols(enum.IntEnum):
        FIVE = 5

    expected = modulate(P_SF3, [3, 5, 7]).samples
    for symbols in ([3, Symbols.FIVE, np.int16(7)], iter([3, 5, 7]), (a for a in (3, 5, 7))):
        np.testing.assert_array_equal(modulate(P_SF3, symbols).samples, expected)


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


@pytest.mark.parametrize("oversample", [1, 2, 4])
@pytest.mark.parametrize("distinct", [5, 128], ids=["few-distinct", "all-distinct"])
def test_modulate_equals_the_per_symbol_path(oversample, distinct):
    # one sampled row per distinct symbol, gathered, equals sampling every symbol
    p = LoraParams(sf=7, b=125e3)
    rng = np.random.default_rng(oversample)
    symbols = (rng.integers(0, distinct, 300) if distinct < p.m else rng.permutation(p.m)).tolist()
    expected = _sample_symbols(p, np.array(symbols), oversample).ravel()
    for given_as in (symbols, np.array(symbols), iter(symbols)):
        np.testing.assert_array_equal(modulate(p, given_as, oversample).samples, expected)


@pytest.mark.parametrize("sf", [1, 7, 16])
@pytest.mark.parametrize("stream", ["one-symbol", "every-symbol", "random"])
def test_distinct_symbols_equals_np_unique(sf, stream):
    m = 1 << sf
    rng = np.random.default_rng(sf)
    a = {"one-symbol": np.array([m - 1]),
         "every-symbol": rng.permutation(np.repeat(np.arange(m), 2)),
         "random": rng.integers(0, m, 3 * m)}[stream]
    distinct, inverse = _distinct_symbols(a, m)
    want_distinct, want_inverse = np.unique(a, return_inverse=True)
    np.testing.assert_array_equal(distinct, want_distinct)
    np.testing.assert_array_equal(inverse, want_inverse)
    assert distinct.dtype == want_distinct.dtype and inverse.dtype == want_inverse.dtype


def test_iq_buffer_constructor_copies_the_callers_array():
    x = np.ones(4, dtype=complex)
    buf = IqBuffer(x, fs=1.0)
    x[0] = 5.0
    np.testing.assert_array_equal(buf.samples, np.ones(4))
    assert x.flags.writeable and not buf.samples.flags.writeable


@pytest.mark.parametrize("sf, oversample, n_symbols", [(3, 3, 700), (7, 2, 40), (9, 3, 7),
                                                       (15, 4, 3)],
                         ids=["sf3-x3", "sf7-x2", "sf9-x3", "rows-longer-than-a-block"])
def test_a_modulated_buffer_is_gathered_only_when_its_samples_are_read(sf, oversample,
                                                                       n_symbols):
    p = LoraParams(sf=sf, b=125e3)
    symbols = np.random.default_rng(sf + 10 * oversample).integers(0, p.m, n_symbols)
    buf = modulate(p, symbols.tolist(), oversample)
    width = oversample * p.m
    assert len(buf) == n_symbols * width and buf.duration == len(buf) / buf.fs
    rng = np.random.default_rng(sf)
    edges = [0, 1, width - 1, width, width + 1, len(buf) - 1, len(buf)]
    blocks = [(lo, hi) for lo in edges for hi in edges if lo < hi]
    blocks += [tuple(sorted(rng.choice(len(buf) + 1, 2, replace=False))) for _ in range(20)]
    gathered = [block.copy() for block in buf._blocks(blocks)]
    assert "_lazy" in vars(buf)  # nothing above built the whole stream

    distinct, inverse = np.unique(symbols, return_inverse=True)
    expected = _sample_symbols(p, distinct, oversample)[inverse].ravel()
    samples = buf.samples
    np.testing.assert_array_equal(samples, expected)
    assert buf.samples is samples and not samples.flags.writeable
    assert "_lazy" not in vars(buf)
    for (lo, hi), block, view in zip(blocks, gathered, buf._blocks(blocks)):
        np.testing.assert_array_equal(block, expected[lo:hi])
        assert view.base is samples  # a view once built


def test_a_lazy_buffer_pickles_copies_and_compares_as_its_samples():
    held = IqBuffer(np.arange(4, dtype=complex), fs=1.0)
    for buf in (modulate(P_SF3, [1, 6, 1], oversample=3), held):
        for copy in (pickle.loads(pickle.dumps(buf)), dataclasses.replace(buf, fs=2.0),
                     copy_module.copy(buf), copy_module.deepcopy(buf)):
            assert "_lazy" not in vars(copy)
            np.testing.assert_array_equal(copy.samples, buf.samples)
            assert copy.fs in (buf.fs, 2.0)
            # built by the constructor: read-only, and not the original's array
            assert not copy.samples.flags.writeable and copy.samples is not buf.samples
            with pytest.raises(ValueError, match="read-only"):
                copy.samples[0] = 100
    # repr gives the length and fs, and builds no samples
    buf = modulate(P_SF3, [1, 6, 1], oversample=3)
    assert repr(buf) == "IqBuffer(<72 samples>, fs=24.0)" and "_lazy" in vars(buf)
    assert repr(held) == "IqBuffer(<4 samples>, fs=1.0)"
    # == is identity and hash is object's: neither reads the samples
    other = modulate(P_SF3, [1, 6, 1], oversample=3)
    assert other == other and other != buf and hash(other) == object.__hash__(other)
    assert {other: 1}[other] == 1 and "_lazy" in vars(other)
    assert held != IqBuffer(held.samples, fs=1.0)
    with pytest.raises(AttributeError, match="has no attribute 'sample'"):
        buf.sample


@pytest.mark.parametrize("b", [1e-320, 5e-324, 1e-310, 1e308, sys.float_info.min],
                         ids=["subnormal", "smallest", "1/b-overflows", "1/b-subnormal",
                              "M/b-overflows"])
def test_params_rejects_b_whose_chip_or_symbol_duration_is_not_a_normal_float(b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^b = {re.escape(str(b))} Hz gives a chip duration"):
            LoraParams(sf=7, b=b)


def test_params_accepts_b_at_the_edges_of_the_normal_range():
    assert LoraParams(sf=1, b=4e307).tc == 1 / 4e307
    assert LoraParams(sf=16, b=1e-300).ts == 2 ** 16 / 1e-300


@pytest.mark.parametrize("oversample", [2, 5], ids=["period-subnormal", "rate-overflows"])
def test_modulate_rejects_oversample_whose_rate_or_period_is_not_a_normal_float(oversample):
    p = LoraParams(sf=1, b=4e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^oversample = {oversample} with b = 4e"):
            modulate(p, [0], oversample)


def test_mean_envelope_endpoints():
    p = LoraParams(sf=5, b=1.0)
    assert mean_envelope_magnitude(p, 0.0) == pytest.approx(1.0)
    assert mean_envelope_magnitude(p, p.tc) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("b", [1.0, 3.0, 125e3])
def test_mean_envelope_matches_the_dirichlet_kernel(b):
    # the direct quotient gives scipy's diric bit for bit on [0, Ts): on a
    # fine grid, at the chip instants and next to t = 0
    from scipy.special import diric

    for sf in range(1, 17):
        p = LoraParams(sf=sf, b=b)
        t = np.concatenate([np.linspace(0.0, p.ts, 20002)[:-1], np.arange(p.m) / p.b,
                            [1e-300, 5e-324]])
        expected = np.abs(diric(2.0 * np.pi * p.b * t / p.m, p.m))
        np.testing.assert_array_equal(mean_envelope_magnitude(p, t), expected, err_msg=str(sf))
    # the limit at t = 0 raises no warning (RuntimeWarnings are errors here)
    assert mean_envelope_magnitude(p, 0.0) == 1.0


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
