"""The CSV formatter's text against repr itself, value by value: every
float as repr of the Python float tolist() makes of it, every int as repr
of the Python int."""
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lorachirp._numtext import _csv_text


def _repr_rows(cols) -> bytes:
    """The oracle: csv.writer's layout of repr of each value."""
    return "".join(",".join(map(repr, row)) + "\r\n"
                   for row in zip(*(c.tolist() for c in cols))).encode()


def _assert_repr(cols, rows=1 << 15):
    n = len(cols[0])
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        got, want = _csv_text(cols, lo, hi), _repr_rows([c[lo:hi] for c in cols])
        if got != want:  # name the first value that differs
            for g, w in zip(got.split(b"\r\n"), want.split(b"\r\n")):
                assert g == w
        assert got == want


def test_random_bit_patterns_match_repr():
    # 2^20 doubles of uniform random bits: every exponent, subnormals, NaN
    # payloads and infinities, and both signs
    bits = np.random.default_rng(34).integers(0, 2 ** 64, 1 << 20, dtype=np.uint64,
                                               endpoint=False)
    _assert_repr([bits.view(np.float64)])


def _boundaries() -> np.ndarray:
    """Values where the digits or the layout change: zeros, subnormals,
    the normal range's ends, powers of 2 and 10, repr's switches between
    fixed and exponent notation, each with its neighbours, both signs."""
    tiny = np.arange(1, 1001) * 5e-324
    edges = [0.0, 2.2250738585072014e-308, 2.225073858507201e-308, sys.float_info.max,
             1e-5, 1e-4, 9.999999999999999e-05, 1e15, 1e16, 9999999999999998.0,
             0.1, 0.3, 1 / 3, 5e-324, 9007199254740992.0, 9007199254740993.0, 2.0 ** 63, 1e23]
    powers = [2.0 ** e for e in range(-1074, 1024)] + [10.0 ** e for e in range(-323, 309)]
    x = np.concatenate([tiny, edges, powers, np.arange(1, 10001) * 1e-9])
    with np.errstate(over="ignore"):
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf),
                            np.nextafter(np.nextafter(x, np.inf), np.inf)])
    return np.concatenate([x, -x])


def test_boundary_values_match_repr():
    x = _boundaries()
    assert np.isinf(x).any() and (x == 0).any() and np.signbit(x[x == 0]).any()
    _assert_repr([x])
    # in every column position of a row, and as float32 and float16
    _assert_repr([x[1:], x[:-1][::-1]])
    with np.errstate(over="ignore"):  # beyond their range, inf
        _assert_repr([x.astype(np.float32), x.astype(np.float16)])


@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_hypothesis_floats_match_repr(values):
    # NaN (of either sign) is 'nan', inf and -inf as repr writes them
    x = np.array(values, dtype=np.float64)
    _assert_repr([x, x[::-1].copy()])


@given(st.lists(st.floats(width=32), min_size=1, max_size=50))
def test_hypothesis_float32_matches_repr_of_its_float64_value(values):
    _assert_repr([np.array(values, dtype=np.float32)])


_INT64 = [-2 ** 63, -2 ** 63 + 1, -10 ** 18, -1, 0, 1, 9, 10, 99, 100, 10 ** 18, 2 ** 63 - 1]


@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=50))
def test_int64_matches_repr(values):
    v = np.array(values + _INT64, dtype=np.int64)
    _assert_repr([v, v.astype(np.float64)])


def test_int_extremes_and_widths_match_repr():
    powers = [10 ** e for e in range(19)]
    signed = np.array(_INT64 + powers + [p - 1 for p in powers] + [-p for p in powers],
                      dtype=np.int64)
    _assert_repr([signed])
    _assert_repr([signed.astype(np.int32), signed.astype(np.int16), signed.astype(np.int8)])
    unsigned = np.array([0, 1, 2 ** 63, 2 ** 64 - 1, 10 ** 19, 10 ** 19 - 1], dtype=np.uint64)
    _assert_repr([unsigned, unsigned.astype(np.uint8)])


def test_other_dtypes_are_rejected():
    with pytest.raises(TypeError, match="^cannot write columns of dtype"):
        _csv_text([np.array([True])], 0, 1)
    with pytest.raises(TypeError, match="^cannot write columns of dtype"):
        _csv_text([np.arange(2.0), np.array([1j, 2j])], 0, 2)
