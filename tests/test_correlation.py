import numpy as np
import pytest
from hypothesis import given, strategies as st

from lorachirp import (LoraParams, abs_cross_correlation, correlation_bound,
                       correlation_matrix, cross_correlation,
                       cross_correlation_real, max_cross_correlation,
                       orthogonality_offsets, real_orthogonality_condition,
                       snr_penalty_db)
from oracles import (numeric_cross_correlation_matrix,
                     numeric_cross_correlation_oracle)


def test_diagonal_is_one():
    p = LoraParams(sf=5, b=1.0)
    for l in (0, 7, 31):
        assert cross_correlation(p, l, l) == 1.0 + 0.0j
        assert cross_correlation_real(p, l, l) == 1.0


def test_orthogonal_pair_sf4():
    p = LoraParams(sf=4, b=1.0)
    assert abs(cross_correlation(p, 0, 4)) < 1e-12


def test_real_part_consistent_with_complex():
    p = LoraParams(sf=6, b=1.0)
    for l in range(0, p.m, 5):
        for m in range(0, p.m, 7):
            assert cross_correlation_real(p, l, m) == pytest.approx(
                cross_correlation(p, l, m).real, abs=1e-14)


def test_real_zero_when_distance_squared_divides_m():
    p = LoraParams(sf=6, b=1.0)
    for l, m in [(0, 8), (3, 11), (5, 21), (0, 16)]:
        assert ((m - l) ** 2) % p.m == 0
        assert abs(cross_correlation_real(p, l, m)) < 1e-12


@given(sf=st.integers(2, 10), data=st.data())
def test_conjugate_symmetry(sf, data):
    p = LoraParams(sf=sf, b=1.0)
    l = data.draw(st.integers(0, p.m - 1))
    m = data.draw(st.integers(0, p.m - 1))
    assert cross_correlation(p, m, l) == pytest.approx(
        np.conj(cross_correlation(p, l, m)), abs=1e-14)


@given(sf=st.integers(2, 10), data=st.data())
def test_magnitude_closed_form(sf, data):
    p = LoraParams(sf=sf, b=1.0)
    l = data.draw(st.integers(0, p.m - 1))
    m = data.draw(st.integers(0, p.m - 1).filter(lambda v: v != l))
    assert abs_cross_correlation(p, abs(m - l)) == pytest.approx(
        abs(cross_correlation(p, l, m)), abs=1e-12)


def test_oracle_identity_pair():
    p = LoraParams(sf=4, b=1.0)
    assert numeric_cross_correlation_oracle(p, 3, 3, 4096) == pytest.approx(1.0, abs=1e-10)


def test_oracle_rejects_small_steps():
    p = LoraParams(sf=6, b=1.0)
    with pytest.raises(ValueError):
        numeric_cross_correlation_oracle(p, 0, 1, 64 * p.m - 1)


def test_oracle_corroborates_orthogonality():
    p = LoraParams(sf=4, b=1.0)
    assert abs(numeric_cross_correlation_oracle(p, 0, 4, 1 << 16)) < 1e-6


def test_closed_form_matches_oracle_sf5():
    p = LoraParams(sf=5, b=1.0)
    G = numeric_cross_correlation_matrix(p, steps=1 << 16)
    C = correlation_matrix(p)
    assert np.max(np.abs(G - C)) < 1e-6


def test_oracle_matrix_matches_per_pair_calls():
    p = LoraParams(sf=3, b=1.0)
    G = numeric_cross_correlation_matrix(p, steps=4096)
    for l, m in [(0, 1), (2, 7), (5, 5)]:
        assert G[l, m] == pytest.approx(
            numeric_cross_correlation_oracle(p, l, m, 4096), abs=1e-12)


@pytest.mark.parametrize("sf,expected", [(3, 0.212), (5, 0.091), (7, 0.045),
                                         (10, 0.015), (12, 0.0075)])
def test_max_real_correlation_table_values(sf, expected):
    tol = 0.0005 if sf == 12 else 0.001
    mc = max_cross_correlation(LoraParams(sf=sf, b=1.0))
    assert mc.max_abs_real == pytest.approx(expected, abs=tol)


def test_max_scan_agrees_with_dense_matrix():
    p = LoraParams(sf=6, b=1.0)
    C = correlation_matrix(p).copy()
    np.fill_diagonal(C, 0.0)
    mc = max_cross_correlation(p)
    assert mc.max_abs == pytest.approx(np.max(np.abs(C)), abs=1e-12)
    assert mc.max_abs_real == pytest.approx(np.max(np.abs(C.real)), abs=1e-12)
    l, m = mc.argmax_real
    assert abs(cross_correlation_real(p, l, m)) == pytest.approx(mc.max_abs_real)


@pytest.mark.parametrize("sf", range(3, 13))
def test_bound_holds(sf):
    p = LoraParams(sf=sf, b=1.0)
    assert max_cross_correlation(p).max_abs <= correlation_bound(p) + 1e-12


def test_asymptotic_orthogonality_monotone_in_sf():
    maxima = [max_cross_correlation(LoraParams(sf=sf, b=1.0)).max_abs
              for sf in range(3, 13)]
    assert all(a > b for a, b in zip(maxima, maxima[1:]))


@pytest.mark.parametrize("sf,expected", [(3, 1.04), (7, 0.20), (12, 0.03)])
def test_snr_penalty_table_values(sf, expected):
    assert snr_penalty_db(LoraParams(sf=sf, b=1.0)) == pytest.approx(expected, abs=0.01)


@pytest.mark.parametrize("sf,expected", [(3, [4]), (4, [4, 8]), (5, [8, 16])])
def test_orthogonality_offsets_enumeration(sf, expected):
    assert orthogonality_offsets(LoraParams(sf=sf, b=1.0)) == expected


@pytest.mark.parametrize("sf", range(3, 9))
def test_offsets_give_orthogonal_pairs(sf):
    p = LoraParams(sf=sf, b=1.0)
    for d in orthogonality_offsets(p):
        assert 1 <= d < p.m
        for l in range(p.m - d):
            assert abs(cross_correlation(p, l, l + d)) < 1e-9


@pytest.mark.parametrize("sf", range(3, 7))
def test_real_orthogonality_condition_is_exact(sf):
    # passband zeros occur exactly when (m-l)^2/M or (m^2-l^2)/M - 1/2 is integer
    p = LoraParams(sf=sf, b=1.0)
    for l in range(p.m):
        for m in range(p.m):
            if l == m:
                continue
            numeric = abs(cross_correlation_real(p, l, m)) < 1e-9
            assert numeric == real_orthogonality_condition(p, l, m), (sf, l, m)


def test_correlation_report_structure():
    p = LoraParams(sf=5, b=1.0)
    C = correlation_matrix(p)
    np.testing.assert_allclose(np.diag(C), 1.0, atol=1e-15)
    np.testing.assert_allclose(C, C.conj().T, atol=1e-14)
    mc = max_cross_correlation(p)
    assert mc.max_abs <= correlation_bound(p)
    l, m = mc.argmax_real
    assert abs(C[l, m].real) == pytest.approx(mc.max_abs_real)


def test_report_skips_matrix_above_sf8():
    with pytest.raises(ValueError):
        correlation_matrix(LoraParams(sf=9, b=1.0))
