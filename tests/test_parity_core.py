"""Scalar parity kernels against independent oracles and known values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomod2 import batch
from binomod2.automaton import sum_direct
from binomod2.parity_core import (
    DEFAULT_ORACLE_BOUND,
    binom_parity,
    f_value,
    g_value,
)
from binomod2.registry import builtin_entries

from .oracles import ORACLE, comb_parity_builtin, f_ref, row_sum_ref


def test_oracle_is_anchored_to_math_comb():
    for x in range(120):
        for y in range(x + 2):
            assert ORACLE.comb_parity(x, y) == comb_parity_builtin(x, y)


def test_binom_parity_matches_oracle_exhaustively():
    for n in range(301):
        for k in range(310):
            assert binom_parity(n, k) == ORACLE.comb_parity(n, k)


def test_binom_parity_point_values():
    assert binom_parity(8, 4) == 0  # central binomial C(8,4)=70
    assert binom_parity(5, 2) == 0
    assert binom_parity(7, 3) == 1
    for n in (0, 1, 17, 100):
        assert binom_parity(n, 0) == 1


def test_binom_parity_out_of_triangle_and_negative():
    assert binom_parity(3, 5) == 0
    assert binom_parity(-1, 0) == 0
    assert binom_parity(4, -2) == 0


@given(st.integers(0, 1 << 12), st.integers(0, 1 << 12))
def test_binom_parity_lucas_digit_product(n, k):
    prod = 1
    nn, kk = n, k
    while nn or kk:
        prod &= comb_parity_builtin(nn & 1, kk & 1)
        nn >>= 1
        kk >>= 1
    assert binom_parity(n, k) == prod


@given(st.integers(1, 1 << 16))
def test_central_binomial_is_even(n):
    assert binom_parity(2 * n, n) == 0


def test_g_value_examples():
    assert g_value((1, -1, 0, 2), 7, 1) == 0
    assert g_value((1, 1, 1, -1), 0, 0) == 0
    assert g_value((1, -1, 0, 2), 1, 1) == 2
    # negative top or bottom is out of domain, encoded as None
    assert g_value((1, -1, 0, 2), 0, 1) is None
    assert g_value((1, 1, 1, -1), 0, 2) is None


def test_f_value_examples():
    assert f_value((1, -1, 0, 2), 7, 2) == 1
    assert f_value((1, 1, 1, -1), 3, 1) == 0
    assert f_value((1, -1, 0, 1), 6, 2) == 0
    for e in builtin_entries():
        assert f_value(e.coefficients, 0, 0) == 1


def test_negative_top_is_a_zero_binomial():
    # top = 3 - 2*2 = -1: C(-1, 2) counts as zero in the scalar and grid kernels
    assert f_value((1, -2, 0, 1), 3, 2) == 0
    assert batch.f_affine_grid((1, -2, 0, 1), (1, 0, 1, 0), 3)[3, 2] == 0


def test_f_value_zero_beyond_row():
    for e in builtin_entries():
        for n in range(12):
            for k in range(n + 1, n + 6):
                assert f_value(e.coefficients, n, k) == 0


def test_f_value_matches_reference():
    vectors = [e.coefficients for e in builtin_entries()]
    vectors += [(0, 2, 1, -1), (1, 2, 1, 1), (2, 1, 1, 0)]
    for c in vectors:
        for n in range(60):
            for k in range(60):
                assert f_value(c, n, k) == f_ref(c, n, k), (c, n, k)


def test_f_value_even_scaling():
    for e in builtin_entries():
        c = e.coefficients
        for n in range(64):
            for k in range(64):
                assert f_value(c, 2 * n, 2 * k) == f_value(c, n, k)


def test_sum_direct_examples():
    assert sum_direct((1, 0, 0, 1), 7) == 8
    assert sum_direct((1, -1, 0, 2), 7) == 3
    assert sum_direct((1, 1, 1, -1), 7) == 4
    for e in builtin_entries():
        assert sum_direct(e.coefficients, 0) == 1


def test_sum_direct_matches_reference():
    for e in builtin_entries():
        for n in range(150):
            assert sum_direct(e.coefficients, n) == row_sum_ref(e.coefficients, n)


def test_sum_direct_bound_and_domain():
    with pytest.raises(ValueError):
        sum_direct((1, 0, 0, 1), -1)
    assert sum_direct((1, -1, 0, 2), 1 << 1000) == 1
    assert DEFAULT_ORACLE_BOUND == 1 << 24


@settings(max_examples=30)
@given(st.integers(0, 2000))
def test_gould_row_sums(n):
    assert sum_direct((1, 0, 0, 1), n) == 1 << bin(n).count("1")
