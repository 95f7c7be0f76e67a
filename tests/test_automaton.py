"""The carry automaton, pinned to the Pascal-row references."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomod2 import automaton, batch
from binomod2.automaton import (
    START,
    STATE_CAP,
    accepts,
    first_difference,
    prefix_state,
    sum_direct,
)
from binomod2.errors import BoundExceeded
from binomod2.registry import builtin_entries

from .oracles import f_ref, row_sum_ref

SMALL = st.tuples(*[st.integers(-4, 4)] * 4)
FIB = (1, -1, 0, 2)
# F(n, k) is C(n, k) mod 2 here, but the top carry holds the low bits of n
WIDE = (1 << 40, 0, 0, 0)


@settings(max_examples=400, deadline=None)
@given(SMALL, st.integers(0, 511), st.integers(0, 511), st.integers(0, 3))
def test_acceptance_is_f(c, n, k, pad):
    bits = max(n.bit_length(), k.bit_length()) + pad
    assert accepts(c, prefix_state(c, bits, n, k)) == bool(f_ref(c, n, k))


@settings(max_examples=60, deadline=None)
@given(SMALL, st.integers(0, 80))
def test_row_sums_are_row_sum_ref(c, n_max):
    ref = [row_sum_ref(c, n) for n in range(n_max + 1)]
    assert batch.row_sums(c, n_max) == ref
    assert [sum_direct(c, n) for n in range(n_max + 1)] == ref


def test_leading_zeros_are_harmless():
    for e in builtin_entries():
        for c in (e.coefficients,) + tuple(e.aliases):
            m0, m1, acc = automaton.linear_rep(c, 64)
            assert [sum(x * y for x, y in zip(row, acc)) for row in m0] == acc, c
            assert len(acc) <= 8, c


def test_state_cap_bounds_row_sums():
    depth = STATE_CAP.bit_length() - 1
    assert len(automaton.reachable(WIDE, depth)) == STATE_CAP
    sums = batch.row_sums(WIDE, (1 << depth) - 1)
    assert sums == [1 << n.bit_count() for n in range(1 << depth)]
    with pytest.raises(BoundExceeded, match="automaton states"):
        batch.row_sums(WIDE, 1 << depth)


def test_state_cap_bounds_sum_direct():
    # the carries of 2^40*n depend on n alone: one live state per index
    assert sum_direct(WIDE, 1 << 1000) == 2
    # a2 = 2^20 puts the low bits of k in the top carry: 2^9 live states at 511
    wider = (1 << 40, 1 << 20, 0, 0)
    with pytest.raises(BoundExceeded, match="live states"):
        sum_direct(wider, 511)
    with pytest.raises(BoundExceeded, match="automaton states"):
        batch.row_sums(wider, 511)


def test_first_difference():
    assert first_difference(FIB, prefix_state(FIB, 1, 0, 0), START) is None  # F(2n, 2k) = F(n, k)
    assert first_difference(FIB, prefix_state(FIB, 2, 3, 1), START) is None  # F(4n+3, 4k+1) = F(n, k)
    assert first_difference(FIB, prefix_state(FIB, 2, 1, 1), START) == (0, 0)
    assert first_difference(FIB, START, None) == (0, 0)  # F(0, 0) = 1
    assert first_difference(FIB, prefix_state(FIB, 1, 0, 1), None) is None  # odd k, even n
    with pytest.raises(BoundExceeded, match="state pairs"):
        first_difference(WIDE, prefix_state(WIDE, 1, 0, 0), START)


SIDES = st.sampled_from((1, 2, 4, 8)).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(0, p - 1), st.integers(0, p - 1))
)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-3, 3)] * 4), SIDES, SIDES | st.none())
def test_first_difference_is_the_least_disagreement(c, lhs, rhs):
    """Against f_ref: the result disagrees, and nothing smaller does."""

    def side(affine, n, k):
        if affine is None:
            return 0
        p, q, q2 = affine
        return f_ref(c, p * n + q, p * k + q2)

    def disagree(n, k):
        return side(lhs, n, k) != side(rhs, n, k)

    def state(affine):
        return None if affine is None else prefix_state(c, affine[0].bit_length() - 1, *affine[1:])

    cx = first_difference(c, state(lhs), state(rhs))
    if cx is None:
        assert not any(disagree(n, k) for n in range(41) for k in range(41))
        return
    assert disagree(*cx)
    if cx[0] <= 40:
        smaller = [(n, k) for n in range(cx[0] + 1) for k in range(41) if (n, k) < cx]
        assert not any(disagree(n, k) for n, k in smaller)
