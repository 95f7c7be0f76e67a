"""Vectorized twins must agree exactly with the scalar kernels."""

import numpy as np
import pytest

from binomod2 import batch
from binomod2.errors import BoundExceeded
from binomod2.automaton import sum_direct
from binomod2.parity_core import f_value
from binomod2.registry import builtin_entries

from .oracles import ORACLE, row_sum_ref

VECTORS = [e.coefficients for e in builtin_entries()] + [(0, 2, 1, -1), (1, 2, 1, 1)]


def test_f_grid_equals_scalar():
    bound = 48
    for c in VECTORS:
        grid = batch.f_affine_grid(c, (1, 0, 1, 0), bound)
        for n in range(bound + 1):
            for k in range(bound + 1):
                assert grid[n, k] == f_value(c, n, k), (c, n, k)


def test_f_affine_grid_equals_scalar():
    affines = [(1, 0, 1, 0), (4, 3, 4, 1), (2, 1, 2, 0), (16, 15, 16, 12), (8, 7, 8, 5)]
    bound = 24
    for c in ((1, -1, 0, 2), (1, 2, 2, -1), (1, 1, 1, -1)):
        for p, q, p2, q2 in affines:
            grid = batch.f_affine_grid(c, (p, q, p2, q2), bound)
            for n in range(bound + 1):
                for k in range(bound + 1):
                    assert grid[n, k] == f_value(c, p * n + q, p2 * k + q2)


def test_row_sums_equals_scalar():
    for c in VECTORS:
        sums = batch.row_sums(c, 400)
        assert sums == [sum_direct(c, n) for n in range(401)], c


def test_row_sums_match_oracle_around_the_split():
    # row_sums packs the low min(bits, 12) bits of n into lanes, so the lane
    # count moves at every power of two, and from 2^12 the prefix comes in pieces
    sizes = sorted({0, 1, 2, 3} | {(1 << j) + d for j in range(1, 13) for d in (-1, 0, 1)})
    for c in ((1, -1, 0, 6), (1, 1, 1, -1)):
        ref = {}
        longest = batch.row_sums(c, sizes[-1])
        probes = set(sizes) | set(range(0, sizes[-1] + 1, 97))
        for n in sorted(probes):
            ref[n] = row_sum_ref(c, n)
            assert longest[n] == ref[n], (c, n)
        for n_max in sizes:
            sums = batch.row_sums(c, n_max)
            assert sums == longest[: n_max + 1], (c, n_max)
            assert sums[-1] == ref[n_max], (c, n_max)


@pytest.mark.parametrize("n_max", [(1 << 15) - 1, 1 << 15, (1 << 16) - 1])
def test_row_sums_at_the_lane_boundaries(n_max):
    # a(2^15 - 1) = 2^15 is the largest value a 16-bit lane holds; one index
    # more switches to 32-bit lanes, and a(2^16 - 1) = 2^16 needs them
    assert batch.row_sums((1, 0, 0, 1), n_max) == [1 << n.bit_count() for n in range(n_max + 1)]
    cows = batch.row_sums((1, -1, 0, 6), n_max)
    assert len(cows) == n_max + 1
    pieces = {h * 4096 + d for h in range(1, (n_max >> 12) + 1) for d in (-1, 0)}
    probes = {*range(0, n_max + 1, 97), *range(n_max - 256, n_max + 1), *pieces}
    bad = [n for n in sorted(probes) if cows[n] != sum_direct((1, -1, 0, 6), n)]
    assert not bad, bad[:5]


def test_int64_overflow_is_refused():
    # the grid forms a*n + b*k in int64; row sums keep the carries in Python ints
    with pytest.raises(BoundExceeded):
        batch.f_affine_grid((1 << 62, 0, 0, 0), (1, 0, 1, 0), 3)
    # C(a1*n, 0) = 1, so a(n) = 2^popcount(n)
    want = [1 << bin(n).count("1") for n in range(256)]
    for a1 in (1 << 62, 1 << 63, 1 << 200):
        assert batch.row_sums((a1, 0, 0, 0), 255) == want, a1
    assert batch.row_sums((1 << 40, 0, 0, 0), 3)[3] == 4


def test_parity_triangle_rows_match_oracle():
    rows = list(batch.parity_triangle_rows(600))
    for n, row in enumerate(rows):
        assert row == ORACLE.row(n)


def test_grid_dtype_and_shape():
    g = batch.f_affine_grid((1, 0, 0, 1), (1, 0, 1, 0), 10)
    assert g.shape == (11, 11) and g.dtype == np.int64
    assert g[0, 0] == 1 and g[0, 1] == 0
