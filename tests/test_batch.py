"""Vectorized twins must agree exactly with the scalar kernels."""

import numpy as np
import pytest

from binomod2 import batch
from binomod2.errors import BoundExceeded
from binomod2.parity_core import f_value, sum_direct
from binomod2.registry import builtin_entries

from .oracles import ORACLE, row_sum_ref

VECTORS = [e.coefficients for e in builtin_entries()] + [(0, 2, 1, -1), (1, 2, 1, 1)]


def test_f_grid_equals_scalar():
    bound = 48
    for c in VECTORS:
        grid = batch.f_grid(c, bound)
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
        for n in range(401):
            assert int(sums[n]) == sum_direct(c, n), (c, n)


def test_row_sums_match_oracle_at_block_boundaries():
    # sizes around the 2^L split between the shared low pairs and the high walk
    w = 1 << batch._LOW_BITS
    sizes = [0, 1, w - 1, w, w + 1, 3 * w + 5]
    for c in ((1, -1, 0, 6), (1, 1, 1, -1)):
        longest = batch.row_sums(c, sizes[-1])
        for n_max in sizes:
            sums = batch.row_sums(c, n_max)
            assert sums.dtype == np.int64 and len(sums) == n_max + 1
            assert np.array_equal(sums, longest[: n_max + 1]), (c, n_max)
            probes = {0, n_max, n_max - 1, w - 1, w, w + 1, 2 * w - 1, 2 * w, 3 * w - 1}
            probes |= set(range(0, n_max + 1, 97))
            for n in sorted(p for p in probes if 0 <= p <= n_max):
                assert int(sums[n]) == row_sum_ref(c, n), (c, n_max, n)


def test_int64_overflow_is_refused():
    huge = (1 << 62, 0, 0, 0)
    with pytest.raises(BoundExceeded):
        batch.row_sums(huge, 3)
    with pytest.raises(BoundExceeded):
        batch.row_sums((1 << 63, 0, 0, 0), 0)
    with pytest.raises(BoundExceeded):
        batch.f_affine_grid(huge, (1, 0, 1, 0), 3)
    assert int(batch.row_sums((1 << 40, 0, 0, 0), 3)[3]) == 4


def test_parity_triangle_rows_match_oracle():
    rows = list(batch.parity_triangle_rows(600))
    for n, row in enumerate(rows):
        assert row == ORACLE.row(n)


def test_grid_dtype_and_shape():
    g = batch.f_grid((1, 0, 0, 1), 10)
    assert g.shape == (11, 11) and g.dtype == np.int64
    assert g[0, 0] == 1 and g[0, 1] == 0
