"""Vectorized twins of the scalar kernels, for grid sweeps and long row sums.

F grids use the same math as parity_core, expressed over numpy int64
arrays; the tests sweep identity statements on them, a reference
independent of the carry automaton. Row sums come from the automaton's
transfer matrices (automaton.py) instead of from F cell by cell, so a
prefix of N row sums costs time linear in N. The independent references these are pinned to
live in tests/oracles.py.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import automaton
from .errors import BoundExceeded
from .parity_core import DEFAULT_ORACLE_BOUND, Coeffs


def _check_int64(c: Coeffs, largest: int):
    """Refuse arguments whose indices or a*n + b*k could leave int64."""
    if (sum(abs(a) for a in c) + 1) * (largest + 1) >= 1 << 62:
        raise BoundExceeded(
            f"coefficients {tuple(c)} at indices up to {largest} overflow the int64 kernel"
        )


def _f_block(c: Coeffs, top_n: np.ndarray, bot_k: np.ndarray) -> np.ndarray:
    """F evaluated elementwise on broadcastable int64 arrays of F-arguments."""
    a1, a2, a3, a4 = c
    top = a1 * top_n + a2 * bot_k
    bot = a3 * top_n + a4 * bot_k
    ok = (bot_k <= top_n) & (top >= 0) & (bot >= 0)
    mask = (bot & ~top) | (bot_k & ~top_n)
    return ((mask == 0) & ok).astype(np.int64)


def f_affine_grid(c: Coeffs, affine: tuple[int, int, int, int], bound: int) -> np.ndarray:
    """Grid of F(p*n+q, p2*k+q2) for 0 <= n, k <= bound, shape (bound+1, bound+1)."""
    p, q, p2, q2 = affine
    _check_int64(c, max(abs(q), abs(p * bound + q), abs(q2), abs(p2 * bound + q2)))
    n = np.arange(bound + 1, dtype=np.int64)
    k = np.arange(bound + 1, dtype=np.int64)
    return _f_block(c, (p * n + q)[:, None], (p2 * k + q2)[None, :])


def row_sums(c: Coeffs, n_max: int) -> np.ndarray:
    """sum_direct(c, n) for all 0 <= n <= n_max, by the carry automaton's transfer matrices.

    Split n = h*2^L + lo. Then a(n) = U[lo] . R[h], where the row
    U[lo] = e0 . M[lo_0] ... M[lo_(L-1)] counts the bits of k per state after
    the low L bits, and R[h] = M[h_0] ... M[h_(H-1)] . acc counts the accepted
    continuations of the high part h. Both tables are built by doubling, so
    d states cost N*d for the product and sqrt(N)*d^2 for the tables.
    """
    if n_max > DEFAULT_ORACLE_BOUND:
        raise BoundExceeded(f"n={n_max} exceeds oracle bound {DEFAULT_ORACLE_BOUND}")
    bits = n_max.bit_length()
    m0, m1, acc = automaton.linear_rep(c, bits)
    low = (bits + 1) // 2
    u = np.eye(1, len(acc), dtype=np.int64)
    for _ in range(low):
        u = np.concatenate((u @ m0, u @ m1))
    r = acc[None, :]
    for _ in range(bits - low):
        doubled = np.empty((2 * len(r), len(acc)), dtype=np.int64)
        doubled[0::2] = r @ m0.T
        doubled[1::2] = r @ m1.T
        r = doubled
    return (r[: (n_max >> low) + 1] @ u.T).reshape(-1)[: n_max + 1]


def parity_triangle_rows(num_rows: int) -> Iterator[int]:
    """Rows of Pascal's triangle mod 2, row n packed as an int (bit k = C(n,k) mod 2).

    Built by the carry-free doubling row ^= row << 1, which is exactly
    Pascal's rule with addition replaced by XOR.
    """
    row = 1
    for _ in range(num_rows):
        yield row
        row ^= row << 1
