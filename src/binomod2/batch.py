"""Vectorized twins of the scalar kernels, for grid sweeps and long row sums.

Same math as parity_core, expressed over numpy int64 arrays; the independent
references these are pinned to live in tests/oracles.py. Row sums visit only
the cells Lucas' theorem leaves alive: F(n, k) = 1 needs k to be a submask of
n, so row n costs 2^popcount(n) cells, about N^1.585 over [0, N].
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import BoundExceeded
from .parity_core import DEFAULT_ORACLE_BOUND, Coeffs

# row_sums splits n into high and low L bits; the 3^L low (n, k) submask
# pairs (59049 for L = 10) are built once and reused for every high part
_LOW_BITS = 10


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


def f_grid(c: Coeffs, bound: int) -> np.ndarray:
    """Plain F(n, k) grid for 0 <= n, k <= bound."""
    return f_affine_grid(c, (1, 0, 1, 0), bound)


def _low_submask_pairs(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """All 3^bits pairs (n, k) with n < 2^bits and k a submask of n."""
    n = k = np.zeros(1, dtype=np.int64)
    for b in range(bits):
        n, k = np.concatenate((n, n | 1 << b, n | 1 << b)), np.concatenate((k, k, k | 1 << b))
    return n, k


def row_sums(c: Coeffs, n_max: int, oracle_bound: int = DEFAULT_ORACLE_BOUND) -> np.ndarray:
    """sum_direct(c, n) for all 0 <= n <= n_max, by submask enumeration.

    n = h*2^L + n_lo and k = h'*2^L + k_lo is a submask of n exactly when h'
    is a submask of h and k_lo of n_lo, so each high part h walks its
    submasks h' and evaluates F on the shared low pairs in one block.
    """
    if n_max > oracle_bound:
        raise BoundExceeded(f"n={n_max} exceeds oracle bound {oracle_bound}")
    low = min(_LOW_BITS, n_max.bit_length())
    highs = (n_max >> low) + 1
    out = np.zeros(highs << low, dtype=np.int64)
    _check_int64(c, len(out) - 1)
    n_lo, k_lo = _low_submask_pairs(low)
    for h in range(highs):
        top_n = h << low | n_lo
        sub = h
        while True:
            alive = _f_block(c, top_n, sub << low | k_lo) == 1
            out[h << low : (h + 1) << low] += np.bincount(n_lo[alive], minlength=1 << low)
            if sub == 0:
                break
            sub = (sub - 1) & h
    return out[: n_max + 1]


def parity_triangle_rows(num_rows: int) -> Iterator[int]:
    """Rows of Pascal's triangle mod 2, row n packed as an int (bit k = C(n,k) mod 2).

    Built by the carry-free doubling row ^= row << 1, which is exactly
    Pascal's rule with addition replaced by XOR.
    """
    row = 1
    for _ in range(num_rows):
        yield row
        row ^= row << 1
