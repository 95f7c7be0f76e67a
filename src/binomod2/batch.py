"""Exact row sums over the carry automaton, plus the F grid the tests sweep.

row_sums fills a prefix of a(n) from the automaton's transfer matrices
(automaton.py) in Python ints, at a cost linear in the prefix length; the
independent reference it is pinned to lives in tests/oracles.py.
f_affine_grid evaluates F over a grid with the same math as parity_core,
expressed over numpy int64 arrays. Only the tests call it, as a reference
independent of the automaton, and numpy is imported for it alone.
parity_triangle_rows packs Pascal's triangle mod 2 row by row.
"""

from __future__ import annotations

import sys
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


def row_sums(c: Coeffs, n_max: int) -> list[int]:
    """sum_direct(c, n) for all 0 <= n <= n_max, by the carry automaton's transfer matrices.

    Split n = h*2^L + lo, with bits = n_max.bit_length() and L = min(bits, 12).
    Lane lo of the packed int u[t] holds U(lo)[t] = (e0 . M[lo_0] ...
    M[lo_(L-1)])[t], the number of k whose low L bits lead to state t
    alongside lo; each bit of lo appends the lanes of u . M1 above those of
    u . M0. R(h) = M[h_0] ... M[h_(H-1)] . acc counts the accepted
    continuations of the high part h, so lane lo of sum_t R(h)[t] * u[t] is
    a(h*2^L + lo): one piece of 2^L terms per h, which keeps u small at the
    cap. A lane counts submasks of an index below 2^bits, so it never exceeds
    2^bits: 16-bit lanes hold that while bits <= 15, and 32-bit lanes up to
    the cap, so no lane carries into the next. Raises BoundExceeded past
    DEFAULT_ORACLE_BOUND.
    """
    if n_max > DEFAULT_ORACLE_BOUND:
        raise BoundExceeded(f"n={n_max} exceeds oracle bound {DEFAULT_ORACLE_BOUND}")
    bits = n_max.bit_length()
    width = 16 if bits <= 15 else 32
    low = min(bits, 12)
    m0, m1, acc = automaton.linear_rep(c, bits)
    d = len(acc)
    cols = [[[(s, m[s][t]) for s in range(d) if m[s][t]] for t in range(d)] for m in (m0, m1)]
    u = [1] + [0] * (d - 1)
    for j in range(low):
        u = [
            sum(x * u[s] for s, x in lo) | sum(x * u[s] for s, x in hi) << (width << j)
            for lo, hi in zip(*cols)
        ]
    r = [acc]
    for _ in range(bits - low):
        r = [[sum(x * y for x, y in zip(row, v)) for row in m] for v in r for m in (m0, m1)]
    sums: list[int] = []
    for v in r[: (n_max >> low) + 1]:
        piece = sum(count * packed for packed, count in zip(u, v) if count)
        lanes = memoryview(piece.to_bytes(width // 8 << low, sys.byteorder))
        sums += lanes.cast("H" if width == 16 else "I")[: n_max + 1 - len(sums)].tolist()
    return sums


def parity_triangle_rows(num_rows: int) -> Iterator[int]:
    """Rows of Pascal's triangle mod 2, row n packed as an int (bit k = C(n,k) mod 2).

    Built by the carry-free doubling row ^= row << 1, which is exactly
    Pascal's rule with addition replaced by XOR.
    """
    row = 1
    for _ in range(num_rows):
        yield row
        row ^= row << 1
