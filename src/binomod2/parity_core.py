"""Scalar parity kernels for binomial coefficients and their bilinear products.

Everything here works on arbitrary-precision integers. The central fact
(Lucas' theorem mod 2): C(n, k) is odd exactly when every 1-bit of k is
also set in n. A product of binomials is odd exactly when every factor is,
which collapses to a single bitmask test per factor; and since F carries the
factor C(n, k), a row sum only has to visit the 2^popcount(n) submasks of n.
"""

from __future__ import annotations

from .errors import BoundExceeded

Coeffs = tuple[int, int, int, int]

# Caps the work of the direct routes: sum_direct's 2^popcount(n) submask
# steps, and the length of batch.row_sums' prefix arrays, whose cost is
# linear in that length. Past it callers should evaluate through a rule
# system instead.
DEFAULT_ORACLE_BOUND = 1 << 24


def binom_parity(n: int, k: int) -> int:
    """Parity of C(n, k): 1 iff k is a bitwise submask of n.

    Covers k > n for free (the highest differing bit of k is then not in n)
    and treats negative arguments as a zero binomial.
    """
    if n < 0 or k < 0:
        return 0
    return 1 if k & ~n == 0 else 0


def g_value(c: Coeffs, n: int, k: int) -> int | None:
    """Obstruction mask for C(a1*n+a2*k, a3*n+a4*k) * C(n, k) being odd.

    Returns (bot AND-NOT top) OR (k AND-NOT n), which is zero exactly when
    both factors are odd. Returns None when top or bot is negative: the
    binomial is zero by convention there and no mask applies.
    """
    a1, a2, a3, a4 = c
    top = a1 * n + a2 * k
    bot = a3 * n + a4 * k
    if top < 0 or bot < 0:
        return None
    return (bot & ~top) | (k & ~n)


def f_value(c: Coeffs, n: int, k: int) -> int:
    """Parity of C(a1*n+a2*k, a3*n+a4*k) * C(n, k); 0 outside 0 <= k <= n."""
    if k > n or k < 0:
        return 0
    g = g_value(c, n, k)
    if g is None:
        return 0
    return 1 if g == 0 else 0


def sum_direct(c: Coeffs, n: int, oracle_bound: int = DEFAULT_ORACLE_BOUND) -> int:
    """Row sum a(n) = sum_{k=0..n} f_value(c, n, k), over the submasks of n.

    Every other k has C(n, k) even, so walking k = (k-1) & n from n down to
    0 gives the same sum in 2^popcount(n) steps. Raises BoundExceeded when
    that step count is above oracle_bound, whatever the size of n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    pop = n.bit_count()
    if 1 << pop > oracle_bound:
        raise BoundExceeded(f"2^{pop} submask steps exceed oracle bound {oracle_bound}")
    total = 0
    k = n
    while True:
        total += f_value(c, n, k)
        if k == 0:
            return total
        k = (k - 1) & n
