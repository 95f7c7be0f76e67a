"""Scalar parity kernels for binomial coefficients and their bilinear products.

Everything here works on arbitrary-precision integers. The central fact
(Lucas' theorem mod 2): C(n, k) is odd exactly when every 1-bit of k is
also set in n. A product of binomials is odd exactly when every factor is,
which collapses to a single bitmask test per factor. Row sums come from the
carry automaton (automaton.py), which makes the same two tests bit by bit.
"""

from __future__ import annotations

Coeffs = tuple[int, int, int, int]

# Caps the length of a computed prefix: batch.row_sums,
# RuleSystem.first_terms and transform.rlt_prefix hold at most
# DEFAULT_ORACLE_BOUND + 1 terms. One index needs no cap, as
# automaton.sum_direct is linear in its bit length.
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

