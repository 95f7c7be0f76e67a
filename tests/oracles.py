"""Slow independent references shared across the test modules.

These deliberately avoid the package's bitmask shortcuts: parities come
from Pascal's triangle computed with the row XOR recurrence, anchored to
math.comb in test_parity_core.
"""

import math


class PascalRows:
    """Pascal's triangle mod 2; row n is an int whose bit k is C(n,k) mod 2."""

    def __init__(self):
        self._rows = [1]

    def row(self, n: int) -> int:
        while len(self._rows) <= n:
            last = self._rows[-1]
            self._rows.append(last ^ (last << 1))
        return self._rows[n]

    def comb_parity(self, x: int, y: int) -> int:
        if x < 0 or y < 0 or y > x:
            return 0
        return (self.row(x) >> y) & 1


ORACLE = PascalRows()


def f_ref(c, n, k):
    a1, a2, a3, a4 = c
    return ORACLE.comb_parity(a1 * n + a2 * k, a3 * n + a4 * k) & ORACLE.comb_parity(n, k)


def row_sum_ref(c, n):
    return sum(f_ref(c, n, k) for k in range(n + 1))


def runs_ref(n):
    """Maximal 1-run lengths, low bits first, via the binary string."""
    return [len(block) for block in reversed(bin(n)[2:].split("0")) if block]


def recurrence_ref(initial, feedback, length):
    """S(0..length-1) of S(l+1) = sum feedback[i]*S(l-i), written out term by term."""
    vals = list(initial)
    for l in range(len(initial) - 1, length - 1):
        vals.append(sum(feedback[i] * vals[l - i] for i in range(len(feedback))))
    return vals[:length]


def rlt_ref(base_values, n):
    out = 1
    for length in runs_ref(n):
        out *= base_values[length]
    return out


def comb_parity_builtin(x, y):
    if x < 0 or y < 0 or y > x:
        return 0
    return math.comb(x, y) & 1
