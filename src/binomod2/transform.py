"""Run length transform: by binary run decomposition and by residue recurrences.

The transform maps a base sequence S (with S(0) = 1) to T, where T(n) is the
product of S(l) over the lengths l of maximal 1-bit runs of n, and T(0) = 1.
For bases given by a linear recurrence there is an equivalent residue rule
system; recurrence_rule_system builds it and rlt_by_recurrence evaluates
through it, which scales to indices with thousands of bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

from .errors import ExhaustedBase, MalformedRecurrence, NotSplittable
from .rulesys import ResidueRule, RuleSystem


def runs_of_ones(n: int) -> list[int]:
    """Lengths of maximal 1-bit runs of n, low-to-high. Empty for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [len(block) for block in bin(n)[2:].split("0")[::-1] if block]


def mu(n: int) -> tuple[int, int, int]:
    """Split odd n as a*2^m + b with 2^m > 2b and a minimal.

    a is the leading 1-run of n and the split sits at the highest 0-bit
    below the most significant bit (maximal m makes a minimal). Undefined
    for even n and for n whose binary form is all ones.
    """
    if n <= 0 or n % 2 == 0:
        raise NotSplittable(f"{n} is not a positive odd number")
    if n & (n + 1) == 0:
        raise NotSplittable(f"{n} is all ones in binary")
    zeros = ~n & ((1 << n.bit_length()) - 1)
    m = zeros.bit_length()
    return n >> m, n & ((1 << m) - 1), m


@dataclass(frozen=True)
class LinearRecurrence:
    """Base sequence S(0..order-1) = initial, then S(l+1) = sum feedback[i]*S(l-i)."""

    initial: tuple[int, ...]
    feedback: tuple[int, ...]

    def __post_init__(self):
        # accept any sequence; tuples keep the dataclass hashable for lru_cache
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(self, "feedback", tuple(self.feedback))
        if len(self.initial) == 0 or len(self.initial) != len(self.feedback):
            raise MalformedRecurrence("initial and feedback must be equal nonempty lengths")
        if self.initial[0] != 1:
            raise MalformedRecurrence("S(0) must be 1")
        object.__setattr__(self, "_terms", list(self.initial))

    @property
    def order(self) -> int:
        return len(self.initial)

    def term(self, l: int) -> int:
        if l < 0:
            raise ValueError("term index must be nonnegative")
        terms: list[int] = self._terms  # type: ignore[attr-defined]
        while len(terms) <= l:
            terms.append(sum(d * terms[-1 - i] for i, d in enumerate(self.feedback)))
        return terms[l]


BaseSequence = Union[LinearRecurrence, Sequence[int]]


def base_term(S: BaseSequence, l: int) -> int:
    if isinstance(S, LinearRecurrence):
        return S.term(l)
    if l >= len(S):
        raise ExhaustedBase(f"base sequence has {len(S)} terms, run length {l} requested")
    return S[l]


def rlt_by_runs(S: BaseSequence, n: int) -> int:
    """T(n) = product of S(l) over the 1-run lengths of n; T(0) = 1."""
    if base_term(S, 0) != 1:
        raise MalformedRecurrence("S(0) must be 1")
    value = 1
    for l in runs_of_ones(n):
        value *= base_term(S, l)
    return value


@lru_cache(maxsize=None)
def recurrence_rule_system(S: LinearRecurrence) -> RuleSystem:
    """Residue rule system equivalent to the transform of a recurrent base.

    With order = k+1 and w = 2^(k+1), the rules are: T(2n) = T(n); for odd
    i < 2^k, T(wn+i) = T(i)*T(n); for odd i with 2^k <= i < w-1 and
    mu(i) = (a, b, m), T(wn+i) = T(b)*T(2^(k+1-m) n + a); and
    T(wn+w-1) = sum_j feedback[j]*T(2^(k-j) n + 2^(k-j) - 1).
    """
    k = S.order - 1
    me = k + 1
    w = 1 << me
    rules = [ResidueRule(1, 0, ((1, 1, 0),))]
    for i in range(1, 1 << k, 2):
        rules.append(ResidueRule(me, i, ((rlt_by_runs(S, i), 1, 0),)))
    for i in range((1 << k) | 1, w - 1, 2):
        a, b, m = mu(i)  # i is odd and below w-1, so always splittable
        rules.append(ResidueRule(me, i, ((rlt_by_runs(S, b), 1 << (me - m), a),)))
    last = tuple(
        (d, 1 << (k - j), (1 << (k - j)) - 1) for j, d in enumerate(S.feedback) if d != 0
    )
    rules.append(ResidueRule(me, w - 1, last))
    return RuleSystem(rules, {0: 1})


def rlt_by_recurrence(S: LinearRecurrence, n: int) -> int:
    """T(n) computed only through the residue rules derived from S."""
    if not isinstance(S, LinearRecurrence):
        raise MalformedRecurrence("recurrence evaluation needs a LinearRecurrence base")
    return recurrence_rule_system(S).eval(n)
