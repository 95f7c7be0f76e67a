"""Run length transform: by binary run decomposition and by residue recurrences.

The transform maps a base sequence S (with S(0) = 1) to T, where T(n) is the
product of S(l) over the lengths l of maximal 1-bit runs of n, and T(0) = 1.
rlt_by_runs evaluates one index and rlt_prefix fills a prefix of T with one
multiply per term; both read the base terms they need through _base_prefix.
For bases given by a linear recurrence there is an equivalent residue rule
system: recurrence_rule_system builds it, and its eval scales to indices
with thousands of bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import BoundExceeded, ExhaustedBase, MalformedRecurrence, NotSplittable
from .parity_core import DEFAULT_ORACLE_BOUND
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
        # accept any sequence; tuples keep the frozen record immutable and hashable
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(self, "feedback", tuple(self.feedback))
        if len(self.initial) == 0 or len(self.initial) != len(self.feedback):
            raise MalformedRecurrence("initial and feedback must be equal nonempty lengths")
        if self.initial[0] != 1:
            raise MalformedRecurrence("S(0) must be 1")

    @property
    def order(self) -> int:
        return len(self.initial)

    def terms(self, count: int) -> list[int]:
        """[S(0), ..., S(count-1)], computed afresh: registry bases are shared
        by the whole process, so they keep no cache that grows."""
        terms = list(self.initial[:count])
        while len(terms) < count:
            terms.append(sum(d * terms[-1 - i] for i, d in enumerate(self.feedback)))
        return terms


BaseSequence = Union[LinearRecurrence, Sequence[int]]


def _base_prefix(S: BaseSequence, length: int) -> list[int]:
    """[S(0), ..., S(length-1)]: the base terms that runs up to length-1 read.

    A recurrence computes only these terms. Raises MalformedRecurrence when
    S(0) != 1, and otherwise ExhaustedBase when a list base is too short.
    """
    s = S.terms(length) if isinstance(S, LinearRecurrence) else list(S[:length])
    if s and s[0] != 1:
        raise MalformedRecurrence("S(0) must be 1")
    if len(s) < length:
        raise ExhaustedBase(f"base sequence has {len(s)} terms, run length {length - 1} requested")
    return s


def rlt_by_runs(S: BaseSequence, n: int) -> int:
    """T(n) = product of S(l) over the 1-run lengths of n; T(0) = 1."""
    runs = runs_of_ones(n)
    s = _base_prefix(S, max(runs, default=0) + 1)
    value = 1
    for l in runs:
        value *= s[l]
    return value


def rlt_prefix(S: BaseSequence, count: int) -> list[int]:
    """[T(0), ..., T(count-1)] with one multiply per term.

    Peeling off the lowest run gives T(2m) = T(m) and
    T(2^(l+1) m + 2^l - 1) = S(l) T(m). No n < count has a run longer than
    bit_length(count) - 1, so only those base terms are read. Raises
    BoundExceeded, before allocating, past DEFAULT_ORACLE_BOUND + 1 terms.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > DEFAULT_ORACLE_BOUND + 1:
        raise BoundExceeded(f"{count} terms exceed the prefix cap of {DEFAULT_ORACLE_BOUND + 1}")
    s = _base_prefix(S, count.bit_length())
    vals = [1] * count
    for n in range(1, count):
        if n & 1:
            l = (n ^ (n + 1)).bit_length() - 1  # trailing ones of n
            vals[n] = s[l] * vals[n >> (l + 1)]
        else:
            vals[n] = vals[n >> 1]
    return vals


def recurrence_rule_system(S: LinearRecurrence) -> RuleSystem:
    """Residue rule system equivalent to the transform of a recurrent base.

    With order = k+1 and w = 2^(k+1), the rules are: T(2n) = T(n); for odd
    i < 2^k, T(wn+i) = T(i)*T(n); for odd i with 2^k <= i < w-1 and
    mu(i) = (a, b, m), T(wn+i) = T(b)*T(2^(k+1-m) n + a); and
    T(wn+w-1) = sum_j feedback[j]*T(2^(k-j) n + 2^(k-j) - 1).
    Raises MalformedRecurrence for a base that is not a LinearRecurrence.
    """
    if not isinstance(S, LinearRecurrence):
        raise MalformedRecurrence("the recurrence template needs a LinearRecurrence base")
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

