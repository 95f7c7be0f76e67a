"""Residue-class recurrence systems: a(2^m q + r) = sum of coeff * a(e q + f).

A RuleSystem bundles base values (at minimum a(0)) with rules keyed by
(modulus exponent, residue). Matching prefers the longest modulus, so the
universal even rule a(2n) = a(n) coexists with finer odd-residue rules.
A residue table of length 2^M (M the longest modulus exponent) maps
n mod 2^M to its rule. Evaluation pushes weights down from n to the base
values and holds only the few indices still pending; every rule strictly
decreases the index, so cost is polynomial in bit length even for
1000-bit arguments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import BoundExceeded, NegativeValue, ParseError, UncoveredIndex
from .parity_core import DEFAULT_ORACLE_BOUND

Term = tuple[int, int, int]  # (coeff, child_scale, child_offset)


@dataclass(frozen=True)
class ResidueRule:
    """a(2^modulus_exp * q + residue) = sum of coeff * a(scale * q + offset)."""

    modulus_exp: int
    residue: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        m = self.modulus_exp
        if m < 1:
            raise ValueError("modulus_exp must be >= 1")
        if not 0 <= self.residue < (1 << m):
            raise ValueError(f"residue {self.residue} out of range for modulus 2^{m}")
        merged: dict[tuple[int, int], int] = {}
        for coeff, scale, offset in self.terms:
            if scale < 1 or scale & (scale - 1):
                raise ValueError(f"child scale {scale} is not a power of two")
            if scale >= (1 << m):
                raise ValueError(f"child scale {scale} not below modulus 2^{m}")
            if not 0 <= offset <= self.residue:
                raise ValueError(
                    f"child offset {offset} must lie in [0, residue {self.residue}]"
                )
            merged[(scale, offset)] = merged.get((scale, offset), 0) + coeff
        # canonical order: children sorted by scale then offset, descending, and
        # duplicate children merged, so equal rules compare equal
        canon = tuple(
            (c, s, f) for (s, f), c in sorted(merged.items(), reverse=True) if c != 0
        )
        object.__setattr__(self, "terms", canon)

    @property
    def modulus(self) -> int:
        return 1 << self.modulus_exp


class RuleSystem:
    """Base values plus residue rules with verified disjoint, exhaustive coverage."""

    def __init__(self, rules, base_values: dict[int, int]):
        self.rules: tuple[ResidueRule, ...] = tuple(
            sorted(rules, key=lambda r: (r.modulus_exp, r.residue))
        )
        self.base_values: dict[int, int] = dict(base_values)
        if 0 not in self.base_values:
            raise ValueError("base values must include a(0)")
        seen: set[tuple[int, int]] = set()
        for rule in self.rules:
            key = (rule.modulus_exp, rule.residue)
            if key in seen:
                raise ValueError(f"duplicate rule for residue {rule.residue} mod {rule.modulus}")
            seen.add(key)
            # a rule that must cover q = 0 may not map the index to itself
            if rule.residue not in self.base_values:
                for _, _, offset in rule.terms:
                    if offset == rule.residue:
                        raise ValueError(
                            f"rule for residue {rule.residue} mod {rule.modulus} "
                            "loops at q=0; needs offset < residue or a base value"
                        )
        # _table[n & _mask] is the longest-modulus rule matching n, or None;
        # rules are sorted by modulus, so longer moduli overwrite shorter ones
        max_m = self.rules[-1].modulus_exp if self.rules else 0
        self._mask = (1 << max_m) - 1
        self._table: list[ResidueRule | None] = [None] * (1 << max_m)
        for rule in self.rules:
            for r in range(rule.residue, 1 << max_m, rule.modulus):
                self._table[r] = rule
        self._check_coverage()

    def _check_coverage(self):
        for residue, rule in enumerate(self._table):
            if rule is None and residue not in self.base_values:
                raise UncoveredIndex(f"no rule matches residue {residue} mod {len(self._table)}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, RuleSystem):
            return NotImplemented
        return self.rules == other.rules and self.base_values == other.base_values

    def eval(self, n: int) -> int:
        """a(n), holding only the indices still pending.

        a(n) is kept as a weighted sum of a(i) over pending indices i. The
        largest one is replaced by its rule's children, or paid out at its
        base value. Children lie below their parent, so every parent has
        added to an index's weight before it is expanded, and the pending
        indices all lie within M bits of the largest: a call holds a few
        indices however long n is. No value between n and the base values
        is formed, so NegativeValue refers to a(n) only.
        """
        if n < 0:
            raise ValueError("index must be nonnegative")
        table, mask, base = self._table, self._mask, self.base_values
        weight = {n: 1}
        value = 0
        while weight:
            cur = max(weight)
            w = weight.pop(cur)
            v = base.get(cur)
            if v is not None:
                value += w * v
                continue
            rule = table[cur & mask]
            if rule is None:
                raise UncoveredIndex(f"no rule matches index {cur}")
            q = cur >> rule.modulus_exp
            for coeff, scale, offset in rule.terms:
                child = scale * q + offset
                weight[child] = weight.get(child, 0) + coeff * w
        if value < 0 and n not in base:  # base values are taken as given, as in first_terms
            raise NegativeValue(f"a({n}) = {value} < 0")
        return value

    def first_terms(self, count: int) -> list[int]:
        """[a(0), ..., a(count-1)], filled bottom-up.

        Every child index is at most its parent, and equal only at q = 0,
        where __init__ demands a base value; so each child is already filled.
        Raises BoundExceeded, before allocating, past DEFAULT_ORACLE_BOUND + 1
        terms, the cap of batch.row_sums.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if count > DEFAULT_ORACLE_BOUND + 1:
            raise BoundExceeded(f"{count} terms exceed the prefix cap of {DEFAULT_ORACLE_BOUND + 1}")
        table, mask, base = self._table, self._mask, self.base_values
        vals = [0] * count
        for i in range(count):
            value = base.get(i)
            if value is None:
                rule = table[i & mask]
                if rule is None:
                    raise UncoveredIndex(f"no rule matches index {i}")
                q = i >> rule.modulus_exp
                value = 0
                for coeff, scale, offset in rule.terms:
                    value += coeff * vals[scale * q + offset]
                if value < 0:
                    raise NegativeValue(f"a({i}) = {value} < 0")
            vals[i] = value
        return vals


def _format_child(scale: int, offset: int) -> str:
    head = "n" if scale == 1 else f"{scale}n"
    return f"a({head}+{offset})" if offset else f"a({head})"


def format_system(sys: RuleSystem) -> str:
    """Canonical textual form: base lines first, then rules by modulus and residue."""
    lines = [f"a({n}) = {v}" for n, v in sorted(sys.base_values.items())]
    for rule in sys.rules:
        head = f"{rule.modulus}n+{rule.residue}" if rule.residue else f"{rule.modulus}n"
        if not rule.terms:
            lines.append(f"a({head}) = 0")
            continue
        parts = []
        for i, (coeff, scale, offset) in enumerate(rule.terms):
            child = _format_child(scale, offset)
            mag = abs(coeff)
            body = child if mag == 1 else f"{mag}*{child}"
            if i == 0:
                parts.append(body if coeff >= 0 else f"-{body}")
            else:
                parts.append(f"{'+' if coeff >= 0 else '-'} {body}")
        lines.append(f"a({head}) = " + " ".join(parts))
    return "\n".join(lines) + "\n"


_BASE_RE = re.compile(r"^a\((\d+)\)=(-?\d+)$")
_HEAD_RE = re.compile(r"^a\((\d+)n(?:\+(\d+))?\)=(.*)$")
_TERM_RE = re.compile(r"([+-]?)(?:(\d+)\*?)?a\((?:(\d+))?n(?:\+(\d+))?\)")


def parse_system(text: str) -> RuleSystem:
    """Parse the textual form; whitespace-insensitive, # starts a comment."""
    rules: list[ResidueRule] = []
    base: dict[int, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        line = re.sub(r"\s+", "", line)
        if not line:
            continue
        m = _BASE_RE.match(line)
        if m:
            idx = int(m.group(1))
            if idx in base:
                raise ParseError(f"duplicate base value a({idx})", line_no)
            base[idx] = int(m.group(2))
            continue
        m = _HEAD_RE.match(line)
        if m is None:
            raise ParseError(f"unrecognized line {raw.strip()!r}", line_no)
        modulus = int(m.group(1))
        if modulus < 2 or modulus & (modulus - 1):
            raise ParseError(f"modulus {modulus} is not a power of two >= 2", line_no)
        residue = int(m.group(2) or 0)
        body = m.group(3)
        terms: list[Term] = []
        if body != "0":
            pos = 0
            for t in _TERM_RE.finditer(body):
                if t.start() != pos:
                    raise ParseError(f"unparsable term near {body[pos:]!r}", line_no)
                if t.group(1) == "" and terms:
                    raise ParseError("missing sign between terms", line_no)
                sign = -1 if t.group(1) == "-" else 1
                coeff = sign * int(t.group(2) or 1)
                scale = int(t.group(3) or 1)
                offset = int(t.group(4) or 0)
                terms.append((coeff, scale, offset))
                pos = t.end()
            if pos != len(body) or not terms:
                raise ParseError(f"unparsable term near {body[pos:]!r}", line_no)
        try:
            rules.append(ResidueRule(modulus.bit_length() - 1, residue, tuple(terms)))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
    return RuleSystem(rules, base)
