"""Identity proofs and checks, triple-equivalence certification, and
exact derivation of residue rule systems.

Identity statements are claims of the form F(p*n+q, p*k+q2) = 0 or
= F(u*n+v, u*k+v2), each side with one multiplier for n and k. The carry
automaton (automaton.py) decides such a claim for every n, k >= 0 and names
its least counterexample, which settles the verdict at any bound; a side
with different multipliers of n and k is refused. The checked-in corpus file
enumerates such statements with expected outcomes; entries whose printed
source form is wrong are stored twice (printed form expect=fail, corrected
form expect=pass) so the suite documents the errata.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

from . import automaton, batch
from .errors import BoundExceeded, ParseError
from .parity_core import DEFAULT_ORACLE_BOUND, Coeffs
from .registry import RegistryEntry
from .rulesys import ResidueRule, RuleSystem
from .transform import mu, rlt_prefix

Affine = tuple[int, int, int, int]  # (p, q, p2, q2) meaning (p*n+q, p2*k+q2); p2 == p

DOMAIN_ALL = "all"
DOMAIN_K_GT_N = "k>n"


def _check_affine(pair: tuple[int, int], what: str):
    mult, off = pair
    if mult < 1 or mult & (mult - 1):
        raise ValueError(f"{what}: multiplier {mult} is not a power of two")
    if not 0 <= off < mult:
        raise ValueError(f"{what}: offset {off} not in [0, {mult})")


@dataclass(frozen=True)
class IdentityStatement:
    """F(lhs) = 0 (rhs None) or F(lhs) = F(rhs), at fixed coefficients."""

    coefficients: Coeffs
    lhs: Affine
    rhs: Affine | None = None
    domain: str = DOMAIN_ALL

    def __post_init__(self):
        _check_affine(self.lhs[:2], "lhs n side")
        _check_affine(self.lhs[2:], "lhs k side")
        if self.rhs is not None:
            _check_affine(self.rhs[:2], "rhs n side")
            _check_affine(self.rhs[2:], "rhs k side")
        for side, affine in (("lhs", self.lhs), ("rhs", self.rhs)):
            if affine is not None and affine[0] != affine[2]:
                raise ValueError(
                    f"{side}: n multiplier {affine[0]} differs from k multiplier {affine[2]}"
                )
        if self.domain not in (DOMAIN_ALL, DOMAIN_K_GT_N):
            raise ValueError(f"unknown domain {self.domain!r}")

    def text(self) -> str:
        c = ",".join(str(a) for a in self.coefficients)
        rhs = "0" if self.rhs is None else f"F({_fmt_affine(self.rhs[:2], 'n')},{_fmt_affine(self.rhs[2:], 'k')})"
        s = f"F({_fmt_affine(self.lhs[:2], 'n')},{_fmt_affine(self.lhs[2:], 'k')}) = {rhs} @ coeffs={c}"
        if self.domain != DOMAIN_ALL:
            s += f" domain={self.domain}"
        return s


@dataclass(frozen=True)
class CorpusStatement:
    statement: IdentityStatement
    expect: str  # "pass" | "fail"
    ref: str = ""

    def line(self) -> str:
        s = self.statement.text()
        # canonical attribute order: coeffs [domain] expect ref
        s = s.replace(" domain=", f" expect={self.expect} domain=", 1)
        if " expect=" not in s:
            s += f" expect={self.expect}"
        return s + f' ref="{self.ref}"'


@dataclass(frozen=True)
class VerificationReport:
    """One verdict, on all 0 <= n, k <= bound or on the indices [0, bound].

    checked_count is the size of the domain the verdict covers: (bound+1)^2
    pairs (n, k), (bound+1)*bound/2 under domain=k>n, or bound+1 indices
    for a triple. It is not the number of cells evaluated; an identity is
    decided by the carry automaton without a grid.
    """

    label: str
    bound: int
    passed: bool
    counterexample: tuple[int, ...] | None
    checked_count: int
    detail: str = ""
    expected: str | None = None
    ref: str = ""
    proved: bool = False  # passed for every n and k, not only up to bound

    @property
    def result(self) -> str:
        return "PASS" if self.passed else "FAIL"

    @property
    def as_expected(self) -> bool:
        return self.expected is None or self.passed == (self.expected == "pass")


def _fmt_affine(pair: tuple[int, int], var: str) -> str:
    mult, off = pair
    head = var if mult == 1 else f"{mult}{var}"
    return f"{head}+{off}" if off else head


_AFFINE_RE = re.compile(r"^(?:(\d+)\*?)?([nk])(?:\+(\d+))?$")


def _parse_affine(text: str, var: str, line_no: int | None) -> tuple[int, int]:
    m = _AFFINE_RE.match(text)
    if m is None or m.group(2) != var:
        raise ParseError(f"bad affine expression {text!r} (expected in {var})", line_no)
    return int(m.group(1) or 1), int(m.group(3) or 0)


_STMT_RE = re.compile(r"^F\(([^,()]+),([^,()]+)\)=(0|F\(([^,()]+),([^,()]+)\))$")


def parse_statement_line(line: str, line_no: int | None = None) -> CorpusStatement:
    """One corpus line -> CorpusStatement. Grammar:
    F(<pn+q>,<p'k+q'>) = 0|F(<un+v>,<u'k+v'>) @ coeffs=a1,a2,a3,a4
    [expect=pass|fail] [domain=k>n] ref="..."
    """
    if "@" not in line:
        raise ParseError("missing '@ coeffs=' section", line_no)
    stmt_part, attr_part = line.split("@", 1)
    compact = re.sub(r"\s+", "", stmt_part)
    m = _STMT_RE.match(compact)
    if m is None:
        raise ParseError(f"unrecognized statement {stmt_part.strip()!r}", line_no)
    lhs = _parse_affine(m.group(1), "n", line_no) + _parse_affine(m.group(2), "k", line_no)
    rhs = None
    if m.group(3) != "0":
        rhs = _parse_affine(m.group(4), "n", line_no) + _parse_affine(m.group(5), "k", line_no)
    cm = re.search(r"coeffs=(-?\d+),(-?\d+),(-?\d+),(-?\d+)", attr_part)
    if cm is None:
        raise ParseError("missing coeffs=a1,a2,a3,a4", line_no)
    coeffs = tuple(int(cm.group(i)) for i in range(1, 5))
    em = re.search(r"expect=(pass|fail)", attr_part)
    dm = re.search(r"domain=(k>n)", attr_part)
    rm = re.search(r'ref="([^"]*)"', attr_part)
    try:
        stmt = IdentityStatement(
            coefficients=coeffs,
            lhs=lhs,
            rhs=rhs,
            domain=dm.group(1) if dm else DOMAIN_ALL,
        )
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from exc
    return CorpusStatement(
        statement=stmt,
        expect=em.group(1) if em else "pass",
        ref=rm.group(1) if rm else "",
    )


def load_corpus(text: str | None = None) -> list[CorpusStatement]:
    """Parse the packaged corpus fixture (or the given text)."""
    if text is None:
        text = resources.files("binomod2").joinpath("data/corpus.txt").read_text()
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):  # comments are full lines only
            out.append(parse_statement_line(line, line_no))
    return out


def _first_counterexample(stmt: IdentityStatement) -> tuple[int, int] | None:
    """The least (n, k) on which the statement fails, or None when it holds for every n, k."""
    if stmt.domain == DOMAIN_K_GT_N:
        return None  # k > n gives p*k+q2 > p*n+q on both sides, where F = 0
    c = stmt.coefficients
    sides = [stmt.lhs] if stmt.rhs is None else [stmt.lhs, stmt.rhs]
    # a side F(p*n+q, p*k+q2) is the state after the low bits (q, q2)
    states = [automaton.prefix_state(c, p.bit_length() - 1, q, q2) for p, q, _, q2 in sides]
    if stmt.rhs is None:
        states.append(None)  # F = 0 is the failure state, which accepts nothing
    return automaton.first_difference(c, *states)


def check_identity(stmt: IdentityStatement, bound: int) -> VerificationReport:
    """Verdict on all 0 <= n, k <= bound, from the carry automaton.

    The automaton's least counterexample (by n, then k) decides every bound
    at once: the statement passes when there is none or it lies past the
    bound, and proved=True when there is none. No grid is built, so any
    bound costs the same. Raises BoundExceeded when the search passes
    automaton.STATE_CAP state pairs.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if stmt.domain == DOMAIN_K_GT_N:
        checked = (bound + 1) * bound // 2
    else:
        checked = (bound + 1) ** 2
    cx = _first_counterexample(stmt)
    within = cx is not None and cx[0] <= bound  # k <= n at any counterexample
    return VerificationReport(
        label=stmt.text(),
        bound=bound,
        passed=not within,
        counterexample=cx if within else None,
        checked_count=checked,
        proved=cx is None,
    )


def check_lemma_corpus(
    bound: int, corpus: list[CorpusStatement] | None = None
) -> list[VerificationReport]:
    """One report per corpus statement, expected outcomes attached."""
    if corpus is None:
        corpus = load_corpus()
    return [
        replace(check_identity(cs.statement, bound), expected=cs.expect, ref=cs.ref)
        for cs in corpus
    ]


def check_triple_equivalence(
    entry: RegistryEntry,
    bound: int,
    coefficients: Coeffs | None = None,
) -> VerificationReport:
    """PASS iff direct summation, rule evaluation, and run-product agree on [0, bound].

    coefficients overrides the summation vector (used to certify aliases
    against the entry's rules and base).
    """
    c = entry.coefficients if coefficients is None else coefficients
    sums = batch.row_sums(c, bound)
    rules_vals = entry.rules.first_terms(bound + 1)
    runs_vals = rlt_prefix(entry.base, bound + 1)
    cx = None
    detail = ""
    if not sums == rules_vals == runs_vals:
        n = next(
            n for n, (s, r, t) in enumerate(zip(sums, rules_vals, runs_vals)) if not s == r == t
        )
        cx = (n,)
        detail = f"sum={sums[n]} rules={rules_vals[n]} runs={runs_vals[n]} at n={n}"
    return VerificationReport(
        label=f"triple-equivalence {entry.name} coeffs={c}",
        bound=bound,
        passed=cx is None,
        counterexample=cx,
        checked_count=bound + 1,
        detail=detail,
    )


def solve_exact(rows: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Solve rows * x = rhs exactly over the rationals.

    Gaussian elimination with leftmost pivots on the distinct equations;
    free variables are set to 0. Returns None when the system is
    inconsistent.
    """
    if not rows:
        return []
    ncol = len(rows[0])
    # a repeated equation adds nothing; equal rows with different rhs both stay
    eqs = dict.fromkeys((*row, b) for row, b in zip(rows, rhs))
    a = [[Fraction(x) for x in eq] for eq in eqs]
    m = len(a)
    pivots = []
    r = 0
    for col in range(ncol):
        sel = next((i for i in range(r, m) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        pv = a[r][col]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][ncol] != 0:
            return None
    sol = [Fraction(0)] * ncol
    for i, col in enumerate(pivots):
        sol[col] = a[i][ncol]
    return sol


@dataclass(frozen=True)
class ConjectureResult:
    coefficients: Coeffs
    modulus_exp: int
    discovered_rules: tuple[ResidueRule, ...]
    validation_bound: int
    failed_residues: tuple[int, ...] = ()

    def as_system(self) -> RuleSystem:
        if self.failed_residues:
            raise ValueError(f"no rule found for residues {self.failed_residues}")
        return RuleSystem(self.discovered_rules, {0: 1})


def _deciding_indices(c: Coeffs) -> list[int]:
    """Indices q whose vectors v(q) span every v(q'), smallest first.

    With v(0) = acc and v(2q+b) = M[b] . v(q), a(2^j q + x) = e0 . M[x_0] ...
    M[x_(j-1)] . v(q), so a linear relation among such values that holds
    on these q holds for every q. The closure keeps a q only when v(q) is
    independent of the vectors kept before it, so it ends within the
    automaton's state count (Berstel & Reutenauer, ch. 1). Raises
    BoundExceeded past automaton.STATE_CAP states.
    """
    m0, m1, acc = automaton.linear_rep(c, automaton.STATE_CAP)
    kept: list[int] = []
    basis: list[tuple[int, list[int]]] = []  # (pivot, reduced vector)
    todo = [(0, acc)]
    for q, v in todo:
        rest = v
        for p, b in basis:
            if rest[p]:
                rest = [b[p] * x - rest[p] * y for x, y in zip(rest, b)]
        pivot = next((i for i, x in enumerate(rest) if x), None)
        if pivot is None:
            continue
        g = math.gcd(*rest)
        basis.append((pivot, [x // g for x in rest]))
        kept.append(q)
        for bit, mat in enumerate((m0, m1)):
            todo.append((2 * q + bit, [sum(x * y for x, y in zip(row, v)) for row in mat]))
    return kept


def conjecture_rules(
    c: Coeffs,
    max_modulus_exp: int,
    sample_bound: int,
    validation_bound: int,
) -> ConjectureResult:
    """Derive a residue rule system for the row-sum sequence of c, for every n.

    The even residue takes the halving rule a(2q) = a(q) or fails. For each
    odd residue r mod 2^m the candidate children are a(2^j q + 2^j - 1) for
    0 <= j < m (j=0 is a(q)) with offset below r, so every child index is
    smaller than 2^m q + r. Candidate sets of children are tried in order:
    for r < 2^m - 1 each single child, plain a(q) first for low residues
    and the scale picked by the split mu(r) first for high ones; then, for
    every r, all candidate children together, largest scale first. Each set
    is fitted by one exact rational solve on the deciding indices q of the
    carry automaton, and the first integral fit is kept: it holds for every
    q. A residue in failed_residues is no sampling accident: no candidate
    set has an integral solution with its free coefficients at 0.

    sample_bound and validation_bound are still checked but no longer change
    the result. Raises BoundExceeded when 4 * 2^m exceeds
    DEFAULT_ORACLE_BOUND or the automaton needs more than
    automaton.STATE_CAP states.
    """
    m = max_modulus_exp
    if m < 1:
        raise ValueError("max_modulus_exp must be >= 1")
    # 4 * 2^m > DEFAULT_ORACLE_BOUND, compared on exponents: a huge m builds no huge int
    if m + 2 >= DEFAULT_ORACLE_BOUND.bit_length():
        raise BoundExceeded(f"modulus 2^{m}: 4 * 2^{m} exceeds oracle bound {DEFAULT_ORACLE_BOUND}")
    if validation_bound < sample_bound:
        raise ValueError("validation_bound must be >= sample_bound")
    w = 1 << m
    if sample_bound < 4 * w:
        raise ValueError(f"sample_bound too small; need at least {4 * w}")
    qs = _deciding_indices(c)
    values: dict[int, int] = {}

    def a(n: int) -> int:
        if n not in values:
            values[n] = automaton.sum_direct(c, n)
        return values[n]

    rules: list[ResidueRule] = []
    failed: list[int] = []

    if all(a(2 * q) == a(q) for q in qs):
        rules.append(ResidueRule(1, 0, ((1, 1, 0),)))
    else:
        failed.append(0)

    basis = [(1 << j, (1 << j) - 1) for j in range(m)]
    for r in range(1, w, 2):
        if r == w - 1:
            order = []
        elif r < w // 2:
            order = range(m)
        else:
            j0 = m - mu(r)[2]
            order = [j0] + [j for j in range(m) if j != j0]
        candidates = [[basis[j]] for j in order if basis[j][1] < r]
        candidates.append([(e, f) for e, f in reversed(basis) if f < r])
        target = [a(w * q + r) for q in qs]
        for cols in candidates:
            sol = solve_exact([[a(e * q + f) for e, f in cols] for q in qs], target)
            if sol is not None and all(x.denominator == 1 for x in sol):
                terms = tuple((int(x), e, f) for x, (e, f) in zip(sol, cols) if x != 0)
                rules.append(ResidueRule(m, r, terms))
                break
        else:
            failed.append(r)

    return ConjectureResult(
        coefficients=tuple(c),
        modulus_exp=m,
        discovered_rules=tuple(rules),
        validation_bound=validation_bound,
        failed_residues=tuple(failed),
    )
