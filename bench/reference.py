"""Independent references for the benchmark, and the checker that applies them.

Nothing here imports the package. Parities come from Pascal rows built by
XOR (the row of (1+x)^t over GF(2), assembled from (1+x)^(2^i) = 1+x^(2^i));
sequence values come from a run-length product over base terms that are
expanded here from each catalog entry's `initial` and `feedback`; corpus
verdicts come from the `expect=` fields of the corpus file; b-file values
come from parsing the fixture files directly.
"""

from __future__ import annotations

import hashlib
import os
import re


def pascal_parity(t: int, b: int) -> int:
    """C(t, b) mod 2, read off the Pascal row of t built by shift-XOR."""
    if t < 0 or b < 0 or b > t:
        return 0
    keep = (1 << (b + 1)) - 1  # higher bits never reach bit b
    row, step = 1, 1
    while t:
        if t & 1:
            row = (row ^ (row << step)) & keep
        t >>= 1
        step <<= 1
    return (row >> b) & 1


def f_ref(c, n: int, k: int) -> int:
    """Parity of C(a1 n + a2 k, a3 n + a4 k) * C(n, k); 0 outside 0 <= k <= n."""
    if not 0 <= k <= n:
        return 0
    a1, a2, a3, a4 = c
    return pascal_parity(n, k) & pascal_parity(a1 * n + a2 * k, a3 * n + a4 * k)


def row_sum_ref(c, n: int) -> int:
    return sum(f_ref(c, n, k) for k in range(n + 1))


def base_terms(initial, feedback, length: int) -> list[int]:
    """S(0..length-1) of the linear recurrence S(l+1) = sum feedback[i] S(l-i)."""
    terms = list(initial)
    while len(terms) < length:
        terms.append(sum(d * terms[-1 - i] for i, d in enumerate(feedback)))
    return terms[:length]


def rlt_ref(terms: list[int], n: int) -> int:
    """Product of S(l) over the lengths l of the maximal 1-runs of n."""
    value = 1
    while n:
        n >>= (n & -n).bit_length() - 1  # drop trailing zeros
        run = (~n & (n + 1)).bit_length() - 1  # count trailing ones
        value *= terms[run]
        n >>= run
    return value


def eval_rules_ref(rules, last: int) -> list[int]:
    """Values a(0..last) of a rule system with a(0) = 1, filled bottom-up.

    `rules` holds (modulus_exp, residue, ((coeff, scale, offset), ...)).
    Raises ValueError for an uncovered index or a child that is not smaller.
    """
    by_exp: dict[int, dict[int, tuple]] = {}
    for m, r, terms in rules:
        by_exp.setdefault(m, {})[r] = terms
    exps = sorted(by_exp, reverse=True)
    a = [1] + [0] * last
    for n in range(1, last + 1):
        for m in exps:
            terms = by_exp[m].get(n & ((1 << m) - 1))
            if terms is not None:
                break
        else:
            raise ValueError(f"no rule covers index {n}")
        q = n >> m
        total = 0
        for coeff, scale, offset in terms:
            child = scale * q + offset
            if child >= n:
                raise ValueError(f"rule for index {n} refers to a({child})")
            total += coeff * a[child]
        a[n] = total
    return a


_AFF = r"(\d*)([nk])(?:\+(\d+))?"
_LINE_RE = re.compile(
    rf"^F\({_AFF},{_AFF}\)=(?:0|F\({_AFF},{_AFF}\))@coeffs=(-?\d+),(-?\d+),(-?\d+),(-?\d+)(.*)$"
)


def parse_corpus(text: str) -> list[dict]:
    """Statements of the corpus file, in file order, with their expect= verdicts."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(re.sub(r"\s+", "", line.split('ref="')[0]))
        if m is None:
            raise ValueError(f"unreadable corpus line {raw!r}")
        g = m.groups()

        def aff(i):
            return (int(g[i] or 1), int(g[i + 2] or 0))

        lhs = aff(0) + aff(3)
        rhs = aff(6) + aff(9) if g[7] else None
        attrs = g[16]
        out.append(
            {
                "coeffs": tuple(int(x) for x in g[12:16]),
                "lhs": lhs,
                "rhs": rhs,
                "k_gt_n": "domain=k>n" in attrs,
                "expect": "fail" if "expect=fail" in attrs else "pass",
            }
        )
    return out


def statement_fails_at(stmt: dict, n: int, k: int) -> bool:
    """True when (n, k) is a genuine counterexample to the statement."""
    if stmt["k_gt_n"] and not k > n:
        return False
    c = stmt["coeffs"]
    p, q, p2, q2 = stmt["lhs"]
    left = f_ref(c, p * n + q, p2 * k + q2)
    right = 0
    if stmt["rhs"] is not None:
        u, v, u2, v2 = stmt["rhs"]
        right = f_ref(c, u * n + v, u2 * k + v2)
    return left != right


def parse_bfile_text(text: str) -> tuple[int, list[int]]:
    """(first index, values) of a b-file; assumes contiguous indices."""
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    return int(rows[0][0]), [int(v) for _, v in rows]


class Checker:
    """Checks one operation's output against the references.

    `catalog` maps entry name to {"initial", "feedback", ...} as the worker
    reported it; `data_dir` is the package's data directory, read as files.
    """

    def __init__(self, catalog: dict, data_dir: str):
        self.catalog = catalog
        self.data_dir = data_dir
        with open(os.path.join(data_dir, "corpus.txt")) as fh:
            self.corpus = parse_corpus(fh.read())
        self._terms: dict[str, list[int]] = {}
        self._prefix: dict[tuple[str, int], list[int]] = {}
        self._seq_digest: dict[tuple[str, int], str] = {}
        self._row_sums: dict[tuple, int] = {}

    def terms(self, name: str, length: int) -> list[int]:
        have = self._terms.get(name, [])
        if len(have) < length:
            e = self.catalog[name]
            have = self._terms[name] = base_terms(e["initial"], e["feedback"], length)
        return have

    def value(self, name: str, n: int) -> int:
        return rlt_ref(self.terms(name, n.bit_length() + 1), n)

    def prefix(self, name: str, count: int) -> list[int]:
        key = (name, count)
        if key not in self._prefix:
            terms = self.terms(name, count.bit_length() + 1)
            self._prefix[key] = [rlt_ref(terms, n) for n in range(count)]
        return self._prefix[key]

    def check(self, op: dict, out: dict) -> str | None:
        """None when the output is right, else a one-line reason."""
        if "error" in out:
            return out["error"]
        return getattr(self, "_check_" + op["kind"])(op, out)

    def row_sum(self, c: tuple, n: int) -> int:
        if (c, n) not in self._row_sums:
            self._row_sums[(c, n)] = row_sum_ref(c, n)
        return self._row_sums[(c, n)]

    def _check_identity(self, op, out):
        stmt = self.corpus[op["line"]]
        b = op["bound"]
        cells = (b + 1) * b // 2 if stmt["k_gt_n"] else (b + 1) ** 2
        if out["checked"] != cells:
            return f"checked {out['checked']} cells, expected {cells}"
        if out["passed"] != (stmt["expect"] == "pass"):
            return f"verdict {out['passed']} contradicts expect={stmt['expect']}"
        cx = out["counterexample"]
        if out["passed"]:
            return None if cx is None else "passing report carries a counterexample"
        if cx is None or not statement_fails_at(stmt, *cx):
            return f"counterexample {cx} does not refute the statement"
        return None

    def _check_triple(self, op, out):
        name, c, b = op["entry"], tuple(op["coeffs"]), op["bound"]
        if out["checked"] != b + 1:
            return f"checked {out['checked']} terms, expected {b + 1}"
        wrong = [n for n in op["sample_rows"] if self.row_sum(c, n) != self.value(name, n)]
        if out["passed"]:
            if wrong:
                return f"passed, but reference row sums differ at {wrong}"
            return None if out["counterexample"] is None else "passing report carries a counterexample"
        cx = out["counterexample"]
        if cx is None or self.row_sum(c, cx[0]) == self.value(name, cx[0]):
            return f"failed at {cx}, where the reference row sum agrees"
        return None

    def _check_conjecture(self, op, out):
        if out["failed_residues"]:
            return f"no rule for residues {out['failed_residues']}"
        last = op["validation_bound"]
        try:
            got = eval_rules_ref(out["rules"], last)
        except ValueError as exc:
            return str(exc)
        want = self.prefix(op["entry"], last + 1)
        if got != want:
            n = next(i for i, (x, y) in enumerate(zip(got, want)) if x != y)
            return f"conjectured system gives a({n})={got[n]}, reference {want[n]}"
        return None

    def _check_eval(self, op, out):
        want = self.value(op["entry"], int(op["n"], 16))
        return None if int(out["value"], 16) == want else "value differs from the run-length reference"

    def _check_seq(self, op, out):
        key = (op["entry"], op["count"])
        if key not in self._seq_digest:
            vals = self.prefix(*key)
            text = "".join(f"{n} {v}\n" for n, v in enumerate(vals))
            self._seq_digest[key] = hashlib.sha256(text.encode()).hexdigest()
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        return None if out["stdout_sha256"] == self._seq_digest[key] else "b-file text differs"

    def _check_compare(self, op, out):
        with open(os.path.join(self.data_dir, "bfiles", op["id"] + ".txt")) as fh:
            first, fixture = parse_bfile_text(fh.read())
        # the command aligns computed a(i) with the b-file entry at first + i
        want = self.prefix(op["entry"], op["count"])
        bad = next((i for i, v in enumerate(fixture[: op["count"]]) if want[i] != v), None)
        if bad is None:
            matched = min(op["count"], len(fixture))
            expect = (0, f"{op['id']}: {matched} terms match from index {first}\n")
        else:
            expect = (1, f"{op['id']}: mismatch at index {first + bad}")
        if out["rc"] != expect[0] or not out["stdout"].startswith(expect[1]):
            return f"got rc={out['rc']} {out['stdout'].strip()!r}, expected {expect[1].strip()!r}"
        return None
