"""Release gate. Each test prints one PASS/FAIL line and enforces the stated
bounds and time budgets; together they certify the package end to end:
equivalence of the three evaluation routes, the documented term prefixes,
the known-wrong printed rule next to its correction, the statement corpus,
the parity kernel, the split/transform laws, rule re-discovery, big-index
evaluation, and the packaged b-file fixtures.
"""

import dataclasses
import random
import time

import numpy as np

from binomod2 import batch
from binomod2.oeis_client import compare, fetch_bfile
from binomod2.parity_core import binom_parity
from binomod2.registry import builtin_entries, lookup, lookup_by_coefficients
from binomod2.rulesys import format_system, parse_system
from binomod2.transform import mu, recurrence_rule_system, rlt_by_runs
from binomod2.verifier import (
    check_lemma_corpus,
    check_triple_equivalence,
    conjecture_rules,
)

from .oracles import ORACLE


def _report(num: int, desc: str, ok: bool, extra: str = ""):
    line = f"acceptance {num}: {desc}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_1_triple_equivalence_everywhere():
    t0 = time.perf_counter()
    bad = []
    for e in builtin_entries():
        for c in e.all_coefficient_vectors():
            r = check_triple_equivalence(e, 4096, coefficients=c)
            if not r.passed:
                bad.append((e.name, c, r.counterexample, r.detail))
    dt = time.perf_counter() - t0
    _report(
        1,
        "direct sum, rule system, and run product agree on [0, 4096] "
        "for all 10 entries and all 12 aliases",
        not bad and dt < 300,
        f"{dt:.1f}s" if not bad else f"failures: {bad}",
    )


def test_criterion_2_documented_term_prefixes():
    want = {
        "narayana-cows": [1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 3,
                          1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 2],
        "repeated-integers": [1, 1, 1, 2, 1, 1, 2, 2, 1, 1, 1, 2, 2, 2, 2, 3,
                              1, 1, 1, 2, 1, 1, 2, 2, 2, 2, 2, 4, 2, 2],
        "one-plus-powers-of-2": [1, 1, 1, 2, 1, 1, 2, 4, 1, 1, 1, 2],
        "one-then-twos": [1, 2, 2, 2, 2, 4, 2, 2, 2, 4],
    }
    mismatches = []
    for name, prefix in want.items():
        got = lookup(name).rules.first_terms(len(prefix))
        if got != prefix:
            mismatches.append((name, got))
    ones = lookup("ones")
    n_max = 1 << 16
    constant = ones.rules.first_terms(n_max) == [1] * n_max and all(
        rlt_by_runs(ones.base, n) == 1 for n in range(n_max)
    )
    _report(
        2,
        "documented prefixes match (30+30+12+10 terms) and the all-ones "
        "sequence is 1 for every n < 2^16",
        not mismatches and constant,
        str(mismatches) if mismatches else "",
    )


def test_criterion_3_wrong_printed_rule_fails_and_correction_passes():
    entry = lookup("lucas")
    wrong = parse_system(
        """
        a(0) = 1
        a(2n) = a(n)
        a(16n+1) = a(n)
        a(16n+3) = 2*a(n)
        a(16n+5) = a(n)
        a(16n+7) = a(n)
        a(16n+9) = 2*a(2n+1)
        a(16n+11) = 2*a(2n+1)
        a(16n+13) = a(4n+3)
        a(16n+15) = a(8n+7) + a(4n+3)
        """
    )
    variant = dataclasses.replace(entry, rules=wrong)
    r_bad = check_triple_equivalence(variant, 64)
    r_good = check_triple_equivalence(entry, 4096)
    ok = (not r_bad.passed) and r_bad.counterexample == (9,) and r_good.passed
    _report(
        3,
        "the residue-9 rule variant 2*a(2n+1) fails with minimal "
        "counterexample n=9 and the stored rule passes on [0, 4096]",
        ok,
        f"bad={r_bad.counterexample} good={r_good.result}",
    )


def test_criterion_4_statement_corpus_at_256():
    t0 = time.perf_counter()
    reports = check_lemma_corpus(256)
    dt = time.perf_counter() - t0
    unexpected = [r.label for r in reports if not r.as_expected]
    passed = sum(1 for r in reports if r.expected == "pass" and r.passed)
    ok = not unexpected and passed >= 60 and dt < 120
    _report(
        4,
        f"all {len(reports)} corpus statements behave as recorded at bound "
        f"256 with >= 60 passing identities",
        ok,
        f"{passed} pass, {dt:.1f}s" if ok else f"unexpected: {unexpected[:3]}",
    )


def _oracle_parity_grid(bound: int) -> np.ndarray:
    width = bound + 1
    nbytes = (width + 7) // 8
    rows = np.empty((width, width), dtype=np.int64)
    for n in range(width):
        data = ORACLE.row(n).to_bytes(nbytes, "little")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
        rows[n] = bits[:width]
    return rows


def test_criterion_5_parity_kernel_against_oracles():
    # full grid against the XOR-row oracle
    grid = batch.f_affine_grid((1, 0, 0, 1), (1, 0, 1, 0), 4096)
    grid_ok = np.array_equal(grid, _oracle_parity_grid(4096))
    # the scalar kernel on a dense small square plus random large samples
    scalar_ok = all(
        binom_parity(n, k) == ORACLE.comb_parity(n, k)
        for n in range(513)
        for k in range(513)
    )
    rng = random.Random(463)
    sample_ok = all(
        binom_parity(n, k) == int(grid[n, k])
        for n, k in ((rng.randrange(4097), rng.randrange(4097)) for _ in range(2000))
    )
    # central binomial coefficients are even for every 1 <= n <= 2^20
    central_ok = all(binom_parity(2 * n, n) == 0 for n in range(1, (1 << 20) + 1))
    # odd entries per row follow the 2^popcount law up to 2^16
    gould_ok = all(
        row.bit_count() == 1 << n.bit_count()
        for n, row in enumerate(batch.parity_triangle_rows(1 << 16))
    )
    sums_ok = batch.row_sums((1, 0, 0, 1), 4096) == [1 << n.bit_count() for n in range(4097)]
    _report(
        5,
        "parity kernel matches the Pascal oracle to 2^12, C(2n,n) is even "
        "to 2^20, and row counts follow 2^popcount to 2^16",
        grid_ok and scalar_ok and sample_ok and central_ok and gould_ok and sums_ok,
    )


def test_criterion_6_split_and_transform_laws():
    split_ok = mu(413) == (3, 29, 7)
    product_ok = all(
        rlt_by_runs(e.base, 463) == e.base.term(3) * e.base.term(4)
        for e in builtin_entries()
    )
    routes_ok = True
    for e in builtin_entries():
        system = recurrence_rule_system(e.base)  # rlt_by_recurrence builds it per call
        routes_ok &= all(system.eval(n) == rlt_by_runs(e.base, n) for n in range(1 << 14))
    _report(
        6,
        "mu(413) = (3, 29, 7); T(463) = S(3)*S(4) for every base; run and "
        "recurrence routes agree on [0, 2^14) for every base",
        split_ok and product_ok and routes_ok,
    )


def test_criterion_7_conjecture_rediscovers_documented_rules():
    cases = [((1, 0, 0, 1), 2), ((1, -1, 0, 2), 2), ((1, -1, 0, 6), 3),
             ((1, 1, 1, -1), 2)]
    bad = []
    for c, m in cases:
        res = conjecture_rules(c, m, sample_bound=256, validation_bound=1 << 12)
        stored = lookup_by_coefficients(c).rules
        if res.failed_residues or res.as_system() != stored:
            bad.append(c)
    _report(
        7,
        "conjectured rule systems equal the stored ones coefficient for "
        "coefficient on all four documented vectors (validated to 2^12)",
        not bad,
        str(bad) if bad else "",
    )


def test_criterion_8_thousand_bit_evaluation():
    entry = lookup("fib")
    n = random.Random(463).getrandbits(1000) | (1 << 999) | 1
    fresh = parse_system(format_system(entry.rules))  # eval keeps no state between calls
    t0 = time.perf_counter()
    value = fresh.eval(n)
    dt = time.perf_counter() - t0
    ok = dt < 1.0 and value == rlt_by_runs(entry.base, n)
    _report(
        8,
        "a 1000-bit index evaluates through the rules in under a second and "
        "matches the run-product route",
        ok,
        f"{dt * 1000:.1f}ms, {value.bit_length()} bit result",
    )


def test_criterion_9_packaged_bfiles_match(tmp_path):
    ids = {
        "A001316": "pow2",
        "A246028": "fib",
        "A245195": "pow2plus",
        "A106737": "posint",
        "A245564": "fibt",
        "A000012": "ones",
    }
    bad = []
    for aid, name in ids.items():
        b = fetch_bfile(aid, cache_dir=str(tmp_path), offline=True)
        count = len(b.entries)
        res = compare(b, lookup(name).rules.first_terms(count))
        if not (res.ok and res.matched >= 1000):
            bad.append((aid, res.describe()))
    _report(
        9,
        "offline b-file fixtures match the computed transforms for all six "
        "published ids over at least 1000 terms",
        not bad,
        str(bad) if bad else f"{len(ids)} ids",
    )
