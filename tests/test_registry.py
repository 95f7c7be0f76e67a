"""Catalog integrity: lookups, bases, rule systems, and the JSON export."""

import json

import pytest

from binomod2.errors import NotFound
from binomod2.registry import (
    builtin_entries,
    catalog_records,
    lookup,
    lookup_by_coefficients,
)
from binomod2.rulesys import format_system, parse_system
from binomod2.transform import recurrence_rule_system, rlt_by_runs


def test_exactly_ten_entries():
    assert len(builtin_entries()) == 10


def test_lookup_by_name_and_anumber():
    assert lookup("gould").name == "powers-of-2"
    assert lookup("A246028").name == "fibonacci"
    assert lookup("a000930").name == "narayana-cows"
    assert lookup("Fibonacci").coefficients == (1, -1, 0, 2)
    with pytest.raises(NotFound):
        lookup("nosuch")


def test_every_entry_has_a_short_name():
    for short in ("pow2", "fib", "pow2plus", "x1222", "posint",
                  "ones", "cows", "double", "lucas", "fibt"):
        lookup(short)


def test_lookup_by_coefficients():
    assert lookup_by_coefficients((1, 0, 0, 1)).name == "powers-of-2"
    assert lookup_by_coefficients((1, 3, 1, 1)).name == "fibonacci"  # alias
    assert lookup_by_coefficients([1, -1, 0, 2]).name == "fibonacci"  # list input ok
    with pytest.raises(NotFound):
        lookup_by_coefficients((9, 9, 9, 9))


def test_alias_inventory():
    counts = {e.name: len(e.aliases) for e in builtin_entries()}
    assert counts["fibonacci"] == 3
    assert counts["one-then-twos"] == 1
    assert counts["positive-integers"] == 3
    assert counts["truncated-fibonacci"] == 5
    total = sum(len(e.all_coefficient_vectors()) for e in builtin_entries())
    assert total == 22


def test_narayana_base_prefix():
    base = lookup("cows").base
    assert [base.term(i) for i in range(9)] == [1, 1, 1, 2, 3, 4, 6, 9, 13]


def test_all_ones_is_transform_fixed_point():
    e = lookup("ones")
    assert e.oeis_transform == "A000012"
    assert e.rules.first_terms(64) == [1] * 64


def test_unpublished_ids_are_none():
    assert lookup("x1222").oeis_transform is None
    assert lookup("cows").oeis_transform is None
    assert lookup("double").oeis_transform is None
    assert lookup("lucas").oeis_sequence is None
    assert lookup("lucas").oeis_transform is None
    assert lookup("fibt").oeis_sequence is None


def test_lucas_base_matches_generating_function():
    # series of (1 - 2x^3) / (1 - x - x^2)
    want = []
    fa, fb = 1, 1
    fibs = []
    for _ in range(20):
        fibs.append(fa)
        fa, fb = fb, fa + fb
    for i in range(16):
        want.append(fibs[i] - (2 * fibs[i - 3] if i >= 3 else 0))
    base = lookup("lucas").base
    assert [base.term(i) for i in range(16)] == want
    assert want[:8] == [1, 1, 2, 1, 3, 4, 7, 11]


def test_lucas_transform_prefix():
    got = lookup("lucas").rules.first_terms(16)
    assert got == [1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 1, 2, 2, 2, 1, 3]


def test_stored_rules_match_recurrence_template():
    # the template reproduces every stored system except all-ones, where the
    # hand-reduced a(4n+3) = a(n) and the template's a(2n+1) are both valid
    for e in builtin_entries():
        derived = recurrence_rule_system(e.base)
        if e.name == "all-ones":
            assert derived != e.rules
            assert derived.first_terms(4096) == e.rules.first_terms(4096)
        else:
            assert derived == e.rules, e.name


def test_rules_equal_runs_on_every_entry():
    for e in builtin_entries():
        for n in range(1024):
            assert e.rules.eval(n) == rlt_by_runs(e.base, n), (e.name, n)


def test_catalog_records_round_trip():
    records = catalog_records()
    assert len(records) == 10
    blob = json.dumps(records)
    back = json.loads(blob)
    for rec in back:
        entry = lookup(rec["name"])
        assert tuple(rec["coefficients"]) == entry.coefficients
        assert parse_system(rec["rules"]) == entry.rules
        assert rec["rules"] == format_system(entry.rules)
