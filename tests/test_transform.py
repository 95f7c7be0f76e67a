"""Run decomposition, the splitting function, and both RLT routes."""

import copy
import gc
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binomod2.errors import BoundExceeded, ExhaustedBase, MalformedRecurrence, NotSplittable
from binomod2.parity_core import DEFAULT_ORACLE_BOUND
from binomod2.registry import builtin_entries, lookup
from binomod2.transform import (
    LinearRecurrence,
    base_term,
    mu,
    recurrence_rule_system,
    rlt_by_recurrence,
    rlt_by_runs,
    rlt_prefix,
    runs_of_ones,
)

from .oracles import recurrence_ref, rlt_ref, runs_ref

FIB = LinearRecurrence(initial=[1, 1], feedback=[1, 1])


def test_runs_of_ones_examples():
    assert sorted(runs_of_ones(463)) == [3, 4]
    assert runs_of_ones(0) == []
    assert sorted(runs_of_ones(413)) == [1, 2, 3]
    assert runs_of_ones(0b110011101) == [1, 3, 2]  # low bits first


@given(st.integers(0, 1 << 40))
def test_runs_of_ones_properties(n):
    runs = runs_of_ones(n)
    assert runs == runs_ref(n)
    assert sum(runs) == bin(n).count("1")
    assert all(r >= 1 for r in runs)
    assert runs_of_ones(2 * n) == runs


def test_mu_examples():
    assert mu(413) == (3, 29, 7)
    assert mu(5) == (1, 1, 2)
    for bad in (7, 1, 3, 6, 0, 8):
        with pytest.raises(NotSplittable):
            mu(bad)


@given(st.integers(1, 1 << 20))
def test_mu_roundtrip_and_minimality(n):
    if n % 2 == 0 or (n & (n + 1)) == 0:
        with pytest.raises(NotSplittable):
            mu(n)
        return
    a, b, m = mu(n)
    assert a >= 1 and b >= 1 and m >= 1
    assert a * (1 << m) + b == n
    assert (1 << m) > 2 * b
    # no valid split has a smaller leading part
    for m2 in range(1, n.bit_length()):
        b2 = n & ((1 << m2) - 1)
        if (1 << m2) > 2 * b2:
            assert n >> m2 >= a


def test_linear_recurrence_validation():
    with pytest.raises(MalformedRecurrence):
        LinearRecurrence(initial=[2, 1], feedback=[1, 1])
    with pytest.raises(MalformedRecurrence):
        LinearRecurrence(initial=[1, 1], feedback=[1])
    with pytest.raises(MalformedRecurrence):
        LinearRecurrence(initial=[], feedback=[])


def test_linear_recurrence_terms():
    assert [FIB.term(i) for i in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]
    cows = LinearRecurrence(initial=[1, 1, 1], feedback=[1, 0, 1])
    assert [cows.term(i) for i in range(10)] == [1, 1, 1, 2, 3, 4, 6, 9, 13, 19]


def test_base_term_explicit_list():
    assert base_term([1, 4, 9], 2) == 9
    with pytest.raises(ExhaustedBase):
        base_term([1, 4, 9], 3)


def test_rlt_by_runs_examples():
    assert rlt_by_runs(FIB, 463) == 15  # S(3) * S(4) = 3 * 5
    assert rlt_by_runs([1, 1, 2, 3, 5], 463) == 15
    assert rlt_by_runs([1, 2, 3, 4], 7) == 4  # single run of three ones
    for e in builtin_entries():
        assert rlt_by_runs(e.base, 0) == 1


def test_rlt_requires_unit_start():
    with pytest.raises(MalformedRecurrence):
        rlt_by_runs([2, 1, 1], 5)


def test_rlt_fixed_points():
    ones = [1] * 20
    dead = [1] + [0] * 20
    for n in range(200):
        assert rlt_by_runs(ones, n) == 1
        assert rlt_by_runs(dead, n) == (1 if n == 0 else 0)


@given(st.lists(st.integers(1, 12), min_size=1, max_size=6))
def test_rlt_depends_only_on_run_multiset(lengths):
    # assemble numbers with the same run multiset in different orders
    def build(ls):
        n = 0
        shift = 0
        for L in ls:
            n |= ((1 << L) - 1) << shift
            shift += L + 1
        return n

    rng = random.Random(sum(lengths))
    shuffled = lengths[:]
    rng.shuffle(shuffled)
    vals = list(range(1, max(lengths) + 2))
    vals[0] = 1
    assert rlt_by_runs(vals, build(lengths)) == rlt_by_runs(vals, build(shuffled))


def test_rlt_by_recurrence_examples():
    assert rlt_by_recurrence(FIB, 15) == 5
    pow2 = LinearRecurrence(initial=[1, 2], feedback=[2, 0])
    assert rlt_by_recurrence(pow2, 7) == 8
    assert rlt_by_recurrence(FIB, 0) == 1


def test_rlt_routes_agree_on_registry_bases():
    for e in builtin_entries():
        if not isinstance(e.base, LinearRecurrence):
            continue
        for n in range(2048):
            assert rlt_by_recurrence(e.base, n) == rlt_by_runs(e.base, n), (e.name, n)


def test_rlt_halving_invariance():
    for e in builtin_entries():
        for n in range(512):
            assert rlt_by_runs(e.base, 2 * n) == rlt_by_runs(e.base, n)


@st.composite
def small_recurrences(draw):
    order = draw(st.integers(1, 4))
    tail = draw(st.lists(st.integers(0, 3), min_size=order - 1, max_size=order - 1))
    feedback = draw(st.lists(st.integers(0, 3), min_size=order, max_size=order))
    return LinearRecurrence(initial=(1, *tail), feedback=tuple(feedback))


@given(small_recurrences())
def test_rlt_recurrence_template_agrees_with_runs(rec):
    # nonnegative coefficients keep every rule evaluation in range
    for n in range(160):
        assert rlt_by_recurrence(rec, n) == rlt_by_runs(rec, n)


def test_recurrence_template_matches_reference_products():
    sys = recurrence_rule_system(FIB)
    fib_vals = [FIB.term(i) for i in range(16)]
    for n in range(1024):
        assert sys.eval(n) == rlt_ref(fib_vals, n)


def test_recurrence_evaluation_holds_no_memory():
    # a long-lived process may evaluate any number of distinct bases
    rng = random.Random(1000)
    bases = []
    for _ in range(1000):
        order = rng.randint(1, 4)
        initial = (1, *(rng.randint(0, 9) for _ in range(order - 1)))
        bases.append(LinearRecurrence(initial, tuple(rng.randint(0, 3) for _ in range(order))))
    n = (1 << 16) - 1  # one run of 16: the feedback rule recurses at every level
    rlt_by_recurrence(FIB, n)  # warm up before the baseline
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for base in bases:
            assert rlt_by_recurrence(base, n) == rlt_by_runs(base, n)
        gc.collect()  # count only what stays reachable
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 14, held


def test_runs_leave_the_registry_base_unchanged():
    # registry bases live for the whole process, so evaluation may not grow them
    base = lookup("fib").base
    before = copy.deepcopy(vars(base))
    rlt_by_runs(base, (1 << 5000) - 1)
    assert vars(base) == before


_prefix_counts = st.one_of(
    st.integers(1, 600),
    st.builds(lambda j, d: (1 << j) + d, st.integers(0, 11), st.sampled_from([-1, 0, 1])),
).filter(lambda c: c >= 1)


@st.composite
def _bases(draw):
    """(base, its values S(0..11) from the reference): a recurrence or a plain list."""
    if draw(st.booleans()):
        registry = st.sampled_from([e.base for e in builtin_entries()])
        rec = draw(st.one_of(small_recurrences(), registry))
        return rec, recurrence_ref(rec.initial, rec.feedback, 12)
    values = [1] + draw(st.lists(st.integers(0, 9), min_size=11, max_size=16))
    return values, values


@given(_bases(), _prefix_counts)
def test_rlt_prefix_matches_reference(base_and_values, count):
    base, values = base_and_values
    assert rlt_prefix(base, count) == [rlt_ref(values, n) for n in range(count)]


@pytest.mark.parametrize("length", range(5))
def test_rlt_prefix_exhausts_like_runs(length):
    base = [1] * length
    count = 1 << length  # 2^length - 1 is the first index with a run past the base
    if length:
        assert rlt_prefix(base, count - 1) == [1] * (count - 1)
    with pytest.raises(ExhaustedBase) as by_runs:
        for n in range(count):
            rlt_by_runs(base, n)
    with pytest.raises(ExhaustedBase) as by_prefix:
        rlt_prefix(base, count)
    assert str(by_prefix.value) == str(by_runs.value)


def test_rlt_prefix_refusals():
    for bad in ([2, 1, 1], [0]):
        with pytest.raises(MalformedRecurrence):
            rlt_prefix(bad, 4)
    with pytest.raises(ValueError):
        rlt_prefix(FIB, 0)
    tracemalloc.start()
    try:
        for base in (FIB, [1] * 30):
            with pytest.raises(BoundExceeded):
                rlt_prefix(base, DEFAULT_ORACLE_BOUND + 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # refused before the 2^24-term list is allocated
