"""Identity checking, the statement grammar, triple equivalence, conjecture."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomod2 import automaton, batch
from binomod2.errors import BoundExceeded, ParseError
from binomod2.registry import lookup
from binomod2.rulesys import ResidueRule, parse_system
from binomod2.verifier import (
    DOMAIN_ALL,
    DOMAIN_K_GT_N,
    ConjectureResult,
    IdentityStatement,
    check_identity,
    check_lemma_corpus,
    check_triple_equivalence,
    conjecture_rules,
    load_corpus,
    parse_statement_line,
    solve_exact,
)

from .oracles import f_ref, row_sum_ref

FIB = (1, -1, 0, 2)
POSINT = (1, 1, 1, -1)
ONES = (1, -1, 0, 1)


def _grid_verdict(stmt, bound):
    """(passed, minimal counterexample) straight from the F grids."""
    c = stmt.coefficients
    lhs = batch.f_affine_grid(c, stmt.lhs, bound)
    rhs = np.zeros_like(lhs) if stmt.rhs is None else batch.f_affine_grid(c, stmt.rhs, bound)
    diff = lhs != rhs
    if stmt.domain == DOMAIN_K_GT_N:
        diff = np.triu(diff, 1)  # cells with k > n
    bad = np.argwhere(diff)
    return (True, None) if len(bad) == 0 else (False, tuple(int(v) for v in bad[0]))


@st.composite
def _statements(draw):
    def side():
        p = draw(st.sampled_from((1, 2, 4, 8)))
        return p, draw(st.integers(0, p - 1)), p, draw(st.integers(0, p - 1))

    c = draw(st.tuples(*[st.integers(-3, 3)] * 4))
    lhs = side()
    rhs = side() if draw(st.booleans()) else None
    return IdentityStatement(c, lhs, rhs, draw(st.sampled_from((DOMAIN_ALL, DOMAIN_K_GT_N))))


class TestStatementGrammar:
    def test_text_and_parse_round_trip(self):
        stmt = IdentityStatement(FIB, (4, 1, 4, 1), (1, 0, 1, 0))
        line = stmt.text()
        assert line == "F(4n+1,4k+1) = F(n,k) @ coeffs=1,-1,0,2"
        assert parse_statement_line(line).statement == stmt

    def test_zero_rhs_and_domain(self):
        stmt = IdentityStatement(FIB, (1, 0, 1, 0), None, DOMAIN_K_GT_N)
        assert stmt.text() == "F(n,k) = 0 @ coeffs=1,-1,0,2 domain=k>n"
        back = parse_statement_line(stmt.text())
        assert back.statement == stmt
        assert back.expect == "pass"

    def test_attributes_parse_in_any_order(self):
        line = 'F(2n,2k) = F(n,k) @ ref="x:y#z" coeffs=1,0,0,1 expect=fail'
        cs = parse_statement_line(line)
        assert cs.expect == "fail"
        assert cs.ref == "x:y#z"
        assert cs.statement.lhs == (2, 0, 2, 0)

    def test_corpus_line_emission_parses_back(self):
        for cs in load_corpus()[:50]:
            again = parse_statement_line(cs.line())
            assert again == cs

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="coeffs"):
            parse_statement_line("F(n,k) = 0 @ nothing")
        with pytest.raises(ParseError, match="@"):
            parse_statement_line("F(n,k) = 0")
        with pytest.raises(ParseError):
            parse_statement_line("F(n,n) = 0 @ coeffs=1,0,0,1")
        with pytest.raises(ParseError) as exc:
            parse_statement_line("F(3n,k) = 0 @ coeffs=1,0,0,1", line_no=7)
        assert exc.value.line_no == 7

    def test_statement_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            IdentityStatement(FIB, (3, 0, 1, 0))
        with pytest.raises(ValueError, match="offset"):
            IdentityStatement(FIB, (2, 2, 1, 0))
        with pytest.raises(ValueError, match="domain"):
            IdentityStatement(FIB, (1, 0, 1, 0), None, "n>k")
        with pytest.raises(ValueError, match="differs"):
            IdentityStatement(FIB, (1, 0, 1, 0), (2, 1, 1, 0))
        with pytest.raises(ParseError, match="differs"):
            parse_statement_line("F(2n+1,k) = 0 @ coeffs=1,1,1,-1")


class TestCheckIdentity:
    def test_true_identity_passes(self):
        stmt = IdentityStatement(FIB, (4, 3, 4, 1), (1, 0, 1, 0))
        r = check_identity(stmt, 256)
        assert r.passed and r.counterexample is None
        assert r.result == "PASS"
        assert r.checked_count == 257**2

    def test_false_identity_reports_minimal_counterexample(self):
        stmt = IdentityStatement(FIB, (4, 1, 4, 1), (1, 0, 1, 0))
        r = check_identity(stmt, 16)
        assert not r.passed
        assert r.counterexample == (0, 0)
        assert r.result == "FAIL"

    def test_zero_statement_passes(self):
        stmt = IdentityStatement(ONES, (4, 3, 4, 3), None)
        r = check_identity(stmt, 128)
        assert r.passed

    def test_domain_restriction(self):
        stmt = IdentityStatement(POSINT, (1, 0, 1, 0), None, DOMAIN_K_GT_N)
        r = check_identity(stmt, 32)
        assert r.passed
        assert r.checked_count == 33 * 32 // 2

    def test_grid_and_scalar_agree(self):
        cases = [
            IdentityStatement(FIB, (4, 3, 4, 1), (1, 0, 1, 0)),
            IdentityStatement(FIB, (4, 1, 4, 1), (1, 0, 1, 0)),
            IdentityStatement(ONES, (4, 3, 4, 3), None),
            IdentityStatement(POSINT, (1, 0, 1, 0), None, DOMAIN_K_GT_N),
            IdentityStatement(POSINT, (2, 1, 2, 0), None),
        ]
        bound = 24
        for stmt in cases:
            p, q, p2, q2 = stmt.lhs
            cells = [
                (n, k)
                for n in range(bound + 1)
                for k in range(bound + 1)
                if stmt.domain != DOMAIN_K_GT_N or k > n
            ]
            cx = None
            for n, k in cells:
                left = f_ref(stmt.coefficients, p * n + q, p2 * k + q2)
                right = 0
                if stmt.rhs is not None:
                    u, v, u2, v2 = stmt.rhs
                    right = f_ref(stmt.coefficients, u * n + v, u2 * k + v2)
                if left != right:
                    cx = (n, k)
                    break
            r = check_identity(stmt, bound)
            assert (r.passed, r.counterexample, r.checked_count) == (
                cx is None, cx, len(cells)
            ), stmt.text()

    def test_proof_and_refusals(self):
        true = IdentityStatement(FIB, (4, 3, 4, 1), (1, 0, 1, 0))
        assert check_identity(true, 0).proved and check_identity(true, 1 << 40).passed
        refuted = IdentityStatement(FIB, (4, 1, 4, 1), (1, 0, 1, 0))
        assert not check_identity(refuted, 16).proved
        # no grid is built, so no bound is too large for the least counterexample
        r = check_identity(refuted, 4096)
        assert (r.passed, r.counterexample, r.proved) == (False, (0, 0), False)
        # different multipliers of n and k: the automaton cannot read them
        with pytest.raises(ValueError, match="multiplier"):
            IdentityStatement(POSINT, (2, 1, 1, 0), None)
        # a true statement whose search passes automaton.STATE_CAP pairs
        wide = IdentityStatement((1 << 40, 0, 0, 0), (2, 0, 2, 0), (1, 0, 1, 0))
        with pytest.raises(BoundExceeded, match="state pairs"):
            check_identity(wide, 16)

    def test_counterexample_past_the_bound_passes(self):
        stmt = IdentityStatement((-1, 2, 2, -3), (4, 0, 4, 3), (2, 1, 2, 1))
        cx = _grid_verdict(stmt, 8)[1]
        assert cx == (7, 4)
        r = check_identity(stmt, cx[0] - 1)
        assert (r.passed, r.counterexample, r.proved) == (True, None, False)
        r = check_identity(stmt, cx[0])
        assert (r.passed, r.counterexample, r.proved) == (False, cx, False)

    @settings(max_examples=300, deadline=None)
    @given(_statements())
    def test_proved_statements_pass_on_the_grid(self, stmt):
        r = check_identity(stmt, 48)
        assert (r.passed, r.counterexample) == _grid_verdict(stmt, 48), stmt.text()
        assert r.passed or not r.proved

    def test_method_and_bound_validated(self):
        stmt = IdentityStatement(FIB, (1, 0, 1, 0), None, DOMAIN_K_GT_N)
        with pytest.raises(TypeError):  # the grid is the only method
            check_identity(stmt, 8, method="grid")
        with pytest.raises(ValueError):
            check_identity(stmt, -1)


class TestCorpus:
    def test_corpus_loads_and_is_large(self):
        corpus = load_corpus()
        assert len(corpus) == 438
        assert sum(1 for cs in corpus if cs.expect == "pass") == 431
        assert sum(1 for cs in corpus if cs.expect == "fail") == 7

    def test_every_line_agrees_with_the_grid(self):
        for cs in load_corpus():
            for bound in (0, 1, 5, 64):
                r = check_identity(cs.statement, bound)
                assert (r.passed, r.counterexample) == _grid_verdict(cs.statement, bound), r.label

    def test_pass_lines_are_proved(self):
        reports = check_lemma_corpus(256)
        assert sum(r.proved for r in reports) == 431
        for r in reports:
            assert r.proved == (r.expected == "pass"), r.label
            assert r.checked_count == 257**2 or "domain=k>n" in r.label
            if r.expected == "fail":
                assert r.counterexample == (0, 0)

    def test_corpus_all_as_expected_at_small_bound(self):
        # every expect=fail line already breaks at (0, 0)
        for r in check_lemma_corpus(0):
            assert r.as_expected, r.label

    def test_corpus_all_as_expected_at_128(self):
        reports = check_lemma_corpus(128)
        assert all(r.as_expected for r in reports)
        passed = [r for r in reports if r.passed]
        assert len(passed) >= 60
        for r in reports:
            if r.expected == "fail":
                assert r.counterexample == (0, 0)
                assert r.ref


class TestTripleEquivalence:
    def test_fibonacci_passes(self):
        r = check_triple_equivalence(lookup("fib"), 512)
        assert r.passed
        assert r.checked_count == 513

    def test_alias_coefficients_pass(self):
        r = check_triple_equivalence(lookup("fib"), 256, coefficients=(1, 3, 1, 1))
        assert r.passed

    def test_wrong_rule_variant_fails_at_first_divergence(self):
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
        r = check_triple_equivalence(variant, 64)
        assert not r.passed
        assert r.counterexample == (9,)
        assert "rules=2" in r.detail and "n=9" in r.detail

    def test_all_ones_is_constant(self):
        r = check_triple_equivalence(lookup("ones"), 256)
        assert r.passed


class TestSolveExact:
    def test_identity_system(self):
        assert solve_exact([[1, 0], [0, 1]], [3, 4]) == [3, 4]

    def test_inconsistent_returns_none(self):
        assert solve_exact([[1, 1], [1, 1]], [1, 2]) is None

    def test_free_variables_default_to_zero(self):
        assert solve_exact([[1, 1]], [5]) == [5, 0]

    def test_rational_solution(self):
        assert solve_exact([[2]], [1]) == [Fraction(1, 2)]

    def test_empty(self):
        assert solve_exact([], []) == []

    def test_repeated_rows_give_the_same_answer(self):
        assert solve_exact([[1, 1], [1, 1], [2, 0]], [3, 3, 2]) == [1, 2]

    def test_repeated_rows_with_different_rhs_stay_inconsistent(self):
        assert solve_exact([[1, 1], [1, 1]], [3, 4]) is None


class TestConjecture:
    def test_rediscovers_positive_integers_rules(self):
        res = conjecture_rules(POSINT, 2, sample_bound=64, validation_bound=2048)
        assert res.failed_residues == ()
        assert res.as_system() == lookup("posint").rules

    def test_rediscovers_one_then_twos_rules(self):
        res = conjecture_rules((1, 2, 0, 2), 2, sample_bound=64, validation_bound=1024)
        assert res.as_system() == lookup("x1222").rules

    def test_whole_basis_fit_finds_multi_child_rules(self):
        res = conjecture_rules((-2, 4, 0, 1), 3, 256, 2048)
        assert res.failed_residues == (1,)
        assert ResidueRule(3, 3, ((1, 2, 1), (1, 1, 0))) in res.discovered_rules
        assert ResidueRule(3, 7, ((1, 4, 3), (1, 2, 1), (-1, 1, 0))) in res.discovered_rules

    def test_single_child_is_tried_before_the_whole_basis(self):
        res = conjecture_rules((1, 0, 0, 2), 3, 256, 2048)
        assert res.failed_residues == ()
        assert ResidueRule(3, 5, ((1, 2, 1),)) in res.discovered_rules

    def test_too_small_modulus_reports_failures(self):
        res = conjecture_rules(POSINT, 1, sample_bound=64, validation_bound=1024)
        assert res.failed_residues == (1,)
        with pytest.raises(ValueError, match="residues"):
            res.as_system()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            conjecture_rules(POSINT, 0, 64, 128)
        with pytest.raises(ValueError):
            conjecture_rules(POSINT, 2, 256, 128)
        with pytest.raises(ValueError):
            conjecture_rules(POSINT, 4, 32, 1024)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(*[st.integers(-3, 3)] * 4), st.integers(1, 3))
    def test_every_rule_holds_beyond_any_sample(self, c, m):
        res = conjecture_rules(c, m, 4 << m, 4 << m)
        ref = [row_sum_ref(c, n) for n in range(301)]
        long = batch.row_sums(c, 1 << 16)
        for rule in res.discovered_rules:
            w = 1 << rule.modulus_exp
            for a in (ref, long):
                want = a[rule.residue :: w]  # a(w*q + r) for every q in range
                got = [0] * len(want)
                for k, e, f in rule.terms:
                    got = [g + k * x for g, x in zip(got, a[f::e])]
                assert want == got, (c, rule)

    def test_rules_do_not_depend_on_the_bounds(self):
        res = conjecture_rules((1, -1, 0, 6), 3, 32, 1 << 40)
        assert res.as_system() == lookup("cows").rules

    def test_caps_are_refused(self, monkeypatch):
        # the top carry of 2^40*n holds the low bits of n: unboundedly many states
        with pytest.raises(BoundExceeded):
            conjecture_rules((1 << 40, 0, 0, 0), 2, 16, 16)

        def no_work(*args):
            raise AssertionError("built an automaton past the modulus cap")

        monkeypatch.setattr(automaton, "linear_rep", no_work)
        monkeypatch.setattr(automaton, "sum_direct", no_work)
        with pytest.raises(BoundExceeded, match="modulus"):
            conjecture_rules(POSINT, 23, 4 << 23, 4 << 23)

    def test_result_is_frozen_record(self):
        res = conjecture_rules(POSINT, 2, 64, 512)
        assert isinstance(res, ConjectureResult)
        assert res.coefficients == POSINT
        assert res.modulus_exp == 2
        assert res.validation_bound == 512
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.modulus_exp = 3
