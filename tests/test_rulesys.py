"""Residue rule construction, matching, evaluation, and the textual format."""

import copy
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomod2.errors import BoundExceeded, NegativeValue, ParseError, UncoveredIndex
from binomod2.parity_core import DEFAULT_ORACLE_BOUND
from binomod2.registry import builtin_entries, lookup
from binomod2.rulesys import ResidueRule, RuleSystem, format_system, parse_system
from binomod2.transform import rlt_by_runs

EVEN = ResidueRule(1, 0, ((1, 1, 0),))


def system(rules_text: str) -> RuleSystem:
    return parse_system(rules_text)


class TestResidueRule:
    def test_validation(self):
        with pytest.raises(ValueError, match="modulus_exp"):
            ResidueRule(0, 0, ())
        with pytest.raises(ValueError, match="residue"):
            ResidueRule(2, 4, ())
        with pytest.raises(ValueError, match="residue"):
            ResidueRule(2, -1, ())
        with pytest.raises(ValueError, match="power of two"):
            ResidueRule(2, 3, ((1, 3, 0),))
        with pytest.raises(ValueError, match="below modulus"):
            ResidueRule(2, 3, ((1, 4, 0),))
        with pytest.raises(ValueError, match="offset"):
            ResidueRule(2, 1, ((1, 2, 2),))
        with pytest.raises(ValueError, match="offset"):
            ResidueRule(2, 3, ((1, 2, -1),))

    def test_terms_are_canonicalized(self):
        r = ResidueRule(3, 7, ((1, 1, 0), (2, 4, 3), (1, 1, 0), (1, 2, 1)))
        assert r.terms == ((2, 4, 3), (1, 2, 1), (2, 1, 0))

    def test_zero_coefficients_drop_out(self):
        r = ResidueRule(2, 3, ((1, 2, 1), (-1, 2, 1), (0, 1, 0)))
        assert r.terms == ()

    def test_merged_duplicates_compare_equal(self):
        a = ResidueRule(2, 3, ((1, 2, 1), (1, 2, 1)))
        b = ResidueRule(2, 3, ((2, 2, 1),))
        assert a == b

    def test_modulus(self):
        assert ResidueRule(4, 9, ((2, 2, 1),)).modulus == 16


class TestRuleSystem:
    def test_requires_base_zero(self):
        with pytest.raises(ValueError, match="a\\(0\\)"):
            RuleSystem([EVEN, ResidueRule(1, 1, ((1, 1, 0),))], {1: 1})

    def test_duplicate_rule_rejected(self):
        odd = ResidueRule(1, 1, ((1, 1, 0),))
        dup = ResidueRule(1, 1, ((2, 1, 0),))
        with pytest.raises(ValueError, match="duplicate"):
            RuleSystem([EVEN, odd, dup], {0: 1})

    def test_uncovered_residue_rejected(self):
        with pytest.raises(UncoveredIndex):
            RuleSystem([EVEN, ResidueRule(2, 1, ((1, 1, 0),))], {0: 1})

    def test_self_loop_at_zero_rejected(self):
        looped = ResidueRule(1, 1, ((1, 1, 1),))
        with pytest.raises(ValueError, match="loops"):
            RuleSystem([EVEN, looped], {0: 1})
        # an explicit base value for the looping residue makes it legal
        sys = RuleSystem([EVEN, looped], {0: 1, 1: 1})
        assert sys.eval(3) == 1

    def test_negative_value_raises(self):
        neg = ResidueRule(1, 1, ((1, 1, 0), (-2, 1, 0)))
        sys = RuleSystem([EVEN, neg], {0: 1})
        with pytest.raises(NegativeValue, match="a\\(1\\)"):
            sys.eval(1)
        # eval forms no value between n and the base values, so only a(n) is
        # checked: a(3) = -a(1) = 1, while the prefix meets a(1) = -1
        assert sys.eval(3) == 1
        with pytest.raises(NegativeValue, match="a\\(1\\)"):
            sys.first_terms(4)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            lookup("fib").rules.eval(-1)

    def test_longest_modulus_wins(self):
        sys = system(
            """
            a(0) = 1
            a(2n) = a(n)
            a(2n+1) = 2*a(n)
            a(4n+1) = 3*a(n)
            """
        )
        assert sys.eval(1) == 3  # 4n+1 beats 2n+1
        assert sys.eval(3) == 2 * sys.eval(1)


class TestEvaluation:
    def test_fibonacci_values(self):
        rules = lookup("fib").rules
        assert rules.eval(0) == 1
        assert rules.eval(15) == 5
        assert rules.first_terms(8) == [1, 1, 1, 2, 1, 1, 2, 3]

    def test_positive_integers_values(self):
        rules = lookup("posint").rules
        assert rules.eval(7) == 4
        assert rules.first_terms(8) == [1, 2, 2, 3, 2, 4, 3, 4]

    def test_first_terms_count_validated(self):
        with pytest.raises(ValueError):
            lookup("fib").rules.first_terms(0)
        with pytest.raises(BoundExceeded, match="prefix cap"):  # before allocating
            lookup("fib").rules.first_terms(DEFAULT_ORACLE_BOUND + 2)

    def test_thousand_bit_index(self):
        entry = lookup("fib")
        n = (1 << 1000) | 0b110111  # sparse runs plus a huge top run
        expected = rlt_by_runs(entry.base, n)
        assert entry.rules.eval(n) == expected

    def test_eval_memory_does_not_grow_with_the_index(self):
        # a few KB at any bit length; keeping every index met would take ~1 MB
        rng = random.Random(4000)
        for entry in builtin_entries():
            n = rng.getrandbits(4000) | (1 << 3999)
            tracemalloc.start()
            try:
                entry.rules.eval(n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 15, entry.name

    def test_eval_leaves_the_instance_unchanged(self):
        # registry systems live for the whole process, so eval may not grow them
        rules = lookup("fib").rules
        before = copy.deepcopy(vars(rules))
        rng = random.Random(1000)
        for _ in range(200):
            rules.eval(rng.getrandbits(1000))
        assert vars(rules) == before

    @settings(max_examples=40)
    @given(st.sampled_from(builtin_entries()), st.integers(1, 600))
    def test_first_terms_match_eval(self, entry, count):
        rules = entry.rules
        assert rules.first_terms(count) == [rules.eval(i) for i in range(count)]

    def test_first_terms_honour_base_values(self):
        looped = ResidueRule(1, 1, ((1, 1, 1),))
        sys = RuleSystem([EVEN, looped], {0: 1, 1: 1})
        assert sys.first_terms(8) == [1] * 8
        sys = RuleSystem([EVEN, looped], {0: 1, 1: 5})
        assert sys.first_terms(8) == [1] + [5] * 7
        assert sys.first_terms(8) == [sys.eval(i) for i in range(8)]

    def test_first_terms_negative_value_raises(self):
        neg = ResidueRule(1, 1, ((1, 1, 0), (-2, 1, 0)))
        sys = RuleSystem([EVEN, neg], {0: 1})
        with pytest.raises(NegativeValue, match="a\\(1\\)"):
            sys.first_terms(4)

    def test_uncovered_index_raises(self):
        # residue 1 mod 2 is covered only by the base value a(1)
        sys = RuleSystem([EVEN], {0: 1, 1: 1})
        assert sys.first_terms(3) == [1, 1, 1]
        with pytest.raises(UncoveredIndex, match="index 3"):
            sys.first_terms(4)
        with pytest.raises(UncoveredIndex, match="index 3"):
            sys.eval(3)

    @given(
        st.sampled_from(builtin_entries()),
        st.one_of(st.integers(0, 1 << 12), st.integers(0, (1 << 1500) - 1)),
    )
    def test_rules_match_runs_route(self, entry, n):
        assert entry.rules.eval(n) == rlt_by_runs(entry.base, n)


class TestTextualFormat:
    def test_round_trip_builtins(self):
        for name in ("pow2", "fib", "posint", "cows", "double", "lucas"):
            rules = lookup(name).rules
            assert parse_system(format_system(rules)) == rules

    def test_round_trip_zero_rhs(self):
        sys = RuleSystem([EVEN, ResidueRule(1, 1, ())], {0: 1})
        text = format_system(sys)
        assert "a(2n+1) = 0" in text
        assert parse_system(text) == sys

    def test_negative_coefficients_round_trip(self):
        text = """
        a(0) = 1
        a(2n) = a(n)
        a(4n+1) = 2*a(n)
        a(4n+3) = 2*a(2n+1) - a(n)
        """
        sys = parse_system(text)
        assert sys == lookup("posint").rules
        assert parse_system(format_system(sys)) == sys

    def test_comments_and_whitespace_ignored(self):
        sys = parse_system(
            "a(0)=1 # seed\n\n  a( 2n ) = a( n )\n# full comment line\na(2n+1)=a(n)\n"
        )
        assert sys.eval(6) == 1

    def test_parse_error_bad_modulus(self):
        with pytest.raises(ParseError) as exc:
            parse_system("a(0) = 1\na(3n+1) = a(n)")
        assert exc.value.line_no == 2
        assert "modulus 3" in str(exc.value)

    def test_parse_error_garbage_line(self):
        with pytest.raises(ParseError) as exc:
            parse_system("a(0) = 1\nb(2n) = a(n)")
        assert exc.value.line_no == 2

    def test_parse_error_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_system("a(0) = 1\na(2n+1) = a(n) + 5")

    def test_parse_error_missing_sign(self):
        with pytest.raises(ParseError, match="sign"):
            parse_system("a(0) = 1\na(2n+1) = a(n) a(n)")

    def test_parse_error_duplicate_base(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_system("a(0) = 1\na(0) = 2")

    def test_parse_duplicate_rule_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_system("a(0)=1\na(2n)=a(n)\na(2n)=2*a(n)\na(2n+1)=a(n)")

    def test_rule_level_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse_system("a(0)=1\na(4n+1) = a(n+3)")  # offset above residue
        assert exc.value.line_no == 2
