"""Parity sums of binomial-coefficient products, run length transforms,
residue rule systems, and supporting verification tools."""

from .oeis_client import BFile, compare, fetch_bfile, parse_bfile
from .parity_core import (
    DEFAULT_ORACLE_BOUND,
    binom_parity,
    f_value,
    g_value,
)
from .registry import builtin_entries, lookup, lookup_by_coefficients
from .rulesys import ResidueRule, RuleSystem, format_system, parse_system
from .transform import (
    LinearRecurrence,
    mu,
    recurrence_rule_system,
    rlt_by_recurrence,
    rlt_by_runs,
    rlt_prefix,
    runs_of_ones,
)
from .verifier import (
    ConjectureResult,
    IdentityStatement,
    VerificationReport,
    check_identity,
    check_lemma_corpus,
    check_triple_equivalence,
    conjecture_rules,
    load_corpus,
)
from .automaton import sum_direct

__all__ = [
    "DEFAULT_ORACLE_BOUND",
    "binom_parity",
    "g_value",
    "f_value",
    "sum_direct",
    "runs_of_ones",
    "mu",
    "LinearRecurrence",
    "rlt_by_runs",
    "rlt_prefix",
    "rlt_by_recurrence",
    "recurrence_rule_system",
    "ResidueRule",
    "RuleSystem",
    "parse_system",
    "format_system",
    "builtin_entries",
    "lookup",
    "lookup_by_coefficients",
    "IdentityStatement",
    "VerificationReport",
    "ConjectureResult",
    "check_identity",
    "check_lemma_corpus",
    "check_triple_equivalence",
    "conjecture_rules",
    "load_corpus",
    "BFile",
    "parse_bfile",
    "fetch_bfile",
    "compare",
]

__version__ = "0.1.0"
