"""Command-line front-end.

Exit codes: 0 success, 1 verification failure or comparison mismatch,
2 usage error, 3 I/O or network error.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import batch
from .automaton import sum_direct
from .errors import (
    BadId,
    BinomError,
    BoundExceeded,
    ExhaustedBase,
    MalformedRecurrence,
    NetworkError,
    NotFound,
    NotSplittable,
    OfflineMiss,
    ParseError,
)
from .oeis_client import compare, fetch_bfile
from .parity_core import binom_parity, f_value
from .registry import builtin_entries, lookup, lookup_by_coefficients
from .rulesys import format_system
from .transform import mu, rlt_by_runs, rlt_prefix
from .verifier import check_lemma_corpus, check_triple_equivalence, conjecture_rules

USAGE_ERRORS = (
    NotFound,
    BadId,
    ParseError,
    BoundExceeded,
    NotSplittable,
    MalformedRecurrence,
    ExhaustedBase,
)
IO_ERRORS = (OfflineMiss, NetworkError, OSError)


def _coeffs(text: str) -> tuple[int, int, int, int]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coefficients {text!r}")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("need exactly 4 comma-separated integers")
    return parts


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _resolve_entry(args):
    """Pick the registry entry named by --entry or matching --coeffs."""
    if getattr(args, "entry", None):
        return lookup(args.entry)
    if getattr(args, "coeffs", None):
        return lookup_by_coefficients(args.coeffs)
    raise NotFound("need --entry or --coeffs")


def cmd_parity(args) -> int:
    print(binom_parity(args.n, args.k))
    return 0


def cmd_f(args) -> int:
    print(f_value(args.coeffs, args.n, args.k))
    return 0


def cmd_mu(args) -> int:
    a, b, m = mu(args.n)
    print(f"{a} {b} {m}")
    return 0


def _seq_values(args, entry, coeffs, count: int) -> list[int]:
    if args.method == "oracle":
        return batch.row_sums(coeffs, count - 1)
    if args.method == "rules":
        return entry.rules.first_terms(count)
    return rlt_prefix(entry.base, count)


def cmd_seq(args) -> int:
    entry = None
    coeffs = args.coeffs
    if args.method in ("rules", "rlt") or coeffs is None:
        entry = _resolve_entry(args)
        coeffs = coeffs or entry.coefficients
    if args.at is not None:
        n = args.at
        if args.method == "oracle":
            v = sum_direct(coeffs, n)
        elif args.method == "rules":
            v = entry.rules.eval(n)
        else:
            v = rlt_by_runs(entry.base, n)
        print(f"{n} {v}")
        return 0
    values = _seq_values(args, entry, coeffs, args.count)
    sys.stdout.writelines(f"{n} {v}\n" for n, v in enumerate(values))
    return 0


def cmd_rlt(args) -> int:
    import os

    if os.path.exists(args.base):
        with open(args.base) as fh:
            terms = []
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    terms.append(int(line))
                except ValueError:
                    raise ParseError(f"bad base term {line!r}", line_no)
        base = terms
    else:
        base = lookup(args.base).base
    values = rlt_prefix(base, args.count)
    sys.stdout.writelines(f"{n} {v}\n" for n, v in enumerate(values))
    return 0


def cmd_verify(args) -> int:
    if args.corpus:
        reports = check_lemma_corpus(args.bound)
        bad = 0
        for r in reports:
            ok = r.as_expected
            bad += not ok
            note = "ok" if ok else "UNEXPECTED"
            print(f'{r.result} expect={r.expected} [{note}] ref="{r.ref}" {r.label}')
        npass = sum(r.passed for r in reports)
        print(
            f"corpus: {npass} pass, {len(reports) - npass} fail,"
            f" {bad} unexpected (bound {args.bound})"
        )
        return 0 if bad == 0 else 1
    entry = lookup(args.entry)
    failures = 0
    for c in (entry.coefficients,) + tuple(entry.aliases):
        r = check_triple_equivalence(entry, args.bound, coefficients=c)
        failures += not r.passed
        suffix = f" {r.detail}" if r.detail else ""
        print(f"{r.result} {r.label}{suffix}")
    return 0 if failures == 0 else 1


def cmd_conjecture(args) -> int:
    # the rules are derived for every n, so both bounds are the least allowed
    bound = 4 << max(args.max_mod, 0)
    res = conjecture_rules(args.coeffs, args.max_mod, bound, bound)
    if res.failed_residues:
        for r in res.failed_residues:
            print(f"no rule found for residue {r} mod {1 << args.max_mod}")
        return 1
    print(format_system(res.as_system()), end="")
    return 0


def cmd_oeis_compare(args) -> int:
    b = fetch_bfile(args.id, cache_dir=args.cache_dir, offline=args.offline)
    entry = lookup(args.entry)
    computed = entry.rules.first_terms(args.count)
    result = compare(b, computed, args.offset)
    print(result.describe())
    return 0 if result.ok else 1


def cmd_triangle(args) -> int:
    rows = list(batch.parity_triangle_rows(args.rows))
    if args.format == "ascii":
        for n, row in enumerate(rows):
            print(" ".join(str((row >> k) & 1) for k in range(n + 1)))
    else:
        width = args.rows
        print("P1")
        print(f"{width} {args.rows}")
        for row in rows:
            print(" ".join(str((row >> k) & 1) for k in range(width)))
    return 0


# one parser per process: each build costs ~2.5 ms and leaves ~85 KB of
# reference cycles that wait for a full collection, so a parser per main()
# call grew the heap call by call
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="binomod2",
        description="Parity of binomial products, run length transforms, "
        "residue rule systems, and their verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parity", help="parity of C(n, k)")
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    sp.set_defaults(fn=cmd_parity)

    sp = sub.add_parser("f", help="parity of C(a1 n + a2 k, a3 n + a4 k) C(n, k)")
    sp.add_argument("--coeffs", type=_coeffs, required=True, metavar="a1,a2,a3,a4")
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    sp.set_defaults(fn=cmd_f)

    sp = sub.add_parser("mu", help="split an odd index into (leading runs, tail, split exponent)")
    sp.add_argument("n", type=int)
    sp.set_defaults(fn=cmd_mu)

    sp = sub.add_parser("seq", help="emit sequence terms in b-file format")
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--entry", help="registry entry name or sequence id")
    g.add_argument("--coeffs", type=_coeffs, metavar="a1,a2,a3,a4",
                   help="coefficient vector; rules and rlt use the entry it names")
    sp.add_argument("--method", choices=("oracle", "rules", "rlt"), default="rules")
    sp.add_argument("--count", type=_positive, default=32)
    sp.add_argument("--at", type=int, metavar="N",
                    help="evaluate at one index (any size) instead of a prefix")
    sp.set_defaults(fn=cmd_seq)

    sp = sub.add_parser("rlt", help="run length transform of a base sequence")
    sp.add_argument("--base", required=True,
                    help="registry entry name, or a file with one term per line")
    sp.add_argument("--count", type=_positive, default=32)
    sp.set_defaults(fn=cmd_rlt)

    sp = sub.add_parser("verify", help="run identity corpus or triple-equivalence checks")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--corpus", action="store_true")
    g.add_argument("--entry")
    sp.add_argument("--bound", type=_positive, default=128)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("conjecture", help="derive residue rules that hold for every n")
    sp.add_argument("--coeffs", type=_coeffs, required=True, metavar="a1,a2,a3,a4")
    sp.add_argument("--max-mod", type=int, required=True, metavar="M",
                    help="modulus exponent: odd residues are classified mod 2^M")
    sp.set_defaults(fn=cmd_conjecture)

    sp = sub.add_parser("oeis", help="OEIS utilities")
    osub = sp.add_subparsers(dest="oeis_command", required=True)
    oc = osub.add_parser("compare", help="compare an entry's terms with a b-file")
    oc.add_argument("--id", required=True)
    oc.add_argument("--entry", required=True)
    oc.add_argument("--count", type=_positive, default=512)
    oc.add_argument("--offset", type=int)
    oc.add_argument("--offline", action="store_true")
    oc.add_argument("--cache-dir")
    oc.set_defaults(fn=cmd_oeis_compare)

    sp = sub.add_parser("triangle", help="Pascal triangle mod 2 rendering")
    sp.add_argument("--rows", type=_positive, required=True)
    sp.add_argument("--format", choices=("ascii", "pbm"), default="ascii")
    sp.set_defaults(fn=cmd_triangle)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BinomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
