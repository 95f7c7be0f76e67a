"""End-to-end CLI behavior through main(argv), including exit codes."""

import contextlib
import gc
import io
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomod2 import automaton
from binomod2.cli import main
from binomod2.registry import builtin_entries, lookup
from binomod2.rulesys import format_system


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestScalarCommands:
    def test_parity(self, capsys):
        assert run(capsys, "parity", "8", "4") == (0, "0\n", "")
        assert run(capsys, "parity", "7", "3") == (0, "1\n", "")

    def test_f(self, capsys):
        assert run(capsys, "f", "--coeffs", "1,1,1,-1", "1", "0") == (0, "1\n", "")
        assert run(capsys, "f", "--coeffs", "1,-1,0,2", "4", "1") == (0, "0\n", "")

    def test_mu(self, capsys):
        assert run(capsys, "mu", "413") == (0, "3 29 7\n", "")

    def test_repeated_calls_leave_no_cyclic_garbage(self, capsys):
        # a parser built per call was ~85 KB of cycles left for a full collection
        run(capsys, "parity", "8", "4")
        gc.collect()
        run(capsys, "parity", "8", "4")
        assert gc.collect() == 0

    def test_mu_rejects_even(self, capsys):
        code, out, err = run(capsys, "mu", "6")
        assert code == 2
        assert "error:" in err

    def test_bad_coeffs_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "f", "--coeffs", "1,2,3", "0", "0")
        assert exc.value.code == 2


class TestSeq:
    def test_three_methods_agree_bytewise(self, capsys):
        for e in builtin_entries():
            outs = set()
            for method in ("oracle", "rules", "rlt"):
                code, out, _ = run(capsys, "seq", "--entry", e.name,
                                   "--method", method, "--count", "256")
                assert code == 0
                outs.add(out)
            assert len(outs) == 1, e.name

    def test_bfile_format(self, capsys):
        code, out, _ = run(capsys, "seq", "--entry", "pow2", "--count", "4")
        assert code == 0
        assert out == "0 1\n1 2\n2 2\n3 4\n"

    def test_oracle_without_entry(self, capsys):
        code, out, _ = run(capsys, "seq", "--coeffs", "1,0,0,1",
                           "--method", "oracle", "--count", "8")
        assert code == 0
        assert out == "0 1\n1 2\n2 2\n3 4\n4 2\n5 4\n6 4\n7 8\n"

    def test_oracle_at_a_large_power_of_two(self, capsys):
        assert run(capsys, "seq", "--entry", "fib", "--method", "oracle",
                   "--at", "1073741824") == (0, "1073741824 1\n", "")

    def test_at_huge_index(self, capsys):
        n = (1 << 1000) | 0b110111
        code_r, out_r, _ = run(capsys, "seq", "--entry", "fib",
                               "--method", "rules", "--at", str(n))
        code_t, out_t, _ = run(capsys, "seq", "--entry", "fib",
                               "--method", "rlt", "--at", str(n))
        assert code_r == code_t == 0
        assert out_r == out_t
        assert out_r.startswith(str(n) + " ")
        # a dense 1000-bit index: all three routes, every vector of every entry
        dense = random.Random(2016).getrandbits(999) | 1 << 999
        assert dense.bit_count() >= 400
        for e in builtin_entries():
            want = {run(capsys, "seq", "--entry", e.name, "--method", method,
                        "--at", str(dense)) for method in ("rules", "rlt")}
            for c in (e.coefficients,) + tuple(e.aliases):
                got = run(capsys, "seq", "--coeffs", ",".join(map(str, c)),
                          "--method", "oracle", "--at", str(dense))
                assert want == {got}, (e.name, c)

    def test_unknown_coefficients_need_an_entry(self, capsys):
        code, _, err = run(capsys, "seq", "--coeffs", "5,5,5,5", "--method", "rules")
        assert code == 2
        assert "error:" in err

    def test_entry_and_coeffs_are_exclusive(self, capsys):
        # with both, rules would print the entry and oracle the vector's sums
        with pytest.raises(SystemExit) as exc:
            main(["seq", "--entry", "fib", "--coeffs", "1,0,0,1", "--method", "rules"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with" in err


class TestRlt:
    def test_file_base_with_comments(self, capsys, tmp_path):
        f = tmp_path / "base.txt"
        f.write_text("# fib prefix\n1\n1 # S(1)\n2\n3\n5\n")
        code, out, _ = run(capsys, "rlt", "--base", str(f), "--count", "16")
        assert code == 0
        _, want, _ = run(capsys, "seq", "--entry", "fib", "--method", "rlt",
                         "--count", "16")
        assert out == want

    def test_registry_name_base(self, capsys):
        code, out, _ = run(capsys, "rlt", "--base", "posint", "--count", "8")
        assert code == 0
        assert out == "0 1\n1 2\n2 2\n3 3\n4 2\n5 4\n6 3\n7 4\n"

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "rlt", "--base", "nosuch")
        assert code == 2 and "error:" in err

    def test_bad_file_content(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1\nnot-a-number\n")
        code, _, err = run(capsys, "rlt", "--base", str(f))
        assert code == 2 and "error:" in err

    def test_short_base_exhausts(self, capsys, tmp_path):
        f = tmp_path / "short.txt"
        f.write_text("1\n1\n")
        code, out, err = run(capsys, "rlt", "--base", str(f), "--count", "16")
        assert code == 2 and out == "" and "error:" in err


class TestVerify:
    def test_corpus_all_expected(self, capsys):
        code, out, _ = run(capsys, "verify", "--corpus", "--bound", "32")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "corpus: 431 pass, 7 fail, 0 unexpected (bound 32)"
        assert sum(1 for ln in lines if ln.startswith("FAIL")) == 7
        assert "[UNEXPECTED]" not in out

    def test_entry_and_aliases(self, capsys):
        code, out, _ = run(capsys, "verify", "--entry", "fib", "--bound", "128")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # main vector plus three aliases
        assert all(ln.startswith("PASS triple-equivalence fibonacci") for ln in lines)


class TestConjecture:
    def test_rediscovers_narayana(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--coeffs", "1,-1,0,6",
                           "--max-mod", "3")
        assert code == 0
        assert out == format_system(lookup("cows").rules)

    def test_reports_unfittable_residue(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--coeffs", "1,1,1,-1",
                           "--max-mod", "1")
        assert code == 1
        assert "no rule found for residue 1 mod 2" in out

    def test_only_coefficients_and_modulus_are_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conjecture", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--coeffs" in out and "--max-mod" in out and "bound" not in out

    def test_state_cap_and_modulus_cap_are_refused(self, capsys, monkeypatch):
        code, out, err = run(capsys, "conjecture", "--coeffs", f"{1 << 40},0,0,0",
                             "--max-mod", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

        def no_work(*args):
            raise AssertionError("built an automaton past the modulus cap")

        monkeypatch.setattr(automaton, "linear_rep", no_work)
        monkeypatch.setattr(automaton, "sum_direct", no_work)
        code, out, err = run(capsys, "conjecture", "--coeffs", "1,1,1,-1", "--max-mod", "23")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestOeis:
    def test_match(self, capsys, tmp_path):
        code, out, _ = run(capsys, "oeis", "compare", "--id", "A246028",
                           "--entry", "fib", "--count", "256",
                           "--offline", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "256 terms match" in out

    def test_mismatch(self, capsys, tmp_path):
        code, out, _ = run(capsys, "oeis", "compare", "--id", "A106737",
                           "--entry", "pow2", "--count", "64",
                           "--offline", "--cache-dir", str(tmp_path))
        assert code == 1
        assert "mismatch at index 3 (4 vs 3)" in out

    def test_bad_id(self, capsys, tmp_path):
        code, _, err = run(capsys, "oeis", "compare", "--id", "junk",
                           "--entry", "fib", "--offline",
                           "--cache-dir", str(tmp_path))
        assert code == 2 and "error:" in err

    def test_offline_miss(self, capsys, tmp_path):
        code, _, err = run(capsys, "oeis", "compare", "--id", "A999999",
                           "--entry", "fib", "--offline",
                           "--cache-dir", str(tmp_path))
        assert code == 3 and "error:" in err


class TestTriangle:
    def test_ascii(self, capsys):
        code, out, _ = run(capsys, "triangle", "--rows", "5")
        assert code == 0
        assert out == "1\n1 1\n1 0 1\n1 1 1 1\n1 0 0 0 1\n"

    def test_pbm(self, capsys):
        code, out, _ = run(capsys, "triangle", "--rows", "4", "--format", "pbm")
        assert code == 0
        assert out == ("P1\n4 4\n"
                       "1 0 0 0\n"
                       "1 1 0 0\n"
                       "1 0 1 0\n"
                       "1 1 1 1\n")


class TestBadInput:
    def test_int64_coefficients_are_exact(self, capsys):
        # the automaton's carries are Python ints; C(a1*n, 0) = 1 gives 2^popcount(n)
        for a1 in ("4611686018427387904", "9223372036854775808"):
            assert run(capsys, "seq", "--coeffs", f"{a1},0,0,0", "--method", "oracle",
                       "--count", "4") == (0, "0 1\n1 2\n2 2\n3 4\n", "")
            assert run(capsys, "seq", "--coeffs", f"{a1},0,0,0", "--method", "oracle",
                       "--at", "3") == (0, "3 4\n", "")

    def test_automaton_state_cap_is_refused(self, capsys):
        # the top carry of 2^40*n holds the low bits of n: 2^j states for 2^j rows
        argv = ("seq", "--coeffs", f"{1 << 40},0,0,0", "--method", "oracle", "--count")
        code, out, _ = run(capsys, *argv, "256")
        assert code == 0 and out.endswith("255 256\n")
        code, out, err = run(capsys, *argv, "257")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_large_corpus_bound_builds_no_grid(self, capsys):
        # the automaton names each refuted line's least counterexample
        code, out, err = run(capsys, "verify", "--corpus", "--bound", "5000")
        assert code == 0 and err == ""
        assert out.endswith("corpus: 431 pass, 7 fail, 0 unexpected (bound 5000)\n")

    def test_huge_rules_prefix_is_refused(self, capsys, tmp_path):
        huge = "1000000000000"
        for argv in (
            ("seq", "--entry", "fib", "--method", "rules", "--count", huge),
            ("oeis", "compare", "--id", "A246028", "--entry", "fib", "--count", huge,
             "--offline", "--cache-dir", str(tmp_path)),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error:") and "Traceback" not in err

    def test_huge_rlt_prefix_is_refused(self, capsys):
        # one past the 2^24 + 1 terms that the rules and oracle prefixes allow
        count = str((1 << 24) + 2)
        for argv in (
            ("seq", "--entry", "fib", "--method", "rlt", "--count", count),
            ("rlt", "--base", "fib", "--count", count),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("triangle", "--rows", "-2", "--format", "pbm"),
        ("triangle", "--rows", "0"),
        ("rlt", "--base", "fib", "--count", "-1"),
        ("seq", "--entry", "fib", "--method", "oracle", "--count", "0"),
        ("seq", "--entry", "fib", "--method", "rlt", "--count", "0"),
        ("seq", "--entry", "fib", "--method", "rules", "--count", "0"),
        ("verify", "--entry", "fib", "--bound", "-1"),
        ("verify", "--corpus", "--bound", "0"),
        ("oeis", "compare", "--id", "A246028", "--entry", "fib", "--count", "0",
         "--offline"),
    ])
    def test_nonpositive_counts_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "must be >= 1" in err


_NAMES = [e.name for e in builtin_entries()] + ["nosuch"]
_counts = st.integers(-2, 64).map(str)
_coeffs = st.one_of(
    st.tuples(*[st.integers(-3, 3)] * 4).map(lambda t: ",".join(map(str, t))),
    st.sampled_from(["1,2,3", "a,b,c,d", "5,5,5,5"]),
)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(
        ["parity", "f", "mu", "seq", "rlt", "verify", "conjecture", "oeis", "triangle"]))
    small = st.integers(-4, 300).map(str)
    if cmd == "parity":
        return [cmd, draw(small), draw(small)]
    if cmd == "f":
        return [cmd, "--coeffs", draw(_coeffs), draw(small), draw(small)]
    if cmd == "mu":
        return [cmd, draw(st.integers(-4, 1 << 70).map(str))]
    if cmd == "seq":
        method = draw(st.sampled_from(["oracle", "rules", "rlt"]))
        argv = [cmd, "--method", method]
        argv += draw(_opt("--entry", st.sampled_from(_NAMES)))
        argv += draw(_opt("--coeffs", _coeffs))
        argv += draw(_opt("--count", _counts))
        return argv + draw(_opt("--at", st.integers(-2, 1 << 80).map(str)))
    if cmd == "rlt":
        return [cmd, "--base", draw(st.sampled_from(_NAMES))] + draw(_opt("--count", _counts))
    if cmd == "verify":
        target = draw(st.one_of(st.just(["--corpus"]),
                                st.sampled_from(_NAMES).map(lambda n: ["--entry", n])))
        return [cmd] + target + draw(_opt("--bound", _counts))
    if cmd == "conjecture":
        return [cmd, "--coeffs", draw(_coeffs), "--max-mod", str(draw(st.integers(-1, 4)))]
    if cmd == "oeis":
        return (["oeis", "compare",
                 "--id", draw(st.sampled_from(["A246028", "A106737", "A999999", "junk"])),
                 "--entry", draw(st.sampled_from(_NAMES))]
                + draw(_opt("--count", _counts))
                + draw(_opt("--offset", st.integers(-3, 3).map(str))))
    return ([cmd, "--rows", draw(_counts)]
            + draw(_opt("--format", st.sampled_from(["ascii", "pbm"]))))


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_every_outcome_is_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as cache:
        if argv[0] == "oeis":
            argv = argv + ["--offline", "--cache-dir", cache]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = "usage" if exc.code == 2 else exc.code
    assert code in (0, 1, 2, 3, "usage"), (argv, code)
