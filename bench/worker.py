"""One fresh interpreter: set up the package, then optionally run one pass.

Usage: python3 bench/worker.py <setup|plain|traced> <workload> <spec.json> <out.json>

Runs from the root of a source checkout and imports the package from its
`src/`. It prints `ready` once set-up is done (the parent times the start
up to that line), then reads the operation list from spec.json, runs it in a
closed loop with one operation in flight, and writes raw outputs, latencies,
memory figures and, when traced, the trace to out.json. Outputs are checked
by the parent, which never imports the package.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _report(r) -> dict:
    return {
        "passed": r.passed,
        "counterexample": list(r.counterexample) if r.counterexample is not None else None,
        "checked": r.checked_count,
    }


def _conjecture(res) -> dict:
    return {
        "failed_residues": list(res.failed_residues),
        "rules": [[r.modulus_exp, r.residue, [list(t) for t in r.terms]] for r in res.discovered_rules],
    }


def _runner(corpus):
    """Per kind: the call timed as the operation, and the untimed conversion of its result."""
    from binomod2 import cli, registry, verifier

    def cli_main(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        return rc, buf.getvalue()

    return {
        "identity": (
            lambda op: verifier.check_identity(corpus[op["line"]].statement, op["bound"]),
            _report,
        ),
        "triple": (
            lambda op: verifier.check_triple_equivalence(
                registry.lookup(op["entry"]), op["bound"], coefficients=tuple(op["coeffs"])
            ),
            _report,
        ),
        "conjecture": (
            lambda op: verifier.conjecture_rules(
                tuple(op["coeffs"]), op["max_mod"], op["sample_bound"], op["validation_bound"]
            ),
            _conjecture,
        ),
        "eval": (
            lambda op: registry.lookup(op["entry"]).rules.eval(int(op["n"], 16)),
            lambda v: {"value": hex(v)},
        ),
        "seq": (
            lambda op: cli_main("seq", "--entry", op["entry"], "--method", op["method"], "--count", str(op["count"])),
            lambda r: {"rc": r[0], "stdout_sha256": hashlib.sha256(r[1].encode()).hexdigest()},
        ),
        "compare": (
            lambda op: cli_main(
                "oeis", "compare", "--id", op["id"], "--entry", op["entry"], "--count", str(op["count"]), "--offline"
            ),
            lambda r: {"rc": r[0], "stdout": r[1]},
        ),
    }


def main(argv: list[str]) -> int:
    mode, workload, spec_path, out_path = argv
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import binomod2

    if not os.path.abspath(binomod2.__file__).startswith(src + os.sep):
        print(f"worker: imported binomod2 from {binomod2.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from binomod2 import registry, verifier

    entries = registry.builtin_entries()
    corpus = verifier.load_corpus() if workload == "certify" else None
    print("ready", flush=True)

    if mode == "setup":
        import numpy

        catalog = {
            "corpus_size": len(corpus) if corpus is not None else 0,
            "entries": {
                e.name: {
                    "coefficients": list(e.coefficients),
                    "aliases": [list(a) for a in e.aliases],
                    "initial": list(e.base.initial),
                    "feedback": list(e.base.feedback),
                    "oeis_transform": e.oeis_transform,
                    "modulus_exp": max(r.modulus_exp for r in e.rules.rules),
                }
                for e in entries
            },
        }
        out = {"catalog": catalog, "numpy": numpy.__version__, "package": binomod2.__version__}
    else:
        with open(spec_path) as fh:
            ops = json.load(fh)
        run = _runner(corpus)
        gc.collect()
        rss_setup = _rss_mb()
        outputs, lat = [], []
        for i, op in enumerate(ops):
            call, convert = run[op["kind"]]
            name = tracer.begin_op(i, op["kind"]) if tracer else None
            t0 = time.perf_counter()
            try:
                result = call(op)
            except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            lat.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op(name)
            outputs.append({"error": error} if error else convert(result))
        out = {
            "lat_s": lat,
            "outputs": outputs,
            "rss_setup_mb": rss_setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer:
            out["layers"] = tracer.layer_metrics()
            out["spans"] = tracer.spans
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
