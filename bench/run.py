"""Benchmark for binomod2: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload certify|random_access|prefix --seed N --seconds S --trace 0|1

The operation list is made from the seed. Each pass replays it in a fresh
single-threaded worker process (`bench/worker.py`), one operation at a
time, so the registry's caches and rule memos start empty every pass.
Passes repeat until S seconds have gone by. Every operation's output is
checked here against `bench/reference.py`, which uses no package code.

An operation's latency is the least of its latencies over the passes.

With --trace 0 the last line of stdout holds the end-to-end metrics:
  setup_s        median time from starting an interpreter to ready
                 (`import binomod2`, `builtin_entries()`, and `load_corpus()`
                 on certify), over at least 11 starts spread over the run
  wall_s         one pass: the sum of the operation latencies
  op_p50_ms, op_p90_ms
                 percentiles of the operation latencies
  terms_per_s    sequence terms the operations compute (see ops.terms_of)
                 divided by wall_s
  peak_rss_mb    median over passes of the worker's maximum RSS
  rss_growth_mb  median over passes of that maximum minus the RSS after set-up
With --trace 1, passes alternate between untraced and traced workers
(`bench/tracer.py`), and the last line holds the per-layer metrics of the
traced pass with the least wall time, plus its wall time (trace.wall_s) and
trace.overhead_s, that minus the least wall time of an untraced pass. The line
before the last records environment and provenance, and the error rate.
Full results and the spans of the traced passes go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from ops import make_ops, terms_of  # noqa: E402
from reference import Checker  # noqa: E402

WORKLOADS = ("certify", "random_access", "prefix")
MIN_PASSES = 3  # per kind of pass
SETUP_SAMPLES = 11  # starts timed for setup_s, counting the passes' own starts
WORKER_TIMEOUT_S = 150


def _worker_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env.update(
        BINOMOD2_OEIS_CACHE=cache_dir,  # empty and owned by this run
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _start(mode: str, workload: str, spec: str, out: str, env: dict) -> tuple[float, dict]:
    """Run one worker to completion; returns (seconds to ready, its output)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, spec, out]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}; stdout {line + rest!r}")
    with open(out) as fh:
        return ready, json.load(fh)


def _environment(args, info: dict, root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "binomod2")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "binomod2": info["package"],
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "load": "closed loop, 1 caller, 1 operation in flight, 1 worker process at a time",
    }


def check_outputs(checker: Checker, ops: list[dict], outputs: list[dict]) -> list[dict]:
    """One record per operation whose output disagrees with the reference."""
    failures = []
    for op, got in zip(ops, outputs, strict=True):
        why = checker.check(op, got)
        if why is not None:
            failures.append({"op": op, "why": why})
    return failures


def best_latencies(passes: list[dict]) -> list[float]:
    """Each operation's latency as the least over the passes.

    The machine's speed drifts by tens of percent over spells of seconds;
    the least of several fresh-process repeats of one operation is far
    steadier than a mean or median over time.
    """
    return [min(col) for col in zip(*(r["lat_s"] for r in passes))]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    data_dir = os.path.join(root, "src", "binomod2", "data")
    if not os.path.isfile(os.path.join(root, "src", "binomod2", "__init__.py")):
        print(f"bench: no binomod2 sources under {root}/src; run from a source checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        cache_dir = os.path.join(tmp, "oeis_cache")
        os.mkdir(cache_dir)
        env = _worker_env(cache_dir)
        spec = os.path.join(tmp, "spec.json")
        out = os.path.join(tmp, "out.json")

        # untimed first start: fills bytecode caches and reports the catalog
        _, info = _start("setup", args.workload, spec, out, env)
        catalog = info["catalog"]
        ops = make_ops(args.workload, args.seed, catalog, data_dir)
        with open(spec, "w") as fh:
            json.dump(ops, fh)
        checker = Checker(catalog["entries"], data_dir)

        kinds = ("plain", "traced") if args.trace else ("plain",)
        passes = {k: [] for k in kinds}
        setups = []
        failures = []
        deadline = time.monotonic() + args.seconds
        while time.monotonic() < deadline or len(passes[kinds[-1]]) < MIN_PASSES:
            if not args.trace and len(setups) < SETUP_SAMPLES:
                # extra set-up starts spread over the run, not bunched in one spell of machine load
                setups.append(_start("setup", args.workload, spec, out, env)[0])
            for kind in kinds:
                ready, res = _start(kind, args.workload, spec, out, env)
                if kind == "plain":
                    setups.append(ready)
                failures += check_outputs(checker, ops, res.pop("outputs"))
                passes[kind].append(res)
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(_start("setup", args.workload, spec, out, env)[0])

    attempted = len(ops) * sum(len(v) for v in passes.values())
    plain = passes["plain"]
    if args.trace:
        # one coherent pass, so that layer times add up within its wall time
        fastest = min(passes["traced"], key=lambda r: sum(r["lat_s"]))
        values = {name: fastest["layers"][name] for name, _ in LAYER_UNITS}
        values["trace.wall_s"] = sum(fastest["lat_s"])
        values["trace.overhead_s"] = values["trace.wall_s"] - min(sum(r["lat_s"]) for r in plain)
        units = dict(LAYER_UNITS + TRACE_UNITS)
    else:
        lat = best_latencies(plain)
        lat_ms = sorted(1e3 * x for x in lat)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(lat),
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "terms_per_s": sum(terms_of(op) for op in ops) / sum(lat),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "rss_growth_mb": statistics.median(r["peak_rss_mb"] - r["rss_setup_mb"] for r in plain),
        }
        units = dict(END_TO_END_UNITS)
    env_info = _environment(args, info, root)
    env_info.update(
        ops_per_pass=len(ops),
        passes={k: len(v) for k, v in passes.items()},
        op_samples=len(ops) * len(plain),
        setup_samples=len(setups),
        error_rate=len(failures) / attempted,
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        spans = [r.pop("spans") for r in passes["traced"]]
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end", "self_s"], "passes": spans}, fh)
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env_info, "result": result, "failures": failures[:20], "setup_s": setups, "passes": passes}, fh)
    for f in failures[:5]:
        print(f"FAILED {f['op']['kind']}: {f['why']}", file=sys.stderr)
    print(json.dumps({"env": env_info}))
    print(json.dumps(result))
    return 0


END_TO_END_UNITS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("terms_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("rss_growth_mb", "MB"),
)
TRACE_UNITS = (("trace.wall_s", "s"), ("trace.overhead_s", "s"))
LAYER_UNITS = (
    ("batch.row_sums.calls", "count"),
    ("batch.row_sums.s", "s"),
    ("batch.row_sums.cells", "count"),
    ("batch.f_affine_grid.calls", "count"),
    ("batch.f_affine_grid.s", "s"),
    ("batch.f_affine_grid.cells", "count"),
    ("batch.cells_per_s", "1/s"),
    ("batch.bytes_computed", "B"),
    ("rulesys.eval.calls", "count"),
    ("rulesys.eval.s", "s"),
    ("rulesys.eval.bits", "bit"),
    ("rulesys.first_terms.calls", "count"),
    ("rulesys.first_terms.s", "s"),
    ("rulesys.first_terms.terms", "count"),
    ("rulesys.parse_system.s", "s"),
    ("registry.builtin_entries.s", "s"),
    ("transform.rlt_by_runs.calls", "count"),
    ("transform.rlt_by_runs.s", "s"),
    ("verifier.check_identity.calls", "count"),
    ("verifier.check_identity.s", "s"),
    ("verifier.check_identity.self_s", "s"),
    ("verifier.check_triple_equivalence.calls", "count"),
    ("verifier.check_triple_equivalence.s", "s"),
    ("verifier.check_triple_equivalence.self_s", "s"),
    ("verifier.conjecture_rules.calls", "count"),
    ("verifier.conjecture_rules.s", "s"),
    ("verifier.conjecture_rules.self_s", "s"),
    ("verifier.checked", "count"),
    ("oeis_client.fetch_bfile.calls", "count"),
    ("oeis_client.fetch_bfile.s", "s"),
    ("oeis_client.bytes_parsed", "B"),
    ("oeis_client.compare.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
)


if __name__ == "__main__":
    sys.exit(main())
