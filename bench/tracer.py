"""Tracing by wrapping package functions from outside, for the traced run.

Each wrapped function is rebound wherever it is looked up: in its own
module, in every package module that imported it by name, and in the
package namespace; methods are replaced on their class. Boundary functions
record spans; functions called thousands of times per pass (rule
evaluation, run products, b-file parsing) only bump counters, whose time is
still charged to the enclosing span so that self times stay right.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time

_clock = time.perf_counter


def _arg(a, kw, pos, name):
    return a[pos] if len(a) > pos else kw[name]


# (module, attribute, metric prefix, span or counter, work units from (args, kwargs, result))
PLAN = (
    ("batch", "row_sums", "batch.row_sums", "span", lambda a, kw, r: (_arg(a, kw, 1, "n_max") + 1) ** 2),
    ("batch", "f_affine_grid", "batch.f_affine_grid", "span", lambda a, kw, r: (_arg(a, kw, 2, "bound") + 1) ** 2),
    ("rulesys", "RuleSystem.eval", "rulesys.eval", "counter", lambda a, kw, r: _arg(a, kw, 1, "n").bit_length()),
    ("rulesys", "RuleSystem.first_terms", "rulesys.first_terms", "span", lambda a, kw, r: _arg(a, kw, 1, "count")),
    ("rulesys", "parse_system", "rulesys.parse_system", "span", None),
    ("registry", "builtin_entries", "registry.builtin_entries", "span", None),
    ("transform", "rlt_by_runs", "transform.rlt_by_runs", "counter", None),
    ("verifier", "check_identity", "verifier.check_identity", "span", lambda a, kw, r: r.checked_count),
    ("verifier", "check_triple_equivalence", "verifier.check_triple_equivalence", "span", lambda a, kw, r: r.checked_count),
    ("verifier", "conjecture_rules", "verifier.conjecture_rules", "span", None),
    ("oeis_client", "fetch_bfile", "oeis_client.fetch_bfile", "span", None),
    ("oeis_client", "parse_bfile", "oeis_client.parse_bfile", "counter", lambda a, kw, r: len(_arg(a, kw, 0, "data"))),
    ("oeis_client", "compare", "oeis_client.compare", "span", None),
    ("cli", "main", "cli.main", "span", None),
)


class Tracer:
    """Spans and counters kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, end, self seconds)
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds, units]
        self._stack: list[list] = []  # open spans: [id, start, child seconds]
        self._op = None
        self._ids = itertools.count()

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _close(self, name, frame, units):
        end = _clock()
        self._stack.pop()
        sid, start, child = frame
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((sid, parent, self._op, name, start, end, dur - child))
        s = self._stat(name)
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        s[3] += units

    def span(self, name, fn, units=None):
        def wrapper(*a, **kw):
            frame = [next(self._ids), _clock(), 0.0]
            self._stack.append(frame)
            r = None
            try:
                r = fn(*a, **kw)
                return r
            finally:
                self._close(name, frame, units(a, kw, r) if units and r is not None else 0)

        return wrapper

    def counter(self, name, fn, units=None):
        stat = self._stat(name)

        def wrapper(*a, **kw):
            start = _clock()
            try:
                return fn(*a, **kw)
            finally:
                dur = _clock() - start
                if self._stack:
                    self._stack[-1][2] += dur
                stat[0] += 1
                stat[1] += dur
                if units:
                    stat[3] += units(a, kw, None)

        return wrapper

    def begin_op(self, op_id: int, kind: str):
        """Open the root span of one benchmark operation."""
        self._op = op_id
        self._stack.append([next(self._ids), _clock(), 0.0])
        return "op." + kind

    def end_op(self, name: str):
        self._close(name, self._stack[-1], 0)
        self._op = None

    def install(self):
        """Wrap every function in PLAN, before the package does any work."""
        for mod_name in {step[0] for step in PLAN}:
            importlib.import_module("binomod2." + mod_name)
        pkg = sys.modules["binomod2"]
        modules = [pkg] + [m for k, m in sys.modules.items() if k.startswith("binomod2.") and m]
        for mod_name, attr, name, kind, units in PLAN:
            owner = sys.modules["binomod2." + mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            orig = getattr(owner, attr)
            wrapped = (self.span if kind == "span" else self.counter)(name, orig, units)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        setattr(target, key, wrapped)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass."""
        out: dict[str, float] = {}

        def get(name):
            return self.stats.get(name, [0, 0.0, 0.0, 0])

        for name in ("batch.row_sums", "batch.f_affine_grid"):
            calls, s, _, cells = get(name)
            out.update({f"{name}.calls": calls, f"{name}.s": s, f"{name}.cells": cells})
        cells = out["batch.row_sums.cells"] + out["batch.f_affine_grid.cells"]
        busy = out["batch.row_sums.s"] + out["batch.f_affine_grid.s"]
        out["batch.cells_per_s"] = cells / busy if busy else 0.0
        out["batch.bytes_computed"] = 8 * cells  # one int64 result per cell
        calls, s, _, bits = get("rulesys.eval")
        out.update({"rulesys.eval.calls": calls, "rulesys.eval.s": s, "rulesys.eval.bits": bits})
        calls, s, _, terms = get("rulesys.first_terms")
        out.update({"rulesys.first_terms.calls": calls, "rulesys.first_terms.s": s, "rulesys.first_terms.terms": terms})
        out["rulesys.parse_system.s"] = get("rulesys.parse_system")[1]
        out["registry.builtin_entries.s"] = get("registry.builtin_entries")[1]
        calls, s, _, _ = get("transform.rlt_by_runs")
        out.update({"transform.rlt_by_runs.calls": calls, "transform.rlt_by_runs.s": s})
        checked = 0
        for fn in ("check_identity", "check_triple_equivalence", "conjecture_rules"):
            calls, s, self_s, units = get("verifier." + fn)
            out.update({f"verifier.{fn}.calls": calls, f"verifier.{fn}.s": s, f"verifier.{fn}.self_s": self_s})
            checked += units
        out["verifier.checked"] = checked
        calls, s, _, _ = get("oeis_client.fetch_bfile")
        out.update({"oeis_client.fetch_bfile.calls": calls, "oeis_client.fetch_bfile.s": s})
        out["oeis_client.bytes_parsed"] = get("oeis_client.parse_bfile")[3]
        out["oeis_client.compare.s"] = get("oeis_client.compare")[1]
        calls, s, self_s, _ = get("cli.main")
        out.update({"cli.main.calls": calls, "cli.main.s": s, "cli.main.self_s": self_s})
        return out
