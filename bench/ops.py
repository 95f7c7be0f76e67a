"""Seeded operation lists for the three workloads.

Every pass of a run replays the same list in a fresh process. The seed
changes the inputs (operation order, sampled indices, prefix length) but
not the amount of work, so runs with different seeds are comparable.
"""

from __future__ import annotations

import os
import random

# certify: corpus at 256, triple equivalence at 1024, conjecture validated to 2048;
# small enough that a run repeats each operation about ten times
CORPUS_BOUND = 256
TRIPLE_BOUND = 1024
VALIDATION_BOUND = 2048
TRIPLE_SAMPLE_ROWS = 4

# random_access: per entry, this many fresh indices of each bit length. The
# shares (40% / 45% / 15%) keep p50 inside the 1000-bit group and p90 inside
# the 4000-bit group, so neither percentile sits on a boundary between groups.
INDEX_MIX = ((64, 8), (1000, 9), (4000, 3))

# prefix: b-file length per `seq` command, plus a seeded jitter
PREFIX_COUNT = 8192
PREFIX_JITTER = 256


def make_ops(workload: str, seed: int, catalog: dict, data_dir: str) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return {"certify": _certify, "random_access": _random_access, "prefix": _prefix}[workload](
        rng, catalog, data_dir
    )


def _certify(rng, catalog, data_dir):
    # kinds run in a fixed order, shuffled within each kind: a small grid check
    # right after a large one pays for fresh pages, so mixing kinds would make
    # latencies depend on the seed's interleaving
    corpus = [{"kind": "identity", "line": i, "bound": CORPUS_BOUND} for i in range(catalog["corpus_size"])]
    triples, conjectures = [], []
    for name, e in catalog["entries"].items():
        for c in [e["coefficients"], *e["aliases"]]:
            rows = [TRIPLE_BOUND] + rng.sample(range(TRIPLE_BOUND), TRIPLE_SAMPLE_ROWS - 1)
            triples.append({"kind": "triple", "entry": name, "coeffs": c, "bound": TRIPLE_BOUND, "sample_rows": rows})
        m = e["modulus_exp"]
        conjectures.append(
            {
                "kind": "conjecture",
                "entry": name,
                "coeffs": e["coefficients"],
                "max_mod": m,
                "sample_bound": max(4 << m, 256),
                "validation_bound": VALIDATION_BOUND,
            }
        )
    for group in (corpus, triples, conjectures):
        rng.shuffle(group)
    return corpus + triples + conjectures


def _random_access(rng, catalog, data_dir):
    ops = []
    for name in catalog["entries"]:
        for bits, count in INDEX_MIX:
            for _ in range(count):
                n = rng.getrandbits(bits) | (1 << (bits - 1))
                ops.append({"kind": "eval", "entry": name, "n": hex(n)})
    rng.shuffle(ops)
    return ops


def _prefix(rng, catalog, data_dir):
    count = PREFIX_COUNT + rng.randrange(PREFIX_JITTER)
    ops = [
        {"kind": "seq", "entry": name, "method": method, "count": count}
        for name in catalog["entries"]
        for method in ("rules", "rlt")
    ]
    rng.shuffle(ops)
    for name, e in catalog["entries"].items():
        aid = e["oeis_transform"]
        if aid and os.path.isfile(os.path.join(data_dir, "bfiles", aid + ".txt")):
            ops.append({"kind": "compare", "entry": name, "id": aid, "count": count})
    return ops


def terms_of(op: dict) -> int:
    """Sequence terms the operation computes: the numerator of terms_per_s."""
    kind = op["kind"]
    if kind == "eval":
        return 1
    if kind in ("seq", "compare"):
        return op["count"]
    if kind == "triple":
        return 3 * (op["bound"] + 1)  # row sums, rule values and run products
    if kind == "conjecture":
        return op["validation_bound"] + 1
    return 0
