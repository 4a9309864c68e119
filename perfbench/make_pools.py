"""Regenerate the input pools under perfbench/pools/.

    PYTHONPATH=src python3 perfbench/make_pools.py

The pools list validated presentations the workloads draw their inputs
from; they hold inputs only, never expected answers, and every run checks
its outputs independently (perfbench/checks.py).  Generation is
deterministic and takes a few minutes on one core.

pools/cli.json
    grid:   presentations for `classify` and `verify`, 1200 per n: n = 3 with
            exponents <= 6, n = 4 and 5 with exponents <= 3 (generators <= 150).
    higher: one marked deformation per base presentation in a classified block
            (all-ones, or tail), split by the program's verdict into "true" and
            "false": n = 3 with exponents <= 6, n = 4 and 5 with exponents <= 4.
    trace:  every presentation for n = 5 with exponents <= 2, and for n = 3
            with exponents <= 3.
pools/corpus.json
    Every dihedral class of the acceptance grid (n = 3, 4, 5, exponents <= 3),
    one exponent pair (m, ell) per class, under "n/verdict": "accepted" when
    search_instances finds an instance, "rejected" when a candidate fails
    validation, "none" when no candidate passes the cheap tests; each list
    sorted by the product of the candidate generators.
pools/trace_scan.json
    Every semigroup with a presentation for n = 3, exponents <= 6, generators
    <= 150, sorted by Frobenius number, with all its valid arrangements.
"""

from __future__ import annotations

import json
import math
import random
import sys
from itertools import product
from pathlib import Path

from ngtrace.determinantal import search_instances
from ngtrace.higher_dim import OTHER, HigherDimInstance, base_case_of, classify

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench import BOUND, dihedral_class  # noqa: E402
from checks import Sieve, is_minimal, own_degrees  # noqa: E402

POOLS = Path(__file__).resolve().parent / "pools"
GRID = {3: 6, 4: 3, 5: 3}
HIGHER = {3: 6, 4: 4, 5: 4}
TRACE = {3: 3, 5: 2}
PER_N = 1200


def row(inst) -> list:
    return [list(inst.order), list(inst.m), list(inst.ell)]


def grid_sample(n: int, emax: int, rng: random.Random) -> list:
    tuples = list(product(product(range(1, emax + 1), repeat=n), repeat=2))
    rng.shuffle(tuples)
    out = []
    for m, ell in tuples:
        out.extend(row(inst) for inst in search_instances(m, ell, BOUND))
        if len(out) == PER_N:
            break
    return out


def markings(n: int):
    """(I, J) pairs: up to 3 marked indices for n = 3, up to 2 otherwise."""
    subsets = [()] + [(i,) for i in range(1, n + 1)]
    if n == 3:
        subsets += [(1, 2), (1, 3), (2, 3)]
    cap = 3 if n == 3 else 2
    return [(I, J) for I in subsets for J in subsets if 0 < len(I) + len(J) <= cap]


def block_exponents(n: int, emax: int):
    ones = (1,) * n
    for ell in product(range(1, emax + 1), repeat=n):
        yield ones, ell
    for m1 in range(2, emax + 1):
        for tail in product(range(1, emax + 1), repeat=2):
            yield (m1,) + (1,) * (n - 1), (1,) * (n - 2) + tail


def higher_pool(n: int, emax: int, rng: random.Random) -> dict:
    out = {"true": [], "false": []}
    for m, ell in block_exponents(n, emax):
        for inst in search_instances(m, ell, BOUND):
            if base_case_of(inst) == OTHER:
                continue
            verdicts = {True: [], False: []}
            for I, J in markings(n):
                hd = HigherDimInstance(inst, frozenset(I), frozenset(J))
                verdicts[classify(hd).is_ng].append((I, J))
            sides = [v for v in (True, False) if verdicts[v]]
            side = min(sides, key=lambda v: len(out["true" if v else "false"]))
            I, J = rng.choice(verdicts[side])
            out["true" if side else "false"].append(row(inst) + [list(I), list(J)])
    return out


def trace_pool(n: int, emax: int) -> list:
    return [
        row(inst)
        for m, ell in product(product(range(1, emax + 1), repeat=n), repeat=2)
        for inst in search_instances(m, ell, BOUND)
    ]


def corpus_pool() -> dict:
    seen, strata = set(), {}
    for n in (3, 4, 5):
        for m, ell in product(product((1, 2, 3), repeat=n), repeat=2):
            cls = dihedral_class(m, ell)
            if cls[0] in seen:
                continue
            seen.add(cls[0])
            if search_instances(m, ell, BOUND):
                verdict = "accepted"
            else:
                d = own_degrees(m, ell)
                candidate = d and max(d) <= BOUND and len(set(d)) == n and is_minimal(d)
                verdict = "rejected" if candidate else "none"
            strata.setdefault(f"{n}/{verdict}", []).append([list(m), list(ell)])
    for rows in strata.values():  # by a cost proxy: the product of the candidate generators
        rows.sort(key=lambda row: (math.prod(own_degrees(*row) or (0,)), row))
    return strata


def trace_scan_pool() -> list:
    by_gens: dict[tuple, list] = {}
    for m, ell in product(product(range(1, 7), repeat=3), repeat=2):
        for inst in search_instances(m, ell, BOUND):
            by_gens.setdefault(inst.H.generators, []).append([list(m), list(ell)])
    pool = [[list(g), Sieve(g).frobenius, arrs] for g, arrs in by_gens.items()]
    pool.sort(key=lambda e: (e[1], e[0]))
    return pool


def main():
    rng = random.Random(20261017)
    cli = {
        "grid": {str(n): grid_sample(n, e, rng) for n, e in GRID.items()},
        "higher": {str(n): higher_pool(n, e, rng) for n, e in HIGHER.items()},
        "trace": {str(n): trace_pool(n, e) for n, e in TRACE.items()},
    }
    POOLS.mkdir(exist_ok=True)
    (POOLS / "cli.json").write_text(json.dumps(cli, separators=(",", ":")) + "\n")
    corpus = corpus_pool()
    (POOLS / "corpus.json").write_text(json.dumps(corpus, separators=(",", ":")) + "\n")
    (POOLS / "trace_scan.json").write_text(
        json.dumps(trace_scan_pool(), separators=(",", ":")) + "\n"
    )
    sizes = {
        "grid": {n: len(v) for n, v in cli["grid"].items()},
        "higher": {n: {k: len(x) for k, x in v.items()} for n, v in cli["higher"].items()},
        "trace": {n: len(v) for n, v in cli["trace"].items()},
        "corpus": {k: len(v) for k, v in corpus.items()},
    }
    print(json.dumps(sizes))


if __name__ == "__main__":
    main()
