"""Exhaustive instance corpus and the cross-method agreement checks.

The corpus enumerates every exponent tuple up to a cap, keeps the validated
instances with generators under a bound, and runs the full battery per
instance: theorem classification versus the set-arithmetic trace oracle
versus the row-scan trace, plus the structural invariants (type count,
closed trace form for three generators, arithmetic-progression shape).
Any violation is reported with a minimal reproducer payload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import product
from operator import mul

from .determinantal import (
    DeterminantalInstance,
    NGResult,
    arithmetic_progression_check,
    classify_almost_gorenstein,
    classify_nearly_gorenstein,
    search_instances,
    symmetries,
)
from .errors import ResourceLimit
from .ideals import RelativeIdeal, trace_canonical_oracle
from .lambda_rows import trace_canonical_lambda


@dataclass
class InstanceReport:
    instance: DeterminantalInstance
    ng: NGResult  # the theorem's verdict, with its case and rearrangement
    trace_oracle: RelativeIdeal
    trace_lambda: RelativeIdeal
    ng_oracle: bool
    ng_lambda: bool
    ag_theorem: bool
    ag_nari: bool
    type_ok: bool
    herzog_ok: bool | None  # three-generator closed form; None when n > 3
    ap_ok: bool | None  # checked when NG and not AG; None otherwise

    @property
    def ng_theorem(self) -> bool:
        return self.ng.is_ng

    @property
    def traces_equal(self) -> bool:
        return self.trace_oracle == self.trace_lambda

    def violations(self) -> list[str]:
        out = []
        if not (self.ng_theorem == self.ng_oracle == self.ng_lambda):
            out.append(
                f"ng-disagreement theorem={self.ng_theorem} oracle={self.ng_oracle} "
                f"lambda={self.ng_lambda}"
            )
        if self.ag_theorem != self.ag_nari:
            out.append(f"ag-disagreement theorem={self.ag_theorem} nari={self.ag_nari}")
        # in dimension one an almost Gorenstein ring is nearly Gorenstein
        # (Herzog-Hibi-Stamate 2019); each pair of verdicts is checked
        if self.ag_theorem and not self.ng_theorem or self.ag_nari and not self.ng_oracle:
            out.append("ag-not-ng")
        if not self.traces_equal:
            out.append("trace-methods-differ")
        if not self.type_ok:
            out.append("type-not-n-minus-1")
        if self.herzog_ok is False:
            out.append("three-generator-trace-form-differs")
        if self.ap_ok is False:
            out.append("no-arithmetic-progression")
        return out

    def to_json(self) -> dict:
        data = self.instance.to_json()
        data["violations"] = self.violations()
        return data


def check_instance(inst: DeterminantalInstance) -> InstanceReport:
    """Run every per-instance agreement check.

    The one agreement engine: the corpus run and the CLI's classify and
    verify all decide their exit status from its violations().
    """
    H = inst.H
    tr_oracle = trace_canonical_oracle(H)
    tr_lambda = trace_canonical_lambda(inst)
    ng = classify_nearly_gorenstein(inst)
    ag_theorem = classify_almost_gorenstein(inst)
    ag_nari = H.is_almost_symmetric()
    herzog_ok = None
    if inst.n == 3:
        closed = RelativeIdeal(
            H,
            [inst.m[i] * inst.order[i] for i in range(3)]
            + [inst.ell[i] * inst.order[i] for i in range(3)],
        )
        herzog_ok = closed == tr_oracle
    ap_ok = None
    if ng.is_ng and not ag_theorem:
        ap_ok = arithmetic_progression_check(inst)
    return InstanceReport(
        instance=inst,
        ng=ng,
        trace_oracle=tr_oracle,
        trace_lambda=tr_lambda,
        ng_oracle=all(tr_oracle.contains(a) for a in H.generators),
        ng_lambda=all(tr_lambda.contains(a) for a in H.generators),
        ag_theorem=ag_theorem,
        ag_nari=ag_nari,
        type_ok=H.type() == inst.n - 1,
        herzog_ok=herzog_ok,
        ap_ok=ap_ok,
    )


GRID_CAP = 1 << 24  # exponent tuples per matrix size; n = 7 at exponent <= 3 has 3^14


def exponent_tuples(n: int, emax: int):
    exponents = range(1, emax + 1)
    yield from product(product(exponents, repeat=n), product(exponents, repeat=n))


def _tuple_at(index: int, n: int, side: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (m, ell) at ``index`` in the order of exponent_tuples."""
    digits = [index // side**k % side + 1 for k in reversed(range(2 * n))]
    return tuple(digits[:n]), tuple(digits[n:])


def build_corpus(
    ns=(3, 4, 5), emax: int = 3, bound: int = 150, seed: int | None = None, sample: int | None = None
) -> list[DeterminantalInstance]:
    """All validated instances for the exponent grid, optionally subsampled.

    A grid over GRID_CAP tuples for any n raises ResourceLimit before any
    work (from 2n >= 25 on, with no power formed).  Subsampling draws grid
    indices deterministically from the given seed and decodes only those,
    so a seeded run is reproducible; without it the grid is walked, not
    listed.  Whether a tuple gives an instance is constant on its dihedral
    class (see DeterminantalInstance.rearranged), so a class is searched at
    its first tuple, every image of that tuple is marked searched by its
    grid index (in a bytearray over the grid for a walk, in a set for a
    sample), and the instances found are filed under the images; a later
    tuple of the class reads its entry.  No tuple is met twice (the
    sample draws without replacement), so an entry is dropped once read.
    A size named twice in ns raises ValueError, also before any work.
    """
    side, ns = max(emax, 0), tuple(ns)
    for k, n in enumerate(ns):
        if n < 0:
            raise ValueError(f"n = {n}: a matrix cannot have a negative number of columns")
        if n in ns[:k]:
            raise ValueError(f"n = {n} is repeated: each matrix size is searched once")
        if side > 1 and 2 * n >= GRID_CAP.bit_length() or side ** (2 * n) > GRID_CAP:
            raise ResourceLimit(
                f"n = {n}, emax = {emax}: {side}^{2 * n} exponent tuples exceed cap {GRID_CAP}"
            )
    out: list[DeterminantalInstance] = []
    for n in ns:
        tuples = exponent_tuples(n, emax)
        size = side ** (2 * n)  # the number of tuples
        sampled = sample is not None and sample < size
        if sampled:
            rng = random.Random(0 if seed is None else seed)
            tuples = [_tuple_at(k, n, side) for k in rng.sample(range(size), sample)]
        # the grid index of m + ell is sum((e - 1) * radix), as exponents start at 1
        radix = tuple(side**k for k in range(2 * n))
        offset = sum(radix)
        # a mark per grid index for a walk; a sample marks only its classes' images
        searched: set[int] | bytearray = set() if sampled else bytearray(size)
        positions = tuple(range(n))
        orbits: dict[int, tuple[DeterminantalInstance, ...]] = {}  # only images with instances
        for m, ell in tuples:
            key = sum(map(mul, m + ell, radix)) - offset
            if not (key in searched if sampled else searched[key]):
                found = search_instances(m, ell, bound)
                for sym in symmetries(n):
                    _, mm, ll = sym.apply(positions, m, ell)
                    image = sum(map(mul, mm + ll, radix)) - offset
                    if sampled:
                        searched.add(image)
                    else:
                        searched[image] = 1
                    if found:
                        orbits.setdefault(image, tuple(inst.rearranged(sym) for inst in found))
            out.extend(orbits.pop(key, ()))
    return out


@dataclass
class CorpusResult:
    reports: list[InstanceReport] = field(default_factory=list)
    violations: list[InstanceReport] = field(default_factory=list)

    @property
    def counts(self) -> dict:
        ng = sum(1 for r in self.reports if r.ng_theorem)
        ag = sum(1 for r in self.reports if r.ag_theorem)
        return {
            "instances": len(self.reports),
            "nearly_gorenstein": ng,
            "almost_gorenstein": ag,
            "ng_not_ag": sum(1 for r in self.reports if r.ng_theorem and not r.ag_theorem),
            "violations": len(self.violations),
        }

    def reproducer(self) -> str | None:
        if not self.violations:
            return None
        return json.dumps(self.violations[0].to_json(), sort_keys=True)


def run_corpus(
    ns=(3, 4, 5),
    emax: int = 3,
    bound: int = 150,
    seed: int | None = None,
    sample: int | None = None,
    progress=None,
) -> CorpusResult:
    result = CorpusResult()
    corpus = build_corpus(ns, emax, bound, seed=seed, sample=sample)
    for k, inst in enumerate(corpus):
        report = check_instance(inst)
        result.reports.append(report)
        if report.violations():
            result.violations.append(report)
        if progress and (k + 1) % 500 == 0:
            progress(k + 1, len(corpus))
    return result
