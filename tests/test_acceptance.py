"""Acceptance suite: one test per numbered criterion, one status line each.

The shared corpus (every validated instance over the full exponent grid,
n in {3,4,5}, exponents up to 3, generators up to 150) is built once per
session; criteria that aggregate over it reuse the cached reports.  Status
lines are written past the capture plugin so they always appear.
"""

import random
import sys
import time
from dataclasses import replace
from itertools import combinations, product

import pytest

from ngtrace.corpus import check_instance
from ngtrace.determinantal import (
    Symmetry,
    classify_almost_gorenstein,
    classify_nearly_gorenstein,
    search_instances,
    symmetries,
)
from ngtrace.higher_dim import (
    ALL_ONES,
    OTHER,
    HDResult,
    HigherDimInstance,
    _block_of,
    base_case_of,
    classify,
    verify_witness,
    witness_rows,
)
from ngtrace.ideals import trace_canonical_oracle
from ngtrace.lambda_rows import trace_canonical_lambda, trace_canonical_syzygy

from carried_marks import arrangements, carried
from conftest import ACCEPTANCE_SIZE
from entry_ideal import trace_n3_decision
from oracles import kernel_is_ng


def announce(line: str):
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def corpus_reports(acceptance_corpus):
    # the elapsed time counts the corpus build, which the session fixture timed
    corpus, build_s = acceptance_corpus
    assert len(corpus) == ACCEPTANCE_SIZE
    t0 = time.time()
    reports = [check_instance(inst) for inst in corpus]
    elapsed = build_s + time.time() - t0
    return reports, elapsed


def test_criterion_1_example_family():
    """Seven-generated family: nearly Gorenstein, never almost Gorenstein."""
    worst = 0.0
    for m in (3, 4, 5, 6, 8, 10):
        t0 = time.time()
        gens = [7, m + 5, 2 * m + 3, 3 * m + 1]
        insts = search_instances((m, 1, 1, 1), (1, 1, 1, 2), 50)
        assert len(insts) == 1, f"m={m}: no validated instance"
        inst = insts[0]
        assert sorted(inst.order) == sorted(gens)
        res = classify_nearly_gorenstein(inst)
        assert res.is_ng, f"m={m}: theorem says not nearly Gorenstein"
        assert not classify_almost_gorenstein(inst), f"m={m}: wrongly almost Gorenstein"
        assert not inst.H.is_almost_symmetric()
        tr_o = trace_canonical_oracle(inst.H)
        tr_l = trace_canonical_lambda(inst)
        assert tr_o == tr_l, f"m={m}: trace methods disagree"
        assert all(tr_o.contains(a) for a in inst.H.generators)
        dt = time.time() - t0
        worst = max(worst, dt)
        assert dt < 5.0, f"m={m}: took {dt:.1f}s, budget 5s"
    announce(f"criterion-1 example-family (6 instances, worst {worst:.2f}s): PASS")


def test_criterion_2_ng_equivalence(corpus_reports):
    """Theorem, trace oracle and row-scan agree on the full corpus."""
    reports, elapsed = corpus_reports
    assert reports, "corpus is empty"
    bad = [
        r
        for r in reports
        if not (r.ng_theorem == r.ng_oracle == r.ng_lambda)
    ]
    assert not bad, f"{len(bad)} disagreements, first: {bad[0].to_json()}"
    assert elapsed < 600, f"corpus run took {elapsed:.0f}s, budget 600s"
    announce(
        f"criterion-2 classification-equivalence ({len(reports)} instances, "
        f"{elapsed:.0f}s): PASS"
    )


def test_criterion_3_trace_equality(corpus_reports):
    reports, _ = corpus_reports
    bad = [r for r in reports if not r.traces_equal]
    assert not bad, f"{len(bad)} trace mismatches, first: {bad[0].to_json()}"
    announce(f"criterion-3 trace-method-equality ({len(reports)} instances): PASS")


def test_criterion_4_three_generator_trace_form(corpus_reports):
    reports, _ = corpus_reports
    threes = [r for r in reports if r.instance.n == 3]
    assert threes
    bad = [r for r in threes if not r.herzog_ok]
    assert not bad, f"{len(bad)} closed-form failures, first: {bad[0].to_json()}"
    announce(f"criterion-4 exponent-trace-form ({len(threes)} instances): PASS")


def test_criterion_5_type_and_ag(corpus_reports):
    reports, _ = corpus_reports
    bad_type = [r for r in reports if not r.type_ok]
    assert not bad_type, f"type != n-1, first: {bad_type[0].to_json()}"
    bad_ag = [r for r in reports if r.ag_theorem != r.ag_nari]
    assert not bad_ag, f"AG disagreement, first: {bad_ag[0].to_json()}"
    # in dimension one almost Gorenstein implies nearly Gorenstein
    ag_not_ng = [r for r in reports if "ag-not-ng" in r.violations()]
    assert not ag_not_ng, f"AG and not NG, first: {ag_not_ng[0].to_json()}"
    announce(f"criterion-5 type-and-almost-symmetry ({len(reports)} instances): PASS")


def test_criterion_6_arithmetic_progression(corpus_reports):
    reports, _ = corpus_reports
    scope = [r for r in reports if r.ng_theorem and not r.ag_theorem]
    assert scope, "no nearly-but-not-almost instances in corpus"
    bad = [r for r in scope if not r.ap_ok]
    assert not bad, f"AP failures, first: {bad[0].to_json()}"
    announce(f"criterion-6 arithmetic-progression ({len(scope)} instances): PASS")


def _allones_bases(n, emax, bound=150):
    out = []
    for ell in product(range(1, emax + 1), repeat=n):
        out.extend(search_instances((1,) * n, ell, bound))
    return out


def _tail_bases(n, emax, bound=150):
    out = []
    for m1 in range(2, emax + 1):
        for tail in product(range(1, emax + 1), repeat=2):
            if max(tail) < 2:
                continue
            m = (m1,) + (1,) * (n - 1)
            ell = (1,) * (n - 2) + tail
            out.extend(search_instances(m, ell, bound))
    return out


def _wrap1(k, n):
    return (k - 1) % n + 1


def _true_cases(base):
    """(I, J, bumpable ell indices) for every tabulated true clause."""
    n = base.n
    ell = base.ell
    kind = base_case_of(base)
    cases = []
    if kind == ALL_ONES:
        for i in range(1, n + 1):
            req = [_wrap1(k, n) for k in range(i, i + n - 2)]
            if all(ell[r - 1] == 1 for r in req):
                cases.append(({i}, set(), req))
        for j in range(1, n + 1):
            req = [_wrap1(k, n) for k in range(j + 1, j + n - 2)]
            if all(ell[r - 1] == 1 for r in req):
                cases.append((set(), {j}, req))
        if n == 4:
            for (i, j) in ((1, 3), (2, 4)):
                req = [_wrap1(i + 1, n), _wrap1(j + 1, n)]
                if all(ell[r - 1] == 1 for r in req):
                    cases.append((set(), {i, j}, req))
            for (i, j) in ((1, 3), (2, 4), (3, 1), (4, 2)):
                req = [i, _wrap1(i + 1, n), _wrap1(j + 1, n)]
                if all(ell[r - 1] == 1 for r in req):
                    cases.append(({i}, {j}, req))
    else:
        cases.append((set(), set(), []))
        cases.append(({1}, set(), []))
        cases.append((set(), {n}, []))
        if ell[n - 1] == 1:
            cases.append(({n}, set(), [n]))
            cases.append((set(), {n - 1}, [n]))
            if n == 4:
                cases.append(({1}, {3}, [4]))
    return cases


def test_criterion_7_witness_table():
    """Every tabulated true case verifies; minimal perturbations go false."""
    t0 = time.time()
    verified = 0
    controls = 0
    bases = []
    for n in (4, 5):
        bases += _allones_bases(n, emax=4)
        bases += _tail_bases(n, emax=4)
    assert bases, "no valid bases for the witness sweep"
    for base in bases:
        n = base.n
        for I, J, bumpable in _true_cases(base):
            hd = HigherDimInstance(base, frozenset(I), frozenset(J))
            res = classify(hd)
            assert res.is_ng, (str(base), I, J, res)
            if not I and not J and base_case_of(base) == ALL_ONES:
                continue  # not tabulated; certified by the dimension-one route
            assert verify_witness(hd, witness_rows(hd)), (str(base), I, J)
            verified += 1

            # control A: enlarge I or J so the clause fails
            if I or J:
                if I:
                    pert = HigherDimInstance(
                        base, frozenset(I), frozenset(set(J) | {next(iter(I))})
                    )
                else:
                    pert = HigherDimInstance(base, frozenset({next(iter(J))}), frozenset(J))
                pres = classify(pert)
                assert not pres.is_ng, (str(base), I, J, "control-add", pres)
                controls += 1

            # control B: bump one clause-required bottom exponent
            for r in bumpable[:1]:
                ell2 = list(base.ell)
                ell2[r - 1] += 1
                pert_base = search_instances(base.m, ell2, 500)
                if not pert_base:
                    continue
                pres = classify(HigherDimInstance(pert_base[0], frozenset(I), frozenset(J)))
                assert not pres.is_ng, (str(pert_base[0]), I, J, "control-bump", pres)
                controls += 1
    elapsed = time.time() - t0
    assert verified >= 30, f"only {verified} table verifications ran"
    assert controls >= 30, f"only {controls} negative controls ran"
    assert elapsed < 300, f"witness sweep took {elapsed:.0f}s, budget 300s"
    announce(
        f"criterion-7 witness-table ({verified} verified, {controls} controls, "
        f"{elapsed:.0f}s): PASS"
    )


def test_criterion_8_n3_both_directions(n3_corpus):
    """Clause classification coincides with entry-ideal membership, exhaustively."""
    t0 = time.time()

    def subsets(s):
        return [frozenset(c) for r in range(4) for c in combinations(s, r)]

    checked = 0
    for base in n3_corpus:
        if base_case_of(base) == OTHER:
            continue
        for I in subsets((1, 2, 3)):
            for J in subsets((1, 2, 3)):
                hd = HigherDimInstance(base, I, J)
                res = classify(hd)
                grb = trace_n3_decision(hd)
                assert res.is_ng == grb, (str(base), sorted(I), sorted(J), res, grb)
                checked += 1
    elapsed = time.time() - t0
    assert checked > 1000
    announce(f"criterion-8 n3-equivalence ({checked} configurations, {elapsed:.0f}s): PASS")


def test_criterion_9_dimension_caps(corpus_reports):
    """Dimension caps for the deformed true cases, plus removal monotonicity."""
    reports, _ = corpus_reports
    caps = {3: 4, 4: 3}
    checked = 0
    true_dims = []
    for r in reports:
        base = r.instance
        if base_case_of(base) == OTHER:
            continue
        n = base.n
        cap = caps.get(n, 2)
        idx = list(range(1, n + 1))
        pairs = [(frozenset(), frozenset())]
        pairs += [(frozenset({i}), frozenset()) for i in idx]
        pairs += [(frozenset(), frozenset({j})) for j in idx]
        pairs += [(frozenset(c), frozenset()) for c in combinations(idx, 2)]
        pairs += [(frozenset(), frozenset(c)) for c in combinations(idx, 2)]
        pairs += [(frozenset({i}), frozenset({j})) for i in idx for j in idx if i != j]
        if n == 3:  # disjoint size-3 markings, the only ones that reach the cap
            pairs += [
                (frozenset(c), frozenset(idx) - frozenset(c))
                for r in range(4)
                for c in combinations(idx, r)
            ]
        results = {}
        for I, J in pairs:
            hd = HigherDimInstance(base, I, J)
            res = classify(hd)
            results[(I, J)] = res.is_ng
            checked += 1
            if res.is_ng:
                dim = hd.dimension()
                true_dims.append(dim)
                assert dim <= cap, (str(base), sorted(I), sorted(J), dim, cap)
        # dropping one marked index can never destroy the property
        for (I, J), ok in results.items():
            if not ok:
                continue
            for i in I:
                assert results[(I - {i}, J)], (str(base), sorted(I), sorted(J), "drop", i)
            for j in J:
                assert results[(I, J - {j})], (str(base), sorted(I), sorted(J), "drop", j)
        # one index past the cap is uniformly false: spot witness per instance.
        # For n >= 4 this is the size >= 3 clause; at n = 3 size 3 is allowed
        # (dimension 4), and size 4 forces I and J to meet.
        if n == 3:
            big = HigherDimInstance(base, frozenset(idx[:2]), frozenset(idx[-2:]))
        else:
            big = HigherDimInstance(base, frozenset(idx[:2]), frozenset({idx[-1]}))
        assert not classify(big).is_ng, (str(base), sorted(big.I), sorted(big.J))
    assert checked > 10000
    announce(
        f"criterion-9 dimension-caps-and-monotonicity ({checked} configurations, "
        f"max true dimension {max(true_dims)}): PASS"
    )


@pytest.fixture(scope="module")
def corpus_classes(corpus_reports) -> list[list]:
    """The corpus reports grouped by dihedral class, in corpus order."""
    classes: dict[tuple, list] = {}
    for r in corpus_reports[0]:
        inst = r.instance
        key = min(sym.apply(inst.order, inst.m, inst.ell) for sym in symmetries(inst.n))
        classes.setdefault(key, []).append(r)
    return list(classes.values())


def test_criterion_10_syzygy_trace(corpus_reports, corpus_classes):
    """Kernel route reproduces the set-arithmetic trace on every corpus semigroup.

    The trace is an invariant of H, so the route runs once per dihedral
    class, on an arrangement that rotates with the class index so that
    every shift and the reversal occur, and its trace joins the report of
    every member of the class, whose violations() compare it with the
    oracle trace.
    """
    reports, _ = corpus_reports
    t0 = time.time()
    worst = 0.0
    used = set()
    for k, members in enumerate(corpus_classes):
        n = members[0].instance.n
        sym = Symmetry(k % n, k // n % 2 == 1)
        used.add((n, sym))
        inst = members[0].instance.rearranged(sym)
        t1 = time.time()
        trace = trace_canonical_syzygy(inst)
        dt = time.time() - t1
        worst = max(worst, dt)
        assert dt < 120, f"{inst}: syzygy trace took {dt:.0f}s, budget 120s"
        bad = [(r.instance, v) for r in members if (v := replace(r, trace_syzygy=trace).violations())]
        assert not bad, f"{inst}: syzygy trace joins reports with violations {bad[0]}"
    ns = {r.instance.n for r in reports}
    assert len(used) == sum(2 * n for n in ns), "some shift or reversal never ran"
    announce(
        f"criterion-10 syzygy-trace ({len(corpus_classes)} semigroups, worst {worst:.2f}s, "
        f"total {time.time()-t0:.0f}s): PASS"
    )


def test_criterion_11_rearrangement_invariance(corpus_classes):
    """A deformed verdict does not depend on the arrangement.

    Once per dihedral class whose base fits a classified block in some
    arrangement, every marking of size 1 to 3 is classified in each such
    arrangement; the verdicts agree.  classify picks its own arrangement,
    so the same verdict comes back from the other arrangements, taken in
    turn, one per marking.
    """
    t0 = time.time()
    classes = pairs = 0
    for members in corpus_classes:
        base = members[0].instance
        fitting, others = [], []
        for arrangement in arrangements(base):
            (others if base_case_of(arrangement[0]) == OTHER else fitting).append(arrangement)
        if not fitting:
            continue
        classes += 1
        n = base.n
        marks = [("I", p) for p in range(1, n + 1)] + [("J", p) for p in range(1, n + 1)]
        markings = [c for size in (1, 2, 3) for c in combinations(marks, size)]
        for k, chosen in enumerate(markings):
            I = [p for side, p in chosen if side == "I"]
            J = [p for side, p in chosen if side == "J"]
            verdicts = {classify(carried(a, I, J)).is_ng for a in fitting}
            assert len(verdicts) == 1, (str(base), I, J)
            pairs += len(fitting)
            if others:
                other = carried(others[k % len(others)], I, J)
                assert {classify(other).is_ng} == verdicts, (str(base), I, J, str(other))
    elapsed = time.time() - t0
    assert classes >= 85  # the classes with a base in a block somewhere
    assert elapsed < 3, f"rearrangement invariance took {elapsed:.1f}s, budget 3s"
    announce(
        f"criterion-11 rearrangement-invariance ({classes} classes, {pairs} in-block "
        f"pairs, {elapsed:.1f}s): PASS"
    )


def _small_markings(n):
    """Every marking with |I|, |J| <= 1, the empty one first."""
    sides = [frozenset()] + [frozenset({p}) for p in range(1, n + 1)]
    return [(I, J) for I in sides for J in sides]


def test_criterion_12_non_ng_base_has_no_ng_deformation(acceptance_corpus, corpus_classes):
    """A base that is not nearly Gorenstein has no nearly Gorenstein deformation.

    classify gives "base(not-ng)" for every marking of such a base (the
    argument is in its docstring), and it finds a block for every other
    base (_fitting_arrangement).  Checked here: a corpus base fits a block
    in some arrangement iff the base theorem calls it nearly Gorenstein;
    every marking with |I|, |J| <= 1 of one base per dihedral class that
    is not NG gives "base(not-ng)"; and the kernel of the deformed ring
    (kernel_is_ng, which reads no clause) says false on a seeded sample of
    such markings across n = 3, 4 and 5, and agrees with classify on every
    size-1 marking of one base per NG class, true on the tabulated ones.
    """
    corpus, _ = acceptance_corpus
    t0 = time.time()
    for base in corpus:
        images = (sym.apply((), base.m, base.ell) for sym in symmetries(base.n))
        fits = any(_block_of(m, ell) != OTHER for _, m, ell in images)
        assert fits == classify_nearly_gorenstein(base).is_ng, str(base)

    markings = 0
    for members in corpus_classes:
        base = members[0].instance
        if members[0].ng_theorem:
            continue
        for I, J in _small_markings(base.n):
            hd = HigherDimInstance(base, I, J)
            assert classify(hd) == HDResult(False, "base(not-ng)", None, hd), str(hd)
            markings += 1

    rng = random.Random(12)
    kernel_false = 0
    for n in (3, 4, 5):
        pool = [b for b in corpus if b.n == n and not classify_nearly_gorenstein(b).is_ng]
        marks = _small_markings(n)[1:]
        for k in rng.sample(range(len(pool) * len(marks)), 1000):
            hd = HigherDimInstance(pool[k // len(marks)], *marks[k % len(marks)])
            assert not classify(hd).is_ng and not kernel_is_ng(hd), str(hd)
            kernel_false += 1

    kernel_true = 0
    for members in corpus_classes:
        base = members[0].instance
        if not members[0].ng_theorem:
            continue
        for I, J in _small_markings(base.n)[1:]:
            if I and J:
                continue
            hd = HigherDimInstance(base, I, J)
            res = classify(hd)
            assert kernel_is_ng(hd) == res.is_ng, (str(hd), res.rule)
            kernel_true += res.is_ng and res.table is not None
    elapsed = time.time() - t0
    assert markings >= 50000 and kernel_false >= 3000 and kernel_true >= 100
    assert elapsed < 15, f"non-NG bases took {elapsed:.1f}s, budget 15s"
    announce(
        f"criterion-12 non-ng-base ({len(corpus)} bases, {markings} markings, kernel false on "
        f"{kernel_false}, true on {kernel_true} tabulated, {elapsed:.1f}s): PASS"
    )
