import math
import random
import tracemalloc
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngtrace.corpus import GRID_CAP, build_corpus, exponent_tuples
from ngtrace.determinantal import (
    DeterminantalInstance,
    NGResult,
    Symmetry,
    _case_a,
    _case_b,
    arithmetic_progression_check,
    build,
    classify_almost_gorenstein,
    classify_nearly_gorenstein,
    cyclic_matrices,
    degree_gaps,
    homogeneity_constant,
    remark_degrees,
    search_instances,
    symmetries,
    validate_defining_ideal,
    wrap,
)
from ngtrace.errors import IdealMismatch, InhomogeneousMatrix, NonMinimalGenerators, ResourceLimit
from ngtrace.groebner import buchberger, toric_ideal, two_minors
from ngtrace.polyring import PolyRing
from ngtrace.semigroup import NumericalSemigroup

from oracles import is_nearly_gorenstein_oracle


def inst_345():
    return build(NumericalSemigroup([3, 4, 5]), (3, 4, 5), (2, 1, 1), (1, 1, 1))


def inst_7890(m=3):
    H = NumericalSemigroup([7, m + 5, 2 * m + 3, 3 * m + 1])
    return build(H, (7, m + 5, 2 * m + 3, 3 * m + 1), (m, 1, 1, 1), (1, 1, 1, 2))


def test_build_345():
    inst = inst_345()
    assert inst.c == 1
    assert inst.n == 3


def test_build_example_family_m3():
    inst = inst_7890()
    assert inst.c == 1
    assert inst.order == (7, 8, 9, 10)


def test_inhomogeneous_rejected_with_columns():
    H = NumericalSemigroup([3, 4, 5])
    with pytest.raises(InhomogeneousMatrix) as exc:
        build(H, (3, 4, 5), (1, 1, 1), (1, 1, 1))
    assert exc.value.offending  # reports which columns disagree
    assert degree_gaps((3, 4, 5), (1, 1, 1), (1, 1, 1)) == [1, 1, -2]


def test_homogeneous_but_wrong_ideal_rejected():
    # constant gap 5 on (3,4,5) with large exponents: minors generate a
    # strictly smaller ideal, and the colength found is reported
    H = NumericalSemigroup([3, 4, 5])
    assert homogeneity_constant((3, 4, 5), (5, 2, 5), (1, 5, 2)) == 5
    report = validate_defining_ideal(H, (3, 4, 5), (5, 2, 5), (1, 5, 2))
    assert not report
    assert report.failing is not None
    with pytest.raises(IdealMismatch):
        build(H, (3, 4, 5), (5, 2, 5), (1, 5, 2))


def test_colength_above_a_n_rejected():
    H = NumericalSemigroup([7, 8, 11, 20])
    report = validate_defining_ideal(H, (20, 7, 8, 11), (1, 1, 1, 1), (1, 3, 3, 3))
    assert report.failing == (
        "colength of the 2-minors + X4 is 22, not a_4 = 11 (g = (prod(m) - prod(ell)) / c = 2)"
    )
    with pytest.raises(IdealMismatch, match="do not generate the defining ideal"):
        build(H, (20, 7, 8, 11), (1, 1, 1, 1), (1, 3, 3, 3))


def test_zero_gap_rejected():
    # every column has gap 0 and prod(m) = prod(ell) = 60, so the test
    # c == prod(m) - prod(ell) alone would accept
    H = NumericalSemigroup([3, 4, 5])
    assert homogeneity_constant((3, 4, 5), (5, 3, 4), (4, 5, 3)) == 0
    with pytest.raises(IdealMismatch, match="degree gap c = 0"):
        build(H, (3, 4, 5), (5, 3, 4), (4, 5, 3))


# -- the colength oracle --------------------------------------------------------
#
# dim_k S/(I_2 + X_n) counted on the reduced Groebner basis of the minors: in
# the weighted revlex order with X_n last, in(I_2 + X_n) = in(I_2) + (X_n)
# (Bayer-Stillman), so the colength is the number of monomials in
# X_1..X_{n-1} outside the leads.  validate_defining_ideal claims it is d_n,
# the last entry of remark_degrees, and decides validity without it.


def _standard_count(leads: list[tuple[int, ...]], nvars: int, cap: int) -> int | None:
    """Monomials in nvars variables divisible by no lead, counted up to cap + 1.

    Returns None when there are infinitely many, that is when some variable
    has no pure power among the leads; otherwise the count, or cap + 1 as
    soon as it passes cap.  The count goes by rows of the staircase: for a
    monomial p in the first nvars - 1 variables, p times x^t (x the last
    variable) is standard iff t is below the least x-exponent of the leads
    whose other fields fit under p, and that least exponent exists, since
    a pure power of x fits under every p.  Standard monomials are closed
    under division, so a depth-first walk over the prefixes that appends
    variables in nondecreasing index order meets each once and may stop at
    the first prefix whose row is empty.
    """
    powers = {sum(1 << i for i, e in enumerate(lm) if e) for lm in leads}
    if any(1 << i not in powers for i in range(nvars)):
        return None
    count = 0
    stack = [((0,) * (nvars - 1), 0)]
    while stack:
        prefix, first = stack.pop()
        row = min(lm[-1] for lm in leads if all(a >= b for a, b in zip(prefix, lm)))
        if not row:
            continue
        count += row
        if count > cap:
            return cap + 1
        for i in range(first, nvars - 1):
            stack.append((prefix[:i] + (prefix[i] + 1,) + prefix[i + 1 :], i))
    return count


def _colength(order, m, ell, cap: int) -> int | None:
    n = len(order)
    ring = PolyRing([f"X{i+1}" for i in range(n)], order)
    D, _ = cyclic_matrices(*([ring.var(i, e) for i, e in enumerate(row)] for row in (m, ell)))
    exps = [ring.exponents(g.lm()) for g in buchberger(two_minors(D))]
    leads = [e[:-1] for e in exps if not e[-1]]
    return _standard_count(leads, n - 1, cap)


def test_standard_count():
    # leads x^2, y^3: the standard monomials are x^i y^j, i < 2, j < 3
    assert _standard_count([(2, 0), (0, 3)], 2, 10) == 6
    assert _standard_count([(2, 0), (0, 3)], 2, 6) == 6
    assert _standard_count([(2, 0), (0, 3)], 2, 4) == 5  # stops one past the cap
    assert _standard_count([(2, 0), (1, 1), (0, 3)], 2, 10) == 4
    # no power of y among the leads: infinitely many, rejected at once
    assert _standard_count([(2, 0), (1, 1)], 2, 10) is None
    assert _standard_count([], 2, 10) is None
    # one variable: its pure power's exponent
    assert _standard_count([(3,)], 1, 10) == 3


def test_standard_count_by_rows_matches_every_monomial():
    # the count by rows of the staircase against a count of every monomial
    # in the box under the pure powers, on seeded lead sets in 3 variables
    rng = random.Random(7)
    for _ in range(200):
        box = [rng.randint(1, 4) for _ in range(3)]
        leads = [tuple(b if i == j else 0 for j in range(3)) for i, b in enumerate(box)]
        leads += [tuple(rng.randint(0, b) for b in box) for _ in range(rng.randint(0, 4))]
        leads = [e for e in leads if any(e)]
        want = sum(
            not any(all(a >= b for a, b in zip(mono, lm)) for lm in leads)
            for mono in product(*(range(b) for b in box))
        )
        assert _standard_count(leads, 3, 10**6) == want, leads
        assert _standard_count(leads, 3, want - 1) == want, leads


def _reaches_validation(n, m, ell):
    """The candidate generators of a corpus tuple (exponents <= 3, bound 150)
    when it reaches validation: nondegenerate, distinct and minimal."""
    if math.prod(m) == math.prod(ell):
        return None
    d = remark_degrees(m, ell)
    order = tuple(x // math.gcd(*d) for x in d)
    if max(order) > 150 or len(set(order)) != n:
        return None
    try:
        NumericalSemigroup(order)
    except ValueError:
        return None
    return order


def _candidates(n):
    """(order, m, ell) of every corpus tuple that reaches validation."""
    return [
        (order, m, ell)
        for m, ell in exponent_tuples(n, 3)
        if (order := _reaches_validation(n, m, ell)) is not None
    ]


def _class_candidates(n):
    """(order, m, ell) of the first tuple of every dihedral class of the
    corpus grid that reaches validation, as build_corpus searches them."""
    positions = tuple(range(n))
    seen = set()
    out = []
    for m, ell in exponent_tuples(n, 3):
        key = min(sym.apply(positions, m, ell)[1:] for sym in symmetries(n))
        if key in seen:
            continue
        seen.add(key)
        order = _reaches_validation(n, m, ell)
        if order is not None:
            out.append((order, m, ell))
    return out


def test_colength_is_d_n_and_decides_validity():
    classes = [c for n in (3, 4, 5) for c in _class_candidates(n)]
    assert len(classes) == 3914
    valid = 0
    for order, m, ell in classes:
        d_n = remark_degrees(m, ell)[-1]
        colength = _colength(order, m, ell, d_n)
        assert colength == d_n, (order, m, ell)
        verdict = bool(validate_defining_ideal(NumericalSemigroup(order), order, m, ell))
        assert verdict == (colength == order[-1]), (order, m, ell)
        valid += verdict
    assert valid == 2104


def _toric_verdict(order, m, ell) -> bool:
    """The saturation route: the minors generate the toric ideal iff every
    element of its reduced basis lies in the ideal of the minors."""
    ring = PolyRing([f"X{i+1}" for i in range(len(order))], order)
    D, _ = cyclic_matrices(*([ring.var(i, e) for i, e in enumerate(row)] for row in (m, ell)))
    minors = two_minors(D)
    gb_minors = buchberger(minors)
    gb_toric = toric_ideal(order, seed=minors)
    return gb_toric.polys == gb_minors.polys or all(gb_minors.contains(p) for p in gb_toric)


def test_colength_verdict_matches_toric_route():
    n3, n4 = _candidates(3), _candidates(4)
    assert (len(n3), len(n4)) == (522, 4256)
    for order, m, ell in n3 + n4[::8]:
        H = NumericalSemigroup(order)
        assert bool(validate_defining_ideal(H, order, m, ell)) == _toric_verdict(order, m, ell), (
            order, m, ell,
        )


def test_build_corpus_matches_per_tuple_search():
    per_tuple = [
        inst for n in (3, 4) for m, ell in exponent_tuples(n, 3) for inst in search_instances(m, ell, 150)
    ]
    assert len(per_tuple) == 444 + 2960
    assert build_corpus(ns=(3, 4)) == per_tuple
    # the search assembles what build would give on the same data
    assert all(inst == DeterminantalInstance.from_json(inst.to_json()) for inst in per_tuple)


@pytest.mark.parametrize("n, sample, seed", [(4, 1500, 11), (5, 4000, 12)])
def test_sampled_build_corpus_matches_per_tuple_search(n, sample, seed):
    # orbit images filed for tuples outside the sample must stay out
    drawn = random.Random(seed).sample(list(exponent_tuples(n, 3)), sample)
    per_tuple = [inst for m, ell in drawn for inst in search_instances(m, ell, 150)]
    assert per_tuple
    assert build_corpus(ns=(n,), seed=seed, sample=sample) == per_tuple


@pytest.mark.parametrize(
    "n, emax, seed, k", [(3, 3, 11, 120), (4, 2, 0, 50), (3, 3, None, 700), (4, 3, 5, 6000)]
)
def test_seeded_sample_draws_the_listed_grid_sample(monkeypatch, n, emax, seed, k):
    # with the identity as the only symmetry every drawn tuple is searched,
    # in the order drawn; the oracle lists the whole grid and samples it
    searched = []
    monkeypatch.setattr("ngtrace.corpus.symmetries", lambda n: (Symmetry(0),))
    monkeypatch.setattr(
        "ngtrace.corpus.search_instances", lambda m, ell, bound: searched.append((m, ell)) or []
    )
    assert build_corpus(ns=(n,), emax=emax, seed=seed, sample=k) == []
    assert searched == random.Random(0 if seed is None else seed).sample(list(exponent_tuples(n, emax)), k)


def test_sample_marks_no_grid():
    # the n = 12, emax = 2 grid has 2^24 tuples: a mark per grid index would
    # take 16 MB, and a sample of five tuples needs a few of them
    tracemalloc.start()
    try:
        build_corpus(ns=(12,), emax=2, seed=1, sample=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_grid_cap_raises_before_any_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched a tuple of a grid over the cap")

    monkeypatch.setattr("ngtrace.corpus.search_instances", no_search)
    # 3^40, 100000^6, 2^26 and 3^(2 * 10^9) tuples are over the cap, and
    # the last power is never formed; n = 3 before n = 20 is not searched
    # either.  2^24 tuples, at the cap, and n = 7 at exponent <= 3 fit
    for ns, emax in (((3, 20), 3), ((3,), 100000), ((13,), 2), ((10**9,), 3)):
        with pytest.raises(ResourceLimit, match=f"exceed cap {GRID_CAP}"):
            build_corpus(ns=ns, emax=emax)
    assert GRID_CAP == 2**24
    assert build_corpus(ns=(6, 7, 12), emax=2, sample=0) == []
    assert build_corpus(ns=(7,), emax=3, sample=0) == []


def test_repeated_size_raises_before_any_search(monkeypatch):
    # a size named twice would have its grid searched, and its instances
    # listed, once per naming
    def no_search(*args):
        raise AssertionError("searched a tuple of a corpus with a repeated size")

    monkeypatch.setattr("ngtrace.corpus.search_instances", no_search)
    for ns in ((3, 3), (3, 4, 3)):
        with pytest.raises(ValueError, match="n = 3 is repeated"):
            build_corpus(ns=ns, emax=2)


def test_build_validates_order_is_arrangement():
    H = NumericalSemigroup([3, 4, 5])
    with pytest.raises(ValueError):
        build(H, (3, 4, 6), (2, 1, 1), (1, 1, 1))


def test_search_finds_345():
    insts = search_instances((2, 1, 1), (1, 1, 1), 50)
    assert len(insts) == 1
    assert insts[0].H == NumericalSemigroup([3, 4, 5])
    assert insts[0].c == 1


def test_search_finds_example_family():
    insts = search_instances((3, 1, 1, 1), (1, 1, 1, 2), 50)
    assert len(insts) == 1
    assert insts[0].order == (7, 8, 9, 10)


def test_search_degenerate_empty():
    assert search_instances((1, 1, 1), (1, 1, 1), 50) == []


def test_search_bound_cap():
    with pytest.raises(ValueError):
        search_instances((2, 1, 1), (1, 1, 1), 501)


def test_remark_degrees_all_ones():
    assert remark_degrees((1, 1, 1, 1), (1, 1, 1, 1)) == [4, 4, 4, 4]


def test_remark_degrees_example():
    assert remark_degrees((3, 1, 1, 1), (1, 1, 1, 2)) == [7, 8, 9, 10]


def _remark_degrees_oracle(m, ell) -> list[int]:
    """The closed form of remark_degrees summed term by term: O(n^3)."""
    n = len(m)
    degs = []
    for i in range(1, n + 1):
        total = 0
        for j in range(1, n + 1):
            prod_m = 1
            for k in range(i + 1, i + j):
                prod_m *= m[wrap(k, n) - 1]
            prod_l = 1
            for k in range(i + j, i + n):
                prod_l *= ell[wrap(k, n) - 1]
            total += prod_m * prod_l
        degs.append(total)
    return degs


def test_remark_degrees_match_the_closed_form_on_the_grid():
    for n in (3, 4):
        for m, ell in exponent_tuples(n, 3):
            assert remark_degrees(m, ell) == _remark_degrees_oracle(m, ell), (m, ell)


@given(
    st.integers(min_value=3, max_value=7).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, 9), min_size=n, max_size=n),
            st.lists(st.integers(1, 9), min_size=n, max_size=n),
            st.booleans(),
        )
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_remark_degrees_match_the_closed_form(data, rng):
    # with degenerate set, ell is a shuffle of m, so prod(m) = prod(ell) and
    # the cyclic conditions no longer pin d: the recurrence must still give
    # the closed form's vector
    m, ell, degenerate = data
    if degenerate:
        ell = rng.sample(m, len(m))
    assert remark_degrees(m, ell) == _remark_degrees_oracle(m, ell)


def test_rejected_candidates_build_no_semigroup(monkeypatch):
    built, verdicts = [], []

    def counting_semigroup(gens):
        built.append(tuple(gens))
        return NumericalSemigroup(gens)

    def recording_validation(H, order, m, ell):
        report = validate_defining_ideal(H, order, m, ell)
        verdicts.append(bool(report))
        return report

    monkeypatch.setattr("ngtrace.determinantal.NumericalSemigroup", counting_semigroup)
    monkeypatch.setattr("ngtrace.determinantal.validate_defining_ideal", recording_validation)
    # the candidate <3, 4, 5> is a numerical semigroup, but the colength of
    # the minors + X3 is 10, not 5: validation rejects it before it is built
    assert search_instances((1, 1, 2), (2, 3, 1), 50) == []
    assert verdicts == [False] and built == []
    found = 0
    for m, ell in exponent_tuples(3, 3):
        del built[:], verdicts[:]
        found += len(search_instances(m, ell, 150))
        # one validation per candidate, and a semigroup only once it passed
        assert len(verdicts) <= 1
        accepted = bool(verdicts) and verdicts[0]
        assert len(built) == accepted, (m, ell)
    assert found == 444


def _nonminimal_candidates(n: int, stride: int):
    """Grid candidates (m, ell, order) that pass the degenerate, bound and
    distinctness tests of search_instances but whose generators are not
    minimal, over every stride-th exponent tuple with exponents <= 3."""
    for m, ell in islice(exponent_tuples(n, 3), 0, None, stride):
        if math.prod(m) == math.prod(ell):
            continue
        d = remark_degrees(m, ell)
        order = tuple(x // math.gcd(*d) for x in d)
        if max(order) > 150 or len(set(order)) != n:
            continue
        try:
            NumericalSemigroup(order)
        except NonMinimalGenerators:
            yield m, ell, order


@pytest.mark.parametrize("n, stride, count", [(3, 1, 60), (4, 1, 1224), (5, 13, 1062)])
def test_validation_refuses_every_nonminimal_candidate(n, stride, count):
    # search_instances builds the semigroup after validation and lets
    # NonMinimalGenerators surface: validation proves minimality (see its
    # docstring), which this checks on the grid
    found = list(_nonminimal_candidates(n, stride))
    assert len(found) == count
    assert not any(validate_defining_ideal(None, order, m, ell) for m, ell, order in found)


def test_pseudo_frobenius_numbers_from_the_presentation(acceptance_corpus):
    # PF(H) = {sum_j l_j a_j + k c - sum_i a_i : k = 1, ..., n - 1}, the
    # shifts of the last module of the Eagon-Northcott resolution, so the
    # type is n - 1: an oracle for the sieve's PF numbers that reads only
    # the presentation
    corpus, _ = acceptance_corpus
    for inst in corpus:
        base = sum(e * a for e, a in zip(inst.ell, inst.order)) - sum(inst.order)
        expected = sorted(base + k * inst.c for k in range(1, inst.n))
        assert inst.H.pseudo_frobenius() == expected, inst


@given(
    st.integers(min_value=3, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, 4), min_size=n, max_size=n),
            st.lists(st.integers(1, 4), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_remark_degrees_solve_the_cyclic_conditions(data):
    m, ell = data
    n = len(m)
    d = remark_degrees(m, ell)
    prod_m = 1
    prod_l = 1
    for x in m:
        prod_m *= x
    for x in ell:
        prod_l *= x
    for i in range(n):
        assert m[(i + 1) % n] * d[(i + 1) % n] - ell[i] * d[i] == prod_m - prod_l


def test_classification_345():
    res = classify_nearly_gorenstein(inst_345())
    assert res.is_ng and res.case == "B"
    assert res.symmetry == Symmetry(0, False)
    assert classify_almost_gorenstein(inst_345())


def test_classification_example_family():
    inst = inst_7890()
    res = classify_nearly_gorenstein(inst)
    assert res.is_ng and res.case == "B"
    assert not classify_almost_gorenstein(inst)


def test_classification_negative():
    insts = search_instances((1, 1, 2), (1, 1, 3), 150)
    assert insts and insts[0].H == NumericalSemigroup([3, 7, 8])
    res = classify_nearly_gorenstein(insts[0])
    assert not res.is_ng
    assert not is_nearly_gorenstein_oracle(insts[0].H)


def test_case_a_found_under_reversal():
    # identity arrangement has a top exponent 2; only the reversal shows all ones
    inst = inst_345()
    rev = Symmetry(0, True)
    _, m, _ = rev.apply(inst.order, inst.m, inst.ell)
    assert all(x == 1 for x in m)


def test_symmetries_scan_order():
    # the first symmetry that shows a case is the one classify reports
    assert symmetries(3) == (
        Symmetry(0), Symmetry(1), Symmetry(2), Symmetry(0, True), Symmetry(1, True), Symmetry(2, True)
    )
    for n in (3, 4, 5):
        order, m, ell = tuple(range(n)), tuple(range(10, 10 + n)), tuple(range(20, 20 + n))
        expected = [(order[s:] + order[:s], m[s:] + m[:s], ell[s:] + ell[:s]) for s in range(n)]
        order, m, ell = order[::-1], ell[::-1], m[::-1]
        expected += [(order[s:] + order[:s], m[s:] + m[:s], ell[s:] + ell[:s]) for s in range(n)]
        assert [sym.apply(*expected[0]) for sym in symmetries(n)] == expected


def test_symmetries_preserve_validity():
    for inst in (inst_345(), inst_7890()):
        for sym in symmetries(inst.n):
            order, m, ell = sym.apply(inst.order, inst.m, inst.ell)
            rebuilt = build(inst.H, order, m, ell)
            expected_c = -inst.c if sym.reversed else inst.c
            assert rebuilt.c == expected_c


def test_symmetry_maps_matrix_to_matrix_symbolically():
    # entries tracked as (original variable index, exponent family) pairs:
    # the reversed-and-relabeled matrix must consist of the old columns with
    # top and bottom swapped, for every n
    for n in (3, 4, 5, 6):
        old_cols = {
            frozenset([(i % n + 1, "m"), (i, "l")]) for i in range(1, n + 1)
        }
        new_cols = []
        for k in range(1, n + 1):
            kk = k % n + 1  # the cyclic successor [k+1]
            # new top entry comes from the old bottom family at n+1-[k+1],
            # new bottom from the old top family at n+1-k
            new_cols.append(frozenset([(n + 1 - kk, "l"), (n + 1 - k, "m")]))
        assert set(new_cols) == old_cols
        assert len(set(new_cols)) == n


def test_classification_invariant_under_symmetries(small_corpus):
    rng = random.Random(7)
    sample = rng.sample(small_corpus, min(25, len(small_corpus)))
    for inst in sample:
        base_ng = classify_nearly_gorenstein(inst).is_ng
        base_ag = classify_almost_gorenstein(inst)
        for sym in symmetries(inst.n):
            order, m, ell = sym.apply(inst.order, inst.m, inst.ell)
            moved = build(inst.H, order, m, ell)
            assert classify_nearly_gorenstein(moved).is_ng == base_ng
            assert classify_almost_gorenstein(moved) == base_ag


def _scan_oracle(m, ell) -> NGResult:
    """The dihedral scan on the rearranged exponents, as classify ran it
    before it tested bit masks."""
    for sym in symmetries(len(m)):
        _, mm, ll = sym.apply((), m, ell)
        if _case_a(mm):
            return NGResult(True, "A", sym)
        if _case_b(mm, ll):
            return NGResult(True, "B", sym)
    return NGResult(False)


@pytest.mark.parametrize("n, exponents", [(3, (1, 2, 3)), (4, (1, 2, 3)), (5, (1, 2, 3)), (6, (1, 2))])
def test_classification_matches_the_scan_oracle(n, exponents):
    # the verdict, the case and the first symmetry in scan order; the
    # classifier reads only the exponents, so the instance need not be valid
    positions = tuple(range(n))
    for m in product(exponents, repeat=n):
        for ell in product(exponents, repeat=n):
            inst = DeterminantalInstance(None, positions, m, ell, 0)
            assert classify_nearly_gorenstein(inst) == _scan_oracle(m, ell), (m, ell)


def test_arithmetic_progression_examples():
    assert arithmetic_progression_check(inst_7890())
    assert arithmetic_progression_check(inst_345())


def test_scan_presentations_finds_both_forms():
    # every presentation of <3, 4, 5> with exponents <= 2
    H = NumericalSemigroup([3, 4, 5])
    found = [
        inst
        for m, ell in exponent_tuples(3, 2)
        for inst in search_instances(m, ell, max(H.generators))
        if inst.H == H
    ]
    assert any(i.m == (2, 1, 1) for i in found)
    # the reversed presentation shows up as its own exponent tuple
    assert any(all(x == 1 for x in i.m) for i in found)


@given(
    st.integers(min_value=3, max_value=7).flatmap(
        lambda n: st.tuples(*[st.lists(st.sampled_from((1, 1, 1, 2, 3)), min_size=n, max_size=n)] * 2)
    )
)
@settings(max_examples=200, deadline=None)
def test_almost_gorenstein_closed_form_matches_scan(exponents):
    m, ell = map(tuple, exponents)
    positions = tuple(range(len(m)))
    scan = any(all(x == 1 for x in sym.apply(positions, m, ell)[1]) for sym in symmetries(len(m)))
    # the classifier reads only the exponents, so the instance need not be valid
    inst = DeterminantalInstance(None, positions, m, ell, 0)
    assert classify_almost_gorenstein(inst) == scan


def test_json_round_trip():
    inst = inst_7890()
    again = DeterminantalInstance.from_json(inst.to_json())
    assert again.order == inst.order and again.m == inst.m and again.ell == inst.ell
