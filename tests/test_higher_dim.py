from itertools import combinations

import pytest

from ngtrace.determinantal import Symmetry, build, classify_nearly_gorenstein, search_instances, symmetries
from ngtrace.errors import NoTabulatedWitness, WitnessFailed
from ngtrace.groebner import buchberger, two_minors
from ngtrace.higher_dim import (
    ALL_ONES,
    OTHER,
    TAIL,
    HDResult,
    HigherDimInstance,
    _uncovered_variable,
    base_case_of,
    build_matrices,
    classify,
    verify_witness,
    witness_rows,
)
from ngtrace.polyring import PolyRing, Polynomial
from ngtrace.semigroup import NumericalSemigroup

from carried_marks import arrangements, carried
from conftest import ACCEPTANCE_SIZE
from entry_ideal import trace_n3, trace_n3_decision
from oracles import first_fitting_arrangement


def tail_n4():
    return search_instances((3, 1, 1, 1), (1, 1, 1, 2), 50)[0]


def tail_n4_l41():
    return search_instances((3, 1, 1, 1), (1, 1, 2, 1), 80)[0]


def allones_n4():
    return search_instances((1, 1, 1, 1), (2, 1, 1, 1), 80)[0]


def allones_n3():
    return search_instances((1, 1, 1), (1, 2, 2), 50)[0]


def tail_n3():
    return search_instances((2, 1, 1), (1, 1, 1), 50)[0]


def subsets(universe, sizes):
    for r in sizes:
        yield from (frozenset(c) for c in combinations(universe, r))


def test_base_case_detection():
    assert base_case_of(allones_n4()) == ALL_ONES
    assert base_case_of(tail_n4()) == TAIL
    assert base_case_of(tail_n3()) == TAIL
    other = search_instances((1, 1, 2), (1, 1, 3), 150)[0]
    assert base_case_of(other) == OTHER


def test_dimension():
    inst = tail_n4()
    assert HigherDimInstance(inst).dimension() == 1
    assert HigherDimInstance(inst, frozenset({1}), frozenset({3})).dimension() == 3
    hd = HigherDimInstance(inst, frozenset({1, 2, 3, 4}), frozenset({1}))
    assert hd.dimension() == inst.n + 2


def test_index_bounds_checked():
    with pytest.raises(ValueError):
        HigherDimInstance(tail_n4(), frozenset({5}), frozenset())


def test_matrix_shapes_and_specialization():
    hd = HigherDimInstance(tail_n4())
    D, M = build_matrices(hd)
    n = hd.n
    assert len(D) == 2 and len(D[0]) == n
    assert len(M) == n - 1 and len(M[0]) == n * (n - 2)
    assert str(D[0][n - 1]) == "X1^3"  # undeformed top corner
    hd2 = HigherDimInstance(tail_n4(), frozenset({1}), frozenset({3}))
    D2, M2 = build_matrices(hd2)
    assert str(D2[0][n - 1]) == "X1^3 + Y1"
    assert str(D2[1][2]) == "X3 + Z3"


def test_matrix_columns_homogeneous():
    for base, I, J in (
        (tail_n4(), {1}, set()),
        (allones_n4(), {2}, {4}),
        (tail_n3(), {1}, {2}),
    ):
        hd = HigherDimInstance(base, frozenset(I), frozenset(J))
        D, M = build_matrices(hd)
        ring = hd.ring
        for row in D:
            for p in row:
                assert p.is_homogeneous()
        for col in range(len(M[0])):
            degs = {
                ring.wdeg(p.lm()) - (0 if k == 0 else 0)
                for k, p in enumerate(r[col] for r in M)
                if not p.is_zero()
            }  # column entries of a graded presentation share target shifts
            tops = [M[k][col] for k in range(hd.n - 1) if not M[k][col].is_zero()]
            assert len(tops) == 2
            assert abs(ring.wdeg(tops[0].lm()) - ring.wdeg(tops[1].lm())) == abs(base.c)


def test_classify_n3_allones_rules():
    base = allones_n3()  # ell = (1, 2, 2) in presentation order
    assert base_case_of(base) == ALL_ONES
    # NG iff I and J disjoint and ell_i = 1 for i in I
    hd = HigherDimInstance(base, frozenset({1}), frozenset())
    assert classify(hd).is_ng  # ell_1 = 1
    assert not classify(HigherDimInstance(base, frozenset({2}), frozenset())).is_ng
    assert not classify(HigherDimInstance(base, frozenset({1}), frozenset({1}))).is_ng
    assert classify(HigherDimInstance(base, frozenset(), frozenset({1, 2, 3}))).is_ng
    assert classify(HigherDimInstance(base, frozenset({1}), frozenset({2, 3}))).is_ng


def test_classify_n3_tail_rules():
    base = tail_n3()
    hd = HigherDimInstance(base, frozenset(), frozenset({1}))
    res = classify(hd)
    assert not res.is_ng and res.rule == "n3-tail"
    assert classify(HigherDimInstance(base, frozenset({1}), frozenset())).is_ng
    assert classify(HigherDimInstance(base, frozenset(), frozenset({2}))).is_ng
    assert not classify(HigherDimInstance(base, frozenset({2}), frozenset({2}))).is_ng


def test_classify_non_ng_base_is_false_for_every_marking():
    # the base fits no block in any arrangement and is not nearly
    # Gorenstein, so every marking, the empty one too, is false in the
    # given arrangement, with no witness
    other = search_instances((1, 1, 2), (1, 1, 3), 150)[0]
    sides = [frozenset(c) for size in range(4) for c in combinations((1, 2, 3), size)]
    for I in sides:
        for J in sides:
            hd = HigherDimInstance(other, I, J)
            res = classify(hd)
            assert res == HDResult(False, "base(not-ng)", None, hd)
            with pytest.raises(NoTabulatedWitness, match="not nearly Gorenstein"):
                res.witness_rows()


def test_classify_scans_the_arrangements():
    # a base in a block as given keeps its arrangement
    hd = HigherDimInstance(tail_n3(), frozenset({2}), frozenset())
    res = classify(hd)
    assert res.rule == "n3-tail" and res.symmetry is None and res.instance == hd
    # a base in no block as given (the tail block after shift(2)): the first
    # fitting symmetry carries I along
    base = build(NumericalSemigroup([3, 4, 5]), (4, 5, 3), (1, 1, 2), (1, 1, 1))
    assert base_case_of(base) == OTHER
    res = classify(HigherDimInstance(base, frozenset({1}), frozenset()))
    assert res.symmetry == Symmetry(2, False) and res.rule == "n3-tail"
    assert res.instance == HigherDimInstance(base.rearranged(res.symmetry), frozenset({2}), frozenset())
    # the base theorem: the instance is the base in the arrangement it names
    res = classify(HigherDimInstance(base))
    assert res.rule == "base(B)" and res.symmetry == Symmetry(2, False)
    assert res.instance == HigherDimInstance(base.rearranged(res.symmetry))
    # reversal swaps the markings: I = {2} becomes J = {3}
    base = build(NumericalSemigroup([4, 5, 6, 7]), (5, 6, 7, 4), (1, 1, 1, 2), (1, 1, 1, 1))
    res = classify(HigherDimInstance(base, frozenset({2}), frozenset()))
    assert res.symmetry == Symmetry(0, True) and res.rule == "allones(1b)"
    assert res.instance.I == frozenset() and res.instance.J == frozenset({3})


def test_arrangement_is_the_first_that_fits(acceptance_corpus):
    # classify reads the arrangement off the base theorem's scan, taking
    # the reversal where that scan names case B with every l_r = 1; on every
    # nearly Gorenstein base of the corpus it is the first fitting one
    corpus, _ = acceptance_corpus
    counts = {"ng": 0, "moved": 0, "reversal": 0}
    for base in corpus:
        theorem = classify_nearly_gorenstein(base)
        if not theorem.is_ng:
            continue
        hd = HigherDimInstance(base, frozenset({1}), frozenset())
        sym = classify(hd).symmetry
        assert sym == first_fitting_arrangement(hd), base
        counts["ng"] += 1
        counts["moved"] += sym is not None
        counts["reversal"] += sym is not None and sym != theorem.symmetry
    assert counts == {"ng": 750, "moved": 436, "reversal": 14}


def test_rearranged_carries_every_marking():
    # sym.apply on the mark indicators against marks that follow their variables
    other = build(NumericalSemigroup([3, 4, 5]), (4, 5, 3), (1, 1, 2), (1, 1, 1))
    assert base_case_of(other) == OTHER
    allones_n5 = search_instances((1, 1, 1, 1, 1), (2, 1, 1, 1, 1), 50)[0]
    checked = 0
    for base in (tail_n3(), other, allones_n3(), tail_n4(), allones_n4(), allones_n5):
        marks = [("I", p) for p in range(1, base.n + 1)] + [("J", p) for p in range(1, base.n + 1)]
        for chosen in (c for size in (0, 1, 2) for c in combinations(marks, size)):
            I = frozenset(p for side, p in chosen if side == "I")
            J = frozenset(p for side, p in chosen if side == "J")
            hd = HigherDimInstance(base, I, J)
            for sym, arrangement in zip(symmetries(base.n), arrangements(base)):
                assert hd.rearranged(sym) == carried(arrangement, I, J), (str(hd), sym)
                checked += 1
    assert checked == 3 * 6 * 22 + 2 * 8 * 37 + 10 * 56


def test_n4_allones_clauses():
    base = allones_n4()  # presentation ell = (2, 1, 1, 1)
    cases = {
        (frozenset({2}), frozenset()): True,
        (frozenset({1}), frozenset()): False,
        (frozenset(), frozenset({1})): True,
        (frozenset(), frozenset({4})): False,
        (frozenset(), frozenset({1, 3})): True,
        (frozenset(), frozenset({2, 4})): False,
        (frozenset({3}), frozenset({1})): True,
        (frozenset({1}), frozenset({3})): False,
        (frozenset({2, 3}), frozenset()): False,
        (frozenset({2}), frozenset({1, 3})): False,
    }
    for (I, J), expected in cases.items():
        assert classify(HigherDimInstance(base, I, J)).is_ng == expected, (I, J)


def test_n4_tail_clauses():
    base = tail_n4()  # ell_4 = 2
    assert classify(HigherDimInstance(base, frozenset({1}), frozenset())).is_ng
    assert not classify(HigherDimInstance(base, frozenset({4}), frozenset())).is_ng
    assert classify(HigherDimInstance(base, frozenset(), frozenset({4}))).is_ng
    assert not classify(HigherDimInstance(base, frozenset(), frozenset({3}))).is_ng
    assert not classify(HigherDimInstance(base, frozenset({1}), frozenset({3}))).is_ng
    base2 = tail_n4_l41()  # ell_4 = 1
    assert classify(HigherDimInstance(base2, frozenset({4}), frozenset())).is_ng
    assert classify(HigherDimInstance(base2, frozenset(), frozenset({3}))).is_ng
    assert classify(HigherDimInstance(base2, frozenset({1}), frozenset({3}))).is_ng
    assert not classify(HigherDimInstance(base2, frozenset({1, 4}), frozenset())).is_ng


def test_witness_verification_all_tabulated_n4():
    combos = [
        (allones_n4(), {2}, set()),
        (allones_n4(), {3}, set()),
        (allones_n4(), set(), {1}),
        (allones_n4(), set(), {2}),
        (allones_n4(), set(), {1, 3}),
        (allones_n4(), {3}, {1}),
        (tail_n4(), {1}, set()),
        (tail_n4(), set(), {4}),
        (tail_n4_l41(), {4}, set()),
        (tail_n4_l41(), set(), {3}),
        (tail_n4_l41(), {1}, {3}),
        (tail_n4(), set(), set()),
    ]
    for base, I, J in combos:
        hd = HigherDimInstance(base, frozenset(I), frozenset(J))
        assert classify(hd).is_ng, (I, J)
        assert verify_witness(hd, witness_rows(hd)), (I, J)


def test_witness_rows_cover_new_variables():
    hd = HigherDimInstance(tail_n4(), frozenset({1}), frozenset())
    rows = witness_rows(hd)
    texts = {str(p) for row in rows for p in row}
    assert "X1^3 + Y1" in texts


def test_no_tabulated_witness_for_allones_base():
    hd = HigherDimInstance(allones_n4())
    assert classify(hd).is_ng
    with pytest.raises(NoTabulatedWitness, match="decided by the dimension-one theorem, not checked here"):
        witness_rows(hd)


def _n3_true_configs(base):
    for I in subsets((1, 2, 3), range(4)):
        for J in subsets((1, 2, 3), range(4)):
            hd = HigherDimInstance(base, I, J)
            if classify(hd).is_ng:
                yield hd


def _verified_or_untabulated(hd):
    """True when the tabulated rows verify, False when no table covers hd."""
    try:
        rows = witness_rows(hd)
    except NoTabulatedWitness:
        return False
    return verify_witness(hd, rows)


def test_n3_witness_rows_verify_or_defer(n3_corpus):
    # at n = 3 the tables reach exactly the base theorem's case B with no
    # marks (the tail rows of the base) and one marked index, in the
    # all-ones block or off index 2 (in the decided arrangement); every
    # other true case is declined, never sent into a general-n row that
    # cannot hold
    fits = [b for b in n3_corpus if any(base_case_of(b.rearranged(s)) != OTHER for s in symmetries(3))]
    outcomes = []
    for hd in (hd for b in [allones_n3(), tail_n3()] + fits for hd in _n3_true_configs(b)):
        res = classify(hd)
        marks = sorted(res.instance.I) + sorted(res.instance.J)
        if marks:
            reach = len(marks) == 1 and (res.instance.base_case == ALL_ONES or marks != [2])
        else:
            reach = res.rule == "base(B)"
        outcomes.append(_verified_or_untabulated(hd))
        assert outcomes[-1] == reach, str(hd)
    assert any(outcomes) and not all(outcomes)


def test_perturbed_witness_fails():
    hd = HigherDimInstance(tail_n4(), frozenset({1}), frozenset())
    rows = witness_rows(hd)
    bad = [list(r) for r in rows]
    bad[0][1] = bad[0][1] + hd.ring.var_named("X1")
    with pytest.raises(WitnessFailed):
        verify_witness(hd, [tuple(r) for r in bad])


def _repacked(ring, p):
    """p with its exponents packed as terms of ring, which has p's leading variables."""
    out = ring.zero()
    for t, c in p.terms.items():
        out = out + ring.monomial(p.ring.exponents(t)[: ring.nvars], c)
    return out


@pytest.mark.parametrize("how", ["relabelled", "repacked", "base-ring"])
def test_witness_rows_over_another_ring_are_refused(how):
    # packed terms of two rings do not multiply: read in the instance's
    # layout, rows relabelled with a ring of doubled weights verify, and rows
    # repacked in it or in the base ring leave nonsense remainders
    res = classify(HigherDimInstance(tail_n4(), frozenset({1}), frozenset()))
    rows, ring = res.witness_rows(), res.instance.ring
    doubled = PolyRing(list(ring.names), [2 * w for w in ring.weights])
    if how == "relabelled":
        rows = [tuple(Polynomial(doubled, p.terms) for p in row) for row in rows]
    elif how == "repacked":
        rows = [tuple(_repacked(doubled, p) for p in row) for row in rows]
    else:  # the rows free of the deformation variable fit the base ring
        base = res.instance.base.ring
        rows = [tuple(_repacked(base, p) for p in row) for row in rows[:2]]
    assert res.verify(res.witness_rows())
    with pytest.raises(ValueError, match="row entry over") as exc:
        res.verify(rows)
    assert not isinstance(exc.value, WitnessFailed)


def test_zero_witness_rows_fail_the_cover_check():
    # f.M vanishes for a row of zeros, so only the cover check can refuse it
    hd = HigherDimInstance(tail_n4(), frozenset({1}), frozenset())
    with pytest.raises(WitnessFailed, match="variable X1 not generated"):
        verify_witness(hd, [(hd.ring.zero(),) * (hd.n - 1)] * 2)


def _outside(gb):
    """The first variable the polynomial-ring ideal of gb does not hold, or None."""
    return next((name for name in gb.ring.names if not gb.contains(gb.ring.var_named(name))), None)


def test_cover_by_linear_parts_matches_groebner_oracle(acceptance_corpus):
    # the cover check asks the local ring, whose answer is the span of the
    # entries' linear parts; the oracle asks the polynomial ring for the
    # entries plus the minors, which agrees on homogeneous entries.  Every
    # tabulated true marking of size <= 3 on the grid bases that fit a block
    # is found; every second one, which still reaches every table, is
    # checked with all its entries and with each entry dropped
    corpus, _ = acceptance_corpus
    assert len(corpus) == ACCEPTANCE_SIZE
    found = []
    for base in corpus:
        if base_case_of(base) == OTHER:
            continue
        marks = [("I", p) for p in range(1, base.n + 1)] + [("J", p) for p in range(1, base.n + 1)]
        for chosen in (c for size in range(4) for c in combinations(marks, size)):
            I = frozenset(p for side, p in chosen if side == "I")
            J = frozenset(p for side, p in chosen if side == "J")
            res = classify(HigherDimInstance(base, I, J))
            if res.is_ng and res.table is not None:
                found.append(res)
    checked = found[::2]
    assert len(found) == 429
    assert {res.table for res in checked} == {res.table for res in found}
    lists = uncovered = 0
    for res in checked:
        entries = [p for row in res.witness_rows() for p in row]
        assert all(p.is_homogeneous() for p in entries)
        minors = list(buchberger(two_minors(build_matrices(res.instance)[0])))
        for k in range(-1, len(entries)):
            kept = entries if k < 0 else entries[:k] + entries[k + 1 :]
            verdict = _uncovered_variable(res.instance.ring, kept)
            assert verdict == _outside(buchberger(kept + minors)), (str(res.instance), k)
            assert k >= 0 or verdict is None
            lists += 1
            uncovered += verdict is not None
    assert lists == 2165 and 0 < uncovered < lists


def test_cover_is_checked_in_the_local_ring():
    # 1 - X1 is a unit of k[[X]], so the rows times it still certify the
    # ring; the polynomial ring, where X1 is not in (entries) + I, refused them
    res = classify(HigherDimInstance(tail_n4(), frozenset({1}), frozenset()))
    ring = res.instance.ring
    unit = ring.one() - ring.var_named("X1")
    rows = [tuple(p * unit for p in row) for row in res.witness_rows()]
    assert verify_witness(res.instance, rows)
    entries = [p for row in rows for p in row]
    assert _outside(buchberger(entries + two_minors(build_matrices(res.instance)[0]))) == "X1"


def test_trace_n3_entries():
    hd = HigherDimInstance(tail_n3(), frozenset({1}), frozenset())
    entries = trace_n3(hd)
    assert len(entries) == 6
    assert trace_n3_decision(hd)
    assert not trace_n3_decision(HigherDimInstance(tail_n3(), frozenset(), frozenset({1})))


def test_trace_n3_rejects_n4():
    with pytest.raises(ValueError):
        trace_n3(HigherDimInstance(tail_n4()))


def test_removing_elements_preserves_ng():
    # one-step monotonicity on concrete true cases
    for base, I, J in (
        (allones_n4(), set(), {1, 3}),
        (allones_n4(), {3}, {1}),
        (tail_n4_l41(), {1}, {3}),
    ):
        hd = HigherDimInstance(base, frozenset(I), frozenset(J))
        assert classify(hd).is_ng
        for i in I:
            assert classify(HigherDimInstance(base, frozenset(I - {i}), frozenset(J))).is_ng
        for j in J:
            assert classify(HigherDimInstance(base, frozenset(I), frozenset(J - {j}))).is_ng


def test_final_example_shape():
    # fully deformed top row plus one bottom deformation: dimension n+2,
    # almost Gorenstein base, never nearly Gorenstein
    base = allones_n4()
    hd = HigherDimInstance(base, frozenset({1, 2, 3, 4}), frozenset({1}))
    assert hd.dimension() == base.n + 2
    assert base.H.is_almost_symmetric()
    res = classify(hd)
    assert not res.is_ng and res.rule.endswith("(3)")


def test_json_round_trip():
    hd = HigherDimInstance(tail_n4(), frozenset({1}), frozenset({3}))
    again = HigherDimInstance.from_json(hd.to_json())
    assert again.I == hd.I and again.J == hd.J and again.base.order == hd.base.order
