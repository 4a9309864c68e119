from itertools import combinations

import pytest

from ngtrace.determinantal import build, search_instances
from ngtrace.errors import NoTabulatedWitness, UnsupportedBaseCase, WitnessFailed
from ngtrace.higher_dim import (
    ALL_ONES,
    OTHER,
    TAIL,
    HigherDimInstance,
    base_case_of,
    build_matrices,
    classify,
    rearranged,
    trace_n3,
    trace_n3_decision,
    verify_witness,
    witness_rows,
)
from ngtrace.semigroup import NumericalSemigroup


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


def test_classify_unsupported_base():
    other = search_instances((1, 1, 2), (1, 1, 3), 150)[0]
    with pytest.raises(UnsupportedBaseCase):
        classify(HigherDimInstance(other, frozenset({1}), frozenset()))
    # with I = J = empty the base theorem applies regardless of block
    assert not classify(HigherDimInstance(other)).is_ng


def test_classify_rearrange_flag():
    # all-ones under reversal only: m=(2,1,1), ell=(1,1,1) reversed has m'=(1,1,1)
    base = tail_n3()
    hd = HigherDimInstance(base, frozenset({2}), frozenset())
    res = classify(hd)  # tail rules apply directly
    assert res.rule == "n3-tail"
    assert rearranged(hd) == (None, hd)
    # a base fitting no block in the given order, rearranged:
    other = search_instances((1, 2, 1), (1, 1, 2), 150)
    if other:
        hd2 = HigherDimInstance(other[0], frozenset({1}), frozenset())
        sym, moved = rearranged(hd2)
        assert sym is not None
        try:
            classify(moved)
        except UnsupportedBaseCase:
            pytest.fail("rearrangement should have found a classified block")


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
        assert verify_witness(hd), (I, J)


def test_witness_rows_cover_new_variables():
    hd = HigherDimInstance(tail_n4(), frozenset({1}), frozenset())
    rows = witness_rows(hd)
    texts = {str(p) for row in rows for p in row}
    assert "X1^3 + Y1" in texts


def test_no_tabulated_witness_for_allones_base():
    hd = HigherDimInstance(allones_n4())
    assert classify(hd).is_ng
    with pytest.raises(NoTabulatedWitness):
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
    # at n = 3 the tables reach only some true cases; the rest must be
    # declined, never sent into a general-n row that cannot hold
    bases = [allones_n3(), tail_n3()] + [b for b in n3_corpus if base_case_of(b) != OTHER]
    outcomes = [_verified_or_untabulated(hd) for b in bases for hd in _n3_true_configs(b)]
    assert any(outcomes) and not all(outcomes)


def test_perturbed_witness_fails():
    hd = HigherDimInstance(tail_n4(), frozenset({1}), frozenset())
    rows = witness_rows(hd)
    bad = [list(r) for r in rows]
    bad[0][1] = bad[0][1] + hd.ring.var_named("X1")
    with pytest.raises(WitnessFailed):
        verify_witness(hd, [tuple(r) for r in bad])


def test_zero_witness_rows_fail_the_cover_check():
    # f.M vanishes for a row of zeros, so only the cover check can refuse it
    hd = HigherDimInstance(tail_n4(), frozenset({1}), frozenset())
    with pytest.raises(WitnessFailed, match="variable X1 not generated"):
        verify_witness(hd, [(hd.ring.zero(),) * (hd.n - 1)] * 2)


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
