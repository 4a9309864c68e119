from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngtrace import ideals
from ngtrace.corpus import check_instance
from ngtrace.determinantal import NGResult, build, search_instances
from ngtrace.errors import BaseMismatch
from ngtrace.ideals import RelativeIdeal, canonical_ideal, trace_canonical_oracle, unit_ideal
from ngtrace.semigroup import NumericalSemigroup

from conftest import sieve
from oracles import is_nearly_gorenstein_oracle, is_subideal, is_translate

H345 = NumericalSemigroup([3, 4, 5])
H23 = NumericalSemigroup([2, 3])
H7890 = NumericalSemigroup([7, 8, 9, 10])


def members_of(E, lo, hi):
    return [z for z in range(lo, hi + 1) if E.contains(z)]


def set_oracle_minimal(H, members):
    """Minimal generators computed from an explicit member set."""
    out = []
    for x in sorted(members):
        if not any(H.contains(x - y) for y in out):
            out.append(x)
    return tuple(out)


def test_normalization_absorbs():
    assert RelativeIdeal(H345, [0, 3]).generators == (0,)
    assert RelativeIdeal(H345, [1, 2]).generators == (1, 2)
    assert RelativeIdeal(H7890, [0, 11, 12, 13]).generators == (0, 11, 12, 13)


def test_normalization_is_ideal_preserving():
    E = RelativeIdeal(H345, [1, 2, 4, 5, 6, 8])
    F = RelativeIdeal(H345, [1, 2])
    assert E == F


def test_canonical_ideals():
    assert canonical_ideal(H23).generators == (0,)
    assert canonical_ideal(H345).generators == (0, 1)
    assert canonical_ideal(H7890).generators == (0, 1, 2)


def test_trace_of_the_natural_numbers():
    N = NumericalSemigroup([1])
    assert canonical_ideal(N).generators == (0,)
    assert trace_canonical_oracle(N).generators == (0,)
    assert str(trace_canonical_oracle(N)) == "(0) + <1>"


def test_canonical_matches_comprehension_oracle():
    # independent route: K = {x : F - x not in H} over an explicit window
    for H in (H23, H345, H7890, NumericalSemigroup([4, 5, 7])):
        F = H.frobenius()
        ok = sieve(H.generators, 4 * (F + 2) + 2)
        members = [x for x in range(0, 2 * F + 2) if not (0 <= F - x and ok[F - x])]
        assert canonical_ideal(H).generators == set_oracle_minimal(H, members)


def test_add_identity_and_colon_identity():
    K = canonical_ideal(H345)
    unit = unit_ideal(H345)
    assert K.add(unit) == K
    assert K.colon(unit) == K


def test_add_example():
    E = RelativeIdeal(H345, [1, 2])
    assert E.add(E).generators == (2, 3, 4)


def test_colon_example():
    K = canonical_ideal(H345)
    assert unit_ideal(H345).colon(K).generators == (3, 4, 5)


def test_colon_matches_set_oracle():
    for H in (H345, H7890, NumericalSemigroup([4, 5, 7])):
        K = canonical_ideal(H)
        col = unit_ideal(H).colon(K)
        F = H.frobenius()
        window = range(-2 * F - 4, 2 * F + 4 + max(H.generators))
        expected = [
            z for z in window if all(H.contains(z + k) for k in members_of(K, 0, 2 * F + 2))
        ]
        # z + k for large k is automatic, so testing generators of K suffices;
        # compare membership over the window instead of generators directly
        for z in window:
            assert col.contains(z) == all(H.contains(z + g) for g in K.generators), z
        assert col.generators == set_oracle_minimal(H, expected)


def test_base_mismatch_rejected():
    with pytest.raises(BaseMismatch):
        unit_ideal(H345).add(unit_ideal(H23))
    with pytest.raises(BaseMismatch):
        unit_ideal(H345).colon(unit_ideal(H23))
    with pytest.raises(BaseMismatch):
        is_subideal(unit_ideal(H345), unit_ideal(H23))
    with pytest.raises(BaseMismatch):
        is_translate(unit_ideal(H345), unit_ideal(H23))


def test_trace_oracle_values():
    assert trace_canonical_oracle(H23) == unit_ideal(H23)
    assert trace_canonical_oracle(H345).generators == (3, 4, 5)
    tr = trace_canonical_oracle(H7890)
    assert tr.generators == (7, 8, 9, 10)
    assert all(tr.contains(a) for a in (7, 8, 9, 10))


def test_trace_is_unit_iff_symmetric():
    for gens in ([2, 3], [3, 4, 5], [7, 8, 9, 10], [2, 5], [3, 5, 7], [4, 5, 7]):
        H = NumericalSemigroup(gens)
        assert (trace_canonical_oracle(H) == unit_ideal(H)) == H.is_symmetric()


def test_nearly_gorenstein_oracle():
    assert is_nearly_gorenstein_oracle(H23)
    assert is_nearly_gorenstein_oracle(H7890)
    # <3,7,8> carries the presentation order (8,7,3), m=(1,1,2), ell=(1,1,3):
    # the slot with both exponents >= 2 forces 3 out of the trace
    H = NumericalSemigroup([3, 7, 8])
    tr = trace_canonical_oracle(H)
    assert tr.generators == (6, 7, 8)
    assert not tr.contains(3)
    assert not is_nearly_gorenstein_oracle(H)


def test_almost_symmetric_implies_nearly_gorenstein():
    for gens in ([3, 4, 5], [2, 3], [4, 5, 7], [3, 7, 11], [4, 6, 9, 11]):
        H = NumericalSemigroup(gens)
        if H.is_almost_symmetric():
            assert is_nearly_gorenstein_oracle(H)


@given(
    st.lists(st.integers(min_value=2, max_value=40), min_size=2, max_size=5, unique=True)
)
@settings(max_examples=60, deadline=None)
def test_oracle_matches_set_arithmetic(gens):
    try:
        H = NumericalSemigroup(gens)
    except ValueError:
        return
    F = H.frobenius()
    T = 2 * F + 2 * max(H.generators) + 2  # past every minimal generator below
    ok = sieve(H.generators, 2 * T)

    def in_H(x):
        return x >= 0 and ok[x]

    K = set_oracle_minimal(H, [x for x in range(T + 1) if not in_H(F - x)])
    # z + K lies in H iff z + k does for the generators k of K
    colon = set_oracle_minimal(H, [z for z in range(-T, T + 1) if all(in_H(z + k) for k in K)])
    trace = set_oracle_minimal(H, [k + z for k in K for z in colon])
    assert canonical_ideal(H).generators == K
    assert unit_ideal(H).colon(canonical_ideal(H)).generators == colon
    assert trace_canonical_oracle(H).generators == trace


small_ideal_gens = st.lists(
    st.integers(min_value=-6, max_value=14), min_size=1, max_size=4
)


@given(small_ideal_gens, small_ideal_gens)
@settings(max_examples=80, deadline=None)
def test_add_colon_galois_connection(gens_e, gens_f):
    E = RelativeIdeal(H345, gens_e)
    F = RelativeIdeal(H345, gens_f)
    # E is contained in (E+F) - F, and ((E-F)+F) is contained in E
    left = E.add(F).colon(F)
    assert all(left.contains(g) for g in E.generators)
    right = E.colon(F).add(F)
    assert all(E.contains(g) for g in right.generators)


BASES = (H23, H345, H7890, NumericalSemigroup([4, 5, 7]), NumericalSemigroup([1]))


def explicit_members(H, gens, lo, hi):
    """The members of gens + H in lo..hi, from the generators."""
    return {z for z in range(lo, hi + 1) if any(H.contains(z - g) for g in gens)}


@given(st.sampled_from(BASES), small_ideal_gens, small_ideal_gens, st.integers(0, 9), st.integers(-5, 5))
@settings(max_examples=150, deadline=None)
def test_mask_normal_form_matches_member_sets(H, gens_e, gens_f, pad, offset):
    E, F = RelativeIdeal(H, gens_e), RelativeIdeal(H, gens_f)
    # past the larger least member plus F, every integer is in both ideals
    lo = min(gens_e + gens_f) - 2
    hi = max(min(gens_e), min(gens_f)) + H.frobenius() + max(H.generators) + 2
    members_e = explicit_members(H, gens_e, lo, hi)
    members_f = explicit_members(H, gens_f, lo, hi)
    assert (E == F) == (members_e == members_f)
    if E == F:
        assert hash(E) == hash(F)
    assert all(E.contains(z) == (z in members_e) for z in range(lo, hi + 1))
    assert E.generators == set_oracle_minimal(H, members_e)
    assert (E.lo, E.mask & 1) == (min(members_e), 1)
    # unset low bits and an offset lo are normalised away
    again = RelativeIdeal.from_mask(H, E.mask << pad, E.lo - pad)
    assert again == E and (again.lo, again.mask) == (E.lo, E.mask)
    # a from_mask copy keeps the generators' mask from its closure check
    assert again.generators == set_oracle_minimal(H, members_e)
    # the old definition: the generators shifted by the gap of the minima
    d = E.lo - F.lo
    assert is_translate(E, F) == (E.generators == tuple(g + d for g in F.generators))
    moved = RelativeIdeal(H, [g + offset for g in gens_e])
    assert is_translate(moved, E) and moved.mask == E.mask
    assert is_subideal(E, F) == members_e.issubset(members_f)


@given(st.sampled_from(BASES[:-1]), small_ideal_gens, st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_from_mask_rejects_masks_that_are_not_closed(H, gens, cut):
    E = RelativeIdeal(H, gens)
    a = H.generators[0]
    # lo + a is a member reached from lo: without it the mask is not closed
    with pytest.raises(ValueError):
        RelativeIdeal.from_mask(H, E.mask & ~(1 << a), E.lo)
    with pytest.raises(ValueError):  # a finite mask misses the tail
        RelativeIdeal.from_mask(H, E.mask & ((1 << cut) - 1), E.lo)
    with pytest.raises(ValueError):
        RelativeIdeal.from_mask(H, 0)


@pytest.mark.parametrize("m, ell", [((2, 1, 1), (1, 1, 1)), ((1, 1, 2), (1, 1, 3)), ((3, 1, 1, 1), (1, 1, 1, 2))])
def test_check_instance_extracts_two_generator_lists(m, ell, monkeypatch):
    # K's, for its pseudo-Frobenius assertion and the colon, and H - K's,
    # for the sum; every other step of the check works on member masks.  A
    # generator list is decoded from its mask by bit_positions, and each
    # ideal check_instance builds from a mask walks its closure once: the
    # closure check in from_mask, which also gives the generators' mask
    inst = search_instances(m, ell, 150)[0]
    decoded, reached, built = [], [], []

    def counted_decode(x):
        decoded.append(x)
        return decode(x)

    def counted_reach(H, E):
        reached.append(E)
        return reach(H, E)

    def counted_build(base, mask, lo=0):
        built.append(mask)
        return build_from_mask(base, mask, lo)

    decode, reach = ideals.bit_positions, ideals._reached
    build_from_mask = RelativeIdeal.from_mask
    monkeypatch.setattr(ideals, "bit_positions", counted_decode)
    monkeypatch.setattr(ideals, "_reached", counted_reach)
    monkeypatch.setattr(RelativeIdeal, "from_mask", staticmethod(counted_build))
    report = check_instance(inst)
    assert not report.violations()
    assert len(decoded) <= 2
    # K, H - K, K + (H - K) and the lambda trace; an ideal built from its
    # generators (Herzog's, for n = 3) is compared by mask, not walked
    assert reached == built and len(built) == 4


def test_report_lists_an_almost_but_not_nearly_gorenstein_verdict():
    # in dimension one AG implies NG; a hand-built report that breaks it
    # lists ag-not-ng, for the theorem's pair of verdicts and for the
    # computed pair (Nari's symmetry test and the oracle trace) alone
    inst = build(NumericalSemigroup([3, 4, 5]), (3, 4, 5), (2, 1, 1), (1, 1, 1))
    report = check_instance(inst)
    assert report.ag_theorem and report.ag_nari and not report.violations()
    not_ng = replace(report, ng=NGResult(False), ng_oracle=False, ng_lambda=False)
    assert not_ng.violations() == ["ag-not-ng"]
    theorem_only = replace(report, ng=NGResult(False), ag_nari=False)
    assert "ag-not-ng" in theorem_only.violations()
    computed_only = replace(report, ag_theorem=False, ng_oracle=False)
    assert "ag-not-ng" in computed_only.violations()
    not_ag = replace(not_ng, ag_theorem=False, ag_nari=False)
    assert not_ag.violations() == []
