import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngtrace.errors import BaseMismatch
from ngtrace.ideals import (
    RelativeIdeal,
    canonical_ideal,
    is_nearly_gorenstein_oracle,
    trace_canonical_oracle,
    unit_ideal,
)
from ngtrace.semigroup import NumericalSemigroup

from conftest import sieve

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


def test_json_round_trip():
    E = RelativeIdeal(H7890, [0, 11, 12, 13])
    assert RelativeIdeal.from_json(E.to_json()) == E
