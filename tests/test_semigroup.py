import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngtrace.errors import GcdNotOne, NonMinimalGenerators, NotInSemigroup, ResourceLimit
from ngtrace.semigroup import NumericalSemigroup, bit_positions, sieve_mask

from conftest import sieve


def test_construction_basic():
    H = NumericalSemigroup([3, 4, 5])
    assert H.multiplicity == 3
    assert H.generators == (3, 4, 5)


def test_construction_sorts():
    assert NumericalSemigroup([5, 3, 4]).generators == (3, 4, 5)


def test_gcd_rejected():
    with pytest.raises(GcdNotOne):
        NumericalSemigroup([2, 4])


def test_redundant_generator_named():
    with pytest.raises(NonMinimalGenerators) as exc:
        NumericalSemigroup([2, 4, 5])
    assert exc.value.generator == 4


def test_duplicate_generator_rejected():
    with pytest.raises(NonMinimalGenerators):
        NumericalSemigroup([3, 3, 4, 5])


def test_positivity_and_emptiness():
    with pytest.raises(ValueError):
        NumericalSemigroup([])
    with pytest.raises(ValueError):
        NumericalSemigroup([0, 3])
    with pytest.raises(ValueError):
        NumericalSemigroup([-2, 3])


def test_frobenius_and_gaps():
    H = NumericalSemigroup([7, 8, 9, 10])
    assert H.frobenius() == 13
    assert H.gaps() == [1, 2, 3, 4, 5, 6, 11, 12, 13]
    assert NumericalSemigroup([3, 4, 5]).frobenius() == 2
    assert NumericalSemigroup([2, 3]).gaps() == [1]


def test_membership():
    H = NumericalSemigroup([7, 8, 9, 10])
    assert not H.contains(13)
    assert H.contains(14)
    assert not H.contains(-3)
    assert H.contains(0)
    assert 14 in H and 13 not in H
    assert not NumericalSemigroup([3, 4, 5]).contains(2)


def test_apery_sets():
    assert NumericalSemigroup([3, 4, 5]).apery_set(3) == [0, 4, 5]
    assert NumericalSemigroup([2, 3]).apery_set(2) == [0, 3]
    assert NumericalSemigroup([7, 8, 9, 10]).apery_set(7) == [0, 8, 9, 10, 18, 19, 20]


def test_apery_requires_membership():
    H = NumericalSemigroup([3, 4, 5])
    with pytest.raises(NotInSemigroup):
        H.apery_set(2)
    with pytest.raises(NotInSemigroup):
        H.apery_set(0)


def test_pseudo_frobenius_and_type():
    assert NumericalSemigroup([3, 4, 5]).pseudo_frobenius() == [1, 2]
    assert NumericalSemigroup([7, 8, 9, 10]).pseudo_frobenius() == [11, 12, 13]
    assert NumericalSemigroup([2, 3]).type() == 1
    assert NumericalSemigroup([7, 8, 9, 10]).type() == 3


def test_symmetry_flags():
    H23 = NumericalSemigroup([2, 3])
    assert H23.is_symmetric() and H23.is_almost_symmetric()
    H345 = NumericalSemigroup([3, 4, 5])
    assert not H345.is_symmetric() and H345.is_almost_symmetric()
    H7 = NumericalSemigroup([7, 8, 9, 10])
    assert not H7.is_almost_symmetric()


def test_factorizations():
    H = NumericalSemigroup([3, 4, 5])
    assert H.factorizations(9) == [(0, 1, 1), (3, 0, 0)]
    assert H.factorizations(0) == [(0, 0, 0)]
    assert H.factorizations(1) == []
    with pytest.raises(ResourceLimit):
        H.factorizations(10**7 + 1)


@given(
    st.lists(st.integers(min_value=2, max_value=40), min_size=2, max_size=4, unique=True)
)
@settings(max_examples=60, deadline=None)
def test_membership_matches_sieve(gens):
    try:
        H = NumericalSemigroup(gens)
    except ValueError:
        return
    bound = 2 * H.frobenius() + 2 * max(gens) + 2
    oracle = sieve(H.generators, max(bound, 1))
    for x in range(len(oracle)):
        assert H.contains(x) == oracle[x]


@given(
    st.lists(st.integers(min_value=2, max_value=30), min_size=2, max_size=4, unique=True)
)
@settings(max_examples=60, deadline=None)
def test_invariant_relations(gens):
    try:
        H = NumericalSemigroup(gens)
    except ValueError:
        return
    pf = H.pseudo_frobenius()
    assert max(pf) == H.frobenius()
    assert all(not H.contains(f) for f in pf)
    assert len(H.apery_set(H.multiplicity)) == H.multiplicity
    if H.is_symmetric():
        assert H.is_almost_symmetric()
    assert (H.type() == 1) == H.is_symmetric()


def test_eventual_fullness():
    H = NumericalSemigroup([7, 8, 9, 10])
    F = H.frobenius()
    assert all(H.contains(F + k) for k in range(1, 1001))


@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=60, deadline=None)
def test_sieve_mask_matches_sieve(gens, bound):
    oracle = sieve(gens, bound)
    assert bit_positions(sieve_mask(gens, bound)) == [x for x in range(bound + 1) if oracle[x]]


def test_sieve_mask_seed():
    # {1, 2} + <3, 5> over 0..12
    assert bit_positions(sieve_mask((3, 5), 12, seed=0b110)) == [1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12]


@given(
    st.lists(st.integers(min_value=2, max_value=40), min_size=2, max_size=5, unique=True)
)
@settings(max_examples=60, deadline=None)
def test_membership_mask_matches_sieve(gens):
    try:
        H = NumericalSemigroup(gens)
    except ValueError:
        return
    bound = H.frobenius() + max(gens) + 1
    oracle = sieve(H.generators, bound)
    assert H.mask < 0  # every x > F is a member
    assert bit_positions(H.mask & ((1 << (bound + 1)) - 1)) == [x for x in range(bound + 1) if oracle[x]]
    F = H.frobenius()
    gaps = [x for x in range(bound + 1) if not oracle[x]]
    assert H.gaps() == gaps
    assert H.genus() == len(gaps)
    assert H.is_symmetric() == all(oracle[x] != oracle[F - x] for x in range(F + 1))


@given(
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=5, unique=True)
)
@settings(max_examples=100, deadline=None)
def test_sieved_mask_matches_apery_set(gens):
    # the mask is sieved from the generators; the Apery set is found by
    # shortest paths, so the two are independent readings of membership
    try:
        H = NumericalSemigroup(gens)
    except ValueError:
        return
    m, F = H.multiplicity, H.frobenius()
    for x in range(F + 2 * m + 1):
        assert (H.mask >> x) & 1 == (x >= H.apery[x % m]), x


def test_minimality_of_many_generators():
    # 200 consecutive generators: minimality comes from one sieve, not one per generator
    gens = list(range(10000, 10200))
    assert NumericalSemigroup(gens).frobenius() == 509_999
    with pytest.raises(NonMinimalGenerators) as exc:
        NumericalSemigroup(gens + [20001])  # 10000 + 10001
    assert exc.value.generator == 20001


def test_json_round_trip():
    H = NumericalSemigroup([7, 8, 9, 10])
    assert NumericalSemigroup.from_json(H.to_json()) == H


def test_construction_caps():
    # each raises before its allocation: the minimality sieve is as long as
    # the largest generator, the gap list as the genus (about 2.5 * 10^7 here)
    with pytest.raises(ResourceLimit, match="generator 100004 exceeds cap"):
        NumericalSemigroup([100003, 100004])
    with pytest.raises(ResourceLimit, match="Frobenius number 49715390 exceeds cap"):
        NumericalSemigroup([9967, 9973, 9979])
    assert NumericalSemigroup([3, 100000]).frobenius() == 199997
