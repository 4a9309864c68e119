import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngtrace import semigroup
from ngtrace.errors import GcdNotOne, NonMinimalGenerators, ResourceLimit
from ngtrace.semigroup import NumericalSemigroup, bit_positions, sieve_mask

from conftest import sieve
from oracles import apery_by_dijkstra, apery_set


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
    assert apery_set(NumericalSemigroup([3, 4, 5]), 3) == [0, 4, 5]
    assert apery_set(NumericalSemigroup([2, 3]), 2) == [0, 3]
    assert apery_set(NumericalSemigroup([7, 8, 9, 10]), 7) == [0, 8, 9, 10, 18, 19, 20]


def test_apery_requires_membership():
    H = NumericalSemigroup([3, 4, 5])
    with pytest.raises(ValueError, match="2 is not a positive element of <3, 4, 5>"):
        apery_set(H, 2)
    with pytest.raises(ValueError, match="0 is not a positive element of <3, 4, 5>"):
        apery_set(H, 0)


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
    assert len(apery_set(H, H.multiplicity)) == H.multiplicity
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
    # the mask is sieved from the generators; the oracle's Apery set is found
    # by shortest paths, so the two are independent readings of membership
    try:
        H = NumericalSemigroup(gens)
    except ValueError:
        return
    m, F = H.multiplicity, H.frobenius()
    apery = apery_by_dijkstra(H.generators, m)
    for x in range(F + 2 * m + 1):
        assert (H.mask >> x) & 1 == (x >= apery[x % m]), x


def _first_redundant(ordered, apery):
    """The least generator that repeats or is a generator plus a nonzero member."""
    m = ordered[0]
    for i, g in enumerate(ordered):
        if (i and ordered[i - 1] == g) or any(g - a > 0 and g - a >= apery[(g - a) % m] for a in ordered):
            return g
    return None


@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6))
@example([1])  # H = N, F = -1
@example([2, 3])
@example([1, 5])  # 5 is not minimal
@example([3, 100000])  # F = 199997
@example(list(range(10000, 10200)))
@settings(max_examples=150, deadline=None)
def test_invariants_match_the_dijkstra_oracle(gens):
    if math.gcd(*gens) != 1:
        return
    ordered = sorted(gens)
    m = ordered[0]
    apery = apery_by_dijkstra(ordered, m)
    redundant = _first_redundant(ordered, apery)
    if redundant is not None:
        with pytest.raises(NonMinimalGenerators) as exc:
            NumericalSemigroup(gens)
        assert exc.value.generator == redundant
        return
    H = NumericalSemigroup(gens)
    F = max(apery) - m
    assert apery_set(H, m) == apery
    assert H.frobenius() == F
    members = "".join("1" if x >= apery[x % m] else "0" for x in range(F, -1, -1))
    assert H.mask == int(members or "0", 2) | (-1 << (F + 1))
    # PF(H) = {w - m : w in Ap(H, m), and w + a is outside Ap(H, m) for every generator a}
    pf = sorted(w - m for w in apery if all(apery[(w + a) % m] != w + a for a in ordered))
    assert H.pseudo_frobenius() == pf
    in_h = [s for s in range(1, 3 * m + 1) if s >= apery[s % m]]
    # every s for a small multiplicity; an even spread where each oracle run costs
    for s in in_h[:: 1 if len(in_h) <= 200 else len(in_h) // 4]:
        assert apery_set(H, s) == apery_by_dijkstra(ordered, s), s


@pytest.mark.parametrize("gens", [[1], [7, 8, 9, 10], [2, 4, 5], [9967, 9973, 9979]])
def test_construction_sieves_once(monkeypatch, gens):
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return sieve_mask(*args, **kw)

    monkeypatch.setattr(semigroup, "sieve_mask", counted)
    try:
        NumericalSemigroup(gens)
    except (NonMinimalGenerators, ResourceLimit):
        pass
    assert len(calls) == 1


def test_minimality_of_many_generators():
    # 200 consecutive generators: minimality comes from one sieve, not one per generator
    gens = list(range(10000, 10200))
    assert NumericalSemigroup(gens).frobenius() == 509_999
    with pytest.raises(NonMinimalGenerators) as exc:
        NumericalSemigroup(gens + [20001])  # 10000 + 10001
    assert exc.value.generator == 20001


def test_construction_caps():
    # the generator cap is checked before the sieve; the Frobenius cap by a
    # sieve of at most cap + m bits, which F (49,715,390 here) is never sieved to
    with pytest.raises(ResourceLimit, match="generator 100004 exceeds cap"):
        NumericalSemigroup([100003, 100004])
    with pytest.raises(ResourceLimit, match="Frobenius number exceeds cap 1000000: "):
        NumericalSemigroup([9967, 9973, 9979])
    assert NumericalSemigroup([3, 100000]).frobenius() == 199997
    # F within the cap, its run of m members ending past it
    assert NumericalSemigroup([999, 1003]).frobenius() == 999 * 1003 - 999 - 1003 == 999_995
