import random
import re
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, product
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngtrace import groebner
from ngtrace.determinantal import remark_degrees, search_instances
from ngtrace.errors import ResourceLimit
from ngtrace.groebner import (
    _size_reduce,
    buchberger,
    first_nonzero_column,
    kernel_over_quotient,
    minors_basis,
    toric_ideal,
    two_minors,
)
from ngtrace.higher_dim import HigherDimInstance, build_matrices
from ngtrace.polyring import FreeModule, PolyRing
from conftest import by_n
from held_basis import spread_basis
import oracles
from oracles import certified_minors_basis, parse, skip_pair, spolys_reduce_to_zero
from test_lambda_rows import SYZYGY_SAMPLE


def ring_345():
    return PolyRing(["X1", "X2", "X3"], [3, 4, 5])


def test_parse_and_str_round_trip():
    R = ring_345()
    for text in ("X1^2*X3 - X2^2", "X1 + 2*X2 - 3", "1/2*X1^4 - X3", "0"):
        p = parse(R, text)
        assert parse(R, str(p)) == p


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        parse(ring_345(), "X9 + 1")


@pytest.mark.parametrize("text", ["X1**2", "X1^", "X1^X2", "2 X1", "X1*", "*X1", "X1 - - X2"])
def test_parse_rejects_malformed_terms(text):
    # "X1**2" once read as 2*X1, and "X1^" raised IndexError
    with pytest.raises(ValueError):
        parse(ring_345(), text)


def test_polynomial_arithmetic():
    R = ring_345()
    a = parse(R, "X1 + X2")
    b = parse(R, "X1 - X2")
    assert a * b == parse(R, "X1^2 - X2^2")
    assert a + b == parse(R, "2*X1")
    assert a - a == R.zero()
    assert (a * R.zero()).is_zero()
    assert a.scale(Fraction(1, 2)) == parse(R, "1/2*X1 + 1/2*X2")


def test_weighted_homogeneity():
    R = ring_345()
    assert parse(R, "X2^2 - X1*X3").is_homogeneous()
    assert not parse(R, "X2^2 - X1").is_homogeneous()
    assert parse(R, "X2^2 - X1*X3").wdeg() == 8


def test_buchberger_closure_contract():
    R = PolyRing(["x", "y"], [1, 1])
    gb = buchberger([parse(R, "x^2 - y"), parse(R, "y^2 - x")])
    assert 2 <= len(gb) <= 3
    assert spolys_reduce_to_zero(gb)


def test_buchberger_empty_input():
    R = ring_345()
    gb = buchberger([], ring=R)
    assert len(gb) == 0
    assert not gb.contains(parse(R, "X1"))
    assert gb.contains(R.zero())


def test_normal_form_idempotent_and_membership():
    R = ring_345()
    gens = [parse(R, "X2^2 - X1*X3"), parse(R, "X2*X3 - X1^3")]
    gb = buchberger(gens)
    for text in ("X1^5 - X2*X3^2", "X1*X2*X3", "X1^2 + X3"):
        p = parse(R, text)
        r = gb.normal_form(p)
        assert gb.normal_form(r) == r
    for g in gens:
        assert gb.contains(g)
    assert buchberger(gens).contains(gens[0])
    assert not buchberger([], ring=R).contains(gens[0])


def test_normal_form_rejects_other_ring():
    R = PolyRing(["x", "y"], [1, 1])
    S = PolyRing(["x", "y", "z"], [1, 1, 1])
    gb = buchberger([parse(R, "x^2 - y")])
    p = parse(S, "x^2*z + z")
    with pytest.raises(ValueError):
        gb.normal_form(p)
    with pytest.raises(ValueError):
        gb.contains(p)
    with pytest.raises(ValueError):
        buchberger([parse(R, "x^2 - y"), p])


def test_proper_homogeneous_ideal_excludes_one():
    R = ring_345()
    gb = buchberger([parse(R, "X2^2 - X1*X3")])
    assert not gb.contains(R.one())


def test_two_minors_shapes_and_signs():
    R = PolyRing(["a", "b", "c", "d"], [1, 1, 1, 1])
    m = two_minors([[parse(R, "a"), parse(R, "b")], [parse(R, "c"), parse(R, "d")]])
    assert m == [parse(R, "a*d - b*c")]
    R3 = ring_345()
    D = [
        [parse(R3, "X2"), parse(R3, "X3"), parse(R3, "X1^2")],
        [parse(R3, "X1"), parse(R3, "X2"), parse(R3, "X3")],
    ]
    minors = two_minors(D)
    assert len(minors) == 3
    assert minors[0] == parse(R3, "X2^2 - X1*X3")
    assert minors[1] == parse(R3, "X2*X3 - X1^3")
    assert minors[2] == parse(R3, "X3^2 - X1^2*X2")


def test_two_minors_counts():
    R = PolyRing([f"X{i}" for i in range(1, 5)], [7, 8, 9, 10])
    D = [
        [parse(R, "X2"), parse(R, "X3"), parse(R, "X4"), parse(R, "X1^3")],
        [parse(R, "X1"), parse(R, "X2"), parse(R, "X3"), parse(R, "X4^2")],
    ]
    assert len(two_minors(D)) == 6


# -- the minors' basis: a theorem, checked against its certificate ------------


def _same_basis(got, want) -> bool:
    """Equal rings, and equal polys term for term, in the same order."""
    return got.ring == want.ring and [p.sorted_terms() for p in got] == [p.sorted_terms() for p in want]


def _assert_minors_basis(D, got, want):
    """The certificate's contract, for want = buchberger(two_minors(D)): a
    certified result (stats None) is exactly the monic nonzero minors, a
    fallback is want itself; either is a Groebner basis, and its
    interreduction is want, the reduced basis."""
    if got.stats is None:
        monic = [g.monic().sorted_terms() for g in two_minors(D) if not g.is_zero()]
        assert [p.sorted_terms() for p in got] == monic, D
    else:
        assert _same_basis(got, want), D
    assert spolys_reduce_to_zero(got), D
    assert _same_basis(groebner.GroebnerBasis(got.ring, groebner._interreduce(got.ring, list(got))), want), D


def _no_pair_loop(*args, **kwargs):
    raise AssertionError("the certificate fell back to buchberger")


def _markings(n: int, most: int):
    """Every pair (I, J) of subsets of 1..n with at most ``most`` elements each."""
    subsets = list(chain.from_iterable(combinations(range(1, n + 1), k) for k in range(most + 1)))
    return [(I, J) for I in subsets for J in subsets]


MINORS_STRIDE = 50  # of the n = 5 corpus
MINORS_MATRICES = 4588  # 444 + 2960 + 332 corpus matrices, 852 deformed


def _corpus_instances(acceptance_corpus, stride: int, most: int) -> list:
    """Every n = 3 and n = 4 instance and a stride of the n = 5 ones, then
    the deformed instance of every marking with |I|, |J| <= most of the
    first and the middle base of each n."""
    corpus, _ = acceptance_corpus
    corpora = [by_n(corpus, n) for n in (3, 4, 5)]
    instances = corpora[0] + corpora[1] + corpora[2][::stride]
    for part in corpora:
        for base in (part[0], part[len(part) // 2]):
            instances += [HigherDimInstance(base, I, J) for I, J in _markings(base.n, most)]
    return instances


def _lead_term(ring, base, k: int, j: int) -> int:
    """X_k^m_k X_j^l_j, for 1-based k and j."""
    exps = [0] * ring.nvars
    exps[k - 1] += base.m[k - 1]
    exps[j - 1] += base.ell[j - 1]
    return ring.term(exps)


def _assert_theorem(inst):
    """minors_basis(inst) is the certificate's basis term for term, with
    no fallback, and its leads are step 1's: the minor of columns i < j
    (1-based) is led by X_(i+1)^m_(i+1) X_j^l_j for j < n and by
    X_1^m_1 X_i^l_i for j = n, and so the leads are the
    X_k^m_k X_j^l_j with 1 <= k <= j <= n - 1, one each."""
    base = inst.base if isinstance(inst, HigherDimInstance) else inst
    ring, n, D = inst.ring, base.n, inst.matrices[0]
    got = minors_basis(inst)
    certified = certified_minors_basis(D)
    assert certified.stats is None and _same_basis(got, certified), inst
    leads = [g.lm() for g in got]
    pairs = combinations(range(1, n + 1), 2)
    assert leads == [_lead_term(ring, base, i + 1, j) if j < n else _lead_term(ring, base, 1, i) for i, j in pairs], inst
    assert sorted(leads) == sorted(_lead_term(ring, base, k, j) for k, j in combinations_with_replacement(range(1, n), 2))
    return got


def test_minors_basis_certifies_the_corpus_and_deformed_minors(monkeypatch, acceptance_corpus):
    # minors_basis returns the minors by a theorem; the certificate proves
    # them a Groebner basis pair by pair with no fallback, its basis is
    # minors_basis's term for term, the leads are step 1's, and their
    # interreduction is buchberger's basis: on every n = 3 and n = 4
    # instance, a stride of the n = 5 ones, and every marking with
    # |I|, |J| <= 2 of the first and the middle base of each n
    instances = _corpus_instances(acceptance_corpus, MINORS_STRIDE, 2)
    assert len(instances) == MINORS_MATRICES
    wants = [buchberger(two_minors(inst.matrices[0])) for inst in instances]
    monkeypatch.setattr(oracles, "buchberger", _no_pair_loop)
    for inst, want in zip(instances, wants):
        _assert_minors_basis(inst.matrices[0], _assert_theorem(inst), want)


# n: (largest exponent, draws, bases found); n = 6 and 7 are past the corpus
BEYOND_GRID = {3: (8, 1500, 799), 4: (8, 1500, 271), 5: (5, 2000, 310), 6: (4, 2000, 94), 7: (3, 1500, 123)}


@pytest.mark.parametrize("n", sorted(BEYOND_GRID))
def test_minors_theorem_beyond_the_grid(monkeypatch, n):
    # past the corpus: seeded draws of exponents with search bound 500, each
    # base found and four markings of it, held to the certificate
    monkeypatch.setattr(oracles, "buchberger", _no_pair_loop)
    emax, draws, bases = BEYOND_GRID[n]
    rng = random.Random(700 + n)
    markings = [({1}, ()), ((), {n}), ({1}, {2}), ({1, 2}, {n})]
    found = 0
    for _ in range(draws):
        m = tuple(rng.randint(1, emax) for _ in range(n))
        ell = tuple(rng.randint(1, emax) for _ in range(n))
        for base in search_instances(m, ell, 500):
            found += 1
            for inst in [base] + [HigherDimInstance(base, I, J) for I, J in markings]:
                _assert_theorem(inst)
    assert found == bases


def _standard_monomials(m, ell) -> int:
    """The monomials of k[X_1 .. X_(n-1)] divisible by no lead of step 1,
    counted one by one in the box under the pure powers X_k^(m_k + l_k)."""
    n = len(m)
    leads = []
    for k, j in combinations_with_replacement(range(n - 1), 2):
        lead = [0] * (n - 1)
        lead[k] += m[k]
        lead[j] += ell[j]
        leads.append(lead)
    box = product(*(range(m[k] + ell[k]) for k in range(n - 1)))
    return sum(not any(all(a >= b for a, b in zip(alpha, lead)) for lead in leads) for alpha in box)


@pytest.mark.parametrize("n, emax, draws", [(3, 6, 300), (4, 4, 300), (5, 3, 200), (6, 2, 150), (7, 2, 60)])
def test_standard_monomials_of_the_leads_are_d_n(n, emax, draws):
    # step 2 of minors_basis's theorem: the leads leave d_n standard
    # monomials, d_n the last entry of remark_degrees, for any exponents
    rng = random.Random(100 + n)
    for _ in range(draws):
        m = tuple(rng.randint(1, emax) for _ in range(n))
        ell = tuple(rng.randint(1, emax) for _ in range(n))
        assert _standard_monomials(m, ell) == remark_degrees(m, ell)[-1], (m, ell)


def test_minors_basis_takes_a_validated_instance():
    # the theorem covers validated cyclic matrices alone, so a bare matrix,
    # even that of an instance, is refused
    inst = search_instances((2, 1, 1), (1, 1, 1), 150)[0]
    with pytest.raises(TypeError, match="validated instance"):
        minors_basis(inst.matrix)
    assert _same_basis(minors_basis(inst), certified_minors_basis(inst.matrix))


def test_two_minors_equal_the_product_formula(acceptance_corpus):
    # two_minors sums each minor into one term dict; the product formula
    # top[i]*bottom[j] - top[j]*bottom[i] is the oracle, on the matrices of
    # the certification test (monomial and binomial entries) and on a
    # matrix with zero entries and proportional columns, whose minors vanish
    R = PolyRing(["x", "y", "z"], [1, 2, 3])
    x, y, z = (R.var(i) for i in range(3))
    flat = [[x * y, x * y, R.zero(), z], [y, y, x - z, R.zero()]]
    matrices = [inst.matrices[0] for inst in _corpus_instances(acceptance_corpus, MINORS_STRIDE, 2)] + [flat]
    assert len(matrices) == MINORS_MATRICES + 1
    zeros = 0
    for top, bottom in matrices:
        want = [top[i] * bottom[j] - top[j] * bottom[i] for i, j in combinations(range(len(top)), 2)]
        assert two_minors([top, bottom]) == want
        zeros += sum(g.is_zero() for g in want)
    assert zeros > 0


def test_two_minors_refuse_a_product_past_the_packing_limit():
    # each product is checked by its factors' top degrees before it is
    # formed, also when the minor cancels to zero, as ``*`` checks it
    R = PolyRing(["x", "y"], [1, 1])
    top = R.var(0, R.degree_limit - 1)
    for D in ([[top, R.var(1)], [R.var(0), R.var(1)]], [[top, top], [R.var(1), R.var(1)]]):
        with pytest.raises(ResourceLimit, match="packing limit"):
            D[0][0] * D[1][1]
        with pytest.raises(ResourceLimit, match="packing limit"):
            two_minors(D)
    # one below the limit is still a term
    assert two_minors([[R.var(0, R.degree_limit - 2), R.one()], [R.one(), R.var(0)]]) == [R.var(0, R.degree_limit - 1) - R.one()]


def test_first_nonzero_column_refuses_a_product_past_the_packing_limit():
    # a column sum feeds a division, so the division loop checks its terms
    R = PolyRing(["x", "y"], [1, 1])
    top, gb = R.var(0, R.degree_limit - 1), buchberger([], ring=R)
    with pytest.raises(ResourceLimit, match="packing limit"):
        first_nonzero_column([top, R.one()], [[R.var(1)], [R.var(1)]], gb)
    # one below the limit is still a term
    assert first_nonzero_column([R.var(0, R.degree_limit - 2)], [[R.var(1)]], gb) == (0, R.var(0, R.degree_limit - 2) * R.var(1))


RING_SITES = {
    "+": lambda p, q: p + q,
    "*": lambda p, q: p * q,
    "two_minors": lambda p, q: two_minors([[p, p], [p, q]]),
    "normal_form": lambda p, q: buchberger([p]).normal_form(q),
    "buchberger": lambda p, q: buchberger([p, q]),
    "kernel_over_quotient": lambda p, q: kernel_over_quotient([[p]], [q]),
}


@pytest.mark.parametrize("site", RING_SITES)
def test_a_polynomial_over_another_ring_is_refused(site):
    # same names, other weights: the terms would be read in the wrong layout
    R, S = PolyRing(["x", "y"], [1, 1]), PolyRing(["x", "y"], [1, 2])
    with pytest.raises(ValueError, match=re.escape(f" over {S!r}, not over {R!r}")):
        RING_SITES[site](R.var(0), S.var(1))


def test_minors_basis_falls_back_when_the_minors_are_no_basis(monkeypatch):
    # the certificate's fallback: the minors x^2*z - y^2, x^3 - y*z,
    # x*y - z^2 of this matrix (not cyclic, and in the standard grading)
    # are no Groebner basis: the basis adds x*z^3 - y^3 and z^5 - y^4
    R = PolyRing(["x", "y", "z"], [1, 1, 1])
    D = [[parse(R, "x^2"), parse(R, "y"), parse(R, "z")], [parse(R, "y"), parse(R, "z"), parse(R, "x")]]
    want = buchberger(two_minors(D))
    assert len(want) == 5
    calls = []

    def recorded(gens, **kwargs):
        calls.append(gens)
        return buchberger(gens, **kwargs)

    monkeypatch.setattr(oracles, "buchberger", recorded)
    got = certified_minors_basis(D)
    assert calls == [two_minors(D)]
    assert _same_basis(got, want) and got.stats == want.stats


MINOR_RINGS = (PolyRing(["x", "y", "z"], [1, 1, 1]), PolyRing(["x", "y", "z"], [1, 2, 3]))


def _monomials(ring, degree: int) -> list[tuple[int, ...]]:
    """The exponent tuples of weighted degree ``degree``."""
    return [e for e in product(range(degree + 1), repeat=ring.nvars) if sum(map(mul, e, ring.weights)) == degree]


@st.composite
def minor_matrices(draw):
    """A 2 x n matrix, n = 3..5, of zeros, monomials and binomials, maybe
    with one column a monomial multiple of another (a zero minor).  Entry (i, j) is
    homogeneous of degree r_i + c_j (a constant at degree 0), so every
    minor is homogeneous, as the minors of a presentation are, and their
    pair loop stays short."""
    R = draw(st.sampled_from(MINOR_RINGS))
    n = draw(st.integers(3, 5))
    r = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2))
    c = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))

    def entry(degree):
        exps = draw(st.lists(st.sampled_from(_monomials(R, degree)), max_size=2, unique=True))
        return sum((R.monomial(e, draw(st.sampled_from([1, -1, 2]))) for e in exps), R.zero())

    cols = [(entry(r[0] + c[j]), entry(r[1] + c[j])) for j in range(n)]
    if draw(st.booleans()):  # proportional columns: a zero minor
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        t = R.monomial(draw(st.sampled_from(_monomials(R, draw(st.integers(0, 2))))), draw(st.sampled_from([1, -3])))
        cols[j] = (t * cols[i][0], t * cols[i][1])
    return [[top for top, _ in cols], [bottom for _, bottom in cols]]


def _tied_products():
    """The bottom row's relation 2x*Delta_23 - 2*Delta_13 + Delta_12 = 0
    has coprime multiplier leads and its three lead products all at x^2
    (which leads y here): it settles no pair of its minors."""
    R = MINOR_RINGS[1]
    return [[parse(R, "2*y - x^2"), parse(R, "2*x"), parse(R, "-x")], [parse(R, "2*x"), parse(R, "2"), parse(R, "1")]]


def _unit_minors():
    """Both nonzero minors are 1: a Groebner basis, but not a minimal one."""
    R = MINOR_RINGS[0]
    return [[R.one(), R.zero(), R.zero()], [R.zero(), R.one(), R.one()]]


@settings(max_examples=150, deadline=None)
@given(minor_matrices())
@example(_tied_products())
@example(_unit_minors())
def test_minors_basis_equals_buchberger(D):
    # the certificate on any 2-row matrix, beyond the theorem's cyclic ones
    _assert_minors_basis(D, certified_minors_basis(D), buchberger(two_minors(D)))


def test_toric_plane_cusp():
    gb = toric_ideal([2, 3])
    assert [str(p) for p in gb] == ["X1^3 - X2^2"]


def test_toric_345_equals_minors():
    gb = toric_ideal([3, 4, 5])
    R3 = ring_345()
    D = [
        [parse(R3, "X2"), parse(R3, "X3"), parse(R3, "X1^2")],
        [parse(R3, "X1"), parse(R3, "X2"), parse(R3, "X3")],
    ]
    gbm = buchberger(two_minors(D))
    assert all(gbm.contains(p) for p in gb)
    assert all(gb.contains(p) for p in gbm)


def test_toric_7890_equals_example_matrix():
    gb = toric_ideal([7, 8, 9, 10])
    R = PolyRing([f"X{i}" for i in range(1, 5)], [7, 8, 9, 10])
    D = [
        [parse(R, "X2"), parse(R, "X3"), parse(R, "X4"), parse(R, "X1^3")],
        [parse(R, "X1"), parse(R, "X2"), parse(R, "X3"), parse(R, "X4^2")],
    ]
    gbm = buchberger(two_minors(D))
    assert gb.polys == gbm.polys


def test_toric_homogeneous_and_binomial_membership():
    rng = random.Random(20240815)
    for weights in ([3, 4, 5], [7, 8, 9, 10], [5, 6, 8]):
        gb = toric_ideal(weights)
        R = gb.ring
        assert all(p.is_homogeneous() for p in gb)
        n = len(weights)
        for _ in range(100):
            u = tuple(rng.randrange(0, 5) for _ in range(n))
            v = tuple(rng.randrange(0, 5) for _ in range(n))
            if u == v:
                continue
            binom = R.monomial(u) - R.monomial(v)
            du = sum(a * b for a, b in zip(u, weights))
            dv = sum(a * b for a, b in zip(v, weights))
            assert gb.contains(binom) == (du == dv), (u, v)


def test_toric_resource_limits():
    with pytest.raises(ResourceLimit):
        toric_ideal([2, 3, 5, 7, 11, 13, 17])
    with pytest.raises(ResourceLimit):
        toric_ideal([201, 202])


def test_toric_saturation_by_colons(monkeypatch):
    calls = []
    kernel = groebner.kernel_over_quotient

    def counted(rows, ideal_gens, **kw):
        found = kernel(rows, ideal_gens, **kw)
        calls.append(len(found))
        return found

    monkeypatch.setattr(groebner, "kernel_over_quotient", counted)
    gb = toric_ideal([3, 16, 22])
    assert [str(p) for p in gb] == ["X1^2*X2 - X3", "X1^16 - X2^3", "X2^4 - X1^14*X3"]
    # three colons add elements, and the fourth finds I : f = I
    assert len(calls) == 4 and all(calls[:3]) and not calls[3]
    R = gb.ring
    vectors = groebner._kernel_basis((3, 16, 22))
    lattice = buchberger([R.monomial([max(x, 0) for x in v]) - R.monomial([max(-x, 0) for x in v]) for v in vectors])
    assert sum(not lattice.contains(p) for p in gb) == 2
    # a seed in the toric ideal leaves the result as it is
    seeded = toric_ideal([3, 16, 22], seed=[parse(R, "X2^4 - X1^14*X3")])
    assert seeded.polys == gb.polys


def test_toric_binomials_of_two_weights_pass_the_degree_cap(monkeypatch):
    # X1^26 - X2^15 has degree 390 and X1^34 - X2^13 degree 442, under the
    # caps 410 and 470; the colon's module element leads at the lcm of f and
    # that lead, of degree 416 (and 476), while its tag part, read against
    # the tag position's degree deg f = 41 (and 47), has degree 375 (and 429)
    leads = []
    real_close = groebner._close

    def close(gens, basis, ring, stop=None):
        closed = real_close(gens, basis, ring, stop)
        if isinstance(ring, FreeModule):
            leads.append(closed.stats["max_lead_wdeg"])
        return closed

    monkeypatch.setattr(groebner, "_close", close)
    assert [str(p) for p in toric_ideal([15, 26])] == ["X1^26 - X2^15"]
    assert [str(p) for p in toric_ideal([13, 34])] == ["X1^34 - X2^13"]
    assert leads == [416, 476]


def test_module_degree_cap_reads_against_the_top_position(monkeypatch):
    # the inputs of (x^3, y^3)^T have degree 3 at tag positions of degree 3,
    # read as 0; the syzygy y^3 e1 - x^3 e2 has degree 6, read as 3
    R = PolyRing(["x", "y"], [1, 1])
    rows = [[parse(R, "x^3")], [parse(R, "y^3")]]
    assert kernel_over_quotient(rows, []) == [(parse(R, "y^3"), parse(R, "-x^3"))]
    monkeypatch.setattr(groebner, "DEGREE_CAP_FACTOR", 1)  # weight sum 2: cap 2
    with pytest.raises(ResourceLimit, match="basis element degree 3 exceeds cap 2"):
        kernel_over_quotient(rows, [])


def test_toric_seed_over_another_ring_raises():
    R = PolyRing(["Y1", "Y2"], [2, 3])
    with pytest.raises(ValueError, match="not over"):
        toric_ideal([2, 3], seed=[parse(R, "Y1^3 - Y2^2")])


def test_an_empty_basis_needs_its_ring():
    with pytest.raises(ValueError, match="no ring"):
        buchberger([])
    R = PolyRing(["X1", "X2"], [2, 3])
    gb = certified_minors_basis([[R.var(0)], [R.var(1)]])  # a 2x1 matrix has no minor
    assert gb.ring == R and not gb.polys
    assert not gb.contains(R.var(0))


def test_size_reduce_is_exact():
    # a quotient past the float range: true division would overflow
    assert _size_reduce([[10**400, 1], [1, 0]]) == [[0, 1], [1, 0]]


def test_degree_cap_raises(monkeypatch):
    # the cap is read at call time: weight sum 2, so the cap is 4
    monkeypatch.setattr(groebner, "DEGREE_CAP_FACTOR", 2)
    R = PolyRing(["x", "y"], [1, 1])
    with pytest.raises(ResourceLimit):
        buchberger([parse(R, "x^7 - y"), parse(R, "y^7 - x")])


def test_basis_size_cap_raises(monkeypatch):
    monkeypatch.setattr(groebner, "DEFAULT_MAX_BASIS", 1)
    R = PolyRing(["x", "y", "z"], [1, 1, 1])
    gens = [parse(R, "x^3 - y*z"), parse(R, "y^3 - x*z"), parse(R, "z^3 - x*y")]
    with pytest.raises(ResourceLimit):
        buchberger(gens)


def test_default_degree_cap_is_ten_times_weight_sum():
    # ring weight sum 3, so the cap is 30: a degree-31 input must be refused
    R = PolyRing(["x", "y", "z"], [1, 1, 1])
    with pytest.raises(ResourceLimit):
        buchberger([parse(R, "x^31 - y*z"), parse(R, "y^2 - x*z")])
    gb = buchberger([parse(R, "x^30 - y*z")])
    assert len(gb) == 1


def test_homogeneous_input_keeps_homogeneous_basis():
    R = ring_345()
    gens = [
        parse(R, "X2^2 - X1*X3"),
        parse(R, "X2*X3 - X1^3"),
        parse(R, "X3^2 - X1^2*X2"),
    ]
    gb = buchberger(gens)
    assert all(p.is_homogeneous() for p in gb)


def test_determinism():
    R = ring_345()
    gens = [
        parse(R, "X2^2 - X1*X3"),
        parse(R, "X2*X3 - X1^3"),
        parse(R, "X3^2 - X1^2*X2"),
    ]
    a = buchberger(gens)
    b = buchberger(gens)
    assert a.polys == b.polys


def test_kernel_zero_matrix_gives_unit_rows():
    R = ring_345()
    z = R.zero()
    rows = kernel_over_quotient([[z, z, z], [z, z, z]], [])
    as_strs = sorted(tuple(str(c) for c in row) for row in rows)
    assert as_strs == [("0", "1"), ("1", "0")]


def test_kernel_rows_annihilate():
    R = ring_345()
    V = [parse(R, "X2"), parse(R, "X3"), parse(R, "X1^2")]
    U = [parse(R, "X1"), parse(R, "X2"), parse(R, "X3")]
    minors = two_minors([V, U])
    rows = kernel_over_quotient([V, [-u for u in U]], minors)
    assert rows  # assertion inside kernel_over_quotient already checked f.N = 0
    gb = buchberger(minors)
    for row in rows:
        for j in range(3):
            entry = row[0] * V[j] + row[1] * (-U[j])
            assert gb.normal_form(entry).is_zero()


def test_kernel_entries_are_reduced_modulo_an_inhomogeneous_ideal():
    # with an inhomogeneous ideal the pair loop is not degree by degree, and
    # interreducing the tag rows brings back terms that a lead of the ideal
    # divides (y^2*z^4 here): the tails are reduced modulo the ideal too
    R = PolyRing(["x", "y", "z"], [1, 1, 1])
    rows = [[parse(R, "x + 2*y"), parse(R, "x*z - y*z")], [parse(R, "2*x - z"), parse(R, "2*x*z")]]
    ideal = buchberger([parse(R, "x^2*y^2*z^2 - x*y*z"), parse(R, "x^2*y - y*z^2")])
    kernel = kernel_over_quotient(rows, ideal)
    assert len(kernel) == 2
    assert all(ideal.normal_form(p) == p for row in kernel for p in row)


def test_kernel_rejects_a_corrupted_tag_row(monkeypatch):
    # the f.N = 0 check runs on every tag row: add 1 to the first entry of
    # the first row, and V_j stays behind at every column
    R = ring_345()
    V = [parse(R, "X2"), parse(R, "X3"), parse(R, "X1^2")]
    U = [parse(R, "X1"), parse(R, "X2"), parse(R, "X3")]
    minors = buchberger(two_minors([V, U]))
    real_interreduce = groebner._interreduce

    def corrupt(ring, polys, modulo=()):
        first, *rest = real_interreduce(ring, polys, modulo)
        return [first + ring.vector({3: R.one()})] + rest

    monkeypatch.setattr(groebner, "_interreduce", corrupt)
    with pytest.raises(AssertionError, match="kernel row fails f.N = 0 at column 0"):
        kernel_over_quotient([V, [-u for u in U]], minors)


def test_kernel_size_guard(monkeypatch):
    # M has five rows over six variables: no row or variable count caps the
    # kernel, but the basis cap still does, which counts the ideal's basis
    # once at every value and tag position
    (inst,) = search_instances((1,) * 6, (1, 1, 1, 1, 1, 2), 11)
    _, M = inst.matrices
    gb = buchberger(inst.minors)
    monkeypatch.setattr(groebner, "DEFAULT_MAX_BASIS", len(gb) * (len(M[0]) + len(M)))
    with pytest.raises(ResourceLimit, match="basis size exceeds cap"):
        kernel_over_quotient(M, gb)


def test_kernel_rejects_a_matrix_with_no_columns():
    with pytest.raises(ValueError, match="no columns"):
        kernel_over_quotient([[], []], [])


def test_kernel_rejects_rows_without_position_degrees():
    # (x, y^2) and (x, y) would need tag degrees t_0 = t_1 from column 0
    # but t_0 = t_1 + 1 from column 1
    R = PolyRing(["x", "y"], [1, 1])
    x, y = parse(R, "x"), parse(R, "y")
    with pytest.raises(ValueError, match="no position degrees"):
        kernel_over_quotient([[x, y * y], [x, y]], [])
    with pytest.raises(ValueError, match="not homogeneous"):
        kernel_over_quotient([[x + y * y], [y]], [])


def test_kernel_rejects_entries_over_another_ring():
    # y packed with weights (1, 2) beside x packed with weights (1, 1):
    # read in one layout, the mixed terms give the kernel row (y, -x)
    R, R2 = PolyRing(["x", "y"], [1, 1]), PolyRing(["x", "y"], [1, 2])
    with pytest.raises(ValueError, match=r"matrix entry over .*\[1, 2\]\), not over .*\[1, 1\]\)"):
        kernel_over_quotient([[parse(R, "x")], [parse(R2, "y")]], buchberger([], ring=R))


def test_first_nonzero_column_rejects_entries_over_another_ring():
    R, R2 = PolyRing(["x", "y"], [1, 1]), PolyRing(["x", "y"], [1, 2])
    x, y2, gb = parse(R, "x"), parse(R2, "y"), buchberger([], ring=R)
    assert first_nonzero_column([x], [[x]], gb) == (0, x * x)
    with pytest.raises(ValueError, match="row entry over"):
        first_nonzero_column([y2], [[x]], gb)
    with pytest.raises(ValueError, match="matrix entry over"):
        first_nonzero_column([x], [[y2]], gb)


def test_free_module_position_degrees():
    # the degree of a term adds its position's; the order and wdeg do not see it
    R = PolyRing(["x", "y"], [1, 2])
    F, G = FreeModule(R, 2, (3, 0)), FreeModule(R, 2)
    t = F.vector({0: parse(R, "x*y")}).lm()
    assert F.degree(t) == 6 and F.wdeg(t) == 3 and G.degree(t) == 3
    assert F.degree(F.vector({1: parse(R, "y")}).lm()) == 2
    assert R.degree(R.term((1, 1))) == 3
    with pytest.raises(ValueError):
        FreeModule(R, 2, (1,))


def test_kernel_koszul_row():
    # one column (x, y): the kernel is the Koszul row (y, -x).  Its leads sit
    # at the same position, so a product criterion there would lose it.
    R = PolyRing(["x", "y"], [1, 1])
    x, y = parse(R, "x"), parse(R, "y")
    ((f, g),) = kernel_over_quotient([[x], [y]], [])
    unit = f.lc()
    assert f == y.scale(unit) and g == x.scale(-unit)


def test_free_module_term_format():
    R = PolyRing(["x", "y"], [1, 1])
    F = FreeModule(R, 3)
    v = F.vector({0: parse(R, "x^2 - y"), 2: parse(R, "y")})
    assert [str(p) for p in F.components(v)] == ["x^2 - y", "0", "y"]
    assert F.position(v.lm()) == 0 and F.exponents(v.lm())[:2] == (2, 0)
    xe1, ye2 = F.vector({0: parse(R, "x")}).lm(), F.vector({1: parse(R, "y")}).lm()
    # ring terms act on module terms by +; division fails across positions
    assert xe1 + R.term((0, 1)) == F.vector({0: parse(R, "x*y")}).lm()
    assert not F.divides(ye2, xe1)
    # position over term: position 0 beats any degree at position 1
    assert xe1 > F.vector({1: parse(R, "x^5")}).lm()
    assert skip_pair(F, xe1, ye2) and not skip_pair(F, xe1, F.vector({0: parse(R, "y")}).lm())


def test_buchberger_on_submodule():
    R = PolyRing(["x", "y"], [1, 1])
    F = FreeModule(R, 2)
    gens = [
        F.vector({0: parse(R, "x"), 1: parse(R, "y")}),
        F.vector({0: parse(R, "y"), 1: parse(R, "x")}),
    ]
    gb = buchberger(gens)
    assert spolys_reduce_to_zero(gb)
    assert all(gb.contains(g) for g in gens)
    # (x^2 - y^2) e2 = x * g1 - y * g0 lies in the submodule, e2 does not
    assert gb.contains(F.vector({1: parse(R, "x^2 - y^2")}))
    assert not gb.contains(F.vector({1: R.one()}))


# -- packed terms against the tuple format they replaced ----------------------


def _tuple_key(weights, exps, position):
    """The tuple order: position (lower is larger), weighted degree, then
    reverse lexicographic."""
    return (-position, sum(map(mul, exps, weights)), tuple(-e for e in reversed(exps)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_packed_terms_match_tuple_reference(data):
    n = data.draw(st.integers(1, 4))
    weights = data.draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    rank = data.draw(st.integers(0, 3))  # 0: terms of the ring itself
    R = PolyRing([f"x{i}" for i in range(n)], weights)
    T = FreeModule(R, rank) if rank else R
    term = st.tuples(
        st.lists(st.integers(0, 40), min_size=n, max_size=n).map(tuple),
        st.integers(0, max(rank - 1, 0)),
    )
    (a, pa), (b, pb) = data.draw(term), data.draw(term)

    def pack(e, p):
        return T.vector({p: R.monomial(e)}).lm() if rank else R.term(e)

    ta, tb = pack(a, pa), pack(b, pb)
    unit = tuple(int(k == pa) for k in range(rank))
    assert T.pos_shift == T.shift + T.bits + 1
    assert T.exponents(ta) == a + unit and T.wdeg(ta) == sum(map(mul, a, weights))
    assert (ta < tb) == (_tuple_key(weights, a, pa) < _tuple_key(weights, b, pb))
    assert (ta == tb) == ((a, pa) == (b, pb))
    assert ta + R.term(b) == pack(tuple(map(add, a, b)), pa)
    divides = pa == pb and all(x <= y for x, y in zip(b, a))
    assert T.divides(tb, ta) == divides
    if divides:
        assert ta - tb == R.term(tuple(x - y for x, y in zip(a, b)))
    if pa == pb:
        assert T.lcm(ta, tb) == pack(tuple(map(max, a, b)), pa)
        coprime = all(x == 0 or y == 0 for x, y in zip(a, b))
        assert skip_pair(T, ta, tb) == (coprime and not rank)
    else:
        assert skip_pair(T, ta, tb)


def _assert_lcm(T, a: int, b: int):
    """T.lcm(a, b) against the exponent tuples: the per-field max, a's
    position, a weighted degree recomputed from the exponents, and a
    multiple of both terms."""
    base = T.base if isinstance(T, FreeModule) else T
    got = T.lcm(a, b)
    want = tuple(map(max, base.exponents(a), base.exponents(b)))
    code = a >> T.pos_shift
    assert base.exponents(got) == want and got >> T.pos_shift == code
    assert T.wdeg(got) == sum(map(mul, want, T.weights))
    assert got == base.term(want) + (code << T.pos_shift)
    b_at_a = b - (b >> T.pos_shift << T.pos_shift) + (code << T.pos_shift)
    assert T.divides(a, got) and T.divides(b_at_a, got)


def test_lcm_reads_only_the_larger_fields():
    # the lcm finds b's larger fields by one guard-bit subtraction and sums
    # their weighted degree field by field: compare it with the exponent
    # tuples on random vectors, on weights far apart (ratio 2 and more),
    # with equal and zero fields, at every position of a free module, and
    # in a deformed ring with Y and Z variables
    rng = random.Random(5)
    rings = [PolyRing(["x", "y", "z"], [3, 4, 5]), PolyRing(["a", "b", "c", "d"], [1, 2, 5, 11])]
    (base,) = search_instances(*SYZYGY_SAMPLE[-1], 150)
    deformed = HigherDimInstance(base, {1, 2}, {3}).ring
    assert {name[0] for name in deformed.names} == {"X", "Y", "Z"}
    rings.append(deformed)
    for R in rings:
        n = R.nvars
        for T in (R, FreeModule(R, 4)):
            positions = range(T.rank) if isinstance(T, FreeModule) else [None]

            def pack(e, p):
                return R.term(e) if p is None else T.vector({p: R.monomial(e)}).lm()

            for _ in range(300):
                ea = tuple(rng.choice([0, 0, 1, 2, 3, 7]) for _ in range(n))
                eb = tuple(rng.choice([0, 0, 1, 2, 3, 7]) for _ in range(n))
                pa, pb = rng.choice(positions), rng.choice(positions)
                _assert_lcm(T, pack(ea, pa), pack(eb, pb))
            zero, one = (0,) * n, (1,) * n
            for ea, eb in ((zero, zero), (one, one), (zero, one), (one, zero)):
                for pa in positions:
                    _assert_lcm(T, pack(ea, pa), pack(eb, positions[-1]))


def test_var_packs_its_one_field_as_term_does():
    R = PolyRing(["x", "y", "z"], [3, 1, 7])
    for i in range(3):
        for power in (0, 1, 5, (R.degree_limit - 1) // R.weights[i]):
            assert R.var(i, power) == R.monomial([power if k == i else 0 for k in range(3)])
    with pytest.raises(ResourceLimit):
        R.var(2, R.degree_limit // 7 + 1)
    for i, power in ((-1, 1), (3, 1), (0, -1)):
        with pytest.raises(ValueError):
            R.var(i, power)


def test_terms_past_the_packing_limit_raise(monkeypatch):
    R = PolyRing(["x", "y"], [1, 1])
    L = R.degree_limit
    assert L > 1024 * 2 and R.var(0, L - 1).wdeg() == L - 1
    with pytest.raises(ResourceLimit):
        R.var(0, L)
    with pytest.raises(ResourceLimit):
        R.var(0, L - 1) * R.var(1)
    # the S-polynomial of xy - 1 and x^(L-1) - y^(L-1) is y^L - x^(L-2):
    # its lead lies past the limit, and the degree cap is set above it (4 L)
    monkeypatch.setattr(groebner, "DEGREE_CAP_FACTOR", 2 * L)
    gens = [parse(R, "x*y - 1"), R.var(0, L - 1) - R.var(1, L - 1)]
    with pytest.raises(ResourceLimit, match="packing limit"):
        buchberger(gens)


# -- a reduced basis as seed ----------------------------------------------------


@st.composite
def polys(draw, ring, max_exp):
    n = ring.nvars
    p = ring.zero()
    for exps, c in draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, max_exp), min_size=n, max_size=n),
                st.integers(-3, 3).filter(bool),
            ),
            min_size=1,
            max_size=3,
        )
    ):
        p = p + ring.monomial(exps, c)
    return p


@st.composite
def module_vectors(draw, module, max_exp):
    return module.vector({j: draw(polys(module.base, max_exp)) for j in range(module.rank)})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_seeded_buchberger_equals_plain(data):
    # a basis B of an ideal is held once by the pair loop, and in a free
    # module stands for g e_k at every position k: with B spread out, the
    # closure is a Groebner basis whose reduced form is that of B (or every
    # g e_k) passed to buchberger as plain generators
    kind = data.draw(st.sampled_from(["ring", "ring3", "module"]))
    if kind == "ring":
        T = base = PolyRing(["x", "y"], [1, 2])
        elements = ideal_elements = polys(T, 3)
    elif kind == "ring3":
        T = base = PolyRing(["x", "y", "z"], [1, 1, 1])
        elements = ideal_elements = polys(T, 2)
    else:
        T = FreeModule(PolyRing(["x", "y"], [1, 1]), 2)
        base, elements, ideal_elements = T.base, module_vectors(T, 2), polys(T.base, 2)
    B = buchberger(data.draw(st.lists(ideal_elements, max_size=3)), ring=base).polys
    gens = data.draw(st.lists(elements, max_size=3))
    closed = groebner._close(gens, B, T)
    full = spread_basis(T, B) + list(closed.polys)
    assert spolys_reduce_to_zero(groebner.GroebnerBasis(T, full))
    seeded = groebner._interreduce(T, full)
    assert seeded == list(buchberger(spread_basis(T, B) + gens, ring=T).polys)
    assert tuple(closed.stats) == groebner.STAT_NAMES
    assert closed.stats["peak_basis"] >= len(seeded)


def test_seed_basis_must_be_monic():
    R = PolyRing(["x", "y"], [1, 1])
    with pytest.raises(ValueError, match="monic"):
        groebner._close([parse(R, "x - y")], [parse(R, "2*x^2 - y")], R)


def test_buchberger_stats_count_the_pair_loop():
    R = PolyRing(["x", "y"], [1, 1])
    gb = buchberger([parse(R, "x^2 - y"), parse(R, "y^2 - x")])
    assert set(gb.stats) == {
        "pairs_queued",
        "pairs_skipped",
        "pairs_chained",
        "zero_reductions",
        "peak_basis",
        "max_lead_wdeg",
        "pairs_left",
    }
    assert all(type(v) is int for v in gb.stats.values())
    assert gb.stats["pairs_left"] == 0  # buchberger runs the loop to the end
    # the leads x^2 and y^2 are coprime: that pair is skipped, none is queued
    assert gb.stats["pairs_skipped"] == 1 and gb.stats["pairs_queued"] == 0
    assert gb.stats["peak_basis"] == 2 and gb.stats["max_lead_wdeg"] == 2
    assert buchberger([], ring=R).stats["pairs_queued"] == 0


# -- the unseeded kernel construction, kept as an oracle -------------------------


def _unseeded_tag_rows(rows, ideal_gens):
    """Tag rows of the reduced module basis by the unseeded construction:
    h * e_j for every ideal generator h and column j passed as plain
    generators, and the whole module basis interreduced."""
    r, q = len(rows), len(rows[0])
    ring = rows[0][0].ring
    module = FreeModule(ring, q + r)
    vectors = [
        module.vector({**dict(enumerate(row)), q + i: ring.one()}) for i, row in enumerate(rows)
    ]
    vectors += [module.vector({j: h}) for h in ideal_gens for j in range(q)]
    return [tuple(module.components(v)[q:]) for v in buchberger(vectors) if module.position(v.lm()) >= q]


def _row_lead(row):
    return next(p for p in row if not p.is_zero()).lm()


def _kernel_rows_unseeded(rows, ideal_gens):
    """The unseeded tag rows but those led by a multiple of a lead of the
    ideal's basis: the reduced forms of g e_k, redundant over the quotient."""
    ideal_gb = buchberger(ideal_gens, ring=rows[0][0].ring)
    return [
        row
        for row in _unseeded_tag_rows(rows, ideal_gens)
        if not any(ideal_gb.ring.divides(g.lm(), _row_lead(row)) for g in ideal_gb)
    ]


# <3,4,5>, then the n = 4 and n = 5 cases of the syzygy route's own test
KERNEL_SAMPLE = [((2, 1, 1), (1, 1, 1))] + SYZYGY_SAMPLE


@pytest.mark.parametrize("m, ell", KERNEL_SAMPLE)
def test_kernel_rows_match_unseeded_construction(m, ell):
    (inst,) = search_instances(m, ell, 150)
    _, M = build_matrices(HigherDimInstance(inst))
    rows = kernel_over_quotient(M, inst.minors)
    assert rows == _kernel_rows_unseeded(M, inst.minors)
    assert rows == kernel_over_quotient(M, buchberger(inst.minors))


@pytest.mark.parametrize("m, ell", KERNEL_SAMPLE)
def test_kernel_drops_only_rows_redundant_over_the_quotient(m, ell):
    # the kernel once returned every unseeded tag row not zero modulo I,
    # such as (X1^2, X1*X2, X2^2) = X2 * (X4, X1, X2) for m = (1,1,2,1),
    # ell = (1,2,2,1); it returns some of those rows, and the module they
    # span with I F holds all of them
    (inst,) = search_instances(m, ell, 150)
    _, M = build_matrices(HigherDimInstance(inst))
    ideal = buchberger(inst.minors)
    old = [row for row in _unseeded_tag_rows(M, inst.minors) if not all(ideal.contains(p) for p in row)]
    rows = kernel_over_quotient(M, ideal)
    assert set(rows) <= set(old)
    F = FreeModule(ideal.ring, len(M))
    span = buchberger(
        [F.vector(dict(enumerate(row))) for row in rows]
        + spread_basis(F, ideal)
    )
    assert all(span.contains(F.vector(dict(enumerate(row)))) for row in old)


def test_kernel_rejects_an_ideal_over_another_ring():
    # same names, other weights: the generators and a ready basis are refused
    # with both rings named, not read with the wrong term layout
    R, S = ring_345(), PolyRing(["X1", "X2", "X3"], [1, 1, 1])
    V = [parse(R, "X2"), parse(R, "X3"), parse(R, "X1^2")]
    U = [parse(R, "X1"), parse(R, "X2"), parse(R, "X3")]
    minors = two_minors([[parse(S, str(p)) for p in V], [parse(S, str(p)) for p in U]])
    for ideal in (minors, buchberger(minors)):
        with pytest.raises(ValueError, match=r"over PolyRing.*\[1, 1, 1\].*not over PolyRing.*\[3, 4, 5\]"):
            kernel_over_quotient([V, [-u for u in U]], ideal)
