import random
from fractions import Fraction
from itertools import combinations
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngtrace import groebner
from ngtrace.determinantal import search_instances
from ngtrace.errors import ResourceLimit
from ngtrace.groebner import (
    _size_reduce,
    buchberger,
    kernel_over_quotient,
    toric_ideal,
    two_minors,
)
from ngtrace.higher_dim import HigherDimInstance, build_matrices
from ngtrace.polyring import FreeModule, PolyRing, Polynomial
from test_lambda_rows import SYZYGY_SAMPLE


def ring_345():
    return PolyRing(["X1", "X2", "X3"], [3, 4, 5])


def test_parse_and_str_round_trip():
    R = ring_345()
    for text in ("X1^2*X3 - X2^2", "X1 + 2*X2 - 3", "1/2*X1^4 - X3", "0"):
        p = R.parse(text)
        assert R.parse(str(p)) == p


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        ring_345().parse("X9 + 1")


@pytest.mark.parametrize("text", ["X1**2", "X1^", "X1^X2", "2 X1", "X1*", "*X1", "X1 - - X2"])
def test_parse_rejects_malformed_terms(text):
    # "X1**2" once read as 2*X1, and "X1^" raised IndexError
    with pytest.raises(ValueError):
        ring_345().parse(text)


def test_polynomial_arithmetic():
    R = ring_345()
    a = R.parse("X1 + X2")
    b = R.parse("X1 - X2")
    assert a * b == R.parse("X1^2 - X2^2")
    assert a + b == R.parse("2*X1")
    assert a - a == R.zero()
    assert (a * R.zero()).is_zero()
    assert a.scale(Fraction(1, 2)) == R.parse("1/2*X1 + 1/2*X2")


def test_weighted_homogeneity():
    R = ring_345()
    assert R.parse("X2^2 - X1*X3").is_homogeneous()
    assert not R.parse("X2^2 - X1").is_homogeneous()
    assert R.parse("X2^2 - X1*X3").wdeg() == 8


def test_buchberger_closure_contract():
    R = PolyRing(["x", "y"], [1, 1])
    gb = buchberger([R.parse("x^2 - y"), R.parse("y^2 - x")])
    assert 2 <= len(gb) <= 3
    assert gb.self_check()


def test_buchberger_empty_input():
    R = ring_345()
    gb = buchberger([], ring=R)
    assert len(gb) == 0
    assert not gb.contains(R.parse("X1"))
    assert gb.contains(R.zero())


def test_normal_form_idempotent_and_membership():
    R = ring_345()
    gens = [R.parse("X2^2 - X1*X3"), R.parse("X2*X3 - X1^3")]
    gb = buchberger(gens)
    for text in ("X1^5 - X2*X3^2", "X1*X2*X3", "X1^2 + X3"):
        p = R.parse(text)
        r = gb.normal_form(p)
        assert gb.normal_form(r) == r
    for g in gens:
        assert gb.contains(g)
    assert buchberger(gens).contains(gens[0])
    assert not buchberger([], ring=R).contains(gens[0])


def test_normal_form_rejects_other_ring():
    R = PolyRing(["x", "y"], [1, 1])
    S = PolyRing(["x", "y", "z"], [1, 1, 1])
    gb = buchberger([R.parse("x^2 - y")])
    p = S.parse("x^2*z + z")
    with pytest.raises(ValueError):
        gb.normal_form(p)
    with pytest.raises(ValueError):
        gb.contains(p)
    with pytest.raises(ValueError):
        buchberger([R.parse("x^2 - y"), p])


def test_proper_homogeneous_ideal_excludes_one():
    R = ring_345()
    gb = buchberger([R.parse("X2^2 - X1*X3")])
    assert not gb.contains(R.one())


def test_two_minors_shapes_and_signs():
    R = PolyRing(["a", "b", "c", "d"], [1, 1, 1, 1])
    m = two_minors([[R.parse("a"), R.parse("b")], [R.parse("c"), R.parse("d")]])
    assert m == [R.parse("a*d - b*c")]
    R3 = ring_345()
    D = [
        [R3.parse("X2"), R3.parse("X3"), R3.parse("X1^2")],
        [R3.parse("X1"), R3.parse("X2"), R3.parse("X3")],
    ]
    minors = two_minors(D)
    assert len(minors) == 3
    assert minors[0] == R3.parse("X2^2 - X1*X3")
    assert minors[1] == R3.parse("X2*X3 - X1^3")
    assert minors[2] == R3.parse("X3^2 - X1^2*X2")


def test_two_minors_counts():
    R = PolyRing([f"X{i}" for i in range(1, 5)], [7, 8, 9, 10])
    D = [
        [R.parse("X2"), R.parse("X3"), R.parse("X4"), R.parse("X1^3")],
        [R.parse("X1"), R.parse("X2"), R.parse("X3"), R.parse("X4^2")],
    ]
    assert len(two_minors(D)) == 6


def test_toric_plane_cusp():
    gb = toric_ideal([2, 3])
    assert [str(p) for p in gb] == ["X1^3 - X2^2"]


def test_toric_345_equals_minors():
    gb = toric_ideal([3, 4, 5])
    R3 = ring_345()
    D = [
        [R3.parse("X2"), R3.parse("X3"), R3.parse("X1^2")],
        [R3.parse("X1"), R3.parse("X2"), R3.parse("X3")],
    ]
    gbm = buchberger(two_minors(D))
    assert all(gbm.contains(p) for p in gb)
    assert all(gb.contains(p) for p in gbm)


def test_toric_7890_equals_example_matrix():
    gb = toric_ideal([7, 8, 9, 10])
    R = PolyRing([f"X{i}" for i in range(1, 5)], [7, 8, 9, 10])
    D = [
        [R.parse("X2"), R.parse("X3"), R.parse("X4"), R.parse("X1^3")],
        [R.parse("X1"), R.parse("X2"), R.parse("X3"), R.parse("X4^2")],
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


def test_size_reduce_is_exact():
    # a quotient past the float range: true division would overflow
    assert _size_reduce([[10**400, 1], [1, 0]]) == [[0, 1], [1, 0]]


def test_degree_cap_raises(monkeypatch):
    # the cap is read at call time: weight sum 2, so the cap is 4
    monkeypatch.setattr(groebner, "DEGREE_CAP_FACTOR", 2)
    R = PolyRing(["x", "y"], [1, 1])
    with pytest.raises(ResourceLimit):
        buchberger([R.parse("x^7 - y"), R.parse("y^7 - x")])


def test_basis_size_cap_raises(monkeypatch):
    monkeypatch.setattr(groebner, "DEFAULT_MAX_BASIS", 1)
    R = PolyRing(["x", "y", "z"], [1, 1, 1])
    gens = [R.parse("x^3 - y*z"), R.parse("y^3 - x*z"), R.parse("z^3 - x*y")]
    with pytest.raises(ResourceLimit):
        buchberger(gens)


def test_default_degree_cap_is_ten_times_weight_sum():
    # ring weight sum 3, so the cap is 30: a degree-31 input must be refused
    R = PolyRing(["x", "y", "z"], [1, 1, 1])
    with pytest.raises(ResourceLimit):
        buchberger([R.parse("x^31 - y*z"), R.parse("y^2 - x*z")])
    gb = buchberger([R.parse("x^30 - y*z")])
    assert len(gb) == 1


def test_homogeneous_input_keeps_homogeneous_basis():
    R = ring_345()
    gens = [
        R.parse("X2^2 - X1*X3"),
        R.parse("X2*X3 - X1^3"),
        R.parse("X3^2 - X1^2*X2"),
    ]
    gb = buchberger(gens)
    assert all(p.is_homogeneous() for p in gb)


def test_determinism():
    R = ring_345()
    gens = [
        R.parse("X2^2 - X1*X3"),
        R.parse("X2*X3 - X1^3"),
        R.parse("X3^2 - X1^2*X2"),
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
    V = [R.parse("X2"), R.parse("X3"), R.parse("X1^2")]
    U = [R.parse("X1"), R.parse("X2"), R.parse("X3")]
    minors = two_minors([V, U])
    rows = kernel_over_quotient([V, [-u for u in U]], minors)
    assert rows  # assertion inside kernel_over_quotient already checked f.N = 0
    gb = buchberger(minors)
    for row in rows:
        for j in range(3):
            entry = row[0] * V[j] + row[1] * (-U[j])
            assert gb.normal_form(entry).is_zero()


def test_kernel_rejects_a_corrupted_tag_row(monkeypatch):
    # the f.N = 0 check runs on every tag row: add 1 to the first entry of
    # the first row, and V_j stays behind at every column
    R = ring_345()
    V = [R.parse("X2"), R.parse("X3"), R.parse("X1^2")]
    U = [R.parse("X1"), R.parse("X2"), R.parse("X3")]
    minors = buchberger(two_minors([V, U]))
    real_interreduce = groebner._interreduce

    def corrupt(ring, polys, *settled):
        first, *rest = real_interreduce(ring, polys, *settled)
        return [first + ring.vector({3: R.one()})] + rest

    monkeypatch.setattr(groebner, "_interreduce", corrupt)
    with pytest.raises(AssertionError, match="kernel row fails f.N = 0 at column 0"):
        kernel_over_quotient([V, [-u for u in U]], minors)


def test_kernel_size_guard(monkeypatch):
    # M has five rows over six variables: no row or variable count caps the
    # kernel, but the basis cap still does, past the ideal basis seeded at
    # every value and tag position
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
    x, y = R.parse("x"), R.parse("y")
    with pytest.raises(ValueError, match="no position degrees"):
        kernel_over_quotient([[x, y * y], [x, y]], [])
    with pytest.raises(ValueError, match="not homogeneous"):
        kernel_over_quotient([[x + y * y], [y]], [])


def test_free_module_position_degrees():
    # the degree of a term adds its position's; the order and wdeg do not see it
    R = PolyRing(["x", "y"], [1, 2])
    F, G = FreeModule(R, 2, (3, 0)), FreeModule(R, 2)
    t = F.vector({0: R.parse("x*y")}).lm()
    assert F.degree(t) == 6 and F.wdeg(t) == 3 and G.degree(t) == 3
    assert F.degree(F.vector({1: R.parse("y")}).lm()) == 2
    assert R.degree(R.term((1, 1))) == 3
    with pytest.raises(ValueError):
        FreeModule(R, 2, (1,))


def test_kernel_koszul_row():
    # one column (x, y): the kernel is the Koszul row (y, -x).  Its leads sit
    # at the same position, so a product criterion there would lose it.
    R = PolyRing(["x", "y"], [1, 1])
    x, y = R.parse("x"), R.parse("y")
    ((f, g),) = kernel_over_quotient([[x], [y]], [])
    unit = f.lc()
    assert f == y.scale(unit) and g == x.scale(-unit)


def test_free_module_term_format():
    R = PolyRing(["x", "y"], [1, 1])
    F = FreeModule(R, 3)
    v = F.vector({0: R.parse("x^2 - y"), 2: R.parse("y")})
    assert [str(p) for p in F.components(v)] == ["x^2 - y", "0", "y"]
    assert F.position(v.lm()) == 0 and F.exponents(v.lm())[:2] == (2, 0)
    xe1, ye2 = F.vector({0: R.parse("x")}).lm(), F.vector({1: R.parse("y")}).lm()
    # ring terms act on module terms by +; division fails across positions
    assert xe1 + R.term((0, 1)) == F.vector({0: R.parse("x*y")}).lm()
    assert not F.divides(ye2, xe1)
    # position over term: position 0 beats any degree at position 1
    assert xe1 > F.vector({1: R.parse("x^5")}).lm()
    assert F.skip_pair(xe1, ye2) and not F.skip_pair(xe1, F.vector({0: R.parse("y")}).lm())


def test_buchberger_on_submodule():
    R = PolyRing(["x", "y"], [1, 1])
    F = FreeModule(R, 2)
    gens = [
        F.vector({0: R.parse("x"), 1: R.parse("y")}),
        F.vector({0: R.parse("y"), 1: R.parse("x")}),
    ]
    gb = buchberger(gens)
    assert gb.self_check()
    assert all(gb.contains(g) for g in gens)
    # (x^2 - y^2) e2 = x * g1 - y * g0 lies in the submodule, e2 does not
    assert gb.contains(F.vector({1: R.parse("x^2 - y^2")}))
    assert not gb.contains(F.vector({1: R.one()}))


# -- packed terms against the tuple format they replaced ----------------------


def _tuple_key(weights, elim, exps, position):
    """The tuple order: position (lower is larger), the eliminated exponent,
    weighted degree, then reverse lexicographic."""
    key = (sum(map(mul, exps, weights)), tuple(-e for e in reversed(exps)))
    return (-position,) + ((exps[elim],) if elim is not None else ()) + key


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_packed_terms_match_tuple_reference(data):
    n = data.draw(st.integers(1, 4))
    weights = data.draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    elim = data.draw(st.none() | st.integers(0, n - 1))
    rank = data.draw(st.integers(0, 3))  # 0: terms of the ring itself
    R = PolyRing([f"x{i}" for i in range(n)], weights, elim=elim)
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
    assert T.exponents(ta) == a + unit and T.wdeg(ta) == sum(map(mul, a, weights))
    assert (ta < tb) == (_tuple_key(weights, elim, a, pa) < _tuple_key(weights, elim, b, pb))
    assert (ta == tb) == ((a, pa) == (b, pb))
    assert ta + R.term(b) == pack(tuple(map(add, a, b)), pa)
    divides = pa == pb and all(x <= y for x, y in zip(b, a))
    assert T.divides(tb, ta) == divides
    if divides:
        assert ta - tb == R.term(tuple(x - y for x, y in zip(a, b)))
    if pa == pb:
        assert T.lcm(ta, tb) == pack(tuple(map(max, a, b)), pa)
        coprime = all(x == 0 or y == 0 for x, y in zip(a, b))
        assert T.skip_pair(ta, tb) == (coprime and not rank)
    else:
        assert T.skip_pair(ta, tb)


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
    gens = [R.parse("x*y - 1"), R.var(0, L - 1) - R.var(1, L - 1)]
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
    kind = data.draw(st.sampled_from(["ring", "ring3", "module"]))
    if kind == "ring":
        T = PolyRing(["x", "y"], [1, 2])
        elements = polys(T, 3)
    elif kind == "ring3":
        T = PolyRing(["x", "y", "z"], [1, 1, 1])
        elements = polys(T, 2)
    else:
        T = FreeModule(PolyRing(["x", "y"], [1, 1]), 2)
        elements = module_vectors(T, 2)
    B = buchberger(data.draw(st.lists(elements, max_size=3)), ring=T).polys
    gens = data.draw(st.lists(elements, max_size=3))
    seeded = buchberger(gens, basis=B, ring=T)
    assert seeded.polys == buchberger(list(B) + gens, ring=T).polys
    inside = sum(1 for a, b in combinations(B, 2) if a.lm() >> T.pos_shift == b.lm() >> T.pos_shift)
    assert seeded.stats["pairs_seeded"] == inside
    assert seeded.stats["peak_basis"] >= len(seeded)


def test_seed_basis_must_be_monic():
    R = PolyRing(["x", "y"], [1, 1])
    with pytest.raises(ValueError):
        buchberger([R.parse("x - y")], basis=[R.parse("2*x^2 - y")])


def test_buchberger_stats_count_the_pair_loop():
    R = PolyRing(["x", "y"], [1, 1])
    gb = buchberger([R.parse("x^2 - y"), R.parse("y^2 - x")])
    assert set(gb.stats) == {
        "pairs_queued",
        "pairs_skipped",
        "pairs_seeded",
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


def _kernel_rows_unseeded(rows, ideal_gens):
    """Tag rows of the left kernel by the unseeded construction: h * e_j for
    every ideal generator h and column j passed as plain generators, and
    the whole module basis interreduced."""
    r, q = len(rows), len(rows[0])
    ring = rows[0][0].ring
    module = FreeModule(ring, q + r)
    vectors = [
        module.vector({**dict(enumerate(row)), q + i: ring.one()}) for i, row in enumerate(rows)
    ]
    vectors += [module.vector({j: h}) for h in ideal_gens for j in range(q)]
    ideal_gb = buchberger(ideal_gens, ring=ring)
    out = []
    for v in buchberger(vectors):
        comps = tuple(module.components(v)[q:])
        if module.position(v.lm()) >= q and not all(ideal_gb.contains(p) for p in comps):
            out.append(comps)
    return out


# <3,4,5>, then the n = 4 and n = 5 cases of the syzygy route's own test
@pytest.mark.parametrize("m, ell", [((2, 1, 1), (1, 1, 1))] + SYZYGY_SAMPLE)
def test_kernel_rows_match_unseeded_construction(m, ell):
    (inst,) = search_instances(m, ell, 150)
    _, M = build_matrices(HigherDimInstance(inst))
    rows = kernel_over_quotient(M, inst.minors)
    assert rows == _kernel_rows_unseeded(M, inst.minors)
    assert rows == kernel_over_quotient(M, buchberger(inst.minors))
