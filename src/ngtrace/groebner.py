"""Buchberger Groebner bases, toric ideals by saturation, module syzygies.

One Buchberger serves ideals of a PolyRing and submodules of a FreeModule;
the term format and the pair rule belong to the ring, so nothing here
depends on it.  Everything is deterministic: S-pairs are processed by
smallest weighted degree of the pair lcm, ties broken by creation index,
and the returned basis is auto-reduced, monic and sorted.  Size and degree
caps raise ResourceLimit explicitly rather than truncating.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .errors import ResourceLimit
from .polyring import (
    FreeModule,
    Mono,
    PolyRing,
    Polynomial,
    mono_div,
    mono_lcm,
    mono_mul,
)

DEFAULT_MAX_BASIS = 5000
DEGREE_CAP_FACTOR = 10


def _default_degree_cap(ring: PolyRing) -> int:
    return DEGREE_CAP_FACTOR * sum(ring.weights)


def _reduce_terms(p: Polynomial, leads) -> Polynomial:
    """Core division loop: p fully reduced against precomputed lead data.

    ``leads`` holds (lead monomial, lead coefficient, tail term items, lead
    support).  The last entry of the ring's sort key is the support bit set
    of a term; a lead with support outside the term's cannot divide it and
    is skipped before mono_div.
    """
    key = p.ring.sort_key
    work = dict(p.terms)
    remainder: dict[Mono, object] = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        outside = ~key(m)[-1]
        for lm, lc, tail, support in leads:
            if support & outside:
                continue
            q = mono_div(m, lm)
            if q is not None:
                break
        else:
            remainder[m] = c
            continue
        factor = c if lc == 1 else (-c if lc == -1 else Fraction(c) / Fraction(lc))
        for gm, gc in tail:
            mm = mono_mul(gm, q)
            s = work.get(mm, 0) - factor * gc
            if s == 0:
                work.pop(mm, None)
            else:
                work[mm] = s
    return Polynomial(p.ring, remainder)


def _lead_entry(g: Polynomial):
    lm, lc = g.lt()
    tail = [(m, c) for m, c in g.terms.items() if m != lm]
    return (lm, lc, tail, g.ring.sort_key(lm)[-1])


def reduce_full(p: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Remainder of p under multivariate division by basis (all terms reduced)."""
    leads = [_lead_entry(g) for g in basis if not g.is_zero()]
    return _reduce_terms(p, leads)


def normal_form(p: Polynomial, basis) -> Polynomial:
    """Normal form against a list of polynomials or a GroebnerBasis."""
    if isinstance(basis, GroebnerBasis):
        basis = basis.polys
    return reduce_full(p, list(basis))


class GroebnerBasis:
    """Reduced basis plus the ring (which carries the order)."""

    __slots__ = ("ring", "polys", "_leads")

    def __init__(self, ring: PolyRing, polys):
        self.ring = ring
        self.polys = tuple(polys)
        self._leads = None

    def normal_form(self, p: Polynomial) -> Polynomial:
        if self._leads is None:
            self._leads = [_lead_entry(g) for g in self.polys]
        return _reduce_terms(p, self._leads)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def self_check(self) -> bool:
        """Re-verify the defining closure: every S-polynomial reduces to zero."""
        polys = list(self.polys)
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                if self.ring.skip_pair(polys[i].lm(), polys[j].lm()):
                    continue
                s = _spoly(polys[i], polys[j])
                if not reduce_full(s, polys).is_zero():
                    return False
        return True

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} elements over {self.ring!r})"


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """uf*f - ratio*ug*g, built from the tails: the leading terms cancel."""
    (lf, cf), (lg, cg) = f.lt(), g.lt()
    gamma = mono_lcm(lf, lg)
    uf = mono_div(gamma, lf)
    ug = mono_div(gamma, lg)
    ratio = 1 if cf == cg else Fraction(cf) / Fraction(cg)
    terms = {mono_mul(m, uf): c for m, c in f.terms.items() if m != lf}
    for m, c in g.terms.items():
        if m == lg:
            continue
        mm = mono_mul(m, ug)
        s = terms.get(mm, 0) - ratio * c
        if s == 0:
            terms.pop(mm, None)
        else:
            terms[mm] = s
    return Polynomial(f.ring, terms)


def _interreduce(ring: PolyRing, polys: list[Polynomial]) -> list[Polynomial]:
    polys = [p.monic() for p in polys if not p.is_zero()]
    polys.sort(key=lambda p: ring.sort_key(p.lm()))
    kept: list[Polynomial] = []
    for p in polys:
        lm = p.lm()
        if any(mono_div(lm, q.lm()) is not None for q in kept):
            continue
        kept.append(p)
    entries = [_lead_entry(p) for p in kept]
    reduced = []
    for i, p in enumerate(kept):
        others = entries[:i] + entries[i + 1 :]
        reduced.append(_reduce_terms(p, others).monic())
    reduced.sort(key=lambda p: ring.sort_key(p.lm()))
    return reduced


def buchberger(
    gens,
    *,
    ring: PolyRing | None = None,
    max_basis: int = DEFAULT_MAX_BASIS,
    max_wdeg: int | None = None,
    verify: bool = False,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal or submodule generated by gens.

    ``gens`` are polynomials over a PolyRing (an ideal) or vectors over a
    FreeModule (a submodule).  Pair selection is the normal strategy:
    smallest weighted degree of the pair lcm first, ties by pair creation
    index.  Pairs the ring's skip_pair rules out (coprime leads in a ring,
    leads at different positions in a free module) are never queued and
    count as treated; the classic chain criterion (both companion pairs
    already treated) prunes the rest.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerBasis(ring if ring is not None else PolyRing(("X",), (1,)), ())
    ring = gens[0].ring
    cap = _default_degree_cap(ring) if max_wdeg is None else max_wdeg

    basis: list[Polynomial] = []
    leads: list[tuple] = []
    lms: list[Mono] = []
    supports: list[int] = []

    def admit(p: Polynomial):
        if ring.wdeg(p.lm()) > cap:
            raise ResourceLimit(
                f"basis element degree {ring.wdeg(p.lm())} exceeds cap {cap}"
            )
        basis.append(p)
        if len(basis) > max_basis:
            raise ResourceLimit(f"basis size exceeds cap {max_basis}")
        entry = _lead_entry(p)
        leads.append(entry)
        lms.append(entry[0])
        supports.append(entry[3])

    for g in gens:
        r = _reduce_terms(g, leads).monic()
        if not r.is_zero():
            admit(r)

    pairs: list[tuple[int, int, int, int]] = []
    seq = 0
    # bit i of treated[j] is set once the pair i < j is treated; bits keep a
    # submodule's many cross-position pairs to a few bytes each
    treated: list[int] = []

    def push_pairs(j: int):
        nonlocal seq
        skipped = 0
        for i in range(j):
            if ring.skip_pair(lms[i], lms[j]):
                skipped |= 1 << i
                continue
            gamma = mono_lcm(lms[i], lms[j])
            heapq.heappush(pairs, (ring.wdeg(gamma), seq, i, j))
            seq += 1
        treated.append(skipped)

    def is_treated(a: int, b: int) -> bool:
        return treated[max(a, b)] >> min(a, b) & 1

    for j in range(len(basis)):
        push_pairs(j)

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        gamma = mono_lcm(lms[i], lms[j])
        outside = ~(supports[i] | supports[j])
        chained = False
        for k in range(len(basis)):
            if k == i or k == j or supports[k] & outside:
                continue
            if mono_div(gamma, lms[k]) is None:
                continue
            if is_treated(i, k) and is_treated(j, k):
                chained = True
                break
        treated[j] |= 1 << i
        if chained:
            continue
        r = _reduce_terms(_spoly(basis[i], basis[j]), leads)
        if r.is_zero():
            continue
        admit(r.monic())
        push_pairs(len(basis) - 1)

    gb = GroebnerBasis(ring, _interreduce(ring, basis))
    if verify and not gb.self_check():
        raise AssertionError("S-polynomial closure failed after interreduction")
    return gb


def ideal_membership(p: Polynomial, gens) -> bool:
    if p.is_zero():
        return True
    return buchberger(list(gens)).contains(p)


def two_minors(matrix: list[list[Polynomial]]) -> list[Polynomial]:
    """All 2x2 minors of a 2-row matrix, column pairs in lexicographic order.

    Sign convention: top[i]*bottom[j] - top[j]*bottom[i] for i < j.
    """
    if len(matrix) != 2:
        raise ValueError("expected a matrix with exactly 2 rows")
    top, bottom = matrix
    if len(top) != len(bottom):
        raise ValueError("rows of different lengths")
    n = len(top)
    return [
        top[i] * bottom[j] - top[j] * bottom[i]
        for i in range(n)
        for j in range(i + 1, n)
    ]


# -- toric ideals -----------------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _size_reduce(vectors: list[list[int]]) -> list[list[int]]:
    """Greedy pairwise reduction keeping kernel vectors (so binomial degrees) small."""

    def norm(v):
        return sum(x * x for x in v)

    vecs = [list(v) for v in vectors]
    changed = True
    rounds = 0
    while changed and rounds < 100:
        changed = False
        rounds += 1
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                if i == j:
                    continue
                vi, vj = vecs[i], vecs[j]
                nj = norm(vj)
                if nj == 0:
                    continue
                t = round(Fraction(sum(a * b for a, b in zip(vi, vj)), nj))
                if t == 0:
                    continue
                cand = [a - t * b for a, b in zip(vi, vj)]
                if norm(cand) < norm(vi):
                    vecs[i] = cand
                    changed = True
    return vecs


def _kernel_basis(weights: tuple[int, ...]) -> list[list[int]]:
    """Basis of the integer kernel of the 1xn matrix (weights)."""
    n = len(weights)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    vals = list(weights)
    for i in range(1, n):
        g, x, y = _xgcd(vals[0], vals[i])
        c0, ci = cols[0], cols[i]
        new0 = [x * a + y * b for a, b in zip(c0, ci)]
        newi = [(vals[i] // g) * a - (vals[0] // g) * b for a, b in zip(c0, ci)]
        cols[0], cols[i] = new0, newi
        vals[0], vals[i] = g, 0
    return _size_reduce(cols[1:])


def _binomial_from_vector(ring: PolyRing, v: list[int]) -> Polynomial:
    pos = tuple(max(x, 0) for x in v)
    neg = tuple(max(-x, 0) for x in v)
    return ring.monomial(pos) - ring.monomial(neg)


def toric_ideal(
    weights,
    *,
    names=None,
    seed=(),
    max_basis: int = DEFAULT_MAX_BASIS,
    max_wdeg: int | None = None,
) -> GroebnerBasis:
    """Groebner basis of the kernel of X_i -> t^(w_i).

    The lattice-basis ideal is saturated by the product of the variables via
    one auxiliary variable and elimination.  Optional ``seed`` polynomials
    must already lie in the kernel (each a weight-homogeneous binomial);
    they can only speed up saturation, never change the result.
    """
    weights = tuple(int(w) for w in weights)
    n = len(weights)
    if n > 6:
        raise ResourceLimit(f"toric ideals limited to 6 variables, got {n}")
    if max(weights) > 200:
        raise ResourceLimit(
            f"toric ideals limited to weights <= 200, got {max(weights)}"
        )
    if math.gcd(*weights) != 1:
        raise ValueError("weights must have gcd 1")
    if names is None:
        names = [f"X{i+1}" for i in range(n)]
    ring = PolyRing(names, weights)

    ring_t = PolyRing(tuple(names) + ("T_sat",), weights + (1,), elim=n)
    lift = list(range(n))
    gens = [_binomial_from_vector(ring_t, v + [0]) for v in _kernel_basis(weights)]
    for p in seed:
        # only difference-of-equal-degree-monomials seeds are guaranteed members
        terms = list(p.terms.items())
        if (
            len(terms) != 2
            or terms[0][1] + terms[1][1] != 0
            or not p.is_homogeneous()
        ):
            raise ValueError(f"seed {p} is not a homogeneous cancelling binomial")
        gens.append(p.map_to(ring_t, lift))
    gens.append(ring_t.monomial(tuple([1] * n + [1])) - ring_t.one())

    gb_t = buchberger(gens, max_basis=max_basis, max_wdeg=max_wdeg)
    kept = []
    for p in gb_t:
        if all(m[n] == 0 for m in p.terms):
            q = Polynomial(ring, {m[:n]: c for m, c in p.terms.items()})
            if not q.is_homogeneous():
                raise AssertionError(f"toric basis element {q} is not homogeneous")
            kept.append(q)
    kept.sort(key=lambda p: ring.sort_key(p.lm()))
    return GroebnerBasis(ring, kept)


# -- left kernels over a quotient ring (module syzygies) ----------------------


def kernel_over_quotient(
    rows: list[list[Polynomial]],
    ideal_gens: list[Polynomial],
    *,
    max_basis: int = DEFAULT_MAX_BASIS,
) -> list[tuple[Polynomial, ...]]:
    """Generators of the left kernel {f : f.N = 0 over ring/ideal}.

    ``rows`` are the rows of the matrix N.  Returns tag rows f (length =
    number of rows of N); every returned row satisfies f.N = 0 modulo the
    ideal, which is asserted before returning.

    Row i of N becomes the vector (N_i, e_i) in a free module with "value"
    positions 0..q-1 for the columns and "tag" positions q..q+r-1, next to
    h * e_j for every ideal generator h and column j.  In the position-over-
    term order the value positions lead, so the basis elements whose lead
    sits at a tag position have no value part, and their tag parts generate
    the kernel.
    """
    if not rows:
        return []
    r = len(rows)
    q = len(rows[0])
    ring = (rows[0][0]).ring
    if r > 4:
        raise ResourceLimit(f"kernel computation limited to 4 rows, got {r}")
    if ring.nvars > 6:
        raise ResourceLimit(
            f"kernel computation limited to 6 ring variables, got {ring.nvars}"
        )
    if any(len(row) != q for row in rows):
        raise ValueError("ragged matrix")

    module = FreeModule(ring, q + r)
    vectors = [
        module.vector({**dict(enumerate(row)), q + i: ring.one()})
        for i, row in enumerate(rows)
    ]
    for h in ideal_gens:
        if not h.is_zero():
            vectors.extend(module.vector({j: h}) for j in range(q))

    gb = buchberger(vectors, max_basis=max_basis)

    ideal_gb = buchberger(ideal_gens, ring=ring) if ideal_gens else None
    out: list[tuple[Polynomial, ...]] = []
    seen = set()
    for v in gb:
        if module.position(v.lm()) < q:
            continue
        comps = module.components(v)[q:]
        if ideal_gb is not None and all(
            ideal_gb.normal_form(p).is_zero() for p in comps
        ):
            continue  # the zero row of the quotient; contributes nothing
        sig = tuple(frozenset(p.terms.items()) for p in comps)
        if sig in seen:
            continue
        seen.add(sig)
        for j in range(q):
            entry = ring.zero()
            for i in range(r):
                entry = entry + comps[i] * rows[i][j]
            residue = entry if ideal_gb is None else ideal_gb.normal_form(entry)
            if not residue.is_zero():
                raise AssertionError(
                    f"kernel row fails f.N = 0 at column {j}: remainder {residue}"
                )
        out.append(tuple(comps))
    return out
