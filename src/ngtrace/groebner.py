"""Buchberger Groebner bases, module syzygies, toric ideals by colons.

One Buchberger serves ideals of a PolyRing and submodules of a FreeModule;
the 2-minors of a validated cyclic matrix, base or deformed, are proved a
Groebner basis (minors_basis), so no pair of them is ever settled, and
S-polynomials are formed in that pair loop alone.  Toric ideals (a test
oracle) saturate by repeated colons read off the module kernel, so every
basis is taken in its ring's own order.
Terms are the packed ints of ``polyring``: int comparison is the order,
``+`` multiplies, and divisibility is a guard-bit test on the exponent
fields, so nothing here decodes a term.  Leads are indexed by position
(``lead >> pos_shift``; a ring has the one position 0), so a module term is
tested only against leads at its own position.  Everything is
deterministic: S-pairs are processed by smallest degree of the pair lcm
(its weighted degree plus the degree of its position), ties broken by
creation index, and the returned basis is auto-reduced, monic and sorted.
Size and degree caps, and the packing limit of the ring, raise
ResourceLimit explicitly rather than truncating.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import ResourceLimit
from .polyring import FreeModule, PolyRing, Polynomial, add_products, check_ring

if TYPE_CHECKING:
    from .determinantal import DeterminantalInstance
    from .higher_dim import HigherDimInstance

DEFAULT_MAX_BASIS = 5000
DEGREE_CAP_FACTOR = 10
STAT_NAMES = (
    "pairs_queued",
    "pairs_skipped",
    "pairs_chained",
    "zero_reductions",
    "peak_basis",
    "max_lead_wdeg",
    "pairs_left",
)


def _codes(ring) -> range:
    """The position codes (term >> pos_shift) of ring: 1..rank in a free module, 0 in a ring."""
    return range(1, ring.rank + 1) if isinstance(ring, FreeModule) else range(1)


def _lead_index(ring, polys, modulo=()) -> dict[int, list]:
    """Lead entries of polys by position, each list in the order of polys.

    Each poly of ``modulo`` is over ring's base ring and stands for its
    multiple at every position: its entry heads every position's list.
    """
    heads = [g.lead_entry() for g in modulo]
    index = {code: list(heads) for code in _codes(ring)}
    for g in polys:
        index.setdefault(g.lm() >> ring.pos_shift, []).append(g.lead_entry())
    return index


def _reduce_terms(p: Polynomial, index: dict[int, list]) -> Polynomial:
    """Core division loop: p fully reduced against indexed lead data.

    Each term is checked against the packing limit when it leaves the work
    dict; a term formed inside the loop is the sum of two checked terms, so
    it is exact until then.
    """
    ring = p.ring
    mask, guards, pos_shift, check = ring.mask, ring.guards, ring.pos_shift, ring.check
    work = dict(p.terms)
    remainder: dict[int, object] = {}
    while work:
        m = max(work)
        c = work.pop(m)
        check(m)
        e = (-m & mask) | guards
        for lead_e, lm, lc, tail in index.get(m >> pos_shift, ()):
            if (e - lead_e) & guards == guards:
                break
        else:
            remainder[m] = c
            continue
        factor = c if lc == 1 else (-c if lc == -1 else Fraction(c) / Fraction(lc))
        add_products(work, ((m - lm, -factor),), tail)
    return Polynomial(ring, remainder)


class GroebnerBasis:
    """A Groebner basis plus the ring (which carries the order).

    ``stats`` holds the counters of the pair loop that made it (see
    buchberger), or is None for a basis assembled otherwise.
    """

    __slots__ = ("ring", "polys", "stats", "_index")

    def __init__(self, ring: PolyRing, polys, stats: dict[str, int] | None = None):
        self.ring = ring
        self.polys = tuple(polys)
        self.stats = stats
        self._index = None

    def normal_form(self, p: Polynomial) -> Polynomial:
        check_ring((p,), self.ring, "polynomial")
        if self._index is None:
            self._index = _lead_index(self.ring, self.polys)
        return _reduce_terms(p, self._index)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} elements over {self.ring!r})"


def _spoly(f: Polynomial, g: Polynomial, gamma: int) -> Polynomial:
    """uf*f - ratio*ug*g for the lead lcm gamma, built from the lead_entry tails: the leading terms cancel.

    The result is over g's ring: f may be a base-ring poly standing for its
    multiple at the position of gamma.
    """
    _, lf, cf, f_tail = f.lead_entry()
    _, lg, cg, g_tail = g.lead_entry()
    ratio = 1 if cf == cg else Fraction(cf) / Fraction(cg)
    uf = gamma - lf
    terms = {m + uf: c for m, c in f_tail}
    return Polynomial(g.ring, add_products(terms, ((gamma - lg, -ratio),), g_tail))


def _interreduce(ring: PolyRing, polys: list[Polynomial], modulo=()) -> list[Polynomial]:
    """Minimal leads, then every tail reduced against them.

    A tail term is smaller than its own lead, so it is never a multiple of
    it: each tail may be reduced against the index of all kept leads.
    ``modulo`` may hold monic base-ring polys that stand for their
    multiples at every position (see _close): they reduce the tails too,
    and are not returned.  No lead of polys may be a multiple of theirs.
    """
    polys = sorted((p.monic() for p in polys if not p.is_zero()), key=Polynomial.lm)
    kept: list[Polynomial] = []
    leads: dict[int, list[int]] = {}  # position -> kept leads
    for p in polys:
        lm = p.lm()
        pos = lm >> ring.pos_shift
        if not any(ring.divides(d, lm) for d in leads.get(pos, ())):
            leads.setdefault(pos, []).append(lm)
            kept.append(p)
    index = _lead_index(ring, kept, modulo)
    reduced = []
    for p in kept:
        _, lm, _, own = p.lead_entry()
        own = dict(own)
        tail = _reduce_terms(Polynomial(ring, own), index).terms
        # a poly whose tail is already reduced is kept, with its lead entry
        reduced.append(p if tail == own else Polynomial(ring, {lm: 1, **tail}))
    return reduced


def buchberger(gens, *, ring: PolyRing | FreeModule | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal or submodule generated by gens.

    ``gens`` are polynomials over a PolyRing (an ideal) or vectors over a
    FreeModule (a submodule); ``ring`` names it, needed only when gens is
    empty: with neither, there is no ring to name and ValueError is raised.

    Pair selection is the normal strategy: smallest degree of the pair lcm
    first (the ring's ``degree``: the weighted degree, plus the position's
    degree in a free module), ties by pair creation index.  Pairs are
    formed only between leads at the same position; those with coprime
    leads in a ring are never queued and count as treated (the product
    criterion); the classic chain criterion (both companion pairs
    already treated) prunes the rest.  The result's ``stats`` count, as
    plain ints: pairs_queued, pairs_skipped (by the product criterion),
    pairs_chained (pruned by the chain criterion), zero_reductions
    (S-polynomials that reduced to zero), peak_basis (the basis size
    before interreduction), max_lead_wdeg and pairs_left (the pairs still
    queued when the loop stopped: 0, as buchberger runs it to the end).

    A basis element of weighted degree above DEGREE_CAP_FACTOR times the
    weight sum, or a basis of more than DEFAULT_MAX_BASIS elements, raises
    ResourceLimit; both constants are read at each call.  In a free module
    an element's degree is read against the largest position degree (see
    _close).  A generator not over ``ring`` raises ValueError.
    """
    closed = _close(gens, (), ring)
    return GroebnerBasis(closed.ring, _interreduce(closed.ring, closed.polys), closed.stats)


def _close(gens, basis, ring, stop=None) -> GroebnerBasis:
    """buchberger's pair loop: a Groebner basis of basis and gens, not interreduced.

    Pairs are queued by the ring's ``degree`` of their lcm.  For
    homogeneous basis and gens that is the degree of the S-polynomial and
    of its remainder, so the loop runs degree by degree: once the least
    queued pair has degree D, every pair of lower degree is treated and
    every element yet to come has degree D or more, and the polys so far
    are a Groebner basis below D (a truncated Groebner basis, Kreuzer and
    Robbiano, Computational Commutative Algebra 2, 4.5).  ``stop``, if
    given, is called as stop(D, polys) before the first pair of each new
    degree D, with the basis polys first in polys; when it returns True
    the loop ends there, with the pairs still queued counted as pairs_left.

    ``basis`` is held once, over the base ring: each g stands for g e_k at
    every position k (a ring has the one position).  Its lead entry heads
    every position's division index, and it joins every position's pair
    list and chain check: a ring lead divides a module term by the
    exponent fields alone, and m - lm carries the term's position into
    the tail.  ``basis`` must be a Groebner basis of the ideal it
    generates, not necessarily reduced: S(g e_k, g' e_k) = S(g, g') e_k
    reduces to zero over it, so pairs of two basis polys are treated from
    the start, and each g e_k lies in the closure's module.

    In a free module the product criterion also holds for a pair
    (v, g e_p) whose ring leads x^a (of lm v = x^a e_p) and G (of
    g = G + g') are coprime: with w = v - v_p e_p, whose components sit
    at later positions,
    G v - x^a g e_p = sum_k w_k (g e_k) - g' v + (v_p - x^a) (g e_p),
    and every term there is below the lcm G x^a e_p.  Such a pair is
    never queued, counts as pairs_skipped and is treated for the chain
    criterion.  The identity needs g e_k at every position k, which the
    basis stands for.

    The returned closure holds the elements the loop admitted, and not
    the g e_k that basis stands for.  peak_basis and the DEFAULT_MAX_BASIS
    cap count each basis poly once per position.  kernel_over_quotient is
    the one caller that holds a basis.

    The degree cap reads a module element of degree d as d - s, for s the
    largest position degree: every component at position p has weighted
    degree d - (degree of p) >= d - s, so d - s is the least degree any
    component can have, and the ring's cap bounds it.  It does not depend
    on where the position degrees are anchored.  In a ring s = 0 and d - s
    is the lead's weighted degree; a basis poly g is read by its weighted
    degree too, as g e_k at a top position k has degree deg g + s.  The
    lead's own ring part may pass the cap: in the colons of toric_ideal
    it is the lcm of f and a basis lead, while the tag part has degree
    d - deg f.  max_lead_wdeg stays the largest weighted degree of an
    admitted lead.
    """
    basis, gens = list(basis), list(gens)
    if ring is None:
        if not gens and not basis:
            raise ValueError("no generator and no ring: name the ring with ring=")
        ring = gens[0].ring if gens else basis[0].ring
    base = ring.base if isinstance(ring, FreeModule) else ring
    check_ring(gens, ring, "generator")
    check_ring(basis, base, "basis polynomial")
    if any(g.is_zero() or g.lc() != 1 for g in basis):
        raise ValueError("a seed basis holds monic polynomials only")
    cap = DEGREE_CAP_FACTOR * sum(ring.weights)
    top_position = max(ring.degrees) if isinstance(ring, FreeModule) else 0
    mask, guards, pos_shift = ring.mask, ring.guards, ring.pos_shift
    codes = _codes(ring)

    polys: list[Polynomial] = []
    lms: list[int] = []
    lead_es: list[int] = []
    supports: list[int] = []
    top = size = 0

    def admit(p: Polynomial, copies: int):
        """Check the caps on p, counted ``copies`` times, and keep its lead data."""
        nonlocal top, size
        lm = p.lm()
        wdeg = ring.wdeg(lm)
        deg = ring.degree(lm) - top_position if lm >> pos_shift else wdeg
        if deg > cap:
            raise ResourceLimit(f"basis element degree {deg} exceeds cap {cap}")
        top = max(top, wdeg)
        polys.append(p)
        size += copies
        if size > DEFAULT_MAX_BASIS:
            raise ResourceLimit(f"basis size exceeds cap {DEFAULT_MAX_BASIS}")
        lms.append(lm)
        lead_es.append(p.lead_entry()[0])
        supports.append(ring.support(lm))

    for g in basis:
        admit(g, len(codes))
    seeded = len(polys)
    # every position's division list and pair list start as the whole basis,
    # each built in one step rather than poly by poly
    heads = [g.lead_entry() for g in basis]
    index: dict[int, list] = {code: list(heads) for code in codes}
    at: dict[int, list[int]] = {code: list(range(seeded)) for code in codes}  # position -> indices of the polys led there

    def place(p: Polynomial):
        """Admit p at its own position only."""
        admit(p, 1)
        code = p.lm() >> pos_shift
        index.setdefault(code, []).append(p.lead_entry())
        at.setdefault(code, []).append(len(lms) - 1)

    in_ring = isinstance(ring, PolyRing)
    for g in gens:
        r = _reduce_terms(g, index).monic()
        if not r.is_zero():
            place(r)

    pairs: list[tuple[int, int, int, int, int]] = []
    seq = skipped = chained = zeros = 0
    # bit i of treated[j] is set once the pair i < j (same position) is
    # treated; bits keep a submodule's many pairs to a few bytes each
    treated = [(1 << j) - 1 for j in range(seeded)]

    def push_pairs(j: int):
        nonlocal seq, skipped
        done = 0
        # the product criterion holds for the pairs i < j with i < coprime_below:
        # every pair in a ring, and the pairs with a basis poly in a module
        coprime_below = j if in_ring else seeded
        for i in at[lms[j] >> pos_shift]:
            if i >= j:
                break
            if i < coprime_below and not supports[i] & supports[j]:
                done |= 1 << i
                skipped += 1
                continue
            gamma = ring.lcm(lms[j], lms[i])  # at j's position: i may be a basis poly
            heapq.heappush(pairs, (ring.degree(gamma), seq, i, j, gamma))
            seq += 1
        treated.append(done)

    def is_treated(a: int, b: int) -> bool:
        return treated[max(a, b)] >> min(a, b) & 1

    for j in range(seeded, len(polys)):
        push_pairs(j)

    level = None
    while pairs:
        if stop is not None and pairs[0][0] != level:
            level = pairs[0][0]
            if stop(level, polys):
                break
        _, _, i, j, gamma = heapq.heappop(pairs)
        e = (-gamma & mask) | guards
        chain = False
        for k in at[gamma >> pos_shift]:
            if k == i or k == j or (e - lead_es[k]) & guards != guards:
                continue
            if is_treated(i, k) and is_treated(j, k):
                chain = True
                break
        treated[j] |= 1 << i
        if chain:
            chained += 1
            continue
        r = _reduce_terms(_spoly(polys[i], polys[j], gamma), index)
        if r.is_zero():
            zeros += 1
            continue
        place(r.monic())
        push_pairs(len(polys) - 1)

    counts = (seq, skipped, chained, zeros, size, top, len(pairs))
    return GroebnerBasis(ring, polys[seeded:], dict(zip(STAT_NAMES, counts)))


def first_nonzero_column(row, matrix, gb: GroebnerBasis) -> tuple[int, Polynomial] | None:
    """The first column j where row.matrix is nonzero modulo gb, with its normal form.

    Returns None when row.matrix vanishes modulo gb at every column, and
    raises ValueError when an entry of row or matrix is over a ring other
    than gb's.  Each column's products are summed into one term dict, which
    normal_form checks against the packing limit (see add_products).
    """
    ring = gb.ring
    check_ring(row, ring, "row entry")
    check_ring([p for line in matrix for p in line], ring, "matrix entry")
    for j in range(len(matrix[0])):
        terms: dict[int, object] = {}
        for f, line in zip(row, matrix):
            add_products(terms, f.terms.items(), line[j].terms.items())
        residue = gb.normal_form(Polynomial(ring, terms))
        if not residue.is_zero():
            return j, residue
    return None


def two_minors(matrix: list[list[Polynomial]]) -> list[Polynomial]:
    """All 2x2 minors of a 2-row matrix, column pairs in lexicographic order.

    Sign convention: top[i]*bottom[j] - top[j]*bottom[i] for i < j.  Each
    minor is summed into one term dict straight from the entries' terms,
    each product checked as ``*`` checks it (see add_products).
    """
    if len(matrix) != 2:
        raise ValueError("expected a matrix with exactly 2 rows")
    top, bottom = matrix
    if len(top) != len(bottom):
        raise ValueError("rows of different lengths")
    if not top:
        return []
    ring = top[0].ring
    check_ring((*top, *bottom), ring, "matrix entry")
    minors = []
    for i, j in combinations(range(len(top)), 2):
        terms: dict[int, object] = {}
        for sign, left, right in ((1, top[i], bottom[j]), (-1, top[j], bottom[i])):
            ring.check_product(left, right)
            add_products(terms, left.terms.items(), right.terms.items(), sign)
        minors.append(Polynomial(ring, terms))
    return minors


def minors_basis(inst: DeterminantalInstance | HigherDimInstance) -> GroebnerBasis:
    """The monic 2-minors of a validated instance's matrix: a Groebner basis by the theorem below.

    ``inst`` is a DeterminantalInstance or a HigherDimInstance, whose
    ``matrices[0]`` is the matrix D over its ``ring``; anything else raises
    TypeError, as the theorem covers those matrices alone.  The minors are
    returned as they are: monic, in the order of their column pairs, with
    ``stats`` None.

    Theorem.  Let D have top entries V_r = X_r^m_r (+ Y_r when r is in I)
    in column r - 1 and bottom entries U_r = X_r^l_r (+ Z_r when r is in J)
    in column r (indices mod n, n >= 3), with positive exponents, degree
    gap c != 0 and every column homogeneous (a validated instance, base or
    deformed).  Its 2-minors are a Groebner basis of I_2 in the ring's
    order: weighted degree, then reverse lexicographic with X_1 .. X_n, the
    Y, the Z in that order.

    Proof.
    1. The terms of the minor Delta_ij (columns i < j) free of Y and Z are
       those of the base minor X_(i+1)^m_(i+1) X_j^l_j - X_(j+1)^m_(j+1)
       X_i^l_i: two terms of one degree with disjoint supports.  Any other
       term holds a Y or a Z, and the reverse lexicographic order puts it
       below every term of its degree that holds none.  So the lead is the
       X-only term free of the highest variable present: X_(i+1)^m_(i+1)
       X_j^l_j for j < n, and X_1^m_1 X_i^l_i for j = n.  The leads are
       exactly X_k^m_k X_j^l_j for 1 <= k <= j <= n - 1, one per minor,
       and the marks do not change them.
    2. Let L be the ideal of these leads in k[X_1 .. X_(n-1)], and class
       each monomial alpha outside L by the first p with alpha_p >= m_p
       (p = n when there is none).  Then alpha_i < m_i for i < p,
       m_p <= alpha_p < m_p + l_p, and alpha_j < l_j for p < j <= n - 1,
       and every such alpha lies outside L.  So L has
       sum_(p=1..n) m_1 ... m_(p-1) l_p ... l_(n-1) = d_n standard
       monomials, d_n = remark_degrees(m, ell)[-1] (its d_i at i = n).
    3. Modulo Y, Z and X_n, D is the base matrix with X_n = 0, so every X_j
       is nilpotent there (step 2 of validate_defining_ideal), and I_2 has
       the largest height a 2 x n matrix allows, n - 1.  By Eagon-Northcott
       S/I_2 is then Cohen-Macaulay, and the homogeneous system of
       parameters Z.., Y.., X_n is a regular sequence on it, in any order.
       For the last variable h of the order and a homogeneous g, h divides
       in(g) only if h divides g, so a nonzerodivisor h gives
       in(I_2) : h = in(I_2) and in(I_2 + (h)) = in(I_2) + (h) (Bayer and
       Stillman, A criterion for detecting m-regularity, 1987; Eisenbud,
       Commutative Algebra, Prop. 15.12).  Taking the Z, the Y and X_n off
       the end one at a time, in(I_2) is generated by monomials in
       X_1 .. X_(n-1), and it leaves as many standard monomials there as
       the length of S/(I_2 + (Y, Z, X_n)), the base's S/(I_2 + X_n): d_n
       (step 3 of validate_defining_ideal).
    4. The leads lie in in(I_2) and leave the same finite number of
       standard monomials, so they generate it: the minors are a Groebner
       basis.

    The basis need not be reduced, and no caller needs it to be.  The
    remainder on division by any Groebner basis of an ideal is the same
    (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 2
    section 6), so normal_form, first_nonzero_column and the residues
    HDResult.verify prints are those of the reduced basis.  _close asks
    two things of a basis it holds: each S(g, g') reduces to zero over it,
    and each g lies in the ideal; any Groebner basis gives both, so
    kernel_over_quotient still returns the reduced basis of its kernel,
    each entry in normal form.
    """
    # the instance modules import this one, so their classes are read here
    from .determinantal import DeterminantalInstance
    from .higher_dim import HigherDimInstance

    if not isinstance(inst, (DeterminantalInstance, HigherDimInstance)):
        raise TypeError(f"minors_basis takes a validated instance, not {type(inst).__name__}")
    return GroebnerBasis(inst.ring, [g.monic() for g in two_minors(inst.matrices[0])])


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


def toric_ideal(weights, *, seed=()) -> GroebnerBasis:
    """Reduced Groebner basis of the toric ideal P, the kernel of X_i -> t^(w_i).

    1. P = I_B : f^inf for the lattice-basis ideal I_B and f = X_1...X_n
       (Sturmfels, Groebner Bases and Convex Polytopes, 1996).
    2. Seeds (homogeneous cancelling binomials over P's ring, in P) keep it:
       I_B <= I_B + seeds <= P = P : f^inf, as P is prime and f is not in P.
    3. I : f = I + the entries of the kernel of f on S/I, which is
       kernel_over_quotient (Kreuzer and Robbiano, Computational Commutative Algebra 1).
    4. A kernel with no row gives I : f = I, hence I = I : f^inf; a row's
       entries lie outside I, so each colon grows I and the loop ends.
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
    ring = PolyRing([f"X{i+1}" for i in range(n)], weights)
    lattice = _kernel_basis(weights)
    gens = [ring.monomial([max(x, 0) for x in v]) - ring.monomial([max(-x, 0) for x in v]) for v in lattice]
    for p in seed:
        # only difference-of-equal-degree-monomials seeds are guaranteed members
        terms = list(p.terms.items())
        if (
            len(terms) != 2
            or terms[0][1] + terms[1][1] != 0
            or not p.is_homogeneous()
        ):
            raise ValueError(f"seed {p} is not a homogeneous cancelling binomial")
        gens.append(p)
    f = ring.monomial((1,) * n)
    gb = buchberger(gens, ring=ring)
    while rows := kernel_over_quotient([[f]], gb):
        gb = buchberger([*gb, *(g for row in rows for g in row)], ring=ring)
    for q in gb:
        if not q.is_homogeneous():
            raise AssertionError(f"toric basis element {q} is not homogeneous")
    return gb


# -- left kernels over a quotient ring (module syzygies) ----------------------


def _position_degrees(rows: list[list[Polynomial]]) -> list[int]:
    """Degrees of the value positions 0..q-1 and the tag positions q..q+r-1
    with deg N_ij + (degree of j) = (degree of q + i) at every nonzero N_ij.

    Each connected block of positions is anchored at degree 0 at its first
    position.  Raises ValueError when an entry is not homogeneous or the
    equations have no solution.
    """
    r, q = len(rows), len(rows[0])
    edges: list[list[tuple[int, int]]] = [[] for _ in range(q + r)]
    for i, row in enumerate(rows):
        for j, p in enumerate(row):
            if p.is_zero():
                continue
            degrees = {p.ring.wdeg(m) for m in p.terms}  # one pass gives homogeneity and degree
            if len(degrees) > 1:
                raise ValueError(f"matrix entry ({i}, {j}) = {p} is not homogeneous")
            (d,) = degrees
            edges[j].append((q + i, d))
            edges[q + i].append((j, -d))
    degrees: list[int | None] = [None] * (q + r)
    for anchor in range(q + r):
        if degrees[anchor] is not None:
            continue
        degrees[anchor] = 0
        todo = [anchor]
        while todo:
            a = todo.pop()
            for b, w in edges[a]:
                if degrees[b] is None:
                    degrees[b] = degrees[a] + w
                    todo.append(b)
                elif degrees[b] != degrees[a] + w:
                    raise ValueError("the matrix admits no position degrees: its rows are not homogeneous")
    return degrees


def kernel_over_quotient(
    rows: list[list[Polynomial]], ideal_gens, *, stop=None
) -> list[tuple[Polynomial, ...]]:
    """The reduced Groebner basis of the left kernel {f : f.N = 0 over ring/ideal}.

    ``rows`` are the rows of the matrix N, and ``ideal_gens`` generators of
    the ideal I or its GroebnerBasis.  Returns tag rows f (length = number
    of rows of N); every returned row satisfies f.N = 0 modulo I, which is
    asserted before returning.

    Row i of N becomes the vector (N_i, e_i) in a free module F with
    "value" positions 0..q-1 for the columns and "tag" positions
    q..q+r-1.  The pair loop closes these vectors together with I F: it is
    handed a Groebner basis of I once, reduced or not, each g standing
    for g e_k at every position k (see _close).  In the position-over-term
    order the value positions lead, so the elements whose lead sits at a
    tag position have no value part, and with I at the tag positions they
    form a Groebner basis of K = {f : f.N in I^q}, whose image modulo I is
    the kernel.  Only those elements are read and interreduced, their
    tails reduced modulo I as well, so the rows are K's reduced basis
    without the multiples of I.  No lead of theirs is a multiple of a lead
    of I, as the loop admits only remainders modulo I at every position,
    so every entry of a returned row is its own normal form modulo I (the
    same over any Groebner basis of I), and no returned row is zero in
    the quotient.  Only buchberger's basis-size and degree caps bound the
    loop.

    The module is graded: tag position q+i has degree t_i and value
    position j degree s_j, with deg N_ij + s_j = t_i at every nonzero N_ij,
    so every row vector is homogeneous (of degree t_i) and the pair loop
    runs degree by degree.  A matrix with no column, or one that admits no
    such degrees (an entry that is not homogeneous, or rows whose degrees
    disagree), raises ValueError, as do entries over different rings.  The
    degrees change only the order in which pairs are taken, and the
    reduced basis is unique, so the rows are those of the ungraded module.

    ``stop``, if given, needs a homogeneous ideal and is called as
    stop(low, found) before the first pair of each new module degree D:
    ``found`` holds the tag rows of degree below D (deg f_i + t_i) found
    since the last call, and low = D - max_i t_i.  If it returns True the
    pair loop ends.  The basis is then complete below D, so the returned
    rows generate the kernel in every degree below D, and a homogeneous
    kernel element they do not generate has degree D or more: each of its
    nonzero entries has degree at least low.  Each entry of a found row
    is its own normal form modulo I, as the loop admits it, so it is zero
    in the quotient iff it is zero.  Without ``stop`` the whole kernel is
    returned.
    """
    if not rows:
        return []
    r = len(rows)
    q = len(rows[0])
    if any(len(row) != q for row in rows):
        raise ValueError("ragged matrix")
    if q == 0:
        raise ValueError("a matrix with no columns has no kernel to compute")
    ring = (rows[0][0]).ring
    check_ring([p for row in rows for p in row], ring, "matrix entry")

    ideal_gb = (
        ideal_gens if isinstance(ideal_gens, GroebnerBasis) else buchberger(ideal_gens, ring=ring)
    )
    module = FreeModule(ring, q + r, _position_degrees(rows))
    vectors = [
        module.vector({**dict(enumerate(row)), q + i: ring.one()})
        for i, row in enumerate(rows)
    ]
    hook = None
    if stop is not None:
        if not all(g.is_homogeneous() for g in ideal_gb):
            raise ValueError("an early stop needs a homogeneous ideal")
        top = max(module.degrees[q:])
        # (degree, element) of the elements led at a tag position not yet
        # handed to stop; a tag position p >= q has code rank - p <= r, and
        # both the code and the degree are read off the packed lead once
        pending: list[tuple[int, Polynomial]] = []
        seen = len(ideal_gb)  # the ideal's basis comes first in polys

        def hook(level, polys):
            nonlocal seen
            for v in polys[seen:]:
                lm = v.lm()
                if lm >> module.pos_shift <= r:
                    pending.append((module.degree(lm), v))
            seen = len(polys)
            found = [v for d, v in pending if d < level]
            if found:  # most calls hand over no row and leave pending as it is
                pending[:] = [(d, v) for d, v in pending if d >= level]
            return stop(level - top, [tuple(module.components(v)[q:]) for v in found])

    closed = _close(vectors, ideal_gb.polys, module, hook)
    tagged = [v for v in closed if module.position(v.lm()) >= q]
    out: list[tuple[Polynomial, ...]] = []
    for v in _interreduce(module, tagged, ideal_gb.polys):
        comps = module.components(v)[q:]
        failure = first_nonzero_column(comps, rows, ideal_gb)
        if failure is not None:
            j, residue = failure
            raise AssertionError(f"kernel row fails f.N = 0 at column {j}: remainder {residue}")
        out.append(tuple(comps))
    return out
