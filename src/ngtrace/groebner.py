"""Buchberger Groebner bases, toric ideals by saturation, module syzygies.

One Buchberger serves ideals of a PolyRing and submodules of a FreeModule.
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

from .errors import ResourceLimit
from .polyring import FreeModule, PolyRing, Polynomial

DEFAULT_MAX_BASIS = 5000
DEGREE_CAP_FACTOR = 10
STAT_NAMES = (
    "pairs_queued",
    "pairs_skipped",
    "pairs_seeded",
    "pairs_chained",
    "zero_reductions",
    "peak_basis",
    "max_lead_wdeg",
    "pairs_left",
)


def _lead_entry(g: Polynomial):
    """(lead exponent fields, lead, lead coefficient, tail term items)."""
    lm, lc = g.lt()
    return (-lm & g.ring.mask, lm, lc, [(m, c) for m, c in g.terms.items() if m != lm])


def _lead_index(polys) -> dict[int, list]:
    """Lead entries of polys by position, each list in the order of polys."""
    index: dict[int, list] = {}
    for g in polys:
        index.setdefault(g.lm() >> g.ring.pos_shift, []).append(_lead_entry(g))
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
        q = m - lm
        factor = c if lc == 1 else (-c if lc == -1 else Fraction(c) / Fraction(lc))
        for gm, gc in tail:
            mm = gm + q
            s = work.get(mm, 0) - factor * gc
            if s == 0:
                work.pop(mm, None)
            else:
                work[mm] = s
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
        if p.ring != self.ring:
            raise ValueError(f"polynomial over {p.ring!r}, basis over {self.ring!r}")
        if self._index is None:
            self._index = _lead_index(self.polys)
        return _reduce_terms(p, self._index)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def self_check(self, below: int | None = None) -> bool:
        """Re-verify the defining closure: every S-polynomial reduces to zero.

        With ``below``, only the pairs whose lcm has degree below it are
        checked: a basis the pair loop stopped before that degree is
        complete below it.
        """
        polys = list(self.polys)
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                a, b = polys[i].lm(), polys[j].lm()
                if self.ring.skip_pair(a, b):
                    continue
                gamma = self.ring.lcm(a, b)
                if below is not None and self.ring.degree(gamma) >= below:
                    continue
                if not self.contains(_spoly(polys[i], polys[j], gamma)):
                    return False
        return True

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} elements over {self.ring!r})"


def _spoly(f: Polynomial, g: Polynomial, gamma: int) -> Polynomial:
    """uf*f - ratio*ug*g for the lead lcm gamma, built from the tails: the leading terms cancel."""
    (lf, cf), (lg, cg) = f.lt(), g.lt()
    uf, ug = gamma - lf, gamma - lg
    ratio = 1 if cf == cg else Fraction(cf) / Fraction(cg)
    terms = {m + uf: c for m, c in f.terms.items() if m != lf}
    for m, c in g.terms.items():
        if m == lg:
            continue
        mm = m + ug
        s = terms.get(mm, 0) - ratio * c
        if s == 0:
            terms.pop(mm, None)
        else:
            terms[mm] = s
    return Polynomial(f.ring, terms)


def _interreduce(ring: PolyRing, polys: list[Polynomial], settled=()) -> list[Polynomial]:
    """Minimal leads, then every tail reduced against them.

    A tail term is smaller than its own lead, so it is never a multiple of
    it: each tail may be reduced against the index of all kept leads.
    ``settled`` may name some of the polys that are monic and reduced
    against each other (a part of a reduced basis): the lead of one
    divides no term of another.  Only the kept leads from outside
    ``settled`` are then tested against the terms of a settled poly, and
    a kept settled poly whose tail none of them divides is returned as it
    is.
    """
    polys = sorted((p.monic() for p in polys if not p.is_zero()), key=Polynomial.lm)
    settled = {id(p) for p in settled}
    kept: list[Polynomial] = []
    leads: dict[int, list[int]] = {}  # position -> kept leads
    loose: dict[int, list[int]] = {}  # position -> kept leads outside settled
    for p in polys:
        lm, mine = p.lm(), id(p) in settled
        pos = lm >> ring.pos_shift
        if not any(ring.divides(d, lm) for d in (loose if mine else leads).get(pos, ())):
            leads.setdefault(pos, []).append(lm)
            if not mine:
                loose.setdefault(pos, []).append(lm)
            kept.append(p)
    index = _lead_index(kept)
    reduced = []
    for p in kept:
        lm = p.lm()
        if id(p) in settled and not any(
            ring.divides(d, m) for d in loose.get(lm >> ring.pos_shift, ()) for m in p.terms if m != lm
        ):
            reduced.append(p)
            continue
        tail = _reduce_terms(Polynomial(ring, {m: c for m, c in p.terms.items() if m != lm}), index)
        reduced.append(Polynomial(ring, {lm: 1, **tail.terms}))
    return reduced


def buchberger(gens, *, basis=(), ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal or submodule generated by gens.

    ``gens`` are polynomials over a PolyRing (an ideal) or vectors over a
    FreeModule (a submodule).  ``basis`` may hold monic polynomials that
    already form a reduced Groebner basis, such as the polys of another
    buchberger result; they are admitted as they are, every pair between
    two of them counts as treated from the start, and the result is the
    reduced basis of the ideal or submodule generated by basis and gens.

    Pair selection is the normal strategy: smallest degree of the pair lcm
    first (the ring's ``degree``: the weighted degree, plus the position's
    degree in a free module), ties by pair creation index.  Pairs are
    formed only between leads at the same position; those with coprime
    leads in a ring are never queued and count as treated (the product
    criterion); the classic chain criterion (both companion pairs
    already treated) prunes the rest.  The result's ``stats`` count, as
    plain ints: pairs_queued, pairs_skipped (by the product criterion; the
    loop of kernel_over_quotient also skips by it pairs of an element with
    a seed, see _close), pairs_seeded (both in ``basis``),
    pairs_chained (pruned by the chain criterion), zero_reductions
    (S-polynomials that reduced to zero), peak_basis (the basis size
    before interreduction), max_lead_wdeg and pairs_left (the pairs still
    queued when the loop stopped: 0, as buchberger runs it to the end).

    A basis element of weighted degree above DEGREE_CAP_FACTOR times the
    weight sum, or a basis of more than DEFAULT_MAX_BASIS elements, raises
    ResourceLimit; both constants are read at each call.
    """
    closed = _close(gens, basis, ring)
    return GroebnerBasis(closed.ring, _interreduce(closed.ring, closed.polys), closed.stats)


def _close(gens, basis, ring, stop=None, everywhere=False) -> GroebnerBasis:
    """buchberger's pair loop: a Groebner basis of basis and gens, not interreduced.

    Pairs are queued by the ring's ``degree`` of their lcm.  For
    homogeneous basis and gens that is the degree of the S-polynomial and
    of its remainder, so the loop runs degree by degree: once the least
    queued pair has degree D, every pair of lower degree is treated and
    every element yet to come has degree D or more, and the polys so far
    are a Groebner basis below D (a truncated Groebner basis, Kreuzer and
    Robbiano, Computational Commutative Algebra 2, 4.5).  ``stop``, if
    given, is called as stop(D, polys) before the first pair of each new
    degree D; when it returns True the loop ends there, with the pairs
    still queued counted as pairs_left.

    ``everywhere`` says that the module basis is g e_k for every g of an
    ideal's reduced basis and every position k.  Then the product
    criterion holds for a pair (v, g e_p) whose ring leads x^a (of
    lm v = x^a e_p) and G (of g = G + g') are coprime: with w = v - v_p e_p,
    whose components sit at later positions,
    G v - x^a g e_p = sum_k w_k (g e_k) - g' v + (v_p - x^a) (g e_p),
    and every term there is below the lcm G x^a e_p.  Such a pair is
    never queued, counts as pairs_skipped and is treated for the chain
    criterion.  Without g e_k at every k the identity has no basis
    element to stand on, so other seed bases do not use it.
    """
    basis = list(basis)
    gens = [g for g in gens if not g.is_zero()]
    if not basis and not gens:
        ring = ring if ring is not None else PolyRing(("X",), (1,))
        return GroebnerBasis(ring, (), dict.fromkeys(STAT_NAMES, 0))
    first = (basis + gens)[0]
    ring = first.ring
    for g in basis + gens:
        first._check(g)
    if any(g.is_zero() or g.lc() != 1 for g in basis):
        raise ValueError("a seed basis holds monic polynomials only")
    cap = DEGREE_CAP_FACTOR * sum(ring.weights)
    mask, guards, pos_shift = ring.mask, ring.guards, ring.pos_shift

    polys: list[Polynomial] = []
    lms: list[int] = []
    lead_es: list[int] = []
    supports: list[int] = []
    index: dict[int, list] = {}
    at: dict[int, list[int]] = {}  # position -> basis indices with a lead there
    top = 0

    def admit(p: Polynomial):
        nonlocal top
        lm = p.lm()
        deg = ring.wdeg(lm)
        if deg > cap:
            raise ResourceLimit(f"basis element degree {deg} exceeds cap {cap}")
        top = max(top, deg)
        polys.append(p)
        if len(polys) > DEFAULT_MAX_BASIS:
            raise ResourceLimit(f"basis size exceeds cap {DEFAULT_MAX_BASIS}")
        entry = _lead_entry(p)
        index.setdefault(lm >> pos_shift, []).append(entry)
        at.setdefault(lm >> pos_shift, []).append(len(lms))
        lms.append(lm)
        lead_es.append(entry[0])
        supports.append(ring.support(lm))

    for g in basis:
        admit(g)
    seeded = len(polys)
    # the product criterion holds for the pairs i < j with i < coprime_below:
    # every pair in a ring, and the pairs with a seed given ``everywhere``
    coprime_below = math.inf if isinstance(ring, PolyRing) else seeded if everywhere else 0
    for g in gens:
        r = _reduce_terms(g, index).monic()
        if not r.is_zero():
            admit(r)

    pairs: list[tuple[int, int, int, int, int]] = []
    seq = skipped = inside = chained = zeros = 0
    # bit i of treated[j] is set once the pair i < j (same position) is
    # treated; bits keep a submodule's many pairs to a few bytes each
    treated: list[int] = []
    seeds_at: dict[int, int] = {}  # position -> bit mask of the seeds there

    def push_pairs(j: int):
        nonlocal seq, skipped, inside
        pos = lms[j] >> pos_shift
        if j < seeded:  # pairs within the seed basis, whose S-polynomials reduce to zero
            done = seeds_at.get(pos, 0)
            seeds_at[pos] = done | 1 << j
            inside += done.bit_count()
            treated.append(done)
            return
        done = 0
        for i in at[pos]:
            if i >= j:
                break
            if i < coprime_below and not supports[i] & supports[j]:
                done |= 1 << i
                skipped += 1
                continue
            gamma = ring.lcm(lms[i], lms[j])
            heapq.heappush(pairs, (ring.degree(gamma), seq, i, j, gamma))
            seq += 1
        treated.append(done)

    def is_treated(a: int, b: int) -> bool:
        return treated[max(a, b)] >> min(a, b) & 1

    for j in range(len(polys)):
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
        admit(r.monic())
        push_pairs(len(polys) - 1)

    counts = (seq, skipped, inside, chained, zeros, len(polys), top, len(pairs))
    return GroebnerBasis(ring, polys, dict(zip(STAT_NAMES, counts)))


def first_nonzero_column(row, matrix, gb: GroebnerBasis) -> tuple[int, Polynomial] | None:
    """The first column j where row.matrix is nonzero modulo gb, with its normal form.

    Returns None when row.matrix vanishes modulo gb at every column.  Each
    column's products are summed into one term dict: a product term is the
    sum of two terms within the packing limit, so it is exact, and
    normal_form checks every term that survives against the limit.
    """
    ring = gb.ring
    for j in range(len(matrix[0])):
        terms: dict[int, object] = {}
        for f, line in zip(row, matrix):
            for m2, c2 in line[j].terms.items():
                for m1, c1 in f.terms.items():
                    m = m1 + m2
                    s = terms.get(m, 0) + c1 * c2
                    if s == 0:
                        del terms[m]
                    else:
                        terms[m] = s
        residue = gb.normal_form(Polynomial(ring, terms))
        if not residue.is_zero():
            return j, residue
    return None


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


def toric_ideal(weights, *, seed=()) -> GroebnerBasis:
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

    gb_t = buchberger(gens)
    kept = []
    for p in gb_t:
        exps = {m: ring_t.exponents(m) for m in p.terms}
        if all(e[n] == 0 for e in exps.values()):
            q = Polynomial(ring, {ring.term(exps[m][:n]): c for m, c in p.terms.items()})
            if not q.is_homogeneous():
                raise AssertionError(f"toric basis element {q} is not homogeneous")
            kept.append(q)
    kept.sort(key=Polynomial.lm)
    return GroebnerBasis(ring, kept)


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
            if not p.is_homogeneous():
                raise ValueError(f"matrix entry ({i}, {j}) = {p} is not homogeneous")
            edges[j].append((q + i, p.wdeg()))
            edges[q + i].append((j, -p.wdeg()))
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
    """Generators of the left kernel {f : f.N = 0 over ring/ideal}.

    ``rows`` are the rows of the matrix N, and ``ideal_gens`` generators of
    the ideal or its GroebnerBasis.  Returns tag rows f (length = number of
    rows of N); every returned row satisfies f.N = 0 modulo the ideal,
    which is asserted before returning.

    Row i of N becomes the vector (N_i, e_i) in a free module with "value"
    positions 0..q-1 for the columns and "tag" positions q..q+r-1.  The
    module basis is seeded with g * e_j for every g in the ideal's reduced
    basis and every position j, value and tag alike: those form a reduced
    basis already, since S(g e_j, g' e_j) = S(g, g') e_j reduces to zero
    over it, so the pair loop starts from them instead of rebuilding the
    ideal's basis at every position.  The seeds at the tag positions do not
    change the module: g e_(q+i) is g times row i's vector minus the
    multiples g N_ij e_j of value seeds, as every g N_ij lies in the ideal.
    So the module, and with it its reduced basis, is the one generated by
    the rows and the value seeds alone.  In the position-over-term order
    the value positions lead, so the basis elements whose lead sits at a
    tag position have no value part, and their tag parts generate the
    kernel.  Only those are read, and their minimality and tails involve
    tag leads only, so only they are interreduced: they come out as in the
    reduced basis of the whole module.  Only buchberger's basis-size and
    degree caps bound it.

    A kept row is zero in the quotient only if it is a tag seed g e_k,
    so those are dropped as they stand and no entry is tested against the
    ideal.  Every tag seed is among the interreduced elements, so some
    kept lead divides lm(g) e_k, and no tail term of a kept row is
    divisible by lm(g) e_k: every tail is in normal form modulo the ideal.
    If lm(g) e_k divides a kept lead, the kept lead dividing lm(g) e_k
    divides that lead too, so by minimality the two are equal.  A kept
    row led otherwise has each entry in normal form and a nonzero lead
    component.  A kept row led by lm(g) e_k, with g = G + g', has k-th
    entry G + t with t in normal form; its normal form is t - g' (the
    basis is reduced), which vanishes only when the entry is g, and the
    other entries, in normal form, vanish only when they are 0: the row
    is then g e_k.

    The module is graded: tag position q+i has degree t_i and value
    position j degree s_j, with deg N_ij + s_j = t_i at every nonzero N_ij,
    so every row vector is homogeneous (of degree t_i) and the pair loop
    runs degree by degree.  A matrix with no column, or one that admits no
    such degrees (an entry that is not homogeneous, or rows whose degrees
    disagree), raises ValueError.  The degrees change only the order in
    which pairs are taken, and the reduced basis is unique, so the rows
    are those of the ungraded module.

    ``stop``, if given, needs a homogeneous ideal and is called as
    stop(low, found) before the first pair of each new module degree D:
    ``found`` holds the tag rows of degree below D (deg f_i + t_i) found
    since the last call, and low = D - max_i t_i.  If it returns True the
    pair loop ends.  The basis is then complete below D, so the returned
    rows generate the kernel in every degree below D, and a homogeneous
    kernel element they do not generate has degree D or more: each of its
    nonzero entries has degree at least low.  Each entry of a found row
    is its own normal form modulo the ideal's reduced basis, so it is
    zero in the quotient iff it is zero: the pair loop admits only
    elements fully reduced against an index that holds g e_k at every
    position k.  Without ``stop`` the whole kernel is returned.
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

    ideal_gb = (
        ideal_gens if isinstance(ideal_gens, GroebnerBasis) else buchberger(ideal_gens, ring=ring)
    )
    module = FreeModule(ring, q + r, _position_degrees(rows))
    seed = [module.vector({j: g}) for j in range(q + r) for g in ideal_gb]
    vectors = [
        module.vector({**dict(enumerate(row)), q + i: ring.one()})
        for i, row in enumerate(rows)
    ]
    hook = None
    if stop is not None:
        if not all(g.is_homogeneous() for g in ideal_gb):
            raise ValueError("an early stop needs a homogeneous ideal")
        top = max(module.degrees[q:])
        pending: list[Polynomial] = []
        seen = len(seed)  # seeds have no kernel part modulo the ideal

        def hook(level, polys):
            nonlocal seen
            pending.extend(v for v in polys[seen:] if module.position(v.lm()) >= q)
            seen = len(polys)
            found = [v for v in pending if module.degree(v.lm()) < level]
            pending[:] = [v for v in pending if module.degree(v.lm()) >= level]
            return stop(level - top, [tuple(module.components(v)[q:]) for v in found])

    closed = _close(vectors, seed, module, hook, everywhere=True)
    tag_seeds = seed[q * len(ideal_gb):]
    tagged = _interreduce(module, [v for v in closed if module.position(v.lm()) >= q], tag_seeds)

    zero_rows = {s.lm(): s for s in tag_seeds}
    out: list[tuple[Polynomial, ...]] = []
    for v in tagged:
        if v == zero_rows.get(v.lm()):
            continue  # a tag seed: the zero row of the quotient, and the only one
        comps = module.components(v)[q:]
        failure = first_nonzero_column(comps, rows, ideal_gb)
        if failure is not None:
            j, residue = failure
            raise AssertionError(f"kernel row fails f.N = 0 at column {j}: remainder {residue}")
        out.append(tuple(comps))
    return out
