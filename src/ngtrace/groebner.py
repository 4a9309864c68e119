"""Buchberger Groebner bases, toric ideals by saturation, module syzygies.

One Buchberger serves ideals of a PolyRing and submodules of a FreeModule.
Terms are the packed ints of ``polyring``: int comparison is the order,
``+`` multiplies, and divisibility is a guard-bit test on the exponent
fields, so nothing here decodes a term.  Leads are indexed by position
(``lead >> pos_shift``; a ring has the one position 0), so a module term is
tested only against leads at its own position.  Everything is
deterministic: S-pairs are processed by smallest weighted degree of the
pair lcm, ties broken by creation index, and the returned basis is
auto-reduced, monic and sorted.  Size and degree caps, and the packing
limit of the ring, raise ResourceLimit explicitly rather than truncating.
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

    def self_check(self) -> bool:
        """Re-verify the defining closure: every S-polynomial reduces to zero."""
        polys = list(self.polys)
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                a, b = polys[i].lm(), polys[j].lm()
                if self.ring.skip_pair(a, b):
                    continue
                if not self.contains(_spoly(polys[i], polys[j], self.ring.lcm(a, b))):
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


def _interreduce(ring: PolyRing, polys: list[Polynomial]) -> list[Polynomial]:
    """Minimal leads, then every tail reduced against them.

    A tail term is smaller than its own lead, so it is never a multiple of
    it: each tail may be reduced against the index of all kept leads.
    """
    polys = sorted((p.monic() for p in polys if not p.is_zero()), key=Polynomial.lm)
    kept: list[Polynomial] = []
    leads: dict[int, list[int]] = {}
    for p in polys:
        lm = p.lm()
        same = leads.setdefault(lm >> ring.pos_shift, [])
        if not any(ring.divides(d, lm) for d in same):
            same.append(lm)
            kept.append(p)
    index = _lead_index(kept)
    reduced = []
    for p in kept:
        lm = p.lm()
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

    Pair selection is the normal strategy: smallest weighted degree of the
    pair lcm first, ties by pair creation index.  Pairs are formed only
    between leads at the same position; those the ring's skip_pair rules
    out (coprime leads in a ring) are never queued and count as treated;
    the classic chain criterion (both companion pairs already treated)
    prunes the rest.  The result's ``stats`` count, as plain ints:
    pairs_queued, pairs_skipped (by skip_pair), pairs_seeded (both in
    ``basis``), pairs_chained (pruned by the chain criterion),
    zero_reductions (S-polynomials that reduced to zero), peak_basis (the
    basis size before interreduction) and max_lead_wdeg.

    A basis element of weighted degree above DEGREE_CAP_FACTOR times the
    weight sum, or a basis of more than DEFAULT_MAX_BASIS elements, raises
    ResourceLimit; both constants are read at each call.
    """
    closed = _close(gens, basis, ring)
    return GroebnerBasis(closed.ring, _interreduce(closed.ring, closed.polys), closed.stats)


def _close(gens, basis, ring) -> GroebnerBasis:
    """buchberger's pair loop: a Groebner basis of basis and gens, not interreduced."""
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

    for g in basis:
        admit(g)
    seeded = len(polys)
    for g in gens:
        r = _reduce_terms(g, index).monic()
        if not r.is_zero():
            admit(r)

    pairs: list[tuple[int, int, int, int, int]] = []
    seq = skipped = inside = chained = zeros = 0
    # bit i of treated[j] is set once the pair i < j (same position) is
    # treated; bits keep a submodule's many pairs to a few bytes each
    treated: list[int] = []

    def push_pairs(j: int):
        nonlocal seq, skipped, inside
        done = 0
        for i in at[lms[j] >> pos_shift]:
            if i >= j:
                break
            if j < seeded:  # both in the seed basis, whose S-polynomials reduce to zero
                done |= 1 << i
                inside += 1
                continue
            if ring.skip_pair(lms[i], lms[j]):
                done |= 1 << i
                skipped += 1
                continue
            gamma = ring.lcm(lms[i], lms[j])
            heapq.heappush(pairs, (ring.wdeg(gamma), seq, i, j, gamma))
            seq += 1
        treated.append(done)

    def is_treated(a: int, b: int) -> bool:
        return treated[max(a, b)] >> min(a, b) & 1

    for j in range(len(polys)):
        push_pairs(j)

    while pairs:
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

    counts = (seq, skipped, inside, chained, zeros, len(polys), top)
    return GroebnerBasis(ring, polys, dict(zip(STAT_NAMES, counts)))


def first_nonzero_column(row, matrix, gb: GroebnerBasis) -> tuple[int, Polynomial] | None:
    """The first column j where row.matrix is nonzero modulo gb, with its normal form.

    Returns None when row.matrix vanishes modulo gb at every column.  Zero
    entries of the matrix are skipped.
    """
    zero = gb.ring.zero()
    for j in range(len(matrix[0])):
        entry = zero
        for f, line in zip(row, matrix):
            if not line[j].is_zero():
                entry = entry + f * line[j]
        residue = gb.normal_form(entry)
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


def kernel_over_quotient(rows: list[list[Polynomial]], ideal_gens) -> list[tuple[Polynomial, ...]]:
    """Generators of the left kernel {f : f.N = 0 over ring/ideal}.

    ``rows`` are the rows of the matrix N, and ``ideal_gens`` generators of
    the ideal or its GroebnerBasis.  Returns tag rows f (length = number of
    rows of N); every returned row satisfies f.N = 0 modulo the ideal,
    which is asserted before returning.

    Row i of N becomes the vector (N_i, e_i) in a free module with "value"
    positions 0..q-1 for the columns and "tag" positions q..q+r-1.  The
    module basis is seeded with g * e_j for every g in the ideal's reduced
    basis and every column j: those form a reduced basis already, since
    S(g e_j, g' e_j) = S(g, g') e_j reduces to zero over it, so the pair
    loop starts from them instead of rebuilding the ideal's basis at every
    value position.  In the position-over-term order the value positions
    lead, so the basis elements whose lead sits at a tag position have no
    value part, and their tag parts generate the kernel.  Only those are
    read, and their minimality and tails involve tag leads only, so only
    they are interreduced: they come out as in the reduced basis of the
    whole module.
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

    ideal_gb = (
        ideal_gens if isinstance(ideal_gens, GroebnerBasis) else buchberger(ideal_gens, ring=ring)
    )
    module = FreeModule(ring, q + r)
    seed = [module.vector({j: g}) for j in range(q) for g in ideal_gb]
    vectors = [
        module.vector({**dict(enumerate(row)), q + i: ring.one()})
        for i, row in enumerate(rows)
    ]
    closed = _close(vectors, seed, module)
    tagged = _interreduce(module, [v for v in closed if module.position(v.lm()) >= q])

    out: list[tuple[Polynomial, ...]] = []
    for v in tagged:
        comps = module.components(v)[q:]
        if all(ideal_gb.contains(p) for p in comps):
            continue  # the zero row of the quotient; contributes nothing
        failure = first_nonzero_column(comps, rows, ideal_gb)
        if failure is not None:
            j, residue = failure
            raise AssertionError(f"kernel row fails f.N = 0 at column {j}: remainder {residue}")
        out.append(tuple(comps))
    return out
