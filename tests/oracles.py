"""Reference checks and helpers the tests hold ngtrace to; nothing in the
package calls them.

* ``parse``: polynomials from strings like "X1^2*X3 - 2*X2^2 + 1".
* ``apery_by_dijkstra``: Apery sets by shortest paths on the residue graph,
  independent of the membership sieve the semigroup reads them from.
* ``apery_set``: the Apery set of any positive member, read off the sieve.
* ``is_subideal``, ``is_translate``: containment and translation of
  relative ideals, on their masks.
* ``is_nearly_gorenstein_oracle``: every generator in the oracle trace.
* ``spolys_reduce_to_zero``: Buchberger's criterion, re-run on a finished
  basis, skipping the pairs ``skip_pair`` names.
* ``certified_minors_basis``: a Groebner basis of the 2-minors of any
  2-row matrix, certified pair by pair, with ``buchberger`` as the fallback;
  the oracle of the theorem ``minors_basis`` rests on.
* ``row_generates_canonical``: a monomial row against the canonical ideal.
* ``lambda_membership_by_scan``: the slot search entry by entry, on
  ``contains``, independent of the row-start mask.
* ``kernel_is_ng``: a deformed ring R^I_J decided by its own syzygy
  kernel, independent of the clause rules of ``higher_dim.classify``.
* ``first_fitting_arrangement``: the scan for an arrangement whose base
  fits a classified block, which ``higher_dim.classify`` reads off the
  base theorem's scan instead.
"""

import heapq
import re
from fractions import Fraction
from itertools import combinations

from ngtrace.determinantal import symmetries
from ngtrace.errors import BaseMismatch
from ngtrace.groebner import (
    GroebnerBasis,
    _lead_index,
    _reduce_terms,
    _spoly,
    buchberger,
    first_nonzero_column,
    kernel_over_quotient,
    two_minors,
)
from ngtrace.higher_dim import OTHER, _block_of, _uncovered_variable, minors_basis
from ngtrace.ideals import RelativeIdeal, canonical_ideal, trace_canonical_oracle
from ngtrace.lambda_rows import LambdaRow
from ngtrace.polyring import FreeModule, Polynomial, _tighten
from ngtrace.semigroup import _apery_by_residue

_FACTOR = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)\s*(?:\^\s*(\d+))?)\s*")


def parse(ring, text: str) -> Polynomial:
    """Parse strings like "X1^2*X3 - 2*X2^2 + 1" into a polynomial over ring.

    A term is factors joined by single '*'; a factor is an integer, a
    fraction, or a variable with an optional '^' and a digit exponent.
    """
    chunks = re.split(r"([+-])", text)
    terms: dict[int, object] = {}
    for i, (sign, chunk) in enumerate(zip(["+"] + chunks[1::2], chunks[::2])):
        if i == 0 and not chunk.strip() and (len(chunks) > 1 or not text.strip()):
            continue  # a leading sign, or no text at all
        coeff, mono = Fraction(-1 if sign == "-" else 1), [0] * ring.nvars
        for factor in chunk.split("*"):
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise ValueError(f"cannot parse {factor!r} in {text!r}")
            number, name, power = m.groups()
            if number is not None:
                coeff *= Fraction(number)
            elif name in ring.names:
                mono[ring.index(name)] += int(power or 1)
            else:
                raise ValueError(f"unknown variable {name!r}")
        key = ring.term(mono)
        c = terms.get(key, 0) + coeff
        if c == 0:
            terms.pop(key, None)
        else:
            terms[key] = c
    return Polynomial(ring, {m: _tighten(c) for m, c in terms.items()})


def apery_by_dijkstra(gens, s: int) -> list[int]:
    """Least element of <gens> in each residue class mod s.

    Shortest paths on the residue graph: edge r -> (r+a) mod s of length a.
    """
    dist = [None] * s
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] != d:
            continue
        for a in gens:
            nd = d + a
            nr = nd % s
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


def apery_set(H, s: int) -> list[int]:
    """Least member of H in each residue class mod s, for s a positive member."""
    if s <= 0 or not H.contains(s):
        raise ValueError(f"{s} is not a positive element of {H}")
    return _apery_by_residue(H.mask, s)


def _same_base(E: RelativeIdeal, F: RelativeIdeal) -> None:
    if E.base != F.base:
        raise BaseMismatch("cannot compare ideals over different semigroups")


def is_subideal(E: RelativeIdeal, F: RelativeIdeal) -> bool:
    """True iff every member of E is a member of F."""
    _same_base(E, F)
    d = E.lo - F.lo
    return d >= 0 and not (E.mask << d) & ~F.mask


def is_translate(E: RelativeIdeal, F: RelativeIdeal) -> bool:
    """True iff E = F + d for the integer d aligning the least members."""
    _same_base(E, F)
    return E.mask == F.mask


def is_nearly_gorenstein_oracle(H) -> bool:
    """True iff every minimal generator of H lies in the canonical trace ideal."""
    tr = trace_canonical_oracle(H)
    return all(tr.contains(a) for a in H.generators)


def skip_pair(ring, a: int, b: int) -> bool:
    """Leads whose S-polynomial need not be checked: in a module, leads at
    different positions, which have none; in a ring, coprime leads, whose
    S-polynomial reduces to zero (the product criterion)."""
    if isinstance(ring, FreeModule):
        return a >> ring.pos_shift != b >> ring.pos_shift
    return not ring.support(a) & ring.support(b)


def spolys_reduce_to_zero(gb: GroebnerBasis, below: int | None = None) -> bool:
    """Re-verify the defining closure: every S-polynomial reduces to zero.

    With ``below``, only the pairs whose lcm has degree below it are
    checked: a basis the pair loop stopped before that degree is complete
    below it.
    """
    ring, polys = gb.ring, list(gb.polys)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            a, b = polys[i].lm(), polys[j].lm()
            if skip_pair(ring, a, b):
                continue
            gamma = ring.lcm(a, b)
            if below is not None and ring.degree(gamma) >= below:
                continue
            if not gb.contains(_spoly(polys[i], polys[j], gamma)):
                return False
    return True


def certified_minors_basis(matrix) -> GroebnerBasis:
    """A Groebner basis of the 2-minors: the minors themselves once certified, else buchberger's.

    Buchberger's criterion in its lcm-representation form (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, ch. 2 section 9): the
    nonzero minors are a Groebner basis iff the S-polynomial of each pair
    is a sum of multiples a_k Delta_k with every lm(a_k Delta_k) below the
    lcm of the pair's leads.  Each pair is settled in one of four ways.

    * Coprime leads: the product criterion gives the representation.
    * A shared column.  For columns p < q < s and either row r of the
      matrix, r_p Delta_qs - r_q Delta_ps + r_s Delta_pq = 0 (the
      Eagon-Northcott relation: it expands a 3x3 determinant with a
      repeated row).  Write it x + y + z = 0 with x = +-r_x Delta_A and so
      on.  Suppose lm(r_x) lm(Delta_A) = lm(r_y) lm(Delta_B) = P, lm(r_x)
      and lm(r_y) are coprime, and lm(r_z Delta_C) < P (or r_z Delta_C is
      zero).  Then lm(r_y) divides lm(Delta_A), so P is the lcm of the two
      leads and lm(r_x), lm(r_y) are its cofactors: the S-polynomial of
      (Delta_A, Delta_B) is a nonzero scalar times +-lt(r_x) Delta_A
      +- lt(r_y) Delta_B, which the relation equals to -z minus the tail
      parts +-tail(r_x) Delta_A +-tail(r_y) Delta_B, each led below P.
      Nothing here asks the entries to be monomials.
    * Chain: if lm(Delta_C) divides the lcm of (Delta_A, Delta_B) and the
      pairs (A, C) and (B, C) were settled directly (by one of the other
      three ways), S(A, B) is a sum of monomial multiples of S(A, C) and
      S(B, C), each multiple led below the lcm.
    * Otherwise the S-polynomial is reduced against the minors: a zero
      remainder is a standard representation, and a nonzero one proves
      the minors are no Groebner basis, so their pair loop is run,
      buchberger(minors), and its result returned.

    A certified basis is the monic nonzero minors, in the order of their
    column pairs, with ``stats`` None; its interreduction is
    buchberger(minors).
    """
    minors = two_minors(matrix)
    if not minors:
        return buchberger(minors, ring=matrix[0][0].ring if matrix[0] else None)
    ring = minors[0].ring
    mask, guards = ring.mask, ring.guards
    n = len(matrix[0])
    at = {pair: k for k, pair in enumerate(combinations(range(n), 2))}
    live = [k for k, g in enumerate(minors) if not g.is_zero()]
    lm = [None if g.is_zero() else g.lm() for g in minors]
    support = [0 if t is None else ring.support(t) for t in lm]
    # bit b of settled[a] is set once the pair (a, b) is settled directly, so
    # the minors settled directly with both a and b are one AND of two masks
    settled = [0] * len(minors)

    def settle(a: int, b: int):
        settled[a] |= 1 << b
        settled[b] |= 1 << a

    for a, b in combinations(live, 2):
        if not support[a] & support[b]:
            settle(a, b)
    leads = [[None if r.is_zero() else (r.lm(), ring.support(r.lm())) for r in row] for row in matrix]
    for p, q, s in combinations(range(n), 3):
        ks = (at[q, s], at[p, s], at[p, q])
        for row in leads:
            rs = (row[p], row[q], row[s])
            prods = [None if r is None or lm[k] is None else r[0] + lm[k] for r, k in zip(rs, ks)]
            for x, y, z in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                if (
                    prods[x] is not None
                    and prods[x] == prods[y]
                    and (prods[z] is None or prods[z] < prods[x])
                    and not rs[x][1] & rs[y][1]
                ):
                    settle(ks[x], ks[y])
    exps = [0 if t is None else -t & mask for t in lm]
    index = None
    for a, b in combinations(live, 2):
        if settled[a] >> b & 1:
            continue
        gamma = ring.lcm(lm[a], lm[b])
        e = (-gamma & mask) | guards
        both = settled[a] & settled[b]
        while both:
            c = both & -both
            both ^= c
            if (e - exps[c.bit_length() - 1]) & guards == guards:
                break  # chain: that minor's lead divides the lcm
        else:
            if index is None:
                index = _lead_index(ring, [minors[k] for k in live])
            if not _reduce_terms(_spoly(minors[a], minors[b], gamma), index).is_zero():
                return buchberger(minors)
            settle(a, b)
    return GroebnerBasis(ring, [minors[k].monic() for k in live])


def row_generates_canonical(inst, row) -> bool:
    """True iff the row entries generate an integer translate of the canonical ideal."""
    return is_translate(RelativeIdeal(inst.H, row.entries), canonical_ideal(inst.H))


def lambda_membership_by_scan(inst, u: int):
    """lambda_membership's (row, slot), or None, by asking H for each entry
    of the row through u at each slot j."""
    H, c, n = inst.H, inst.c, inst.n
    for j in range(1, n):
        start = u - (j - 1) * c
        if all(H.contains(start + k * c) for k in range(n - 1)):
            return LambdaRow(inst, start), j
    return None


def kernel_is_ng(hd) -> bool:
    """Whether R^I_J is nearly Gorenstein, by the kernel of its presentation matrix M.

    The trace of the canonical module is generated by the entries of the
    rows f with f.M = 0 (Herzog, Hibi and Stamate, The trace of the
    canonical module, 2019), so the ring is nearly Gorenstein iff those
    entries and the minors hold every variable, which _uncovered_variable
    decides from their linear parts.

    * One column per block.  The deformed quotient is a domain, and U_n is
      nonzero in it, so the lemma of trace_canonical_syzygy carries over
      (though U_n = X_n^l_n + Z_n is no monomial when n is in J): the
      kernel of the wrap columns is that of M.  f.M = 0 is asserted on
      every column all the same.
    * Degree stop.  A row not yet found has entries of degree at least
      low, and a linear term of degree d is a variable of weight d, so
      past the largest weight no new row adds a linear part.
    """
    _, M = hd.matrices
    n, gb, top = hd.n, minors_basis(hd), max(hd.ring.weights)
    rows = kernel_over_quotient([line[n - 1 :: n] for line in M], gb, stop=lambda low, found: low > top)
    for f in rows:
        assert first_nonzero_column(f, M, gb) is None, (str(hd), [str(p) for p in f])
    return _uncovered_variable(hd.ring, [p for f in rows for p in f]) is None


def first_fitting_arrangement(hd):
    """None when the base of hd fits a classified block as given, else the
    first symmetry in scan order under which it fits one; a base that fits
    none in any arrangement raises AssertionError."""
    if hd.base_case != OTHER:
        return None
    for sym in symmetries(hd.n):
        _, m, ell = sym.apply((), hd.base.m, hd.base.ell)
        if _block_of(m, ell) != OTHER:
            return sym
    raise AssertionError(f"base {hd.base} fits no block in any arrangement")
