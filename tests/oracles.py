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
* ``row_generates_canonical``: a monomial row against the canonical ideal.
* ``lambda_membership_by_scan``: the slot search entry by entry, on
  ``contains``, independent of the row-start mask.
"""

import heapq
import re
from fractions import Fraction

from ngtrace.errors import BaseMismatch
from ngtrace.groebner import GroebnerBasis, _spoly
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
