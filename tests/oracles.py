"""Reference checks the tests hold ngtrace to; nothing in the package calls them.

* ``apery_by_dijkstra``: Apery sets by shortest paths on the residue graph,
  independent of the membership sieve the semigroup reads them from.
* ``spolys_reduce_to_zero``: Buchberger's criterion, re-run on a finished
  basis, skipping the pairs ``skip_pair`` names.
* ``row_generates_canonical``: a monomial row against the canonical ideal.
"""

import heapq

from ngtrace.groebner import GroebnerBasis, _spoly
from ngtrace.ideals import RelativeIdeal, canonical_ideal
from ngtrace.polyring import FreeModule


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
    return RelativeIdeal(inst.H, row.entries).is_translate_of(canonical_ideal(inst.H))
