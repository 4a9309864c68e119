"""Numerical semigroup arithmetic: membership, Apery sets, gaps, symmetry.

A numerical semigroup here is the set of nonnegative integer combinations of
a minimal generating list with gcd 1.  All invariants (Apery set w.r.t. the
multiplicity, Frobenius number, gap set, pseudo-Frobenius numbers) are
computed eagerly at construction so values are immutable and cheap to share.
"""

from __future__ import annotations

import heapq
import json
import math

from .errors import GcdNotOne, NonMinimalGenerators, NotInSemigroup, ResourceLimit

_FACTORIZATION_CAP = 10**7
# construction allocates a sieve as long as the largest generator, an Apery
# list as long as the multiplicity, and a gap row and a membership mask as
# long as the Frobenius number
_GENERATOR_CAP = 10**5
_FROBENIUS_CAP = 10**6


def sieve_mask(gens, bound: int, seed: int = 1) -> int:
    """Bit mask of seed + <gens> over 0..bound.

    Bit x (0 <= x <= bound) is set iff x = s + a nonnegative combination of
    gens for some set bit s of seed; the default seed {0} gives the
    semigroup generated by gens.  Adding all multiples of a generator a is
    log2(bound / a) shift-ORs: after shifts a, 2a, ..., 2^j a every multiple
    below 2^(j+1) a has been added.
    """
    window = (1 << (bound + 1)) - 1
    mask = seed & window
    for a in gens:
        step = a
        while 0 < step <= bound:
            mask |= (mask << step) & window
            step <<= 1
    return mask


def bit_positions(x: int) -> list[int]:
    """The set bits of a nonnegative int, in increasing order."""
    digits = bin(x)[:1:-1]  # least significant first, without the "0b"
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _apery_by_dijkstra(gens: tuple[int, ...], s: int) -> list[int]:
    """Least element of the semigroup in each residue class mod s.

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
    return dist  # type: ignore[return-value]


class NumericalSemigroup:
    """Immutable numerical semigroup with cached classical invariants.

    ``mask`` is the membership bit mask: bit x is set iff x lies in H, for
    every x >= 0.  All x > F are members, so it is a negative int (infinite
    ones past F in two's complement), and ``~mask`` is the finite gap mask.
    """

    __slots__ = ("generators", "multiplicity", "apery", "mask", "_frobenius", "_pf")

    def __init__(self, gens):
        gens = [int(g) for g in gens]
        if not gens:
            raise ValueError("generator list must be nonempty")
        if any(g <= 0 for g in gens):
            raise ValueError(f"generators must be positive, got {gens}")
        if math.gcd(*gens) != 1:
            raise GcdNotOne(f"gcd of {gens} is {math.gcd(*gens)}, must be 1")
        ordered = tuple(sorted(gens))
        if ordered[-1] > _GENERATOR_CAP:
            raise ResourceLimit(f"generator {ordered[-1]} exceeds cap {_GENERATOR_CAP}")
        # g is not minimal iff it repeats or g - a is in H minus {0} for a generator a
        nonzero = sieve_mask(ordered, ordered[-1]) & ~1
        sums = 0
        for a in ordered:
            sums |= nonzero << a
        for i, g in enumerate(ordered):
            if (sums >> g) & 1 or (i and ordered[i - 1] == g):
                raise NonMinimalGenerators(g)
        self.generators = ordered
        m = self.multiplicity = ordered[0]
        self.apery = tuple(_apery_by_dijkstra(ordered, m))
        F = self._frobenius = max(self.apery) - m
        if F > _FROBENIUS_CAP:
            raise ResourceLimit(f"Frobenius number {F} exceeds cap {_FROBENIUS_CAP}")
        # the gaps of residue r are r, r + m, ..., apery[r] - m
        row = bytearray(b"1") * (F + 1)
        for r, w in enumerate(self.apery):
            row[r:w:m] = b"0" * ((w - r) // m)
        self.mask = int(row[::-1] or b"0", 2) | (-1 << (F + 1))
        pf = ~self.mask
        for a in ordered:
            pf &= self.mask >> a
        # F is always pseudo-Frobenius; only for H = N is it -1, which has no bit
        self._pf = tuple(bit_positions(pf)) or (F,)

    # -- membership ------------------------------------------------------

    def contains(self, h: int) -> bool:
        """True iff h is a nonnegative combination of the generators."""
        if h < 0:
            return False
        return h >= self.apery[h % self.multiplicity]

    # -- classical invariants ---------------------------------------------

    def frobenius(self) -> int:
        return self._frobenius

    def gaps(self) -> list[int]:
        return bit_positions(~self.mask)

    def genus(self) -> int:
        return (~self.mask).bit_count()

    def apery_set(self, s: int) -> list[int]:
        """Least semigroup element in each residue class mod s, for s in H."""
        if s <= 0 or not self.contains(s):
            raise NotInSemigroup(f"{s} is not a positive element of {self}")
        return _apery_by_dijkstra(self.generators, s)

    def pseudo_frobenius(self) -> list[int]:
        return list(self._pf)

    def type(self) -> int:
        return len(self._pf)

    def is_symmetric(self) -> bool:
        """Type 1, and 2 g = F + 1: of x and F - x exactly one lies in H."""
        return len(self._pf) == 1 and 2 * self.genus() == self._frobenius + 1

    def is_almost_symmetric(self) -> bool:
        """Pseudo-Frobenius symmetry f_i + f_{t-i} = f_t for 1 <= i <= t-1."""
        pf = self._pf
        t = len(pf)
        return all(pf[i] + pf[t - 2 - i] == pf[-1] for i in range(t - 1))

    # -- factorizations ----------------------------------------------------

    def factorizations(self, h: int) -> list[tuple[int, ...]]:
        """All exponent vectors over the sorted generators summing to h."""
        if h > _FACTORIZATION_CAP:
            raise ResourceLimit(f"factorization target {h} exceeds cap {_FACTORIZATION_CAP}")
        if h < 0:
            return []
        gens = self.generators
        n = len(gens)
        out: list[tuple[int, ...]] = []
        vec = [0] * n

        def walk(i: int, rest: int):
            if i == n - 1:
                q, r = divmod(rest, gens[i])
                if r == 0:
                    vec[i] = q
                    out.append(tuple(vec))
                    vec[i] = 0
                return
            for k in range(rest // gens[i] + 1):
                vec[i] = k
                walk(i + 1, rest - k * gens[i])
            vec[i] = 0

        walk(0, h)
        return sorted(out)

    # -- serialization and dunder glue --------------------------------------

    def to_json(self) -> dict:
        return {"generators": list(self.generators)}

    @classmethod
    def from_json(cls, data) -> "NumericalSemigroup":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(data["generators"])

    def __eq__(self, other) -> bool:
        return isinstance(other, NumericalSemigroup) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __contains__(self, h: int) -> bool:
        return self.contains(h)

    def __repr__(self):
        return f"NumericalSemigroup({list(self.generators)})"

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.generators) + ">"

