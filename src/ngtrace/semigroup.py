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
# list as long as the multiplicity and a gap list as long as the genus
_GENERATOR_CAP = 10**5
_FROBENIUS_CAP = 10**6


def _representable(h: int, gens: tuple[int, ...]) -> bool:
    """Plain DP sieve; used only for the minimality check at construction."""
    if h < 0:
        return False
    ok = bytearray(h + 1)
    ok[0] = 1
    for x in range(1, h + 1):
        for a in gens:
            if a <= x and ok[x - a]:
                ok[x] = 1
                break
    return bool(ok[h])


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
    """Immutable numerical semigroup with cached classical invariants."""

    __slots__ = ("generators", "multiplicity", "apery", "_frobenius", "_gaps", "_pf")

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
        for i, g in enumerate(ordered):
            others = ordered[:i] + ordered[i + 1 :]
            if not others:
                continue
            if _representable(g, others):
                raise NonMinimalGenerators(g)
        self.generators = ordered
        self.multiplicity = ordered[0]
        self.apery = tuple(_apery_by_dijkstra(ordered, self.multiplicity))
        self._frobenius = max(self.apery) - self.multiplicity
        if self._frobenius > _FROBENIUS_CAP:
            raise ResourceLimit(
                f"Frobenius number {self._frobenius} exceeds cap {_FROBENIUS_CAP}"
            )
        gaps = []
        for w in self.apery:
            x = w - self.multiplicity
            while x > 0:
                gaps.append(x)
                x -= self.multiplicity
        self._gaps = tuple(sorted(gaps))
        self._pf = tuple(
            x for x in self._gaps if all(self.contains(x + a) for a in ordered)
        )

    # -- membership ------------------------------------------------------

    def contains(self, h: int) -> bool:
        """True iff h is a nonnegative combination of the generators."""
        if h < 0:
            return False
        return h >= self.apery[h % self.multiplicity]

    def membership_table(self, bound: int) -> bytearray:
        """Bitmap of contains(x) for 0 <= x <= bound; handy for window scans."""
        m = self.multiplicity
        ap = self.apery
        return bytearray(1 if x >= ap[x % m] else 0 for x in range(bound + 1))

    # -- classical invariants ---------------------------------------------

    def frobenius(self) -> int:
        return self._frobenius

    def gaps(self) -> list[int]:
        return list(self._gaps)

    def genus(self) -> int:
        return len(self._gaps)

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
        if len(self._pf) != 1:
            return False
        F = self._frobenius
        return all(self.contains(F - x) for x in self._gaps)

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


def one_factorization(h: int, gens: tuple[int, ...]) -> tuple[int, ...] | None:
    """A single exponent vector over gens (in the given order) summing to h."""
    if h < 0:
        return None
    parent = [None] * (h + 1)
    ok = bytearray(h + 1)
    ok[0] = 1
    for x in range(1, h + 1):
        for idx, a in enumerate(gens):
            if a <= x and ok[x - a]:
                ok[x] = 1
                parent[x] = idx
                break
    if not ok[h]:
        return None
    vec = [0] * len(gens)
    x = h
    while x > 0:
        idx = parent[x]
        vec[idx] += 1
        x -= gens[idx]
    return tuple(vec)


def semigroup_closure_sieve(gens, bound: int) -> bytearray:
    """Independent DP membership sieve used as a cross-check oracle in tests."""
    ok = bytearray(bound + 1)
    ok[0] = 1
    for x in range(1, bound + 1):
        for a in gens:
            if a <= x and ok[x - a]:
                ok[x] = 1
                break
    return ok
