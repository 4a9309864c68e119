"""Relative (fractional) ideals of a numerical semigroup.

A relative ideal is a set E of integers, bounded below, with E + H inside E.
It is stored as its member mask from its least member lo: bit i of the mask
says whether lo + i is a member, so bit 0 is set, and the int is negative
because every element more than one Frobenius number past lo is a member.
The pair (lo, mask) is a normal form: two ideals are equal iff their pairs
are, and translates share the mask.  Membership, sums and colons work on the
masks.  The closure check of a mask E computes OR_a (E << a) over the
generators a of H, and E & ~OR_a (E << a) is the mask of the minimal
generators: the check keeps it, and the generators are read off its bits
(an ideal built from a list of values passes no check and finds it on first
use).
These sets are the ground-truth route to the canonical trace ideal in
dimension one: every homomorphism from a fractional ideal into the ring is
multiplication by an element of the colon ideal, so the trace of the
canonical ideal K is K + (H - K).
"""

from __future__ import annotations

from .errors import BaseMismatch
from .semigroup import NumericalSemigroup, bit_positions


def _values_mask(H: NumericalSemigroup, lo: int, values) -> int:
    """Bit i says whether lo + i lies in values + H; lo is the least value."""
    F = H.frobenius()
    E = 0
    for v in values:
        # values past lo + F lie in lo + H already; lo itself needs its bit
        # even when F = -1 (H = N)
        if v == lo or v - lo <= F:
            E |= H.mask << (v - lo)
    return E


def _reached(H: NumericalSemigroup, E: int) -> int:
    """OR_a (E << a) over the generators a of H: the mask of E + (H minus {0})."""
    reached = 0
    for a in H.generators:
        reached |= E << a
    return reached


class RelativeIdeal:
    """Fractional ideal of a numerical semigroup, as its least member and
    member mask from there (see the module docstring)."""

    __slots__ = ("base", "lo", "mask", "_minimal", "_generators")

    def __init__(self, base: NumericalSemigroup, generators):
        values = set(generators)
        if not values:
            raise ValueError("a relative ideal needs at least one generator")
        lo = min(values)
        self.base = base
        self.lo = lo
        self.mask = _values_mask(base, lo, values)
        self._minimal = None  # on first use: equality and membership need no closure pass
        self._generators = None

    @classmethod
    def from_mask(cls, base: NumericalSemigroup, mask: int, lo: int = 0) -> "RelativeIdeal":
        """The ideal whose members are lo + i for the set bits i of mask.

        The mask must hold the ideal at every i >= 0, so it is nonzero and
        closed under adding the generators of base (and hence a negative
        int); anything else raises ValueError.  Unset low bits are dropped:
        the result's lo is the least member.  The check's pass over the
        generators also gives the mask of the minimal generators, which is
        kept.
        """
        reached = _reached(base, mask)
        if not mask or reached & ~mask:
            raise ValueError("not the mask of a nonempty relative ideal")
        low = (mask & -mask).bit_length() - 1
        ideal = cls.__new__(cls)
        ideal.base = base
        ideal.lo = lo + low
        ideal.mask = mask >> low
        ideal._minimal = (mask & ~reached) >> low
        ideal._generators = None
        return ideal

    @property
    def generators(self) -> tuple[int, ...]:
        """The minimal generators, increasing: no one lies in another's translate of H.

        They are the members E & ~OR_a (E << a) that no generator a of H
        reaches from another member."""
        if self._generators is None:
            if self._minimal is None:
                self._minimal = self.mask & ~_reached(self.base, self.mask)
            self._generators = tuple(self.lo + i for i in bit_positions(self._minimal))
        return self._generators

    # -- membership and comparisons ---------------------------------------

    def contains(self, z: int) -> bool:
        return z >= self.lo and (self.mask >> (z - self.lo)) & 1 == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelativeIdeal)
            and self.base == other.base
            and self.lo == other.lo
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.base, self.lo, self.mask))

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """Minkowski sum: the union of self's translates by other's generators."""
        if self.base != other.base:
            raise BaseMismatch("cannot add ideals over different semigroups")
        E = self.mask
        low = other.lo
        S = 0
        for b in other.generators:
            S |= E << (b - low)
        return RelativeIdeal.from_mask(self.base, S, self.lo + low)

    def colon(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """The ideal {z : z + other is contained in self}."""
        if self.base != other.base:
            raise BaseMismatch("cannot divide ideals over different semigroups")
        return _colon(self.base, self.lo, self.mask, other)

    def __repr__(self):
        return f"RelativeIdeal({self.base!r}, {list(self.generators)})"

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.generators) + ") + " + str(self.base)


def _colon(H: NumericalSemigroup, lo: int, E: int, other: RelativeIdeal) -> RelativeIdeal:
    """The ideal {z : z + other is contained in the ideal with mask E from lo}.

    Membership of z only requires checking the generators of ``other``,
    so the colon's mask is the AND of E shifted back by each of them.  No z
    below lo - max(other gens) is a member; from there the masks are exact.
    Minimal generators live within one Frobenius number of the colon's
    minimum, and every element past that range is asserted to be a member
    as a sentinel.
    """
    gens = other.generators
    top = gens[-1]
    C = -1
    for g in gens:
        C &= E << (top - g)  # bit i: lo - top + i + g is in E
    low = (C & -C).bit_length() - 1
    if C >> (low + H.frobenius() + 1) != -1:  # sentinel: past the window is inside
        raise AssertionError("colon window sentinel failed; bound reasoning broken")
    return RelativeIdeal.from_mask(H, C, lo - top)


def unit_ideal(H: NumericalSemigroup) -> RelativeIdeal:
    """H itself viewed as the relative ideal generated by 0."""
    return RelativeIdeal(H, [0])


def canonical_ideal(H: NumericalSemigroup) -> RelativeIdeal:
    """The canonical ideal K = {x : F - x not in H}.

    Its mask over 0..F is the gap mask reversed, and every x > F is a
    member.  Its minimal generators are exactly F - f over the
    pseudo-Frobenius numbers f; that identity is recomputed here and
    checked rather than assumed.
    """
    F = H.frobenius()
    gaps = format(~H.mask, f"0{F + 1}b")  # character j is whether F - j is a gap
    K = RelativeIdeal.from_mask(H, int(gaps[::-1], 2) | (-1 << (F + 1)))
    expected = tuple(sorted(F - f for f in H.pseudo_frobenius()))
    if K.generators != expected:
        raise AssertionError(
            f"canonical ideal generators {K.generators} differ from {expected}"
        )
    return K


def trace_canonical_oracle(H: NumericalSemigroup) -> RelativeIdeal:
    """Ground-truth canonical trace ideal: K + (H - K), with H - K taken
    from H's own membership mask (H is the ideal with mask H.mask from 0)."""
    K = canonical_ideal(H)
    return K.add(_colon(H, 0, H.mask, K))
