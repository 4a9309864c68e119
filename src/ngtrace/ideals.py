"""Relative (fractional) ideals of a numerical semigroup.

A relative ideal is a set E of integers, bounded below, with E + H inside E.
It is stored as its minimal generators: no generator lies in another
generator's translate of H.  Sums, colons and minimal generators are computed
on bit masks: bit i of an ideal's mask says whether lo + i is a member, for a
lower bound lo, and the int is negative because every element more than
one Frobenius number past the least is a member.  These sets are the
ground-truth route to the canonical trace ideal in dimension one: every
homomorphism from a fractional ideal into the ring is multiplication by an
element of the colon ideal, so the trace of the canonical ideal K is
K + (H - K).
"""

from __future__ import annotations

import json

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


def _minimal_generators(H: NumericalSemigroup, lo: int, E: int) -> tuple[int, ...]:
    """Minimal generators E & ~OR_a (E << a) of the ideal with mask E from lo."""
    reached = 0
    for a in H.generators:
        reached |= E << a
    if not E or reached & ~E:
        raise ValueError("not the mask of a nonempty relative ideal")
    return tuple(lo + i for i in bit_positions(E & ~reached))


class RelativeIdeal:
    """Fractional ideal of a numerical semigroup, in normal form."""

    __slots__ = ("base", "generators")

    def __init__(self, base: NumericalSemigroup, generators):
        values = set(generators)
        if not values:
            raise ValueError("a relative ideal needs at least one generator")
        lo = min(values)
        self.base = base
        self.generators = _minimal_generators(base, lo, _values_mask(base, lo, values))

    @classmethod
    def from_mask(cls, base: NumericalSemigroup, mask: int, lo: int = 0) -> "RelativeIdeal":
        """The ideal whose members are lo + i for the set bits i of mask.

        The mask must hold the ideal at every i >= 0, so it is closed under
        adding the generators of base (and hence a negative int); anything
        else raises ValueError.
        """
        ideal = cls.__new__(cls)
        ideal.base = base
        ideal.generators = _minimal_generators(base, lo, mask)
        return ideal

    def _mask(self) -> int:
        """The ideal's mask with bit i for the element minimum() + i."""
        return _values_mask(self.base, self.minimum(), self.generators)

    # -- membership and comparisons ---------------------------------------

    def contains(self, z: int) -> bool:
        return any(self.base.contains(z - g) for g in self.generators)

    def minimum(self) -> int:
        return self.generators[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelativeIdeal)
            and self.base == other.base
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.base, self.generators))

    def __le__(self, other: "RelativeIdeal") -> bool:
        if self.base != other.base:
            raise BaseMismatch("cannot compare ideals over different semigroups")
        return all(other.contains(g) for g in self.generators)

    def is_translate_of(self, other: "RelativeIdeal") -> bool:
        """True iff self = other + d for the integer d aligning the minima."""
        if self.base != other.base:
            raise BaseMismatch("cannot compare ideals over different semigroups")
        d = self.minimum() - other.minimum()
        return self.generators == tuple(g + d for g in other.generators)

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """Minkowski sum: the union of self's translates by other's generators."""
        if self.base != other.base:
            raise BaseMismatch("cannot add ideals over different semigroups")
        E = self._mask()
        low = other.minimum()
        S = 0
        for b in other.generators:
            S |= E << (b - low)
        return RelativeIdeal.from_mask(self.base, S, self.minimum() + low)

    def colon(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """The ideal {z : z + other is contained in self}.

        Membership of z only requires checking the generators of ``other``,
        so the colon's mask is the AND of self's mask shifted back by each of
        them.  No z below min(self) - max(other gens) is a member; from there
        the masks are exact.  Minimal generators live within one Frobenius
        number of the colon's minimum, and every element past that range is
        asserted to be a member as a sentinel.
        """
        if self.base != other.base:
            raise BaseMismatch("cannot divide ideals over different semigroups")
        H = self.base
        E = self._mask()
        top = max(other.generators)
        lo = self.minimum() - top
        C = -1
        for g in other.generators:
            C &= E << (top - g)  # bit i: lo + i + g is in self
        low = (C & -C).bit_length() - 1
        if C >> (low + H.frobenius() + 1) != -1:  # sentinel: past the window is inside
            raise AssertionError("colon window sentinel failed; bound reasoning broken")
        return RelativeIdeal.from_mask(H, C, lo)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "generators": list(self.generators)}

    @classmethod
    def from_json(cls, data) -> "RelativeIdeal":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(NumericalSemigroup.from_json(data["base"]), data["generators"])

    def __repr__(self):
        return f"RelativeIdeal({self.base!r}, {list(self.generators)})"

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.generators) + ") + " + str(self.base)


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
    """Ground-truth canonical trace ideal: K + (H - K)."""
    K = canonical_ideal(H)
    return K.add(unit_ideal(H).colon(K))


def is_nearly_gorenstein_oracle(H: NumericalSemigroup) -> bool:
    """True iff every minimal generator of H lies in the canonical trace ideal."""
    tr = trace_canonical_oracle(H)
    return all(tr.contains(a) for a in H.generators)
