"""Numerical semigroup arithmetic: membership, Apery sets, gaps, symmetry.

A numerical semigroup here is the set of nonnegative integer combinations of
a minimal generating list with gcd 1.  Construction runs one membership
sieve and keeps three things: the membership mask, the Frobenius number and
the pseudo-Frobenius numbers.  Membership, gaps, genus and Apery sets
(``_apery_by_residue``) are read off the mask each time they are asked for,
and nothing else is kept, so values are immutable and cheap to share.
"""

from __future__ import annotations

import math

from .errors import GcdNotOne, NonMinimalGenerators, ResourceLimit

# the generator cap is checked before the sieve, which stops at most one
# multiplicity past the Frobenius cap: F is never computed beyond it
_GENERATOR_CAP = 10**5
_FROBENIUS_CAP = 10**6


def sieve_mask(gens, bound: int) -> int:
    """Bit mask of <gens> over 0..bound.

    Bit x (0 <= x <= bound) is set iff x is a nonnegative combination of
    gens.  Adding all multiples of a generator a is log2(bound / a)
    shift-ORs: after shifts a, 2a, ..., 2^j a every multiple below
    2^(j+1) a has been added.
    """
    window = (1 << (bound + 1)) - 1
    mask = 1 & window
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


def _apery_by_residue(mask: int, s: int) -> list[int]:
    """Least member of H in each residue class mod s, for s in H: the bits of
    mask & ~(mask << s), members x with x - s outside H (none past F + s)."""
    out = [0] * s
    for x in bit_positions(mask & ~(mask << s)):
        out[x % s] = x
    return out


class NumericalSemigroup:
    """Immutable numerical semigroup, kept as its membership mask, Frobenius
    number and pseudo-Frobenius numbers.

    ``mask`` is the membership bit mask: bit x is set iff x lies in H, for
    every x >= 0.  All x > F are members, so it is a negative int (infinite
    ones past F in two's complement), and ``~mask`` is the finite gap mask.

    Construction sieves once, over [0, top] with top = min(m a_n, cap + m)
    for the multiplicity m and the largest generator a_n, and reads
    minimality, F and the pseudo-Frobenius numbers off it.  An Apery element
    w (w - m outside H) is a sum of at most m - 1 generators: of m + 1
    partial sums of a longer sum two agree mod m, and dropping the terms
    between them, q m with q >= 1, leaves w - q m in H and so w - m.
    Hence F = max Ap - m <= (m - 1) a_n - m, and F + m <= top iff F <= cap.
    F is read as the highest gap g in [0, top]: when g + m <= top, the m
    members g + 1 .. g + m put every later integer in H, so g = F;
    otherwise F > cap.  Minimality reads [0, a_n], inside [0, top] as well:
    m a_n >= a_n and a_n <= 10^5 < cap.
    """

    __slots__ = ("generators", "multiplicity", "mask", "_frobenius", "_pf")

    def __init__(self, gens):
        gens = [int(g) for g in gens]
        if not gens:
            raise ValueError("generator list must be nonempty")
        if any(g <= 0 for g in gens):
            raise ValueError(f"generators must be positive, got {gens}")
        if math.gcd(*gens) != 1:
            raise GcdNotOne(f"gcd of {gens} is {math.gcd(*gens)}, must be 1")
        ordered = tuple(sorted(gens))
        a_n = ordered[-1]
        if a_n > _GENERATOR_CAP:
            raise ResourceLimit(f"generator {a_n} exceeds cap {_GENERATOR_CAP}")
        m = ordered[0]
        top = min(m * a_n, _FROBENIUS_CAP + m)
        sieve = sieve_mask(ordered, top)
        # g is not minimal iff it repeats or g - a is in H minus {0} for a generator a
        nonzero = sieve & ((1 << (a_n + 1)) - 2)
        sums = 0
        for a in ordered:
            sums |= nonzero << a
        for i, g in enumerate(ordered):
            if (sums >> g) & 1 or (i and ordered[i - 1] == g):
                raise NonMinimalGenerators(g)
        # the highest gap in [0, top], -1 for H = N; F once m members follow it
        F = self._frobenius = (~sieve & ((1 << (top + 1)) - 1)).bit_length() - 1
        if F + m > top:
            raise ResourceLimit(
                f"Frobenius number exceeds cap {_FROBENIUS_CAP}: no {m} consecutive members up to {top}"
            )
        self.generators = ordered
        self.multiplicity = m
        self.mask = sieve | (-1 << (F + 1))
        pf = ~self.mask
        for a in ordered:
            pf &= self.mask >> a
        # F is always pseudo-Frobenius; only for H = N is it -1, which has no bit
        self._pf = tuple(bit_positions(pf)) or (F,)

    # -- membership ------------------------------------------------------

    def contains(self, h: int) -> bool:
        """True iff h is a nonnegative combination of the generators: bit h
        of the mask, read in time linear in max(F - h, 0)."""
        return h >= 0 and self.mask >> h & 1 == 1

    # -- classical invariants ---------------------------------------------

    def frobenius(self) -> int:
        return self._frobenius

    def gaps(self) -> list[int]:
        return bit_positions(~self.mask)

    def genus(self) -> int:
        return (~self.mask).bit_count()

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

    # -- dunder glue --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return isinstance(other, NumericalSemigroup) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __contains__(self, h: int) -> bool:
        return self.contains(h)

    def __repr__(self):
        return f"NumericalSemigroup({list(self.generators)})"

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.generators) + ">"

