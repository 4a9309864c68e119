"""Exact multivariate polynomials over the rationals with a weighted grading.

A term is one Python int.  Each exponent sits in a field of ``bits`` bits
whose top bit is a guard; X_1 is in the lowest field and X_n in the highest.
Above the exponent fields sit the weighted degree, then (elimination rings
only) the exponent of the eliminated variable, then (free modules only) the
position.  With E the exponent fields and H the fields above them, the term
is ``(H << shift) - E``, so:

* int comparison is the monomial order: position over term (a lower
  position is larger), the eliminated variable, the weighted degree, then
  degree-reverse-lexicographic, since E compares X_n first and a larger E
  is a smaller term;
* every field is additive, so multiplication is ``+`` and a quotient is
  ``-``;
* E is ``-t & mask``, and d divides t iff they share a position and
  ``((E_t | guards) - E_d) & guards == guards`` (no field borrows);
* the lcm is a per-field max done on all fields at once.

Every term has weighted degree below ``degree_limit``, which bounds each
exponent too and so keeps every field below half its width: the sum of two
terms is exact.  Encoding, polynomial products and the division loop check
the limit and raise ResourceLimit past it; nothing widens or wraps
silently.  The field width depends only on the weights, so equal rings
pack equally.  Exponent tuples
appear only at the edges: parsing, printing, ``term`` and ``exponents``.

Coefficients are exact (int or Fraction; ints are kept as long as possible
since almost everything here is a signed binomial).  A FreeModule over a
ring adds the position field, so one Buchberger serves ideals and
submodules.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import mul

from .errors import ResourceLimit

DEGREE_HEADROOM = 1 << 10  # the degree limit is above this many times the weight sum


class _Layout:
    """Field positions of the packed terms of a ring and of its free modules."""

    __slots__ = (
        "weights", "elim", "bits", "degree_limit", "shift", "mask", "guards", "pos_shift",
        "_dmask", "_over", "_shifts",
    )

    def _lay_out(self, weights: tuple[int, ...], elim: int | None):
        self.weights = weights
        self.elim = elim
        # the degree and eliminated-exponent fields are one bit wider than an
        # exponent field, so a sum of two terms below the limit never carries
        self.bits = bits = (DEGREE_HEADROOM * sum(weights)).bit_length() + 1
        self.degree_limit = 1 << (bits - 1)
        self.shift = shift = bits * len(weights)
        self.mask = (1 << shift) - 1
        self.guards = sum(1 << (bits * (i + 1) - 1) for i in range(len(weights)))
        self.pos_shift = shift + (bits + 1) * (1 if elim is None else 2)
        self._dmask = (1 << (bits + 1)) - 1
        self._over = (self._dmask - self.degree_limit + 1) << shift
        self._shifts = tuple(bits * i for i in range(len(weights)))

    def wdeg(self, t: int) -> int:
        return (t + self.mask) >> self.shift & self._dmask

    degree = wdeg  # a ring term's degree; a free module adds its position's

    def check(self, t: int):
        """Raise ResourceLimit when term t reaches the degree limit."""
        if (t + self.mask) & self._over:
            self._refuse(self.wdeg(t))

    def _refuse(self, deg: int):
        raise ResourceLimit(
            f"weighted degree {deg} reaches the packing limit {self.degree_limit} of {self!r}"
        )

    def divides(self, d: int, t: int) -> bool:
        """Whether term d divides term t."""
        return d >> self.pos_shift == t >> self.pos_shift and (
            ((-t & self.mask) | self.guards) - (-d & self.mask)
        ) & self.guards == self.guards

    def support(self, t: int) -> int:
        """The guard bits of the nonzero exponent fields of t: two terms
        have coprime ring parts iff their supports are disjoint."""
        low = self.guards >> (self.bits - 1)  # guard set below: that field is nonzero
        return (((-t & self.mask) | self.guards) - low) & self.guards

    def lcm(self, a: int, b: int) -> int:
        """The lcm of the exponents of a and b, at the position of a."""
        ea, eb = -a & self.mask, -b & self.mask
        ge = ((ea | self.guards) - eb) & self.guards  # guard set where a >= b
        keep_a = ge - (ge >> (self.bits - 1))
        return a + self._pack(((ea & keep_a) | (eb & ~keep_a)) - ea)

    def _split(self, e: int) -> list[int]:
        field = (1 << self.bits) - 1
        return [e >> s & field for s in self._shifts]

    def _pack(self, e: int) -> int:
        """The ring term with exponent fields e, each below the limit."""
        exps = self._split(e)
        high = sum(map(mul, exps, self.weights))
        if self.elim is not None:
            high += exps[self.elim] << (self.bits + 1)
        return (high << self.shift) - e


class PolyRing(_Layout):
    """Variable table plus weights; owns the monomial order and the term layout."""

    __slots__ = ("names", "_index")

    def __init__(self, names, weights, elim: int | None = None):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if len(names) != len(weights):
            raise ValueError("one weight per variable required")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive integers")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self._lay_out(weights, elim)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self._index[name]

    def term(self, exps) -> int:
        """The packed term of an exponent tuple."""
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"{exps} is not an exponent vector of {self!r}")
        deg = sum(e * w for e, w in zip(exps, self.weights))
        if deg >= self.degree_limit:
            self._refuse(deg)
        return self._pack(sum(e << (self.bits * i) for i, e in enumerate(exps)))

    def exponents(self, t: int) -> tuple[int, ...]:
        """The exponent tuple of a term (the ring part of a module term)."""
        return tuple(self._split(-t & self.mask))

    def skip_pair(self, a: int, b: int) -> bool:
        """Leads whose S-polynomial reduces to zero: coprime ones (product criterion)."""
        return not self.support(a) & self.support(b)

    # -- element constructors ---------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def const(self, c) -> "Polynomial":
        if c == 0:
            return self.zero()
        return Polynomial(self, {0: c})

    def one(self) -> "Polynomial":
        return self.const(1)

    def var(self, i: int, power: int = 1) -> "Polynomial":
        mono = [0] * self.nvars
        mono[i] = power
        return self.monomial(mono)

    def var_named(self, name: str, power: int = 1) -> "Polynomial":
        return self.var(self.index(name), power)

    def monomial(self, mono, coeff=1) -> "Polynomial":
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {self.term(mono): coeff})

    # -- parsing ------------------------------------------------------------

    _FACTOR = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)\s*(?:\^\s*(\d+))?)\s*")

    def parse(self, text: str) -> "Polynomial":
        """Parse strings like "X1^2*X3 - 2*X2^2 + 1" into a polynomial.

        A term is factors joined by single '*'; a factor is an integer, a
        fraction, or a variable with an optional '^' and a digit exponent.
        """
        chunks = re.split(r"([+-])", text)
        terms: dict[int, object] = {}
        for i, (sign, chunk) in enumerate(zip(["+"] + chunks[1::2], chunks[::2])):
            if i == 0 and not chunk.strip() and (len(chunks) > 1 or not text.strip()):
                continue  # a leading sign, or no text at all
            coeff, mono = Fraction(-1 if sign == "-" else 1), [0] * self.nvars
            for factor in chunk.split("*"):
                m = self._FACTOR.fullmatch(factor)
                if m is None:
                    raise ValueError(f"cannot parse {factor!r} in {text!r}")
                number, name, power = m.groups()
                if number is not None:
                    coeff *= Fraction(number)
                elif name in self._index:
                    mono[self._index[name]] += int(power or 1)
                else:
                    raise ValueError(f"unknown variable {name!r}")
            key = self.term(mono)
            c = terms.get(key, 0) + coeff
            if c == 0:
                terms.pop(key, None)
            else:
                terms[key] = c
        return Polynomial(self, {m: _tighten(c) for m, c in terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.weights == other.weights
            and self.elim == other.elim
        )

    def __hash__(self):
        return hash((self.names, self.weights, self.elim))

    def __repr__(self):
        elim = f", elim={self.names[self.elim]!r}" if self.elim is not None else ""
        return f"PolyRing({list(self.names)}, weights={list(self.weights)}{elim})"


class FreeModule(_Layout):
    """Free module base^rank, as a term format for Polynomial.

    A term is a base-ring term plus (rank - p) << pos_shift for position p,
    so base-ring terms act on it by ``+`` and keep its position, and the
    order is position over term: a lower position is larger, and within a
    position the base ring's order decides.

    Position p carries the degree ``degrees[p]`` (0 unless given), and a
    term's ``degree`` is its weighted degree plus its position's: the
    grading in which a vector sum of f_p e_p is homogeneous when every
    f_p is and deg f_p + degrees[p] is the same for every p.  The degree
    is not packed into the term, so it leaves the order, the caps and
    ``wdeg`` (the ring part's degree) as they are.
    """

    __slots__ = ("base", "rank", "names", "degrees", "_by_code")

    def __init__(self, base: PolyRing, rank: int, degrees=None):
        self.base = base
        self.rank = rank
        self.names = base.names + tuple(f"e{p + 1}" for p in range(rank))
        self.degrees = (0,) * rank if degrees is None else tuple(int(d) for d in degrees)
        if len(self.degrees) != rank:
            raise ValueError(f"{len(self.degrees)} position degrees for rank {rank}")
        self._by_code = (0,) + self.degrees[::-1]  # by position code rank - p
        self._lay_out(base.weights, base.elim)

    def position(self, t: int) -> int:
        return self.rank - (t >> self.pos_shift)

    def degree(self, t: int) -> int:
        """The weighted degree of a term plus the degree of its position."""
        return self.wdeg(t) + self._by_code[t >> self.pos_shift]

    def exponents(self, t: int) -> tuple[int, ...]:
        """The base exponents of a term, then the one-hot vector of its position."""
        p = self.position(t)
        return self.base.exponents(t) + tuple(int(k == p) for k in range(self.rank))

    def skip_pair(self, a: int, b: int) -> bool:
        """Leads at different positions have no S-polynomial."""
        return a >> self.pos_shift != b >> self.pos_shift

    def vector(self, entries: dict[int, "Polynomial"]) -> "Polynomial":
        """The element sum of entries[p] * e_p, from base-ring polynomials."""
        terms: dict[int, object] = {}
        for p, f in entries.items():
            unit = (self.rank - p) << self.pos_shift
            for m, c in f.terms.items():
                terms[m + unit] = c
        return Polynomial(self, terms)

    def components(self, v: "Polynomial") -> list["Polynomial"]:
        """The base-ring coordinates of v, one per position."""
        parts: list[dict] = [{} for _ in range(self.rank)]
        for m, c in v.terms.items():
            code = m >> self.pos_shift
            parts[self.rank - code][m - (code << self.pos_shift)] = c
        return [Polynomial(self.base, t) for t in parts]

    def __repr__(self):
        return f"FreeModule({self.base!r}, {self.rank})"


def _tighten(c):
    """Collapse integral Fractions back to int to keep arithmetic cheap."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Polynomial:
    """Immutable by convention: the term dict is never mutated after creation."""

    __slots__ = ("ring", "terms", "_lt")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lt = None

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lt(self) -> tuple[int, object]:
        """Leading (term, coefficient) for the ring's order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if self._lt is None:
            m = max(self.terms)
            self._lt = (m, self.terms[m])
        return self._lt

    def lm(self) -> int:
        return self.lt()[0]

    def lc(self):
        return self.lt()[1]

    def wdeg(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.ring.wdeg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {self.ring.wdeg(m) for m in self.terms}
        return len(degs) == 1

    def sorted_terms(self) -> list[tuple[int, object]]:
        return sorted(self.terms.items(), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        if self.terms and other.terms:
            # the top-degree parts multiply to a nonzero top-degree part
            deg = self.wdeg() + other.wdeg()
            if deg >= self.ring.degree_limit:
                self.ring._refuse(deg)
        out: dict[int, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                s = out.get(m, 0) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {m: _tighten(k * c) for m, k in self.terms.items()})

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.lc()
        if c == 1:
            return self
        if c == -1:
            return -self
        inv = Fraction(1, 1) / Fraction(c)
        return self.scale(inv)

    def map_to(self, other_ring: PolyRing, var_map: list[int]) -> "Polynomial":
        """Reinterpret in other_ring; var_map[i] = target index of our variable i."""
        out: dict[int, object] = {}
        for m, c in self.terms.items():
            mono = [0] * other_ring.nvars
            for i, e in enumerate(self.ring.exponents(m)):
                mono[var_map[i]] += e
            key = other_ring.term(mono)
            s = out.get(key, 0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return Polynomial(other_ring, out)

    # -- equality and display -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        text = ""
        for m, c in self.sorted_terms():
            exps = zip(self.ring.names, self.ring.exponents(m))
            body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in exps if e)
            mag = abs(c)
            chunk = f"{mag}*{body}" if body and mag != 1 else (body or str(mag))
            text += (" - " if c < 0 else " + ") + chunk if text else ("-" if c < 0 else "") + chunk
        return text or "0"

    def __repr__(self):
        return f"<poly {self}>"
