"""Exact multivariate polynomials over the rationals with a weighted grading.

A term is one Python int.  Each exponent sits in a field of ``bits`` bits
whose top bit is a guard; X_1 is in the lowest field and X_n in the highest.
Above the exponent fields sit the weighted degree, then (free modules only)
the position.  With E the exponent fields and H the fields above them, the term
is ``(H << shift) - E``, so:

* int comparison is the monomial order: position over term (a lower
  position is larger), the weighted degree, then
  degree-reverse-lexicographic, since E compares X_n first and a larger E
  is a smaller term;
* every field is additive, so multiplication is ``+`` and a quotient is
  ``-``;
* E is ``-t & mask``, and d divides t iff they share a position and
  ``((E_t | guards) - E_d) & guards == guards`` (no field borrows);
* the lcm of a and b is a plus b's excess over a: one guard-bit
  subtraction finds the fields where b's exponent is larger, and only
  those fields are read to add the excess's weighted degree.

Every term has weighted degree below ``degree_limit``, which bounds each
exponent too and so keeps every field below half its width: the sum of two
terms is exact.  Encoding checks each term against the limit; a product is
checked by its factors' top degrees before it is formed
(``check_product``), and a sum that feeds the division loop is checked
there term by term (see ``add_products``).  Past the limit ResourceLimit is
raised; nothing widens or wraps silently.  The field width depends only on
the weights, so equal rings pack equally.  Exponent tuples appear only at
the edges: printing, ``term`` and ``exponents``.  Packed terms of two rings
do not add or multiply: ``check_ring`` refuses them.

Coefficients are exact (int or Fraction; ints are kept as long as possible
since almost everything here is a signed binomial).  A FreeModule over a
ring adds the position field, so one Buchberger serves ideals and
submodules.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import ResourceLimit

DEGREE_HEADROOM = 1 << 10  # the degree limit is above this many times the weight sum


class _Layout:
    """Field positions of the packed terms of a ring and of its free modules."""

    __slots__ = (
        "weights", "bits", "degree_limit", "shift", "mask", "guards", "pos_shift",
        "_dmask", "_over", "_shifts",
    )

    def _lay_out(self, weights: tuple[int, ...]):
        self.weights = weights
        # the degree field is one bit wider than an exponent field, so a sum
        # of two terms below the limit never carries
        self.bits = bits = (DEGREE_HEADROOM * sum(weights)).bit_length() + 1
        self.degree_limit = 1 << (bits - 1)
        self.shift = shift = bits * len(weights)
        self.mask = (1 << shift) - 1
        self.guards = sum(1 << (bits * (i + 1) - 1) for i in range(len(weights)))
        self.pos_shift = shift + bits + 1
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

    def check_product(self, f: "Polynomial", g: "Polynomial"):
        """Raise ResourceLimit when the product f*g would reach the degree
        limit: the top-degree parts of nonzero f and g multiply to a nonzero
        top-degree part, so f*g has degree deg f + deg g, cancelling or not."""
        if f.terms and g.terms:
            deg = f.wdeg() + g.wdeg()
            if deg >= self.degree_limit:
                self._refuse(deg)

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
        """The lcm of the exponents of a and b, at the position of a.

        It is a times x^u, for u b's excess over a: e_b - e_a in the fields
        where e_b is larger, 0 elsewhere.  A guard stays set in
        (e_a | guards) - e_b exactly where e_a >= e_b, so the guards left
        unset mark u's fields, and u is one subtraction under their masks
        (no field borrows there).  Only those fields are read for u's
        weighted degree: one product of u by a word of the weights would
        carry between fields, so it is summed field by field.
        """
        ea, eb, bits = -a & self.mask, -b & self.mask, self.bits
        over = ~((ea | self.guards) - eb) & self.guards  # guard set where b > a
        keep = over - (over >> (bits - 1))
        u = (eb & keep) - (ea & keep)
        field, weights = self.degree_limit - 1, self.weights  # u's fields are below the limit
        deg = 0
        while over:
            top = over.bit_length()  # the guard of field i is bit bits * (i + 1) - 1
            over ^= 1 << (top - 1)
            deg += weights[top // bits - 1] * (u >> (top - bits) & field)
        return a + (deg << self.shift) - u

    def _split(self, e: int) -> list[int]:
        field = (1 << self.bits) - 1
        return [e >> s & field for s in self._shifts]

    def _pack(self, e: int) -> int:
        """The ring term with exponent fields e, each below the limit."""
        return (sum(map(mul, self._split(e), self.weights)) << self.shift) - e


class PolyRing(_Layout):
    """Variable table plus weights; owns the monomial order and the term layout."""

    __slots__ = ("names", "_index")

    def __init__(self, names, weights):
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
        self._lay_out(weights)

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
        """X_(i+1)^power, packed straight into its one exponent field."""
        if not 0 <= i < self.nvars or power < 0:
            raise ValueError(f"variable index {i} with power {power} is no variable power of {self!r}")
        deg = power * self.weights[i]
        if deg >= self.degree_limit:  # the exponent is at most deg, so its field holds it
            self._refuse(deg)
        return Polynomial(self, {(deg << self.shift) - (power << self._shifts[i]): 1})

    def var_named(self, name: str, power: int = 1) -> "Polynomial":
        return self.var(self.index(name), power)

    def monomial(self, mono, coeff=1) -> "Polynomial":
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {self.term(mono): coeff})

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        return f"PolyRing({list(self.names)}, weights={list(self.weights)})"


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
        self._lay_out(base.weights)

    def position(self, t: int) -> int:
        return self.rank - (t >> self.pos_shift)

    def degree(self, t: int) -> int:
        """The weighted degree of a term plus the degree of its position."""
        return self.wdeg(t) + self._by_code[t >> self.pos_shift]

    def exponents(self, t: int) -> tuple[int, ...]:
        """The base exponents of a term, then the one-hot vector of its position."""
        p = self.position(t)
        return self.base.exponents(t) + tuple(int(k == p) for k in range(self.rank))

    def vector(self, entries: dict[int, "Polynomial"]) -> "Polynomial":
        """The element sum of entries[p] * e_p, from base-ring polynomials."""
        terms: dict[int, object] = {}
        for p, f in entries.items():
            add_products(terms, (((self.rank - p) << self.pos_shift, 1),), f.terms.items())
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


def check_ring(polys, ring, what: str) -> None:
    """Raise ValueError naming both rings unless every p is over ring
    (identity tested first): packed terms of two rings do not add or multiply."""
    for p in polys:
        if p.ring is not ring and p.ring != ring:
            raise ValueError(f"{what} over {p.ring!r}, not over {ring!r}")


def add_products(terms: dict, left, right, coeff=1) -> dict:
    """Add coeff times the product of two lists of (term, coefficient)
    pairs into the dict terms, dropping zero sums, and return terms.

    A product term is the sum of two terms, so it is exact when both are
    below the packing limit; nothing here checks the limit.  The rule is
    that a product is checked by its factors' top degrees before it is
    formed (check_product: ``*`` and two_minors), and a sum that feeds a
    division is checked term by term by the division loop as each term
    leaves its work dict.  A one-term side such as ((q, -factor),) adds a
    multiple of the other side.  The keys may be any ints that add, such
    as weighted degrees.
    """
    get = terms.get
    for m1, c1 in left:
        c1 *= coeff
        for m2, c2 in right:
            m = m1 + m2
            s = get(m, 0) + c1 * c2
            if s:
                terms[m] = s
            else:
                del terms[m]
    return terms


def _tighten(c):
    """Collapse integral Fractions back to int to keep arithmetic cheap."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Polynomial:
    """Immutable by convention: the term dict is never mutated after creation,
    and it holds no zero coefficient."""

    __slots__ = ("ring", "terms", "_lt", "_entry", "_wdeg")

    def __init__(self, ring: _Layout, terms: dict):  # a PolyRing, or a FreeModule for module elements
        self.ring = ring
        self.terms = terms
        self._lt = None
        self._entry = None
        self._wdeg = None

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

    def lead_entry(self) -> tuple[int, int, object, list[tuple[int, object]]]:
        """(lead exponent fields, lead, lead coefficient, tail term items):
        the view the division loop reads, built once per polynomial."""
        if self._entry is None:
            lm, lc = self.lt()
            self._entry = (-lm & self.ring.mask, lm, lc, [(m, c) for m, c in self.terms.items() if m != lm])
        return self._entry

    def lc(self):
        return self.lt()[1]

    def wdeg(self) -> int:
        """The top weighted degree of the terms, computed once."""
        if self._wdeg is None:
            if not self.terms:
                raise ValueError("zero polynomial has no degree")
            self._wdeg = max(map(self.ring.wdeg, self.terms))
        return self._wdeg

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {self.ring.wdeg(m) for m in self.terms}
        return len(degs) == 1

    def sorted_terms(self) -> list[tuple[int, object]]:
        return sorted(self.terms.items(), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        check_ring((other,), self.ring, "summand")
        return Polynomial(self.ring, add_products(dict(self.terms), ((0, 1),), other.terms.items()))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        check_ring((other,), self.ring, "factor")
        self.ring.check_product(self, other)
        return Polynomial(self.ring, add_products({}, self.terms.items(), other.terms.items()))

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
