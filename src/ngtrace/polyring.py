"""Exact multivariate polynomials over the rationals with a weighted grading.

Monomials are plain exponent tuples against a ring-held variable table.
Coefficients are exact (int or Fraction; ints are kept as long as possible
since almost everything here is a signed binomial).  The monomial order is
weighted-degree with a degree-reverse-lexicographic tie break; a ring may
additionally mark one variable for elimination, which is compared first.
A FreeModule over a ring is a second term format for the same Polynomial
class, so one Buchberger serves ideals and submodules.
"""

from __future__ import annotations

import re
from fractions import Fraction

Mono = tuple[int, ...]


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono | None:
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_coprime(a: Mono, b: Mono) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def mono_support(a: Mono) -> int:
    """Bit set of the coordinates where a is nonzero."""
    s = 0
    bit = 1
    for x in a:
        if x:
            s |= bit
        bit <<= 1
    return s


class PolyRing:
    """Variable table plus weights; owns the monomial order."""

    __slots__ = ("names", "weights", "elim", "_index", "_keys")

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
        self.weights = weights
        self.elim = elim
        self._index = {n: i for i, n in enumerate(names)}
        self._keys: dict[Mono, tuple] = {}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self._index[name]

    def wdeg(self, mono: Mono) -> int:
        return sum(e * w for e, w in zip(mono, self.weights))

    def sort_key(self, mono: Mono):
        """Tuple comparable key; larger key = larger monomial.  Memoized:
        the same monomials are compared over and over during reduction.

        The last entry is the support bit set of mono.  It never decides a
        comparison, since the entries before it already determine mono;
        division loops read it to skip leads that cannot divide.
        """
        key = self._keys.get(mono)
        if key is None:
            key = (self.wdeg(mono), tuple(-e for e in reversed(mono)), mono_support(mono))
            if self.elim is not None:
                key = (mono[self.elim],) + key
            if len(self._keys) > 500_000:
                self._keys.clear()
            self._keys[mono] = key
        return key

    def skip_pair(self, a: Mono, b: Mono) -> bool:
        """Leads whose S-polynomial reduces to zero: coprime ones (product criterion)."""
        return mono_coprime(a, b)

    # -- element constructors ---------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def const(self, c) -> "Polynomial":
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def one(self) -> "Polynomial":
        return self.const(1)

    def var(self, i: int, power: int = 1) -> "Polynomial":
        mono = [0] * self.nvars
        mono[i] = power
        return Polynomial(self, {tuple(mono): 1})

    def var_named(self, name: str, power: int = 1) -> "Polynomial":
        return self.var(self.index(name), power)

    def monomial(self, mono: Mono, coeff=1) -> "Polynomial":
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {tuple(mono): coeff})

    # -- parsing ------------------------------------------------------------

    _TOKEN = re.compile(r"\s*([+-]|\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*)")

    def parse(self, text: str) -> "Polynomial":
        """Parse strings like "X1^2*X3 - 2*X2^2 + 1" into a polynomial."""
        pos = 0
        tokens: list[str] = []
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"cannot tokenize {text[pos:]!r}")
                break
            tokens.append(m.group(1))
            pos = m.end()
        terms: dict[Mono, object] = {}
        i = 0
        sign = 1
        while i < len(tokens):
            tok = tokens[i]
            if tok == "+":
                sign = 1
                i += 1
                continue
            if tok == "-":
                sign = -1
                i += 1
                continue
            coeff = Fraction(1)
            mono = [0] * self.nvars
            expect_factor = True
            while i < len(tokens) and tokens[i] not in ("+", "-"):
                tok = tokens[i]
                if tok == "*":
                    i += 1
                    expect_factor = True
                    continue
                if not expect_factor:
                    raise ValueError(f"missing '*' before {tok!r} in {text!r}")
                if re.fullmatch(r"\d+/\d+|\d+", tok):
                    coeff *= Fraction(tok)
                    i += 1
                else:
                    if tok not in self._index:
                        raise ValueError(f"unknown variable {tok!r}")
                    idx = self._index[tok]
                    power = 1
                    i += 1
                    if i < len(tokens) and tokens[i] == "^":
                        power = int(tokens[i + 1])
                        i += 2
                    mono[idx] += power
                expect_factor = False
            key = tuple(mono)
            c = terms.get(key, 0) + sign * coeff
            if c == 0:
                terms.pop(key, None)
            else:
                terms[key] = c
            sign = 1
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


class FreeModule:
    """Free module base^rank, as a term format for Polynomial.

    The term x^a e_p is the tuple a + (one-hot vector of p), so mono_mul,
    mono_div and mono_lcm work on terms unchanged: a ring monomial padded
    with zeros keeps a term's position, and division fails across
    positions.  The order is position over term: a lower position is
    larger, and within a position the base ring's order decides.  Positions
    weigh nothing, so degree caps bound the ring part.
    """

    __slots__ = ("base", "rank", "names", "weights", "_nv", "_keys")

    def __init__(self, base: PolyRing, rank: int):
        self.base = base
        self.rank = rank
        self.names = base.names + tuple(f"e{p + 1}" for p in range(rank))
        self.weights = base.weights
        self._nv = base.nvars
        self._keys: dict[Mono, tuple] = {}

    def position(self, mono: Mono) -> int:
        return mono.index(1, self._nv) - self._nv

    def wdeg(self, mono: Mono) -> int:
        return self.base.wdeg(mono[: self._nv])

    def sort_key(self, mono: Mono):
        """As PolyRing.sort_key, led by the negated position."""
        key = self._keys.get(mono)
        if key is None:
            ring_key = self.base.sort_key(mono[: self._nv])
            key = (-self.position(mono),) + ring_key[:-1] + (mono_support(mono),)
            self._keys[mono] = key
        return key

    def skip_pair(self, a: Mono, b: Mono) -> bool:
        """Leads at different positions have no S-polynomial."""
        return a[self._nv :] != b[self._nv :]

    def vector(self, entries: dict[int, "Polynomial"]) -> "Polynomial":
        """The element sum of entries[p] * e_p, from base-ring polynomials."""
        terms: dict[Mono, object] = {}
        for p, f in entries.items():
            unit = tuple(1 if k == p else 0 for k in range(self.rank))
            for m, c in f.terms.items():
                terms[m + unit] = c
        return Polynomial(self, terms)

    def components(self, v: "Polynomial") -> list["Polynomial"]:
        """The base-ring coordinates of v, one per position."""
        parts: list[dict] = [{} for _ in range(self.rank)]
        for m, c in v.terms.items():
            parts[self.position(m)][m[: self._nv]] = c
        return [Polynomial(self.base, t) for t in parts]


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

    def lt(self) -> tuple[Mono, object]:
        """Leading (monomial, coefficient) for the ring's order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if self._lt is None:
            m = max(self.terms, key=self.ring.sort_key)
            self._lt = (m, self.terms[m])
        return self._lt

    def lm(self) -> Mono:
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

    def sorted_terms(self) -> list[tuple[Mono, object]]:
        return sorted(self.terms.items(), key=lambda t: self.ring.sort_key(t[0]), reverse=True)

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
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) - c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check(other)
            out: dict[Mono, object] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    s = out.get(m, 0) + c1 * c2
                    if s == 0:
                        out.pop(m, None)
                    else:
                        out[m] = s
            return Polynomial(self.ring, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {m: _tighten(k * c) for m, k in self.terms.items()})

    def term_mul(self, mono: Mono, coeff=1) -> "Polynomial":
        """Multiply by coeff * x^mono."""
        if coeff == 0:
            return self.ring.zero()
        return Polynomial(
            self.ring, {mono_mul(m, mono): _tighten(c * coeff) for m, c in self.terms.items()}
        )

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
        out: dict[Mono, object] = {}
        for m, c in self.terms.items():
            mono = [0] * other_ring.nvars
            for i, e in enumerate(m):
                if e:
                    mono[var_map[i]] += e
            key = tuple(mono)
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
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [
                f"{self.ring.names[i]}^{e}" if e > 1 else self.ring.names[i]
                for i, e in enumerate(m)
                if e
            ]
            body = "*".join(factors)
            mag = abs(c) if isinstance(c, int) else abs(Fraction(c))
            if not body:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{mag}*{body}"
            sign = "-" if (c < 0) else "+"
            parts.append((sign, chunk))
        first_sign, first_chunk = parts[0]
        text = ("-" if first_sign == "-" else "") + first_chunk
        for sign, chunk in parts[1:]:
            text += f" {sign} {chunk}"
        return text

    def __repr__(self):
        return f"<poly {self}>"
