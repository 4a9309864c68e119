"""Semigroups whose defining ideal is the 2-minor ideal of a cyclic 2xn matrix.

An instance records a cyclic arrangement a_1..a_n of the minimal generators
together with exponent vectors m, ell such that the matrix

    ( X_2^m_2   X_3^m_3  ...  X_n^m_n   X_1^m_1 )
    ( X_1^l_1   X_2^l_2  ...  X_{n-1}^l_{n-1}   X_n^l_n )

has constant column degree gap c = m_[i+1] a_[i+1] - l_i a_i and its 2-minors
generate the defining ideal of the semigroup ring.  Validation decides that
exactly by a colength count on the Groebner basis of the minors (see
validate_defining_ideal); classification decides the nearly Gorenstein and
almost Gorenstein properties from the exponent patterns alone, scanning the
cyclic shifts and the reversal (which swaps the roles of m and ell).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import IdealMismatch, InhomogeneousMatrix
from .groebner import buchberger, two_minors
from .polyring import Mono, PolyRing, Polynomial, mono_div, mono_support
from .semigroup import NumericalSemigroup

SEARCH_BOUND_CAP = 500


def _wrap(r: int, n: int) -> int:
    """Representative of r mod n inside 1..n."""
    return (r - 1) % n + 1


@dataclass(frozen=True)
class Symmetry:
    """A form-preserving rearrangement: cyclic shift, optionally after reversal."""

    shift: int
    reversed: bool = False

    def apply(self, order, m, ell):
        if self.reversed:
            order, m, ell = order[::-1], ell[::-1], m[::-1]
        s = self.shift
        return order[s:] + order[:s], m[s:] + m[:s], ell[s:] + ell[:s]

    def describe(self) -> str:
        base = f"shift({self.shift})"
        return f"reversal+{base}" if self.reversed else base


def symmetries(n: int) -> list[Symmetry]:
    """The dihedral scan order: identity, shifts, then reversed shifts."""
    return [Symmetry(s, False) for s in range(n)] + [Symmetry(s, True) for s in range(n)]


@dataclass(frozen=True)
class NGResult:
    is_ng: bool
    case: str | None = None  # "A" (all top exponents 1) or "B" (tail case)
    symmetry: Symmetry | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failing: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class DeterminantalInstance:
    """Validated (H, cyclic order, m, ell) with homogeneity constant c."""

    H: NumericalSemigroup
    order: tuple[int, ...]
    m: tuple[int, ...]
    ell: tuple[int, ...]
    c: int

    @property
    def n(self) -> int:
        return len(self.order)

    @cached_property
    def ring(self) -> PolyRing:
        return PolyRing([f"X{i+1}" for i in range(self.n)], self.order)

    @cached_property
    def matrix(self) -> list[list[Polynomial]]:
        return build_matrix(self.ring, self.m, self.ell)

    @cached_property
    def minors(self) -> list[Polynomial]:
        return two_minors(self.matrix)

    def rearranged(self, sym: Symmetry) -> "DeterminantalInstance":
        """The instance after a dihedral rearrangement, without revalidation.

        A shift permutes the columns of the matrix cyclically; the reversal
        also swaps its rows.  Either way the minors are those of the original
        matrix up to sign and a renaming of the variables, so validity is
        invariant; the reversal negates c.
        """
        order, m, ell = sym.apply(self.order, self.m, self.ell)
        return DeterminantalInstance(self.H, order, m, ell, homogeneity_constant(order, m, ell))

    def to_json(self) -> dict:
        return {
            "generators": list(self.H.generators),
            "order": list(self.order),
            "m": list(self.m),
            "ell": list(self.ell),
        }

    @classmethod
    def from_json(cls, data) -> "DeterminantalInstance":
        if isinstance(data, str):
            data = json.loads(data)
        H = NumericalSemigroup(data["generators"])
        order = data.get("order", data["generators"])
        return build(H, order, data["m"], data["ell"])

    def __str__(self):
        return (
            f"H={self.H} order={list(self.order)} m={list(self.m)} "
            f"ell={list(self.ell)} c={self.c}"
        )


def build_matrix(ring: PolyRing, m, ell) -> list[list[Polynomial]]:
    """The cyclic 2xn matrix: top row X_[i+1]^m_[i+1], bottom row X_i^l_i."""
    n = ring.nvars
    top = [ring.var(i % n, m[i % n]) for i in range(1, n + 1)]
    bottom = [ring.var(i, ell[i]) for i in range(n)]
    return [top, bottom]


def degree_gaps(order, m, ell) -> list[int]:
    """Per-column top-minus-bottom weighted degrees."""
    n = len(order)
    return [m[(i + 1) % n] * order[(i + 1) % n] - ell[i] * order[i] for i in range(n)]


def homogeneity_constant(order, m, ell) -> int:
    """The common degree gap; raises InhomogeneousMatrix when not constant."""
    gaps = degree_gaps(order, m, ell)
    offending = [i + 1 for i in range(1, len(gaps)) if gaps[i] != gaps[0]]
    if offending:
        raise InhomogeneousMatrix(gaps, offending)
    return gaps[0]


def _standard_count(leads: list[Mono], nvars: int, cap: int) -> int | None:
    """Monomials in nvars variables divisible by no lead, counted up to cap + 1.

    Returns None when there are infinitely many, that is when some variable
    has no pure power among the leads; otherwise the count, or cap + 1 as
    soon as it passes cap.  The standard monomials are closed under
    division, so a depth-first walk that appends variables in nondecreasing
    index order meets each once and may stop at the first non-standard one.
    """
    powers = {mono_support(lm) for lm in leads}
    if any(1 << i not in powers for i in range(nvars)):
        return None
    count = 0
    stack = [((0,) * nvars, 0)]
    while stack:
        mono, first = stack.pop()
        if any(mono_div(mono, lm) is not None for lm in leads):
            continue
        count += 1
        if count > cap:
            return count
        for i in range(first, nvars):
            stack.append((mono[:i] + (mono[i] + 1,) + mono[i + 1 :], i))
    return count


def validate_defining_ideal(H, order, m, ell) -> ValidationReport:
    """Exact check that the 2-minors generate the defining ideal P of H.

    The minors are homogeneous binomials, so I_2 lies in P.  Write X_n for
    the last variable, of weight a_n = order[-1].  If S/(I_2 + X_n) has
    finite length, I_2 has the maximal height n - 1 and S/I_2 is
    Cohen-Macaulay (Eagon-Northcott), so X_n is a nonzerodivisor on it and
    the length is the multiplicity e(X_n; S/I_2) >= e(X_n; S/P) = a_n, with
    equality exactly when I_2 = P.  In the ring's weighted revlex order, with
    X_n last, in(I_2 + X_n) = in(I_2) + (X_n) (Bayer-Stillman), so the length
    is the number of monomials in X_1..X_{n-1} outside the leads of the
    reduced basis of I_2: no second Groebner basis is needed.  The count
    stops at a_n + 1, and NumericalSemigroup caps the generators.
    """
    order = tuple(order)
    n = len(order)
    ring = PolyRing([f"X{i+1}" for i in range(n)], order)
    minors = two_minors(build_matrix(ring, tuple(m), tuple(ell)))
    for p in minors:
        if not p.is_homogeneous():
            return ValidationReport(False, failing=f"minor not homogeneous: {p}")
    leads = [g.lm()[:-1] for g in buchberger(minors) if not g.lm()[-1]]
    a_n = order[-1]
    count = _standard_count(leads, n - 1, a_n)
    if count == a_n:
        return ValidationReport(True)
    if count is None:
        found = "infinite"
    elif count > a_n:
        found = f"above {a_n}"
    else:
        found = str(count)
    return ValidationReport(
        False, failing=f"colength of the 2-minors + X{n} is {found}, not a_{n} = {a_n}"
    )


def build(H: NumericalSemigroup, order, m, ell) -> DeterminantalInstance:
    """Validated instance; raises InhomogeneousMatrix or IdealMismatch."""
    order = tuple(int(a) for a in order)
    m = tuple(int(x) for x in m)
    ell = tuple(int(x) for x in ell)
    n = len(order)
    if n < 3:
        raise ValueError(f"need at least 3 generators, got {n}")
    if not (len(m) == len(ell) == n):
        raise ValueError("m and ell must have one entry per generator")
    if any(x <= 0 for x in m + ell):
        raise ValueError("exponents must be positive")
    if sorted(order) != list(H.generators):
        raise ValueError(f"order {order} is not an arrangement of {H.generators}")
    c = homogeneity_constant(order, m, ell)
    report = validate_defining_ideal(H, order, m, ell)
    if not report:
        raise IdealMismatch(report.failing)
    return DeterminantalInstance(H, order, m, ell, c)


# -- closed-form solution of the cyclic degree conditions ---------------------


def remark_degrees(m, ell) -> list[int]:
    """The degree vector solving the cyclic conditions, before scaling.

    d_i = sum over j of (m_[i+1] ... m_[i+j-1]) * (l_[i+j] ... l_[i+n-1]),
    with empty products equal to 1.  It satisfies
    m_[i+1] d_[i+1] - l_i d_i = prod(m) - prod(l) for every i.
    """
    n = len(m)
    if len(ell) != n:
        raise ValueError("m and ell must have equal length")
    if any(x <= 0 for x in tuple(m) + tuple(ell)):
        raise ValueError("exponents must be positive")
    degs = []
    for i in range(1, n + 1):
        total = 0
        for j in range(1, n + 1):
            prod_m = 1
            for k in range(i + 1, i + j):
                prod_m *= m[_wrap(k, n) - 1]
            prod_l = 1
            for k in range(i + j, i + n):
                prod_l *= ell[_wrap(k, n) - 1]
            total += prod_m * prod_l
        degs.append(total)
    return degs


def search_instances(m, ell, bound: int) -> list[DeterminantalInstance]:
    """All validated instances with the given exponents and generators <= bound.

    The cyclic conditions pin the generator ray up to scaling; the primitive
    integer point is the only candidate with gcd 1, so the result has at most
    one element.  Degenerate exponent data (equal products, so gap 0) and
    candidates failing positivity, minimality or ideal validation give [].
    A validation that hits a resource cap raises ResourceLimit: the
    candidate is undecided, not rejected.
    """
    if bound > SEARCH_BOUND_CAP:
        raise ValueError(f"bound {bound} exceeds cap {SEARCH_BOUND_CAP}")
    m = tuple(int(x) for x in m)
    ell = tuple(int(x) for x in ell)
    n = len(m)
    if n < 3 or len(ell) != n:
        raise ValueError("need matching exponent vectors of length >= 3")
    prod_m = math.prod(m)
    prod_l = math.prod(ell)
    if prod_m == prod_l:
        return []  # forces gap 0: degenerate, no valid instance
    d = remark_degrees(m, ell)
    g = math.gcd(*d)
    order = tuple(x // g for x in d)
    if max(order) > bound:
        return []
    if len(set(order)) != n:
        return []
    try:
        H = NumericalSemigroup(order)
    except ValueError:
        return []
    try:
        inst = build(H, order, m, ell)
    except (IdealMismatch, InhomogeneousMatrix):
        return []
    return [inst]


# -- classification ------------------------------------------------------------


def _case_a(m) -> bool:
    return all(x == 1 for x in m)


def _case_b(m, ell) -> bool:
    n = len(m)
    return all(x == 1 for x in m[1:]) and all(x == 1 for x in ell[: n - 2])


def classify_nearly_gorenstein(inst: DeterminantalInstance) -> NGResult:
    """Decide near-Gorensteinness from the exponent patterns.

    Scans the dihedral rearrangements in a fixed order (shifts first, then
    reversal composed with shifts) and reports the first satisfied case:
    "A" when every top exponent is 1, "B" when all top exponents but the
    first and the leading bottom exponents are 1.
    """
    for sym in symmetries(inst.n):
        _, m, ell = sym.apply(inst.order, inst.m, inst.ell)
        if _case_a(m):
            return NGResult(True, "A", sym)
        if _case_b(m, ell):
            return NGResult(True, "B", sym)
    return NGResult(False)


def classify_almost_gorenstein(inst: DeterminantalInstance) -> bool:
    """True iff some rearrangement has every top exponent equal to 1.

    A cyclic shift permutes the top exponents and the reversal makes them
    the bottom exponents reversed, so the dihedral scan for case A reduces
    to: every m_i is 1 or every l_i is 1.
    """
    return _case_a(inst.m) or _case_a(inst.ell)


def arithmetic_progression_check(inst: DeterminantalInstance) -> bool:
    """Some rearrangement puts the first n-1 generators in arithmetic progression."""
    n = inst.n
    for sym in symmetries(n):
        order, _, _ = sym.apply(inst.order, inst.m, inst.ell)
        window = order[: n - 1]
        diffs = {window[i + 1] - window[i] for i in range(len(window) - 1)}
        if len(diffs) <= 1:
            return True
    return False
