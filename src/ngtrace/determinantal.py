"""Semigroups whose defining ideal is the 2-minor ideal of a cyclic 2xn matrix.

An instance records a cyclic arrangement a_1..a_n of the minimal generators
together with exponent vectors m, ell such that the matrix

    ( X_2^m_2   X_3^m_3  ...  X_n^m_n   X_1^m_1 )
    ( X_1^l_1   X_2^l_2  ...  X_{n-1}^l_{n-1}   X_n^l_n )

has constant column degree gap c = m_[i+1] a_[i+1] - l_i a_i and its 2-minors
generate the defining ideal of the semigroup ring.  Validation checks both
inclusions exactly; classification decides the nearly Gorenstein and almost
Gorenstein properties from the exponent patterns alone, scanning the cyclic
shifts and the reversal (which swaps the roles of m and ell).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product

from .errors import IdealMismatch, InhomogeneousMatrix, ResourceLimit
from .groebner import GroebnerBasis, buchberger, toric_ideal, two_minors
from .polyring import PolyRing, Polynomial
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
        n = len(order)
        if self.reversed:
            order = tuple(reversed(order))
            m, ell = tuple(reversed(ell)), tuple(reversed(m))
        s = self.shift
        rot = lambda t: tuple(t[(k + s) % n] for k in range(n))
        return rot(order), rot(m), rot(ell)

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

    def to_json(self) -> dict:
        return {
            "is_ng": self.is_ng,
            "case": self.case,
            "symmetry": self.symmetry.describe() if self.symmetry else None,
        }


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


_TORIC_CACHE: dict[tuple[int, ...], GroebnerBasis] = {}


def toric_for_order(order: tuple[int, ...], seed=()) -> GroebnerBasis:
    """Toric basis for an arrangement, cached: the reduced basis is canonical,
    so the (correctness-neutral) saturation seed does not affect the result."""
    gb = _TORIC_CACHE.get(order)
    if gb is None:
        gb = toric_ideal(order, seed=seed)
        if len(_TORIC_CACHE) > 4096:
            _TORIC_CACHE.clear()
        _TORIC_CACHE[order] = gb
    return gb


def validate_defining_ideal(H, order, m, ell) -> ValidationReport:
    """Exact two-sided check that the 2-minors generate the defining ideal.

    Containment of the minors is a degree computation (each minor is a
    binomial with equal weighted degrees); the reverse containment reduces
    every toric basis element against the minor basis.
    """
    order = tuple(order)
    ring = PolyRing([f"X{i+1}" for i in range(len(order))], order)
    minors = two_minors(build_matrix(ring, tuple(m), tuple(ell)))
    for p in minors:
        if not p.is_homogeneous():
            return ValidationReport(False, failing=f"minor not homogeneous: {p}")
    gb_minors = buchberger(minors)
    gb_toric = toric_for_order(order, seed=minors)
    if gb_toric.polys == gb_minors.polys:
        # reduced bases are unique per ideal, so equality settles both inclusions
        return ValidationReport(True)
    for p in gb_toric:
        if not gb_minors.contains(p):
            return ValidationReport(False, failing=str(p))
    return ValidationReport(True)


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
        raise IdealMismatch(report.failing or "unknown")
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


def scan_presentations(H: NumericalSemigroup, emax: int, bound: int | None = None):
    """All determinantal presentations of H with exponents <= emax.

    Exhausts exponent tuples; each determines at most one generator
    arrangement, so this covers arbitrary permutations of the generators.
    Intended for the flag-gated full-permutation scan (n <= 5).
    """
    n = len(H.generators)
    if n > 5:
        raise ResourceLimit("full presentation scan limited to 5 generators")
    if bound is None:
        bound = min(max(H.generators), SEARCH_BOUND_CAP)
    found = []
    for m in product(range(1, emax + 1), repeat=n):
        for ell in product(range(1, emax + 1), repeat=n):
            for inst in search_instances(m, ell, bound):
                if inst.H == H:
                    found.append(inst)
    return found


# -- classification ------------------------------------------------------------


def _case_a(m) -> bool:
    return all(x == 1 for x in m)


def _case_b(m, ell) -> bool:
    n = len(m)
    return all(x == 1 for x in m[1:]) and all(x == 1 for x in ell[: n - 2])


def classify_nearly_gorenstein(
    inst: DeterminantalInstance, full_perm: bool = False, emax: int | None = None
) -> NGResult:
    """Decide near-Gorensteinness from the exponent patterns.

    Scans the dihedral rearrangements in a fixed order (shifts first, then
    reversal composed with shifts) and reports the first satisfied case:
    "A" when every top exponent is 1, "B" when all top exponents but the
    first and the leading bottom exponents are 1.  With full_perm, every
    presentation of the same semigroup with exponents <= emax is scanned as
    well (n <= 5 only).
    """
    for sym in symmetries(inst.n):
        _, m, ell = sym.apply(inst.order, inst.m, inst.ell)
        if _case_a(m):
            return NGResult(True, "A", sym)
        if _case_b(m, ell):
            return NGResult(True, "B", sym)
    if full_perm:
        cap = emax if emax is not None else max(max(inst.m), max(inst.ell))
        for other in scan_presentations(inst.H, cap):
            if other.order == inst.order and other.m == inst.m and other.ell == inst.ell:
                continue
            sub = classify_nearly_gorenstein(other)
            if sub.is_ng:
                return sub
    return NGResult(False)


def classify_almost_gorenstein(inst: DeterminantalInstance) -> bool:
    """True iff some rearrangement has every top exponent equal to 1."""
    return any(
        _case_a(sym.apply(inst.order, inst.m, inst.ell)[1]) for sym in symmetries(inst.n)
    )


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
