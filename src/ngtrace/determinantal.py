"""Semigroups whose defining ideal is the 2-minor ideal of a cyclic 2xn matrix.

An instance records a cyclic arrangement a_1..a_n of the minimal generators
together with exponent vectors m, ell such that the matrix

    ( X_2^m_2   X_3^m_3  ...  X_n^m_n   X_1^m_1 )
    ( X_1^l_1   X_2^l_2  ...  X_{n-1}^l_{n-1}   X_n^l_n )

has constant column degree gap c = m_[i+1] a_[i+1] - l_i a_i and its 2-minors
generate the defining ideal of the semigroup ring.  Validation decides that
by arithmetic, c = prod(m) - prod(l) (proved at validate_defining_ideal);
classification decides the nearly Gorenstein and almost Gorenstein
properties from the exponent patterns alone, scanning the cyclic shifts and
the reversal (which swaps the roles of m and ell).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import IdealMismatch, InhomogeneousMatrix
from .groebner import two_minors
from .polyring import PolyRing, Polynomial
from .semigroup import NumericalSemigroup

SEARCH_BOUND_CAP = 500


def wrap(r: int, n: int) -> int:
    """Representative of r mod n inside 1..n."""
    return (r - 1) % n + 1


@dataclass(frozen=True)
class Symmetry:
    """A form-preserving rearrangement: cyclic shift, optionally after reversal."""

    shift: int
    reversed: bool = False

    def apply(self, order, m, ell):
        """The one dihedral action on column data, for instances, markings
        and corpus orbits: the reversal also swaps the rows (m and ell)."""
        if self.reversed:
            order, m, ell = order[::-1], ell[::-1], m[::-1]
        s = self.shift
        return order[s:] + order[:s], m[s:] + m[:s], ell[s:] + ell[:s]

    def describe(self) -> str:
        base = f"shift({self.shift})"
        return f"reversal+{base}" if self.reversed else base


@cache
def symmetries(n: int) -> tuple[Symmetry, ...]:
    """The dihedral scan order: identity, shifts, then reversed shifts
    (cached per n: 2n immutable values, never cleared)."""
    return tuple(Symmetry(s, rev) for rev in (False, True) for s in range(n))


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
    def matrices(self) -> tuple[list[list[Polynomial]], list[list[Polynomial]]]:
        """The cyclic matrix D and the presentation matrix M (cyclic_matrices)."""
        ring = self.ring
        return cyclic_matrices(
            [ring.var(i, e) for i, e in enumerate(self.m)],
            [ring.var(i, e) for i, e in enumerate(self.ell)],
        )

    @property
    def matrix(self) -> list[list[Polynomial]]:
        return self.matrices[0]

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


def cyclic_matrices(tops, bottoms):
    """The 2xn matrix D and the presentation matrix M of its canonical module.

    tops[r - 1] = V_r and bottoms[r - 1] = U_r are the entries of index r:
    D has top row V_[i+1] and bottom row U_i in column i.  M is
    (n-1) x n(n-2) in blocks of n columns: block j carries the top row in
    matrix-row j and the negated bottom row in matrix-row j+1, so row
    vectors f with f.M = 0 satisfy f_j V_[i+1] - f_{j+1} U_i = 0 columnwise.
    Every column of M is homogeneous when every column of D is.
    """
    n = len(tops)
    D = [[tops[(i + 1) % n] for i in range(n)], list(bottoms)]
    zero = tops[0].ring.zero()
    negated = [-u for u in bottoms]  # each block shares these entries
    M = [[zero] * (n * (n - 2)) for _ in range(n - 1)]
    for j in range(1, n - 1):
        for i in range(1, n + 1):
            col = (j - 1) * n + (i - 1)
            M[j - 1][col] = tops[i % n]
            M[j][col] = negated[i - 1]
    return D, M


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


def validate_defining_ideal(H, order, m, ell) -> ValidationReport:
    """Exact check that the 2-minors generate the defining ideal P of H.

    With a_i = order[i-1], column j has degrees top_j = m_[j+1] a_[j+1] and
    bot_j = l_j a_j, and c = top_j - bot_j.  Then I_2 = P iff c != 0 and
    c = prod(m) - prod(l):

    1. The matrix is homogeneous, so the minors are homogeneous binomials
       and I_2 lies in P.
    2. Modulo X_n the minor of columns j-1, j is X_j^(m_j+l_j) minus a
       multiple of X_{j+1}, so by downward induction from j = n-1 every X_j
       with j >= 2 is nilpotent modulo I_2 + (X_n); the wrap-around minor of
       columns n, 1 gives X_1^(m_1+l_1).  So I_2 has height n - 1 for any
       positive exponents: by Eagon-Northcott S/I_2 is Cohen-Macaulay of
       dimension 1 and X_n is a nonzerodivisor on it.
    3. The Eagon-Northcott Hilbert series (the Porteous formula) gives
       length S/(I_2 + X_n) = a_n (prod top - prod bot) / (c prod a)
       = g a_n with g = (prod(m) - prod(l)) / c.  The cyclic conditions
       give a = d / g for d = remark_degrees(m, ell): the length is d_n.
    4. P is a minimal prime of I_2 (both of height n - 1) and S/I_2 has no
       embedded primes, so by the associativity formula the length
       e(X_n; S/I_2) is >= e(X_n; S/P) = a_n, with equality iff I_2 = P.
    5. If c = 0 then prod(m) = prod(l), and P holds each binomial
       X_{j+1}^m_{j+1} - X_j^l_j of degree top_j; the one of least degree
       lies below the degree top_i + top_k of every minor, so I_2 != P.

    For n = 3 this is Herzog (1970).  The tests keep the colength count on
    the Groebner basis of the minors as an oracle for this rule.

    H is not read: the verdict depends on order, m and ell alone.  It stays
    the first parameter for the callers that pass it.
    """
    gaps = degree_gaps(order, m, ell)
    if len(set(gaps)) > 1:
        return ValidationReport(False, failing=f"matrix not homogeneous: degree gaps {gaps}")
    c = gaps[0]
    if c == 0:
        return ValidationReport(False, failing="degree gap c = 0: prod(m) = prod(ell)")
    diff = math.prod(m) - math.prod(ell)
    if c == diff:
        return ValidationReport(True)
    n, a_n = len(order), order[-1]
    return ValidationReport(
        False,
        failing=f"colength of the 2-minors + X{n} is {a_n * diff // c}, not a_{n} = {a_n}"
        f" (g = (prod(m) - prod(ell)) / c = {diff // c})",
    )


def build(H: NumericalSemigroup, order, m, ell) -> DeterminantalInstance:
    """Validated instance; raises InhomogeneousMatrix or IdealMismatch."""
    order = tuple(int(a) for a in order)
    m = tuple(int(x) for x in m)
    ell = tuple(int(x) for x in ell)
    n = len(order)
    if sorted(order) != list(H.generators):
        raise ValueError(f"order {order} is not an arrangement of {H.generators}")
    if n < 3:
        raise ValueError(f"need at least 3 generators, got {n}")
    if not (len(m) == len(ell) == n):
        raise ValueError("m and ell must have one entry per generator")
    if any(x <= 0 for x in m + ell):
        raise ValueError("exponents must be positive")
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
    m_[i+1] d_[i+1] - l_i d_i = prod(m) - prod(l) for every i: the j-th
    term of l_i d_i (with l_i = l_[i+n]) is the (j-1)-th term of
    m_[i+1] d_[i+1], which leaves the last term prod(m) of the one and the
    first term prod(l) of the other.  So d_1 = sum over j of
    (m_2 ... m_j)(l_[j+1] ... l_n) is summed from prefix and suffix
    products, and each next entry is d_[i+1] = (l_i d_i + prod(m) -
    prod(l)) / m_[i+1], an exact division; O(n) multiplications in all.
    """
    n = len(m)
    if len(ell) != n:
        raise ValueError("m and ell must have equal length")
    if any(x <= 0 for x in tuple(m) + tuple(ell)):
        raise ValueError("exponents must be positive")
    suffix = [1] * n  # suffix[j - 1] = l_[j+1] ... l_n
    for j in range(n - 2, -1, -1):
        suffix[j] = suffix[j + 1] * ell[j + 1]
    prefix, d = 1, suffix[0]  # prefix = m_2 ... m_j
    for j in range(1, n):
        prefix *= m[j]
        d += prefix * suffix[j]
    diff = math.prod(m) - math.prod(ell)
    degs = [d]
    for i in range(n - 1):
        d, r = divmod(ell[i] * d + diff, m[i + 1])
        if r:
            raise AssertionError(f"cyclic condition {i + 1} leaves remainder {r}")
        degs.append(d)
    return degs


def search_instances(m, ell, bound: int) -> list[DeterminantalInstance]:
    """All validated instances with the given exponents and generators <= bound.

    The cyclic conditions pin the generator ray up to scaling; the primitive
    integer point is the only candidate with gcd 1, so the result has at most
    one element.  Degenerate exponent data (equal products, so gap 0) and
    candidates failing the bound, distinctness or ideal validation give [].
    Validation is arithmetic (validate_defining_ideal), so no Groebner basis
    is computed and every candidate is decided; it runs before the semigroup
    is built, and an accepted candidate has c = prod(m) - prod(ell), so it
    is not validated again.  No error is read as "no instance".

    Validation proves minimality, so building the semigroup of an accepted
    candidate never raises NonMinimalGenerators.  Every minor lies in m^2,
    as each matrix entry is a positive power of a variable.  If a_j were a
    sum sum_i u_i a_i of the other generators with |u| >= 2, then X_j - X^u
    would lie in P but not in m^2, so I_2 != P.  A repeat (|u| = 1) is
    refused before validation, and order = d / gcd(d) has gcd 1.
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
    if not validate_defining_ideal(None, order, m, ell):
        return []
    return [DeterminantalInstance(NumericalSemigroup(order), order, m, ell, prod_m - prod_l)]


# -- classification ------------------------------------------------------------


def _case_a(m) -> bool:
    return all(x == 1 for x in m)


def _case_b(m, ell) -> bool:
    n = len(m)
    return all(x == 1 for x in m[1:]) and all(x == 1 for x in ell[: n - 2])


@cache
def _scan_masks(n: int) -> tuple[tuple[Symmetry, int, int], ...]:
    """Per symmetry in scan order, the original positions case B needs to be 1.

    Each entry is (sym, top, bottom): bit p of top is set when position p of
    the row that sym makes the top row (m, or ell under the reversal) must
    be 1, and bottom does the same for the other row.  Cached per n as
    symmetries(n) is: 2n immutable values, never cleared.
    """
    positions = tuple(range(n))
    out = []
    for sym in symmetries(n):
        _, top, bottom = sym.apply((), positions, positions)
        out.append((sym, sum(1 << p for p in top[1:]), sum(1 << p for p in bottom[: n - 2])))
    return tuple(out)


def classify_nearly_gorenstein(inst: DeterminantalInstance) -> NGResult:
    """Decide near-Gorensteinness from the exponent patterns.

    Scans the dihedral rearrangements in a fixed order (shifts first, then
    reversal composed with shifts) and reports the first satisfied case:
    "A" when every top exponent is 1, "B" when all top exponents but the
    first and the leading bottom exponents are 1.  Both are tests on the
    masks of the positions where m and ell are 1 (_scan_masks).
    """
    ones_m = ones_l = 0
    for p, (x, y) in enumerate(zip(inst.m, inst.ell)):
        ones_m |= (x == 1) << p
        ones_l |= (y == 1) << p
    every = (1 << inst.n) - 1
    for sym, top, bottom in _scan_masks(inst.n):
        upper, lower = (ones_l, ones_m) if sym.reversed else (ones_m, ones_l)
        if upper == every:
            return NGResult(True, "A", sym)
        if upper & top == top and lower & bottom == bottom:
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
    """Some rearrangement puts the first n-1 generators in arithmetic progression.

    The window of a reversed rearrangement is a shifted window read
    backwards, which is a progression iff the shifted one is, so the
    cyclic shifts suffice.
    """
    n = inst.n
    for sym in symmetries(n)[:n]:  # the cyclic shifts
        order, _, _ = sym.apply(inst.order, (), ())
        window = order[: n - 1]
        diffs = {window[i + 1] - window[i] for i in range(len(window) - 1)}
        if len(diffs) <= 1:
            return True
    return False
