"""Higher-dimensional deformations: extra variables on matrix entries.

Starting from a validated cyclic-determinantal instance, subsets I and J of
the column indices pick top entries X_r^m_r + Y_r and bottom entries
X_r^l_r + Z_r.  The quotient by the 2-minors of the deformed matrix is a
Cohen-Macaulay domain of dimension |I| + |J| + 1, and near-Gorensteinness is
decided by closed exponent conditions split over two hypothesis blocks on
the base exponents:

  all-ones:  every m_r = 1;
  tail:      m_1 >= 2, the other m_r = 1, l_1 .. l_{n-2} = 1 (and for n >= 4
             at least one of l_{n-1}, l_n >= 2, matching the classified range).

A base that is not nearly Gorenstein has no nearly Gorenstein deformation,
so classify answers false for every marking of it (see classify).  Every
other base fits a block in some arrangement, and a dihedral rearrangement
gives an isomorphic ring, so classify picks an arrangement whose base fits
a block.  One clause function gives each verdict and names its table: the
explicit row vectors annihilating the canonical-module presentation matrix
when the clause holds, read through the same shifted view of the indices
as the clause; classify's result carries the table, so one decision serves
verdict, rows and check.
Verification reduces every product entry to zero against the minors,
proved a Groebner basis (minors_basis), and then checks that the linear
parts of the row entries span the variables: the cover of the local ring
k[[X]] by entries and minors.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .determinantal import (
    DeterminantalInstance,
    Symmetry,
    _case_a,
    _case_b,
    classify_nearly_gorenstein,
    cyclic_matrices,
    symmetries,
    wrap,
)
from .errors import NoTabulatedWitness, WitnessFailed
from .groebner import GroebnerBasis, buchberger, first_nonzero_column, two_minors
from .polyring import PolyRing, Polynomial

ALL_ONES = "all-ones"
TAIL = "tail"
OTHER = "other"


def base_case_of(inst: DeterminantalInstance) -> str:
    return _block_of(inst.m, inst.ell)


def _block_of(m, ell) -> str:
    """The classified block the exponents fit, or OTHER: the base theorem's
    case A, or its case B (so m_1 >= 2) with, for n >= 4, l_{n-1} or l_n
    at least 2."""
    if _case_a(m):
        return ALL_ONES
    if _case_b(m, ell) and (len(m) == 3 or max(ell[-2:]) >= 2):
        return TAIL
    return OTHER


@dataclass(frozen=True)
class HDResult:
    """A verdict, the clause that decided it, and where it was decided.

    ``instance`` is the arrangement the clause was read in, reached from
    the given one by ``symmetry``; symmetry is None when it is the given one.
    ``table`` and ``shift``, the clause's table and the shift of its view
    (see _clause), build witness_rows and take no part in equality; the
    tables are written in the deformed entries U_r and V_r (see _rows_base).
    """

    is_ng: bool
    rule: str
    symmetry: Symmetry | None
    instance: HigherDimInstance
    table: Callable | None = field(default=None, compare=False, repr=False)
    shift: int = field(default=0, compare=False, repr=False)

    def witness_rows(self) -> list[tuple[Polynomial, ...]]:
        """The table's annihilating rows, over the ring of ``instance``.

        The base theorem's case B takes the tail rows of the base.  Raises
        NoTabulatedWitness for true cases without a table: case A with
        I = J = empty, which the dimension-one theorem decides (``ngtrace
        verify`` checks it on the base), and the n = 3 cases the tables do
        not reach (see _clause).
        """
        if not self.is_ng:
            raise NoTabulatedWitness("instance is not nearly Gorenstein")
        if self.table is not None:
            return self.table(_RowBuilder(self.instance, self.shift))
        if self.rule == "base(A)":
            raise NoTabulatedWitness(
                "base case A with no deformation: decided by the dimension-one "
                "theorem, not checked here; `ngtrace verify` checks it"
            )
        hd = self.instance
        raise NoTabulatedWitness(
            f"no table row for n = 3 {hd.base_case} I={sorted(hd.I)} J={sorted(hd.J)}: "
            "the tables are written for n >= 4"
        )

    def verify(self, rows) -> bool:
        """Check that rows of ``instance`` certify the property, or raise WitnessFailed.

        Every entry of f.M must have normal form zero against the minor
        basis, and the entries must cover the variables (_uncovered_variable).
        """
        hd = self.instance
        _, M = hd.matrices
        gb = minors_basis(hd)
        for ridx, row in enumerate(rows):
            if len(row) != hd.n - 1:
                raise WitnessFailed(f"row {ridx + 1} has length {len(row)}, wanted {hd.n - 1}")
            failure = first_nonzero_column(row, M, gb)
            if failure is not None:
                col, residue = failure
                raise WitnessFailed(
                    f"row {ridx + 1}, column {col + 1}: f.M has nonzero normal form {residue}"
                )
        name = _uncovered_variable(hd.ring, [p for row in rows for p in row])
        if name is not None:
            raise WitnessFailed(f"variable {name} not generated by the witness entries")
        return True


@dataclass(frozen=True)
class HigherDimInstance:
    base: DeterminantalInstance
    I: frozenset[int] = field(default_factory=frozenset)
    J: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        n = self.base.n
        object.__setattr__(self, "I", frozenset(int(i) for i in self.I))
        object.__setattr__(self, "J", frozenset(int(j) for j in self.J))
        bad = [k for k in self.I | self.J if not 1 <= k <= n]
        if bad:
            raise ValueError(f"indices {bad} outside 1..{n}")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def base_case(self) -> str:
        return base_case_of(self.base)

    def dimension(self) -> int:
        return len(self.I) + len(self.J) + 1

    @cached_property
    def ring(self) -> PolyRing:
        n = self.base.n
        names = [f"X{k}" for k in range(1, n + 1)]
        weights = list(self.base.order)
        for i in sorted(self.I):
            names.append(f"Y{i}")
            weights.append(self.base.m[i - 1] * self.base.order[i - 1])
        for j in sorted(self.J):
            names.append(f"Z{j}")
            weights.append(self.base.ell[j - 1] * self.base.order[j - 1])
        return PolyRing(names, weights)

    @cached_property
    def matrices(self) -> tuple[list[list[Polynomial]], list[list[Polynomial]]]:
        """The deformed matrix D and the presentation matrix M (build_matrices)."""
        return build_matrices(self)

    def top_entry(self, r: int) -> Polynomial:
        """V_r = X_r^m_r, plus Y_r when r is marked."""
        p = self.ring.var_named(f"X{r}", self.base.m[r - 1])
        if r in self.I:
            p = p + self.ring.var_named(f"Y{r}")
        return p

    def bottom_entry(self, r: int) -> Polynomial:
        """U_r = X_r^l_r, plus Z_r when r is marked."""
        p = self.ring.var_named(f"X{r}", self.base.ell[r - 1])
        if r in self.J:
            p = p + self.ring.var_named(f"Z{r}")
        return p

    def rearranged(self, sym: Symmetry) -> "HigherDimInstance":
        """The same ring in another arrangement.  I is indexed like m and J
        like ell, so the marks move by the same sym.apply, and the reversal,
        which swaps m and ell, swaps I and J."""
        positions = range(1, self.n + 1)
        top, bottom = (tuple(p in marks for p in positions) for marks in (self.I, self.J))
        _, top, bottom = sym.apply((), top, bottom)
        I, J = ({p for p, marked in zip(positions, row) if marked} for row in (top, bottom))
        return HigherDimInstance(self.base.rearranged(sym), I, J)

    def to_json(self) -> dict:
        data = self.base.to_json()
        data["I"] = sorted(self.I)
        data["J"] = sorted(self.J)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "HigherDimInstance":
        base = DeterminantalInstance.from_json(data)
        return cls(base, frozenset(data.get("I", [])), frozenset(data.get("J", [])))

    def __str__(self):
        return f"{self.base} I={sorted(self.I)} J={sorted(self.J)}"


def build_matrices(hd: HigherDimInstance):
    """The deformed 2xn matrix D and the presentation matrix M (cyclic_matrices).

    Every column of M is homogeneous for the extended grading.
    """
    indices = range(1, hd.n + 1)
    return cyclic_matrices([hd.top_entry(r) for r in indices], [hd.bottom_entry(r) for r in indices])


def minors_basis(inst: DeterminantalInstance | HigherDimInstance) -> GroebnerBasis:
    """The monic 2-minors of a validated instance's matrix: a Groebner basis by the theorem below.

    ``inst`` is a DeterminantalInstance or a HigherDimInstance, whose
    ``matrices[0]`` is the matrix D over its ``ring``; anything else raises
    TypeError, as the theorem covers those matrices alone.  The minors are
    returned as they are: monic, in the order of their column pairs, with
    ``stats`` None.

    Theorem.  Let D have top entries V_r = X_r^m_r (+ Y_r when r is in I)
    in column r - 1 and bottom entries U_r = X_r^l_r (+ Z_r when r is in J)
    in column r (indices mod n, n >= 3), with positive exponents, degree
    gap c != 0 and every column homogeneous (a validated instance, base or
    deformed).  Its 2-minors are a Groebner basis of I_2 in the ring's
    order: weighted degree, then reverse lexicographic with X_1 .. X_n, the
    Y, the Z in that order.

    Proof.
    1. The terms of the minor Delta_ij (columns i < j) free of Y and Z are
       those of the base minor X_(i+1)^m_(i+1) X_j^l_j - X_(j+1)^m_(j+1)
       X_i^l_i: two terms of one degree with disjoint supports.  Any other
       term holds a Y or a Z, and the reverse lexicographic order puts it
       below every term of its degree that holds none.  So the lead is the
       X-only term free of the highest variable present: X_(i+1)^m_(i+1)
       X_j^l_j for j < n, and X_1^m_1 X_i^l_i for j = n.  The leads are
       exactly X_k^m_k X_j^l_j for 1 <= k <= j <= n - 1, one per minor,
       and the marks do not change them.
    2. Let L be the ideal of these leads in k[X_1 .. X_(n-1)], and class
       each monomial alpha outside L by the first p with alpha_p >= m_p
       (p = n when there is none).  Then alpha_i < m_i for i < p,
       m_p <= alpha_p < m_p + l_p, and alpha_j < l_j for p < j <= n - 1,
       and every such alpha lies outside L.  So L has
       sum_(p=1..n) m_1 ... m_(p-1) l_p ... l_(n-1) = d_n standard
       monomials, d_n = remark_degrees(m, ell)[-1] (its d_i at i = n).
    3. Modulo Y, Z and X_n, D is the base matrix with X_n = 0, so every X_j
       is nilpotent there (step 2 of validate_defining_ideal), and I_2 has
       the largest height a 2 x n matrix allows, n - 1.  By Eagon-Northcott
       S/I_2 is then Cohen-Macaulay, and the homogeneous system of
       parameters Z.., Y.., X_n is a regular sequence on it, in any order.
       For the last variable h of the order and a homogeneous g, h divides
       in(g) only if h divides g, so a nonzerodivisor h gives
       in(I_2) : h = in(I_2) and in(I_2 + (h)) = in(I_2) + (h) (Bayer and
       Stillman, A criterion for detecting m-regularity, 1987; Eisenbud,
       Commutative Algebra, Prop. 15.12).  Taking the Z, the Y and X_n off
       the end one at a time, in(I_2) is generated by monomials in
       X_1 .. X_(n-1), and it leaves as many standard monomials there as
       the length of S/(I_2 + (Y, Z, X_n)), the base's S/(I_2 + X_n): d_n
       (step 3 of validate_defining_ideal).
    4. The leads lie in in(I_2) and leave the same finite number of
       standard monomials, so they generate it: the minors are a Groebner
       basis.

    The basis need not be reduced, and no caller needs it to be.  The
    remainder on division by any Groebner basis of an ideal is the same
    (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 2
    section 6), so normal_form, first_nonzero_column and the residues
    HDResult.verify prints are those of the reduced basis.  _close asks
    two things of a basis it holds: each S(g, g') reduces to zero over it,
    and each g lies in the ideal; any Groebner basis gives both, so
    kernel_over_quotient still returns the reduced basis of its kernel,
    each entry in normal form.
    """
    if not isinstance(inst, (DeterminantalInstance, HigherDimInstance)):
        raise TypeError(f"minors_basis takes a validated instance, not {type(inst).__name__}")
    return GroebnerBasis(inst.ring, [g.monic() for g in two_minors(inst.matrices[0])])


# -- classification --------------------------------------------------------


def classify(hd: HigherDimInstance) -> HDResult:
    """Nearly Gorenstein or not, with the clause that decided it.

    A base that is not nearly Gorenstein gives "base(not-ng)" for every
    marking, in the given arrangement.  Let R be R^I_J in the local ring
    k[[X, Y, Z]].  R is Cohen-Macaulay of dimension |I| + |J| + 1, and
    R/(Y, Z) is the base, of dimension one, so the Y and Z form a regular
    sequence on R.  For a regular x, omega_(R/xR) = omega_R / x omega_R,
    and each map omega_R -> R induces one omega_R / x omega_R -> R/xR with
    the image reduced mod x, so tr(omega_R) R/xR lies in tr(omega_(R/xR)).
    So if R is nearly Gorenstein, so is R/xR (Herzog, Hibi and Stamate, The
    trace of the canonical module, 2019, section 2).  Taking the Y and Z
    off one at a time, a base that is not nearly Gorenstein has no nearly
    Gorenstein deformation.

    A dihedral rearrangement gives an isomorphic ring, so the arrangement
    is the classifier's to pick.  With I = J = empty the base theorem's
    scan names it, and the instance is the base in that arrangement.
    Otherwise the given arrangement is kept when its base fits a classified
    block, and else the base theorem's scan names it, with I and J carried
    along.  That arrangement fits a block, with one exception.  Where the
    scan finds case A, every m_r = 1: the all-ones block.  Where it finds
    case B, m_1 >= 2 (the scan tries case A first at each arrangement),
    and l_1 .. l_(n-2) = 1: the tail block, unless n >= 4 and l_(n-1) =
    l_n = 1.  Then every l_r is 1.  The scan cannot have reversed the
    rows, for then the given m would be all ones and the given arrangement
    would be case A, found first.  So the given ell is all ones, and the
    reversal with shift 0 makes it the top row: the all-ones block.  A
    block asks case A or B, so no arrangement before the scan's fits one,
    nor does any shift in the exception (m is not all ones, ell is), and
    the arrangement taken is the first in scan order whose base fits a
    block.  The result carries the clause's table, so its rows need no
    second decision.
    """
    res = classify_nearly_gorenstein(hd.base)
    if not res.is_ng:
        return HDResult(False, "base(not-ng)", None, hd)
    if not hd.I and not hd.J:
        table = _rows_base if res.case == "B" else None
        return HDResult(True, f"base({res.case})", res.symmetry, hd.rearranged(res.symmetry), table)
    sym = None
    if hd.base_case == OTHER:
        sym = res.symmetry
        if _block_of(*sym.apply((), hd.base.m, hd.base.ell)[1:]) == OTHER:
            sym = symmetries(hd.n)[hd.n]  # the reversal, shift 0
        hd = hd.rearranged(sym)
    is_ng, rule, table, shift = _clause(hd)
    return HDResult(is_ng, rule, sym, hd, table, shift)


def _clause(hd: HigherDimInstance) -> tuple[bool, str, Callable | None, int]:
    """The clause deciding a marked instance whose base fits a block.

    Returns (verdict, tag, table, shift): table(_RowBuilder(hd, shift))
    builds the rows that certify the clause when it holds, and is read
    only then.  The view is shifted in the all-ones block so that the first
    marked index sits at 1, and unshifted in the tail block; the n >= 4
    clauses read ell through it.  One mark takes the third-row table in the
    all-ones block and at I = {1}, and else the wrap at its index, n or
    n - 1; two marks, which hold only at n = 4, take the wrap at n - 1;
    table is None for three marks and where no table reaches at n = 3.

    For n = 3 the rule is the same for every number of marked indices:
    nearly Gorenstein iff I and J are disjoint, l_i = 1 for every i in I,
    and, in the tail block, 1 is not in J.  This is the closed form of the
    variable-membership test on the ideal of the matrix entries, which for
    three columns is the trace of the canonical module.  Disjoint subsets
    of {1, 2, 3} mark at most 3 indices, so a true case has dimension at
    most 4.  The tables are written for n >= 4; at n = 3 they hold for
    exactly one marked index, in the all-ones block or off index 2, and
    for the other true cases the general-n rows have the wrong length or
    name absent variables.
    """
    n, I, J = hd.n, hd.I, hd.J
    size = len(I) + len(J)
    allones = hd.base_case == ALL_ONES
    block = "allones" if allones else "tail"
    first = min(I or J)
    shift = first - 1 if allones else 0
    if size == 1:
        table = _rows_third if allones or first == 1 else _rows_wrap_n if first == n else _rows_wrap_n1
    else:
        table = _rows_wrap_n1 if size == 2 and n == 4 else None
    if n == 3:
        ell = hd.base.ell
        ok = not (I & J) and all(ell[i - 1] == 1 for i in I) and (allones or 1 not in J)
        reaches = allones or first != 2
        return ok, f"n3-{block}", table if reaches else None, shift
    b = _RowBuilder(hd, shift)
    if size >= 3:
        ok, rule = False, f"{block}(3)"
    elif allones and I and J:
        (i,), (j,) = I, J
        ok, rule = n == 4 and (j - i) % 4 == 2 and b.ell(1) == b.ell(2) == b.ell(4) == 1, "allones(2b)"
    elif allones and len(J) == 2:
        i, j = sorted(J)
        ok, rule = n == 4 and j - i == 2 and b.ell(2) == b.ell(4) == 1, "allones(2a)"
    elif allones and len(I) == 2:
        ok, rule = False, "allones(2c)"
    elif allones and I:
        ok, rule = all(b.ell(k) == 1 for k in range(1, n - 1)), "allones(1a)"
    elif allones:
        ok, rule = all(b.ell(k) == 1 for k in range(2, n - 1)), "allones(1b)"
    elif I and J:
        ok, rule = n == 4 and I == {1} and J == {3} and b.ell(4) == 1, "tail(2b)"
    elif size == 2:
        ok, rule = False, "tail(2a)"
    elif I:
        ok, rule = first == 1 or (first == n and b.ell(n) == 1), "tail(1a)"
    else:
        ok, rule = first == n or (first == n - 1 and b.ell(n) == 1), "tail(1b)"
    return ok, rule, table, shift


# -- tabulated witness rows ---------------------------------------------------


def witness_rows(hd: HigherDimInstance) -> list[tuple[Polynomial, ...]]:
    """classify(hd).witness_rows(): the tabulated rows, in its arrangement."""
    return classify(hd).witness_rows()


class _RowBuilder:
    """A shifted view of an instance: position k refers to index [k + shift].

    The clauses read exponents through it; the tables build entries from
    variables and the deformed entries, V_k = top(k) and U_k = bottom(k)."""

    def __init__(self, hd: HigherDimInstance, shift: int = 0):
        self.hd = hd
        self.shift = shift
        self.n = hd.n

    def idx(self, k: int) -> int:
        return wrap(k + self.shift, self.n)

    def ell(self, k: int) -> int:
        return self.hd.base.ell[self.idx(k) - 1]

    def m(self, k: int) -> int:
        return self.hd.base.m[self.idx(k) - 1]

    def x(self, k: int, e: int = 1) -> Polynomial:
        return self.hd.ring.var_named(f"X{self.idx(k)}", e)

    def top(self, k: int) -> Polynomial:
        return self.hd.top_entry(self.idx(k))

    def bottom(self, k: int) -> Polynomial:
        return self.hd.bottom_entry(self.idx(k))


def _f1(b: _RowBuilder) -> tuple[Polynomial, ...]:
    """F1 = (U_1, X_2, ..., X_{n-1})."""
    return (b.bottom(1),) + tuple(b.x(k) for k in range(2, b.n))


def _f2(b: _RowBuilder) -> tuple[Polynomial, ...]:
    """F2 = (X_{k+1} X_{n-1}^(l_{n-1} - 1) for k = 1 .. n-2, then V_n)."""
    lift = b.x(b.n - 1, b.ell(b.n - 1) - 1)
    return tuple(b.x(k) * lift for k in range(2, b.n)) + (b.top(b.n),)


def _wrap_row(b: _RowBuilder, s: int) -> tuple[Polynomial, ...]:
    """W(s), the first n - 1 entries of (U_s, V_{s+1}, ..., V_n, V_1,
    X_1^(m_1 - 1) X_2, X_1^(m_1 - 1) X_3, ...), for s = n - 1 or n."""
    lift = b.x(1, b.m(1) - 1)
    tops = tuple(b.top(k) for k in range(s + 1, b.n + 1)) + (b.top(1),)
    return (b.bottom(s),) + tops + tuple(lift * b.x(k) for k in range(2, s - 1))


def _rows_base(b):
    """The base theorem's case B: F1 and F2.

    The tables write the deformed entries U_r and V_r, and one is built
    only where its clause holds.  There those entries are the low powers of
    X that the certificates need, plus Y_r or Z_r at a mark:
    - U_1 = X_1 unless 1 is in J: l_1 = 1 in the tail block, in
      allones(1a) and in the (2b) clauses, and 1 is in J in allones(1b)
      and allones(2a);
    - V_r = X_r (+ Y_r) for r >= 2, and for every r in the all-ones block:
      m_r = 1 there;
    - U_n = X_n in tail(1a) with I = {n}, whose clause needs l_n = 1.
    """
    return [_f1(b), _f2(b)]


def _rows_third(b):
    """F1, F2 and (X_{k+2} X_{n-1}^(l_{n-1} - 1) X_n^(l_n - 1) for
    k = 1 .. n-3, U_n, V_1): one mark in the all-ones block, or I = {1}
    in the tail block."""
    n = b.n
    lift = b.x(n - 1, b.ell(n - 1) - 1) * b.x(n, b.ell(n) - 1)
    f3 = tuple(b.x(k) * lift for k in range(3, n)) + (b.bottom(n), b.top(1))
    return [_f1(b), _f2(b), f3]


def _rows_wrap_n(b):
    """F1, F2 and W(n): I = {n} or J = {n} in the tail block."""
    return [_f1(b), _f2(b), _wrap_row(b, b.n)]


def _rows_wrap_n1(b):
    """F1 and W(n - 1): J = {n - 1} in the tail block, and the n = 4
    clauses with two marks two apart."""
    return [_f1(b), _wrap_row(b, b.n - 1)]


# -- verification ---------------------------------------------------------------


def verify_witness(hd: HigherDimInstance, rows) -> bool:
    """classify(hd).verify(rows): rows of the decided arrangement, as witness_rows gives them."""
    return classify(hd).verify(rows)


def _uncovered_variable(ring: PolyRing, entries) -> str | None:
    """The first variable outside (entries) + I in the local ring k[[X]], or None.

    The entries are those of rows f with f.M = 0, and I is the ideal of
    D's 2-minors.  D's entries lie in m, so I lies in m^2; f.M = 0 puts the
    entries in the trace of the canonical module, which lies in m as the
    type is n - 1 >= 2.  So by Nakayama's lemma (entries) + I holds m iff
    the entries' linear parts (their terms of one variable to the first
    power) span m/m^2: iff the ideal of those linear forms holds m.
    """
    variables = [ring.var(i) for i in range(ring.nvars)]
    linear = {x.lm() for x in variables}
    parts = [Polynomial(ring, {t: c for t, c in p.terms.items() if t in linear}) for p in entries]
    span = buchberger(parts, ring=ring)
    return next((name for name, x in zip(ring.names, variables) if not span.contains(x)), None)
