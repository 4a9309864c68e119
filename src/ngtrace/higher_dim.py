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

For the cases that are nearly Gorenstein, explicit row vectors annihilating
the canonical-module presentation matrix are tabulated; verification reduces
every product entry to zero against a Groebner basis of the minors and then
checks that the row entries generate an ideal containing every variable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .determinantal import (
    DeterminantalInstance,
    Symmetry,
    classify_nearly_gorenstein,
    cyclic_matrices,
    symmetries,
    wrap,
)
from .errors import NoTabulatedWitness, UnsupportedBaseCase, WitnessFailed
from .groebner import buchberger, first_nonzero_column, two_minors
from .polyring import PolyRing, Polynomial

ALL_ONES = "all-ones"
TAIL = "tail"
OTHER = "other"


def base_case_of(inst: DeterminantalInstance) -> str:
    m, ell, n = inst.m, inst.ell, inst.n
    if all(x == 1 for x in m):
        return ALL_ONES
    tail_shape = m[0] >= 2 and all(x == 1 for x in m[1:]) and all(
        x == 1 for x in ell[: n - 2]
    )
    if not tail_shape:
        return OTHER
    if n == 3:
        return TAIL
    return TAIL if (ell[n - 2] >= 2 or ell[n - 1] >= 2) else OTHER


@dataclass(frozen=True)
class HDResult:
    is_ng: bool
    rule: str
    symmetry: Symmetry | None = None


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

    def to_json(self) -> dict:
        data = self.base.to_json()
        data["I"] = sorted(self.I)
        data["J"] = sorted(self.J)
        return data

    @classmethod
    def from_json(cls, data) -> "HigherDimInstance":
        if isinstance(data, str):
            data = json.loads(data)
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


# -- classification --------------------------------------------------------


def classify(hd: HigherDimInstance) -> HDResult:
    """Nearly Gorenstein or not, with the clause that decided it.

    Applies the classification in the instance's given arrangement; to
    scan cyclic shifts and the reversal for an arrangement matching a
    classified block first, classify rearranged(hd)[1].
    """
    if not hd.I and not hd.J:
        res = classify_nearly_gorenstein(hd.base)
        tag = f"base({res.case})" if res.is_ng else "base(not-ng)"
        return HDResult(res.is_ng, tag, res.symmetry)
    if hd.base_case == OTHER:
        raise UnsupportedBaseCase(
            f"exponents m={list(hd.base.m)} ell={list(hd.base.ell)} fit neither "
            "classified block in the given arrangement"
        )
    if hd.n == 3:
        return _classify_n3(hd)
    return _classify_n4plus(hd)


def _classify_n3(hd: HigherDimInstance) -> HDResult:
    """The n = 3 rule, the same for every number of marked indices.

    Nearly Gorenstein iff I and J are disjoint, l_i = 1 for every i in I,
    and, in the tail block, 1 is not in J.  This is the closed form of the
    variable-membership test on the entry ideal (trace_n3_decision).  Disjoint
    subsets of {1, 2, 3} mark at most 3 indices, so a true case has
    dimension at most 4; every marking of size 4 or more is false.
    """
    ell = hd.base.ell
    disjoint = not (hd.I & hd.J)
    ells_one = all(ell[i - 1] == 1 for i in hd.I)
    if hd.base_case == ALL_ONES:
        return HDResult(disjoint and ells_one, "n3-allones")
    ok = disjoint and 1 not in hd.J and ells_one
    return HDResult(ok, "n3-tail")


def _classify_n4plus(hd: HigherDimInstance) -> HDResult:
    n = hd.n
    ell = hd.base.ell
    size = len(hd.I) + len(hd.J)
    block = "allones" if hd.base_case == ALL_ONES else "tail"
    if size >= 3:
        return HDResult(False, f"{block}(3)")

    def lv(k: int) -> int:
        return ell[wrap(k, n) - 1]

    if hd.base_case == ALL_ONES:
        if size == 1:
            if hd.I:
                (i,) = hd.I
                ok = all(lv(k) == 1 for k in range(i, i + n - 2))
                return HDResult(ok, "allones(1a)")
            (j,) = hd.J
            ok = all(lv(k) == 1 for k in range(j + 1, j + n - 2))
            return HDResult(ok, "allones(1b)")
        if not hd.I:  # J = {i, j}
            i, j = sorted(hd.J)
            ok = n == 4 and (i, j) in {(1, 3), (2, 4)} and lv(i + 1) == 1 and lv(j + 1) == 1
            return HDResult(ok, "allones(2a)")
        if not hd.J:  # I = {i, j}
            return HDResult(False, "allones(2c)")
        (i,) = hd.I
        (j,) = hd.J
        ok = (
            n == 4
            and (i, j) in {(1, 3), (2, 4), (3, 1), (4, 2)}
            and lv(i) == 1
            and lv(i + 1) == 1
            and lv(j + 1) == 1
        )
        return HDResult(ok, "allones(2b)")

    # tail block, n >= 4
    if size == 1:
        if hd.I:
            (i,) = hd.I
            ok = i == 1 or (i == n and ell[n - 1] == 1)
            return HDResult(ok, "tail(1a)")
        (j,) = hd.J
        ok = j == n or (j == n - 1 and ell[n - 1] == 1)
        return HDResult(ok, "tail(1b)")
    if not hd.I or not hd.J:
        return HDResult(False, "tail(2a)")
    (i,) = hd.I
    (j,) = hd.J
    ok = n == 4 and i == 1 and j == 3 and ell[3] == 1
    return HDResult(ok, "tail(2b)")


def rearranged(hd: HigherDimInstance) -> tuple[Symmetry | None, HigherDimInstance]:
    """The arrangement to classify, and the symmetry that leads to it.

    A deformed instance whose base fits neither classified block moves to
    the first dihedral rearrangement that fits one; any other instance stays.
    """
    base = hd.base
    n = base.n
    if not (hd.I or hd.J) or hd.base_case != OTHER:
        return None, hd
    for sym in symmetries(n):
        cand = base.rearranged(sym)
        if base_case_of(cand) == OTHER:
            continue
        s = sym.shift
        if not sym.reversed:
            newI = frozenset(wrap(p - s, n) for p in hd.I)
            newJ = frozenset(wrap(p - s, n) for p in hd.J)
        else:
            # reversal swaps top and bottom markings: old position p lands at
            # n+1-p before the shift, and I, J trade places
            newI = frozenset(wrap(n + 1 - p - s, n) for p in hd.J)
            newJ = frozenset(wrap(n + 1 - p - s, n) for p in hd.I)
        return sym, HigherDimInstance(cand, newI, newJ)
    return None, hd


# -- tabulated witness rows ---------------------------------------------------


def witness_rows(hd: HigherDimInstance) -> list[tuple[Polynomial, ...]]:
    """The explicit annihilating rows for the tabulated nearly Gorenstein cases.

    Rows are returned in the instance's own ring and arrangement; the
    all-ones cases are tabulated at a normalized index and transported back
    by the recorded cyclic shift.  Raises NoTabulatedWitness for true cases
    without a table entry: the all-ones base with I = J = empty, which is
    covered by the dimension-one route instead, and the n = 3 cases the
    tables do not reach.

    The tables are written for n >= 4.  At n = 3 they hold for exactly one
    marked index in the all-ones block, and in the tail block for the base
    and for I = {1}, I = {3}, J = {3}; the n = 3 rule admits more true cases
    (index 2 in the tail block, up to three marked indices), and for those
    the general-n rows have the wrong length or name absent variables.  They
    are certified by the entry-ideal route, trace_n3_decision.
    """
    res = classify(hd)
    if not res.is_ng:
        raise NoTabulatedWitness("instance is not nearly Gorenstein")
    n = hd.n
    case = hd.base_case

    if not hd.I and not hd.J:
        if case == TAIL:
            return _rows_tail_base(hd)
        raise NoTabulatedWitness(
            "all-ones base with no deformation: certified by the dimension-one "
            "method, no tabulated row"
        )

    if n == 3 and not _tabulated_n3(hd):
        raise NoTabulatedWitness(
            f"no table row for n = 3 {case} I={sorted(hd.I)} J={sorted(hd.J)}: "
            "certified by the entry-ideal route (trace_n3_decision)"
        )

    if case == ALL_ONES:
        if len(hd.I) == 1 and not hd.J:
            (i,) = hd.I
            return _rows_allones_1a(hd, shift=i - 1)
        if len(hd.J) == 1 and not hd.I:
            (j,) = hd.J
            return _rows_allones_1b(hd, shift=j - 1)
        if not hd.I and len(hd.J) == 2:
            i, j = sorted(hd.J)
            return _rows_allones_2a(hd, shift=i - 1)
        if len(hd.I) == 1 and len(hd.J) == 1:
            (i,) = hd.I
            return _rows_allones_2b(hd, shift=i - 1)
        raise NoTabulatedWitness(f"no table row for all-ones I={sorted(hd.I)} J={sorted(hd.J)}")

    if len(hd.I) == 1 and not hd.J:
        (i,) = hd.I
        return _rows_tail_1a_i1(hd) if i == 1 else _rows_tail_1a_in(hd)
    if len(hd.J) == 1 and not hd.I:
        (j,) = hd.J
        return _rows_tail_1b_jn(hd) if j == n else _rows_tail_1b_jn1(hd)
    if len(hd.I) == 1 and len(hd.J) == 1:
        return _rows_tail_2b(hd)
    raise NoTabulatedWitness(f"no table row for tail I={sorted(hd.I)} J={sorted(hd.J)}")


def _tabulated_n3(hd: HigherDimInstance) -> bool:
    """Whether the tables cover a true n = 3 case with a marked index."""
    if len(hd.I) + len(hd.J) != 1:
        return False
    return hd.base_case == ALL_ONES or 2 not in hd.I | hd.J


class _RowBuilder:
    """Index-mapped entry constructors: position k refers to [k + shift]."""

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
        if e == 0:
            return self.hd.ring.one()
        return self.hd.ring.var_named(f"X{self.idx(k)}", e)

    def y(self, k: int) -> Polynomial:
        return self.hd.ring.var_named(f"Y{self.idx(k)}")

    def z(self, k: int) -> Polynomial:
        return self.hd.ring.var_named(f"Z{self.idx(k)}")


def _f1_standard(b: _RowBuilder) -> tuple[Polynomial, ...]:
    return tuple(b.x(k) for k in range(1, b.n))


def _f2_standard(b: _RowBuilder, last) -> tuple[Polynomial, ...]:
    n = b.n
    row = [b.x(k + 1) * b.x(n - 1, b.ell(n - 1) - 1) for k in range(1, n - 1)]
    row.append(last)
    return tuple(row)


def _f3_head(b: _RowBuilder) -> list[Polynomial]:
    n = b.n
    return [
        b.x(k + 2) * b.x(n - 1, b.ell(n - 1) - 1) * b.x(n, b.ell(n) - 1)
        for k in range(1, n - 2)
    ]


def _rows_tail_base(hd):
    b = _RowBuilder(hd)
    return [_f1_standard(b), _f2_standard(b, b.x(b.n))]


def _rows_allones_1a(hd, shift):
    b = _RowBuilder(hd, shift)
    n = b.n
    f1 = _f1_standard(b)
    f2 = _f2_standard(b, b.x(n))
    f3 = tuple(_f3_head(b) + [b.x(n, b.ell(n)), b.x(1) + b.y(1)])
    return [f1, f2, f3]


def _rows_allones_1b(hd, shift):
    b = _RowBuilder(hd, shift)
    n = b.n
    f1 = tuple([b.x(1, b.ell(1)) + b.z(1)] + [b.x(k) for k in range(2, n)])
    f2 = _f2_standard(b, b.x(n))
    f3 = tuple(_f3_head(b) + [b.x(n, b.ell(n)), b.x(1)])
    return [f1, f2, f3]


def _rows_allones_2a(hd, shift):
    b = _RowBuilder(hd, shift)
    f1 = (b.x(1, b.ell(1)) + b.z(1), b.x(2), b.x(3))
    f2 = (b.x(3, b.ell(3)) + b.z(3), b.x(4), b.x(1))
    return [f1, f2]


def _rows_allones_2b(hd, shift):
    b = _RowBuilder(hd, shift)
    f1 = (b.x(1), b.x(2), b.x(3))
    f2 = (b.x(3, b.ell(3)) + b.z(3), b.x(4), b.x(1) + b.y(1))
    return [f1, f2]


def _rows_tail_1a_i1(hd):
    b = _RowBuilder(hd)
    n = b.n
    f1 = _f1_standard(b)
    f2 = _f2_standard(b, b.x(n))
    f3 = tuple(_f3_head(b) + [b.x(n, b.ell(n)), b.x(1, b.m(1)) + b.y(1)])
    return [f1, f2, f3]


def _rows_tail_1a_in(hd):
    b = _RowBuilder(hd)
    n = b.n
    f1 = _f1_standard(b)
    f2 = _f2_standard(b, b.x(n) + b.y(n))
    f3 = tuple([b.x(n), b.x(1, b.m(1))] + [b.x(1, b.m(1) - 1) * b.x(k) for k in range(2, n - 1)])
    return [f1, f2, f3]


def _rows_tail_1b_jn(hd):
    b = _RowBuilder(hd)
    n = b.n
    f1 = _f1_standard(b)
    f2 = _f2_standard(b, b.x(n))
    f3 = tuple(
        [b.x(n, b.ell(n)) + b.z(n), b.x(1, b.m(1))]
        + [b.x(1, b.m(1) - 1) * b.x(k) for k in range(2, n - 1)]
    )
    return [f1, f2, f3]


def _rows_tail_1b_jn1(hd):
    b = _RowBuilder(hd)
    n = b.n
    f1 = _f1_standard(b)
    f2 = tuple(
        [b.x(n - 1, b.ell(n - 1)) + b.z(n - 1), b.x(n), b.x(1, b.m(1))]
        + [b.x(1, b.m(1) - 1) * b.x(k) for k in range(2, n - 2)]
    )
    return [f1, f2]


def _rows_tail_2b(hd):
    b = _RowBuilder(hd)
    f1 = (b.x(1), b.x(2), b.x(3))
    f2 = (b.x(3, b.ell(3)) + b.z(3), b.x(4), b.x(1, b.m(1)) + b.y(1))
    return [f1, f2]


# -- verification ---------------------------------------------------------------


def verify_witness(hd: HigherDimInstance, rows=None) -> bool:
    """Check the tabulated rows symbolically and that they certify the property.

    Every entry of f.M must have normal form zero against the minor basis,
    and the row entries together with the minors must generate an ideal
    containing every ring variable.  Raises WitnessFailed otherwise.
    """
    if rows is None:
        rows = witness_rows(hd)
    D, M = build_matrices(hd)
    gb = buchberger(two_minors(D))
    for ridx, row in enumerate(rows):
        if len(row) != hd.n - 1:
            raise WitnessFailed(f"row {ridx + 1} has length {len(row)}, wanted {hd.n - 1}")
        failure = first_nonzero_column(row, M, gb)
        if failure is not None:
            col, residue = failure
            raise WitnessFailed(
                f"row {ridx + 1}, column {col + 1}: f.M has nonzero normal form {residue}"
            )
    entries = [p for row in rows for p in row if not p.is_zero()]
    gb_cover = buchberger(entries, basis=gb.polys)
    for name in hd.ring.names:
        if not gb_cover.contains(hd.ring.var_named(name)):
            raise WitnessFailed(f"variable {name} not generated by the witness entries")
    return True


def trace_n3(hd: HigherDimInstance) -> list[Polynomial]:
    """All entries of the presentation matrix over the quotient (n = 3 only).

    For three columns the canonical trace ideal is generated by the matrix
    entries, so the nearly Gorenstein decision reduces to variable
    membership; see trace_n3_decision.
    """
    if hd.n != 3:
        raise ValueError("entry-ideal route applies to n = 3 only")
    return [hd.top_entry(r) for r in (1, 2, 3)] + [hd.bottom_entry(r) for r in (1, 2, 3)]


def trace_n3_decision(hd: HigherDimInstance) -> bool:
    """Variable membership in the entry ideal (the minors lie inside it)."""
    gens = trace_n3(hd)
    gb = buchberger(gens)
    return all(gb.contains(hd.ring.var_named(name)) for name in hd.ring.names)
