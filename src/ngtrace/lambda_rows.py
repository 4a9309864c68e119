"""Canonical trace ideals from monomial rows against the presentation matrix.

For a validated cyclic-determinantal instance the canonical module of the
semigroup ring is presented by a matrix N whose defining relations force any
monomial row vector (t^u_1, ..., t^u_{n-1}) with f.N = 0 to have degrees in
arithmetic progression with step c.  Since every graded piece of the ring is
at most one-dimensional, trace membership of t^u reduces to: some slot j
admits a row through u whose entries all lie in the semigroup.  This yields
a second, fully independent route to the canonical trace ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .determinantal import DeterminantalInstance, classify_nearly_gorenstein
from .errors import NotApplicable
from .groebner import buchberger, first_nonzero_column, kernel_over_quotient
from .ideals import RelativeIdeal, canonical_ideal
from .semigroup import sieve_mask


@dataclass(frozen=True)
class LambdaRow:
    """Degrees (u, u+c, ..., u+(n-2)c) of a monomial row annihilating N."""

    instance: DeterminantalInstance
    u: int

    def __post_init__(self):
        bad = [e for e in self.entries if not self.instance.H.contains(e)]
        if bad:
            raise ValueError(f"row entries {bad} are not in {self.instance.H}")

    @property
    def entries(self) -> tuple[int, ...]:
        c = self.instance.c
        return tuple(self.u + k * c for k in range(self.instance.n - 1))

    def relations_hold(self) -> bool:
        """Re-check the defining identities u_j + m_[i+1] a_[i+1] = u_{j+1} + l_i a_i."""
        inst = self.instance
        n = inst.n
        es = self.entries
        for j in range(n - 2):
            for i in range(n):
                top = es[j] + inst.m[(i + 1) % n] * inst.order[(i + 1) % n]
                bot = es[j + 1] + inst.ell[i] * inst.order[i]
                if top != bot:
                    return False
        return True

    def __str__(self):
        body = ", ".join(f"t^{e}" for e in self.entries)
        return f"({body})"


def lambda_membership(inst: DeterminantalInstance, u: int) -> tuple[LambdaRow, int] | None:
    """The row and slot witnessing t^u in the trace ideal, or None.

    Slot j in 1..n-1 is usable when u + (i-j)c lies in the semigroup for
    every i; the first usable slot is reported.
    """
    H, c, n = inst.H, inst.c, inst.n
    for j in range(1, n):
        start = u - (j - 1) * c
        if all(H.contains(start + k * c) for k in range(n - 1)):
            return LambdaRow(inst, start), j
    return None


def trace_window(inst: DeterminantalInstance) -> int:
    return 2 * inst.H.frobenius() + 2 * max(inst.order) + (inst.n - 1) * abs(inst.c)


def _shift_down(mask: int, s: int) -> int:
    """Bit v of the result is bit v + s of mask (bits below 0 read as unset)."""
    return mask >> s if s >= 0 else mask << -s


def trace_canonical_lambda(inst: DeterminantalInstance) -> RelativeIdeal:
    """The canonical trace ideal collected from all monomial rows.

    The row starts v are AND_k (H >> k*c) and the members OR_k (starts << k*c),
    over degrees up to a window past which membership is eventually
    constant; the window end doubles as a sentinel and is asserted.
    """
    H = inst.H
    c, n = inst.c, inst.n
    W = trace_window(inst)
    reach = W + (n - 1) * abs(c)  # rows covering the window may start past it
    starts = (1 << (reach + 1)) - 1
    for k in range(n - 1):
        starts &= _shift_down(H.mask, k * c)
    members = 0
    for k in range(n - 1):
        members |= _shift_down(starts, -k * c)
    members &= (1 << (W + 1)) - 1
    if not (members >> W) & 1 and lambda_membership(inst, W) is None:
        raise AssertionError("trace window sentinel failed; bound reasoning broken")
    # the members generate the trace: close them under H from the least one,
    # past which everything beyond one Frobenius number is a member
    low = (members & -members).bit_length() - 1
    F = H.frobenius()
    E = sieve_mask(H.generators, F, members >> low) | (-1 << (F + 1))
    return RelativeIdeal.from_mask(H, E, low)


def row_generates_canonical(inst: DeterminantalInstance, row: LambdaRow) -> bool:
    """True iff the row entries generate an integer translate of the canonical ideal."""
    E = RelativeIdeal(inst.H, row.entries)
    K = canonical_ideal(inst.H)
    return E.is_translate_of(K)


def theorem_if_witnesses(inst: DeterminantalInstance) -> list[LambdaRow]:
    """Explicit rows certifying near-Gorensteinness, covering all generators.

    Case "B" (tail case under some rearrangement) admits two closed-form
    rows: the first n-1 generators, and the shifted row ending at the last
    generator.  Case "A" has no closed-form row in general, so one witnessing
    row per generator is located by slot search.  Raises NotApplicable when
    the instance is not nearly Gorenstein.
    """
    res = classify_nearly_gorenstein(inst)
    if not res.is_ng:
        raise NotApplicable("instance is not nearly Gorenstein; no witness rows exist")
    if res.case == "B":
        order, m, ell = res.symmetry.apply(inst.order, inst.m, inst.ell)
        n = inst.n
        c_arr = m[1] * order[1] - ell[0] * order[0]
        rows_deg = []
        rows_deg.append([order[k] for k in range(n - 1)])
        shifted = [order[k + 1] + (ell[n - 2] - 1) * order[n - 2] for k in range(n - 2)]
        shifted.append(order[n - 1])
        rows_deg.append(shifted)
        out = []
        for degs in rows_deg:
            if c_arr != inst.c:  # rearrangement flipped the step sign: read back to front
                degs = degs[::-1]
            step = {degs[i + 1] - degs[i] for i in range(len(degs) - 1)}
            if step != {inst.c}:
                raise AssertionError(f"witness row {degs} has steps {step}, wanted {inst.c}")
            out.append(LambdaRow(inst, degs[0]))
        _assert_cover(inst, out)
        return out
    out = []
    for a in inst.H.generators:
        hit = lambda_membership(inst, a)
        if hit is None:
            raise AssertionError(f"generator {a} has no witnessing row despite case A")
        out.append(hit[0])
    _assert_cover(inst, out)
    return out


def _assert_cover(inst: DeterminantalInstance, rows: list[LambdaRow]):
    covered = {e for row in rows for e in row.entries}
    missing = [a for a in inst.H.generators if a not in covered]
    if missing:
        raise AssertionError(f"witness rows do not cover generators {missing}")


def trace_canonical_syzygy(inst: DeterminantalInstance) -> RelativeIdeal:
    """Third route: left kernel of the presentation matrix over the quotient.

    The kernel rows are computed by a module Groebner basis, and their
    entries generate the trace ideal.  Each entry p is H-homogeneous and
    every graded piece of k[H] is at most one-dimensional, so p stands for
    t^(deg p) when it is nonzero modulo the minors (which define k[H]) and
    for nothing otherwise.  The window end is asserted as a sentinel.

    One column per block of M decides the kernel.  Block j has the columns
    col_i with f.col_i = f_(j-1) V_(i+1) - f_j U_i, and for two of them
    U_i (f.col_k) - U_k (f.col_i) = f_(j-1) (U_i V_(k+1) - U_k V_(i+1)),
    a multiple of a 2-minor of D.  Validation proves that the minors
    generate the prime P of H, and no monomial lies in P, so f.col_i = 0
    modulo P forces f.col_k = 0.  The kernel is therefore taken of the
    matrix of the first column of each block, which has the same kernel
    and so the same reduced basis, and f.M = 0 is then asserted on every
    other column: each returned row is checked on all columns of M.

    The kernel's pair loop stops at the first degree where the trace is
    saturated.  U is the set of members of H in the ideal generated by
    the entries found so far (each nonzero entry of degree e adds e + H),
    and the loop stops before degree D once U holds every member of H of
    degree at least low = D - max_i t_i.  This is exact:

    * the returned rows generate the kernel in every degree below D
      (kernel_over_quotient), and every row found has degree below D.  A
      found entry of degree e, nonzero in k[H], is a sum of homogeneous
      products a_k (row_k)_i, so one of them is nonzero in k[H], and then
      e = deg a_k + deg (row_k)_i with deg a_k in H: the trace of the
      returned rows contains U;
    * any kernel element they do not generate has degree D or more, so
      each of its entries has degree at least low;
    * the image of such an entry in k[H] is 0 or a scalar times t^e with
      e in H and e >= low, and that t^e is already in U.

    So the returned rows give the whole trace.
    """
    _, M = inst.matrices
    n = inst.n
    H = inst.H
    firsts = [line[::n] for line in M]
    others = [k for k in range(len(M[0])) if k % n]
    rest = [[line[k] for k in others] for line in M]
    minors = buchberger(inst.minors)
    covered = 0  # U, as a mask: bit e set for the members e of H found

    def saturated(low: int, found) -> bool:
        nonlocal covered
        for row in found:  # entries in normal form modulo the minors (kernel_over_quotient)
            for p in row:
                e = _entry_degree(p)
                if e is not None:
                    covered |= H.mask << e
        return not (H.mask & ~covered) >> max(low, 0)

    degrees = []
    for row in kernel_over_quotient(firsts, minors, stop=saturated):
        failure = first_nonzero_column(row, rest, minors)
        if failure is not None:
            j, residue = failure
            raise AssertionError(f"kernel row fails f.M = 0 at column {others[j]} of M: remainder {residue}")
        degrees.extend(e for p in row if (e := _entry_degree(p, minors)) is not None)
    if not degrees:
        raise AssertionError("no kernel entry is nonzero modulo the minors")
    trace = RelativeIdeal(H, degrees)
    if not trace.contains(trace_window(inst)):
        raise AssertionError("syzygy trace sentinel failed; window reasoning broken")
    return trace


def _entry_degree(p, minors=None) -> int | None:
    """The degree of a kernel entry nonzero modulo the minors, else None.

    Without ``minors`` the entry must already be in normal form modulo
    them, so it is nonzero there iff it is nonzero.
    """
    if not p.is_homogeneous():
        raise AssertionError(f"kernel entry {p} is not homogeneous")
    if p.is_zero() or (minors is not None and minors.contains(p)):
        return None
    return p.wdeg()
