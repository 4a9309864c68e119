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

from .determinantal import DeterminantalInstance, classify_nearly_gorenstein, degree_gaps
from .errors import NotApplicable
from .groebner import kernel_over_quotient
from .higher_dim import minors_basis
from .ideals import RelativeIdeal
from .polyring import add_products


class LambdaRow:
    """Degrees (u, u+c, ..., u+(n-2)c) of a monomial row annihilating N.

    An immutable value, equal and hashed by (instance, u).  Its entries are
    computed once, when it is built, and checked against H there."""

    __slots__ = ("instance", "u", "entries")

    def __init__(self, instance: DeterminantalInstance, u: int):
        c = instance.c
        es = tuple(u + k * c for k in range(instance.n - 1))
        lo = es[0] if es[0] < es[-1] else es[-1]  # the entries step by c
        want = 0
        for e in es:
            want |= 1 << e - lo
        # bit e - lo of window is bit e of H's mask, and 0 for e < 0; the
        # shifts stay within the entries' span, however far u is from 0
        mask = instance.H.mask
        window = mask >> lo & want if lo >= 0 else (mask & want >> -lo) << -lo
        if window != want:
            bad = [e for e in es if not window >> e - lo & 1]
            raise ValueError(f"row entries {bad} are not in {instance.H}")
        self.instance = instance
        self.u = u
        self.entries = es

    def __eq__(self, other) -> bool:
        return isinstance(other, LambdaRow) and self.u == other.u and self.instance == other.instance

    def __hash__(self):
        return hash((self.instance, self.u))

    def __repr__(self):
        return f"LambdaRow(instance={self.instance!r}, u={self.u!r})"

    def relations_hold(self) -> bool:
        """Re-check the defining identities u_j + m_[i+1] a_[i+1] = u_{j+1} + l_i a_i,
        that is u_{j+1} - u_j = gap_i for every column's degree gap."""
        inst = self.instance
        gaps = degree_gaps(inst.order, inst.m, inst.ell)
        es = self.entries
        return all(v - u == gap for u, v in zip(es, es[1:]) for gap in gaps)

    def __str__(self):
        body = ", ".join(f"t^{e}" for e in self.entries)
        return f"({body})"


def lambda_membership(inst: DeterminantalInstance, u: int) -> tuple[LambdaRow, int] | None:
    """The row and slot witnessing t^u in the trace ideal, or None.

    Slot j in 1..n-1 is usable when u + (i-j)c lies in the semigroup for
    every i, that is when the row starting at u - (j-1)c does; the first
    usable slot is reported.
    """
    c, n = inst.c, inst.n
    top = max(u, u - (n - 2) * c)  # the last start of a slot
    starts = _row_starts(inst, top) if top >= 0 else 0
    for j in range(1, n):
        start = u - (j - 1) * c
        if start >= 0 and starts >> start & 1:
            return LambdaRow(inst, start), j
    return None


def trace_window(inst: DeterminantalInstance) -> int:
    return 2 * inst.H.frobenius() + 2 * max(inst.order) + (inst.n - 1) * abs(inst.c)


def _shift_down(mask: int, s: int) -> int:
    """Bit v of the result is bit v + s of mask (bits below 0 read as unset)."""
    return mask >> s if s >= 0 else mask << -s


def _row_starts(inst: DeterminantalInstance, top: int) -> int:
    """The mask of the row starts v in 0..top, AND_k (H >> k*c): bit v is set
    iff v + k*c lies in H for every k in 0..n-2."""
    starts = (1 << (top + 1)) - 1
    for k in range(inst.n - 1):
        starts &= _shift_down(inst.H.mask, k * inst.c)
    return starts


def _trace_members(inst: DeterminantalInstance, W: int) -> int:
    """The mask of the degrees 0..W that some row holds: OR_k (starts << k*c)."""
    c = inst.c
    # rows covering the window may start past it
    starts = _row_starts(inst, W + (inst.n - 1) * abs(c))
    members = 0
    for k in range(inst.n - 1):
        members |= _shift_down(starts, -k * c)
    return members & (1 << (W + 1)) - 1


def trace_canonical_lambda(inst: DeterminantalInstance) -> RelativeIdeal:
    """The canonical trace ideal collected from all monomial rows.

    The row starts v are AND_k (H >> k*c) and the members OR_k (starts << k*c),
    over degrees up to a window W past which membership is eventually
    constant; the window end doubles as a sentinel and is asserted.

    The members need no closure under H, by two facts:

    * they are closed under adding H inside the window.  If v + kc lies in
      H for every k, so does v + h + kc for h in H, so the starts are
      closed under H.  A member x = v + kc then has x + h = (v + h) + kc,
      and for x + h <= W the start v + h is at most W + (n - 2)|c|, inside
      the range of starts computed;
    * the least member low is at most F + 1.  For z >= F + 1,
      z + K lies in z + N, inside H, so z is in H - K, and since 0 is in K
      it is in K + (H - K).  So F + 1 is in the trace, and the window
      (W >= 2F + 2) covers [low, low + F].

    The ideal's mask from low is therefore the members' bits low..low + F
    with every bit past them set.  The second fact is asserted as a
    sentinel (bit F + 1 of the members), and from_mask still checks that
    the mask is closed under H.
    """
    H = inst.H
    W = trace_window(inst)
    members = _trace_members(inst, W)
    if not (members >> W) & 1:
        raise AssertionError("trace window sentinel failed; bound reasoning broken")
    F = H.frobenius()
    if not (members >> (F + 1)) & 1:
        raise AssertionError("trace conductor sentinel failed: F + 1 is not in the trace")
    low = (members & -members).bit_length() - 1
    E = (members >> low) & ((1 << (F + 1)) - 1) | (-1 << (F + 1))
    return RelativeIdeal.from_mask(H, E, low)


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
        order, _, ell = res.symmetry.apply(inst.order, inst.m, inst.ell)
        n = inst.n
        rows_deg = []
        rows_deg.append([order[k] for k in range(n - 1)])
        shifted = [order[k + 1] + (ell[n - 2] - 1) * order[n - 2] for k in range(n - 2)]
        shifted.append(order[n - 1])
        rows_deg.append(shifted)
        out = []
        for degs in rows_deg:
            if res.symmetry.reversed:  # the reversal negates c: read back to front
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
    matrix of the wrap column col_n of each block (V_1 over -U_n, with
    U_n = X_n^ln a monomial), which has the same kernel and so the same
    reduced basis, and f.M = 0 is then asserted on every other column:
    each returned row is checked on all columns of M.

    Those other columns are checked in k[H] itself, with no Groebner
    basis.  Let phi: X_i -> t^(a_i).  Its kernel is P by definition, and
    validation proves that the minors generate P, so f.col_k lies in the
    ideal of the minors iff phi(f.col_k) = sum_i phi(f_i) phi(M_ik) is 0.
    phi(p) is the sum of p's coefficients at each weighted degree
    (_toric_image), so the check is a few sums of coefficient products.  The
    images are read off M's own entries, once per distinct entry object
    (_column_images), so an M that is not the presentation matrix of these
    minors still fails where it should.

    The wrap column is the cheap one.  X_n is last in the reverse
    lexicographic order, so for a weighted-homogeneous g, X_n divides
    in(g) only if X_n divides g; X_n is not in the prime P, so g in P
    divisible by X_n is X_n g' with g' in P, and in(P) : X_n = in(P).  A
    minimal generator of in(P) is then free of X_n (Bayer and Stillman,
    1987).  The leads of minors_basis are proved to be exactly those
    minimal generators, X_k^m_k X_j^l_j with k <= j <= n - 1 (its theorem),
    so none involves X_n.  Number
    the kernel's input rows 0..n-2 and its value positions 0..n-3: row
    i >= 1 has -U_n at position i - 1 and V_1 (or nothing) at position i,
    so under position over term it is led by X_n^ln e_(i-1).  Its ring
    lead is coprime to every basis lead, so each pair of such a row with
    a basis poly is skipped by the module product criterion of _close.

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
    wraps = [line[n - 1 :: n] for line in M]
    others = _column_images(M, [k for k in range(len(M[0])) if k % n != n - 1])
    minors = minors_basis(inst)
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
    for row in kernel_over_quotient(wraps, minors, stop=saturated):
        images = [_toric_image(p) for p in row]
        for k, column in others:
            image = _image_of_product(images, column)
            if image:
                shown = " + ".join(f"{c}*t^{e}" for e, c in sorted(image.items()))
                raise AssertionError(f"kernel row fails f.M = 0 at column {k} of M: image {shown}")
        degrees.extend(e for p in row if (e := _entry_degree(p)) is not None)
    if not degrees:
        raise AssertionError("no kernel entry is nonzero modulo the minors")
    trace = RelativeIdeal(H, degrees)
    if not trace.contains(trace_window(inst)):
        raise AssertionError("syzygy trace sentinel failed; window reasoning broken")
    return trace


def _entry_degree(p) -> int | None:
    """The degree of a kernel entry nonzero modulo the minors, else None.

    kernel_over_quotient returns every entry in normal form modulo the
    minors, so it is nonzero there iff it is nonzero.
    """
    degrees = {p.ring.wdeg(m) for m in p.terms}
    if len(degrees) > 1:
        raise AssertionError(f"kernel entry {p} is not homogeneous")
    return degrees.pop() if degrees else None


def _toric_image(p) -> dict[int, object]:
    """The image of p under X_i -> t^(a_i): its coefficients summed at each
    weighted degree, read off the packed degree field, zero sums dropped."""
    wdeg = p.ring.wdeg
    return add_products({}, ((0, 1),), [(wdeg(m), c) for m, c in p.terms.items()])


def _column_images(M, columns) -> list[tuple[int, list[tuple[int, dict[int, object]]]]]:
    """For each k in columns, k and the pairs (i, image of M_ik) of the
    nonzero entries of column k of M.  M's columns share their entry
    objects, so each distinct object's image is computed once."""
    images: dict[int, dict[int, object]] = {}  # id(entry) -> image; M holds every entry alive
    out = []
    for k in columns:
        column = []
        for i, line in enumerate(M):
            p = line[k]
            if p.terms:
                image = images.get(id(p))
                if image is None:
                    image = images[id(p)] = _toric_image(p)
                column.append((i, image))
        out.append((k, column))
    return out


def _image_of_product(row: list[dict], column) -> dict[int, object]:
    """The image of f.col from the images of f's entries and col's pairs
    from _column_images, zero sums dropped."""
    total: dict[int, object] = {}
    for i, right in column:
        add_products(total, row[i].items(), right.items())
    return total
