from functools import partial

import pytest

from ngtrace import groebner, lambda_rows
from ngtrace.determinantal import build, search_instances
from ngtrace.errors import NotApplicable
from ngtrace.groebner import kernel_over_quotient
from ngtrace.ideals import RelativeIdeal, canonical_ideal, trace_canonical_oracle, unit_ideal
from ngtrace.lambda_rows import (
    LambdaRow,
    lambda_membership,
    row_generates_canonical,
    theorem_if_witnesses,
    trace_canonical_lambda,
    trace_canonical_syzygy,
)
from ngtrace.polyring import FreeModule
from ngtrace.semigroup import NumericalSemigroup


def inst_345():
    return build(NumericalSemigroup([3, 4, 5]), (3, 4, 5), (2, 1, 1), (1, 1, 1))


def inst_7890():
    return build(NumericalSemigroup([7, 8, 9, 10]), (7, 8, 9, 10), (3, 1, 1, 1), (1, 1, 1, 2))


def test_row_entries_and_validation():
    row = LambdaRow(inst_345(), 3)
    assert row.entries == (3, 4)
    assert row.relations_hold()
    with pytest.raises(ValueError):
        LambdaRow(inst_345(), 1)  # 1 and 2 are gaps


def test_membership_345():
    hit = lambda_membership(inst_345(), 3)
    assert hit is not None
    row, j = hit
    assert j == 1 and row.entries == (3, 4)


def test_membership_7890():
    inst = inst_7890()
    row, j = lambda_membership(inst, 7)
    assert j == 1 and row.entries == (7, 8, 9)
    assert lambda_membership(inst, 0) is None
    assert lambda_membership(inst, 10) is not None


def test_trace_matches_oracle_on_examples():
    for inst in (inst_345(), inst_7890()):
        assert trace_canonical_lambda(inst) == trace_canonical_oracle(inst.H)


def test_trace_never_unit():
    # type >= 2 for every valid instance, so the ring is never Gorenstein
    for inst in (inst_345(), inst_7890()):
        assert trace_canonical_lambda(inst) != unit_ideal(inst.H)
        assert not trace_canonical_lambda(inst).contains(0)


def test_negative_step_instance_trace():
    inst = search_instances((1, 1, 1), (2, 1, 2), 50)[0]
    assert inst.c < 0
    assert trace_canonical_lambda(inst) == trace_canonical_oracle(inst.H)


def test_negative_step_traces_match_oracle(n3_corpus):
    negative = [inst for inst in n3_corpus if inst.c < 0]
    assert negative
    for inst in negative:
        assert trace_canonical_lambda(inst) == trace_canonical_oracle(inst.H), inst


def test_rows_generate_canonical_translates():
    inst = inst_345()
    row, _ = lambda_membership(inst, 3)
    assert row_generates_canonical(inst, row)
    K = canonical_ideal(inst.H)
    assert K.generators == (0, 1)
    inst4 = inst_7890()
    row4, _ = lambda_membership(inst4, 7)
    assert row_generates_canonical(inst4, row4)


def test_all_window_rows_generate_canonical():
    # the dichotomy: a nonzero annihilating row generates a canonical translate
    for inst in (inst_345(), inst_7890()):
        H, c, n = inst.H, inst.c, inst.n
        W = 2 * H.frobenius() + 2 * max(inst.order)
        for u in range(0, W + 1):
            if all(H.contains(u + k * c) for k in range(n - 1)):
                assert row_generates_canonical(inst, LambdaRow(inst, u))


def test_witnesses_tail_case():
    inst = inst_7890()
    rows = theorem_if_witnesses(inst)
    assert [r.entries for r in rows] == [(7, 8, 9), (8, 9, 10)]
    for row in rows:
        assert row.relations_hold()


def test_witnesses_cover_generators_case_a():
    inst = search_instances((1, 1, 1), (2, 1, 2), 50)[0]
    rows = theorem_if_witnesses(inst)
    covered = {e for r in rows for e in r.entries}
    assert covered.issuperset(inst.H.generators)


def test_witnesses_not_applicable():
    inst = search_instances((1, 1, 2), (1, 1, 3), 150)[0]
    with pytest.raises(NotApplicable):
        theorem_if_witnesses(inst)


def test_entry_positions_respect_large_exponents(n3_corpus):
    # a generator with top exponent >= 2 can only sit in the first slot of a
    # row; one with bottom exponent >= 2 only in the last slot
    for inst in n3_corpus:
        H, c, n = inst.H, inst.c, inst.n
        W = 2 * H.frobenius() + 2 * max(inst.order)
        for u in range(0, W + 1):
            if not all(H.contains(u + k * c) for k in range(n - 1)):
                continue
            entries = tuple(u + k * c for k in range(n - 1))
            for idx, a in enumerate(inst.order):
                if a not in entries:
                    continue
                slot = entries.index(a)
                if inst.m[idx] >= 2:
                    assert slot == 0, (inst, entries, a)
                if inst.ell[idx] >= 2:
                    assert slot == n - 2, (inst, entries, a)


def test_trace_generators_need_small_exponent(n3_corpus):
    # membership of a generator forces one of its two exponents to be 1
    for inst in n3_corpus:
        tr = trace_canonical_lambda(inst)
        for idx, a in enumerate(inst.order):
            if tr.contains(a):
                assert min(inst.m[idx], inst.ell[idx]) == 1


def test_syzygy_trace_345():
    inst = inst_345()
    assert trace_canonical_syzygy(inst) == trace_canonical_oracle(inst.H)


def test_syzygy_trace_second_instance():
    inst = search_instances((1, 1, 2), (1, 1, 3), 150)[0]
    assert trace_canonical_syzygy(inst) == trace_canonical_oracle(inst.H)


def inst_six():
    H = NumericalSemigroup(range(6, 12))
    return build(H, (11, 10, 9, 8, 7, 6), (1,) * 6, (1, 1, 1, 1, 1, 2))


def test_syzygy_trace_six_generators():
    # n = 6: the kernel has five rows over six variables
    inst = inst_six()
    assert trace_canonical_syzygy(inst) == trace_canonical_oracle(inst.H)


# (m, ell) at n = 4 and n = 5, half of them nearly Gorenstein, half not;
# criterion 10 samples only n = 3
SYZYGY_SAMPLE = [
    ((1, 1, 1, 1), (2, 2, 1, 1)),
    ((1, 2, 2, 2), (1, 1, 1, 1)),
    ((1, 1, 1, 1), (2, 1, 1, 1)),
    ((1, 1, 2, 1), (1, 2, 2, 1)),
    ((1, 2, 2, 2), (2, 1, 1, 2)),
    ((2, 2, 2, 1), (2, 1, 1, 1)),
    ((1, 1, 1, 1, 1), (1, 1, 2, 1, 1)),
    ((2, 1, 2, 2, 1), (1, 1, 1, 1, 1)),
    ((1, 1, 1, 1, 2), (2, 2, 1, 1, 1)),
    ((1, 2, 2, 1, 1), (1, 1, 1, 2, 1)),
]


@pytest.mark.parametrize("m, ell", SYZYGY_SAMPLE)
def test_syzygy_trace_n4_n5(m, ell, monkeypatch):
    # every basis of the route re-checks that its S-polynomials reduce to
    # zero: the whole module basis as the pair loop leaves it (the kernel
    # then interreduces only its tag part), below the degree where the
    # loop stopped if it stopped early, and the minors' reduced basis
    real_close, real_buchberger = groebner._close, lambda_rows.buchberger
    checked = []

    def close_and_check(gens, basis, ring, stop=None, **kw):
        levels = []

        def watch(level, polys):
            levels.append(level)
            return stop(level, polys)

        closed = real_close(gens, basis, ring, watch if stop else None, **kw)
        assert closed.self_check(levels[-1] if closed.stats["pairs_left"] else None)
        checked.append(closed.ring)
        return closed

    def buchberger_and_check(gens, **kw):
        gb = real_buchberger(gens, **kw)
        assert gb.self_check()
        checked.append("reduced")
        return gb

    monkeypatch.setattr(groebner, "_close", close_and_check)
    monkeypatch.setattr(lambda_rows, "buchberger", buchberger_and_check)
    (inst,) = search_instances(m, ell, 150)
    assert trace_canonical_syzygy(inst) == trace_canonical_oracle(inst.H)
    assert any(isinstance(ring, FreeModule) for ring in checked) and "reduced" in checked


def sample_instance(m, ell):
    (inst,) = search_instances(m, ell, 150)
    return inst


@pytest.mark.parametrize("make", [inst_345, inst_six] + [partial(sample_instance, *e) for e in SYZYGY_SAMPLE])
def test_one_column_per_block_keeps_kernel_rows(make):
    # the kernel of M is that of its first column in each block, so the
    # reduced basis, and every row the route reads, is the same
    inst = make()
    _, M = inst.matrices
    firsts = [line[:: inst.n] for line in M]
    assert len(firsts[0]) == inst.n - 2
    assert kernel_over_quotient(firsts, inst.minors) == kernel_over_quotient(M, inst.minors)


def test_syzygy_route_checks_columns_outside_the_kernel(monkeypatch):
    # the kernel sees only the first column of each block; negate U_2 in the
    # second column of M, so that every kernel row still satisfies the
    # columns the kernel saw and fails that one, which the route must catch
    inst = inst_345()
    D, M = inst.matrices
    bent = [list(line) for line in M]
    bent[1][1] = -bent[1][1]
    monkeypatch.setitem(vars(inst), "matrices", (D, bent))  # the cached_property's slot
    seen = []

    def kernel(rows, ideal, **stop):
        seen.append(rows)
        return kernel_over_quotient(rows, ideal, **stop)

    monkeypatch.setattr(lambda_rows, "kernel_over_quotient", kernel)
    with pytest.raises(AssertionError, match="kernel row fails f.M = 0 at column 1 of M"):
        trace_canonical_syzygy(inst)
    assert seen == [[line[:1] for line in M]]


def _trace_of_rows(inst, rows):
    minors = groebner.buchberger(inst.minors)
    degrees = [p.wdeg() for row in rows for p in row if not minors.contains(p)]
    return RelativeIdeal(inst.H, degrees)


@pytest.mark.parametrize("make", [inst_345, inst_six] + [partial(sample_instance, *e) for e in SYZYGY_SAMPLE])
def test_stopped_kernel_gives_the_full_trace(make):
    # the route stops the pair loop once the trace is saturated; it must
    # read the trace of the whole kernel of the first columns, and the oracle's
    inst = make()
    _, M = inst.matrices
    full = _trace_of_rows(inst, kernel_over_quotient([line[:: inst.n] for line in M], inst.minors))
    assert trace_canonical_syzygy(inst) == full == trace_canonical_oracle(inst.H)


def test_route_stops_with_pairs_left(monkeypatch):
    # on an n = 5 sample the trace is saturated while pairs are still queued
    real_close, left = groebner._close, []

    def close(gens, basis, ring, stop=None, **kw):
        closed = real_close(gens, basis, ring, stop, **kw)
        left.append(closed.stats["pairs_left"])
        return closed

    monkeypatch.setattr(groebner, "_close", close)
    inst = sample_instance(*SYZYGY_SAMPLE[6])
    assert inst.n == 5
    assert trace_canonical_syzygy(inst) == trace_canonical_oracle(inst.H)
    assert left[-1] > 0


def _closures(monkeypatch):
    """Record (closure, number of seeds) for every module pair loop run."""
    real_close, seen = groebner._close, []

    def close(gens, basis, ring, stop=None, **kw):
        basis = list(basis)
        closed = real_close(gens, basis, ring, stop, **kw)
        if isinstance(ring, FreeModule):
            seen.append((closed, len(basis)))
        return closed

    monkeypatch.setattr(groebner, "_close", close)
    return seen


@pytest.mark.parametrize("make", [inst_345] + [partial(sample_instance, *e) for e in SYZYGY_SAMPLE])
def test_kernel_entries_are_in_normal_form(make, monkeypatch):
    # the lemmas that spare the kernel and the route their membership tests:
    # every element the kernel's pair loop admits, and every returned row not
    # led by the lead of a minor, has each entry equal to its normal form
    # modulo the minors; and only the tag seeds, which are dropped, are zero
    # rows of the quotient, so no returned row is
    inst = make()
    _, M = inst.matrices
    minors = groebner.buchberger(inst.minors)
    minor_leads = {g.lm() for g in minors}
    seen = _closures(monkeypatch)
    trace_canonical_syzygy(inst)
    rows = kernel_over_quotient(M, minors)
    assert len(seen) == 2
    for closed, seeded in seen:
        for v in closed.polys[seeded:]:
            assert all(minors.normal_form(p) == p for p in closed.ring.components(v))
    led_otherwise = [row for row in rows if next(p for p in row if not p.is_zero()).lm() not in minor_leads]
    assert led_otherwise
    assert all(minors.normal_form(p) == p for row in led_otherwise for p in row)
    assert not any(all(minors.contains(p) for p in row) for row in rows)


@pytest.mark.parametrize("make", [inst_345, inst_six] + [partial(sample_instance, *e) for e in SYZYGY_SAMPLE])
def test_kernel_closure_with_seed_product_criterion_is_complete(make, monkeypatch):
    # the product criterion skips pairs of a kernel element with a seed
    # g e_k whose ring leads are coprime; the closure of the full M, run to
    # the end, must still pass the check of every pair
    inst = make()
    _, M = inst.matrices
    seen = _closures(monkeypatch)
    kernel_over_quotient(M, inst.minors)
    ((closed, _),) = seen
    assert closed.stats["pairs_skipped"] > 0 and closed.stats["pairs_left"] == 0
    assert closed.self_check()
