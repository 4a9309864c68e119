import random
from functools import partial

import pytest

from ngtrace import groebner, lambda_rows
from ngtrace.corpus import check_instance
from ngtrace.determinantal import DeterminantalInstance, build, search_instances
from ngtrace.errors import NotApplicable, ResourceLimit
from ngtrace.groebner import kernel_over_quotient, minors_basis
from ngtrace.ideals import RelativeIdeal, canonical_ideal, trace_canonical_oracle, unit_ideal
from ngtrace.lambda_rows import (
    LambdaRow,
    _trace_members,
    lambda_membership,
    theorem_if_witnesses,
    trace_canonical_lambda,
    trace_canonical_syzygy,
    trace_window,
)
from ngtrace.polyring import FreeModule
from ngtrace.semigroup import NumericalSemigroup

from conftest import by_n
from held_basis import spread_basis
from oracles import lambda_membership_by_scan, row_generates_canonical, spolys_reduce_to_zero


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


def test_row_validation_reads_h_as_contains_does(small_corpus):
    # a row reads its entries off one window of H's mask; the entries H does
    # not contain, negative ones included, are those contains refuses, named
    # in order in the ValueError.  Both signs of c, from rows of negative
    # entries to rows past the Frobenius number, and rows far from 0, whose
    # shifts stay within the entries' span
    assert {inst.c > 0 for inst in small_corpus} == {True, False}
    refused = 0
    for inst in small_corpus:
        span = (inst.n - 1) * abs(inst.c)
        for u in [-(10**15), *range(-span, inst.H.frobenius() + span + 2), 10**15]:
            bad = [e for e in (u + k * inst.c for k in range(inst.n - 1)) if not inst.H.contains(e)]
            try:
                LambdaRow(inst, u)
            except ValueError as exc:
                assert str(exc) == f"row entries {bad} are not in {inst.H}", (inst, u)
                refused += 1
            else:
                assert not bad, (inst, u)
    assert refused > 0


def test_relations_fail_for_a_wrong_degree_gap():
    # the instances are assembled directly, not by build, so c is not checked
    # against the matrix: every column's gap is 1, so a step of 2 breaks f.N = 0
    wrong = DeterminantalInstance(NumericalSemigroup([3, 4, 5]), (3, 4, 5), (2, 1, 1), (1, 1, 1), 2)
    assert not LambdaRow(wrong, 3).relations_hold()
    H = NumericalSemigroup([7, 8, 9, 10])
    wrong = DeterminantalInstance(H, (7, 8, 9, 10), (3, 1, 1, 1), (1, 1, 1, 2), 2)
    row = LambdaRow(wrong, 14)
    assert row.entries == (14, 16, 18) and not row.relations_hold()
    assert LambdaRow(inst_7890(), 14).relations_hold()


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


def test_membership_by_row_starts_matches_the_entry_scan(n3_corpus):
    # the slot test reads one bit of the row-start mask; the scan asks H for
    # every entry.  Both signs of c, from where every entry of a row through
    # u is negative up to the trace window
    assert {inst.c > 0 for inst in n3_corpus} == {True, False}
    for inst in n3_corpus:
        for u in range(-(inst.n - 1) * abs(inst.c), trace_window(inst) + 1):
            assert lambda_membership(inst, u) == lambda_membership_by_scan(inst, u), (inst, u)


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


@pytest.mark.parametrize("make", [inst_345, inst_7890, lambda: search_instances((1, 1, 1), (2, 1, 2), 50)[0]])
def test_window_sentinels_reject_a_gap(monkeypatch, make):
    # F is a gap, so no trace holds it: a window ending there must trip both sentinels
    inst = make()
    monkeypatch.setattr(lambda_rows, "trace_window", lambda inst: inst.H.frobenius())
    with pytest.raises(AssertionError, match="sentinel"):
        trace_canonical_lambda(inst)
    with pytest.raises(AssertionError, match="sentinel"):
        trace_canonical_syzygy(inst)


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
    # zero: the whole module basis as the pair loop leaves it, with g e_k
    # for every g of the minors' basis at every position k (the kernel then
    # interreduces only its tag part), below the degree where the loop
    # stopped if it stopped early, and the minors' basis
    real_close, real_minors_basis = groebner._close, lambda_rows.minors_basis
    checked = []

    def close_and_check(gens, basis, ring, stop=None):
        levels = []

        def watch(level, polys):
            levels.append(level)
            return stop(level, polys)

        basis = list(basis)
        closed = real_close(gens, basis, ring, watch if stop else None)
        full = _with_basis(closed, basis)
        assert spolys_reduce_to_zero(full, levels[-1] if closed.stats["pairs_left"] else None)
        checked.append(closed.ring)
        return closed

    def minors_basis_and_check(inst):
        gb = real_minors_basis(inst)
        assert spolys_reduce_to_zero(gb)
        checked.append("minors")
        return gb

    monkeypatch.setattr(groebner, "_close", close_and_check)
    monkeypatch.setattr(lambda_rows, "minors_basis", minors_basis_and_check)
    (inst,) = search_instances(m, ell, 150)
    assert trace_canonical_syzygy(inst) == trace_canonical_oracle(inst.H)
    assert any(isinstance(ring, FreeModule) for ring in checked) and "minors" in checked


def _with_basis(closed, basis):
    """The closure of a pair loop plus its basis, each g as g e_k at every
    position k of a free module: the whole basis the loop stands for."""
    return groebner.GroebnerBasis(closed.ring, [*spread_basis(closed.ring, basis), *closed.polys])


def sample_instance(m, ell):
    (inst,) = search_instances(m, ell, 150)
    return inst


@pytest.mark.parametrize("make", [inst_345, inst_six] + [partial(sample_instance, *e) for e in SYZYGY_SAMPLE])
def test_one_column_per_block_keeps_kernel_rows(make):
    # the kernel of M is that of any one column in each block, the first or
    # the wrap column the route takes, so the reduced basis, and every row
    # the route reads, is the same
    inst = make()
    _, M = inst.matrices
    full = kernel_over_quotient(M, inst.minors)
    for k in (0, inst.n - 1):
        columns = [line[k :: inst.n] for line in M]
        assert len(columns[0]) == inst.n - 2
        assert kernel_over_quotient(columns, inst.minors) == full


def test_syzygy_route_checks_columns_outside_the_kernel(monkeypatch):
    # the kernel sees only the wrap column of each block (the third, at
    # n = 3); negate U_2 in the second column of M, so that every kernel row
    # still satisfies the columns the kernel saw and fails that one, which
    # the route must catch
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
    assert seen == [[line[2:] for line in M]]


def _bent_rows(row):
    """The row as returned, with its first nonzero entry times X_1, and negated."""
    k = next(i for i, p in enumerate(row) if not p.is_zero())
    ring = row[k].ring
    return [tuple(row), (*row[:k], row[k] * ring.var(0), *row[k + 1 :]), (*row[:k], -row[k], *row[k + 1 :])]


@pytest.mark.parametrize("make", [inst_345, inst_six] + [partial(sample_instance, *e) for e in SYZYGY_SAMPLE])
def test_toric_image_verdict_matches_normal_forms(make):
    # the route checks f.col in k[H] by its image under X_i -> t^(a_i);
    # that verdict must be the normal form's modulo the minors' basis on
    # every column of M, for every kernel row and for rows bent off the
    # kernel
    inst = make()
    _, M = inst.matrices
    gb = minors_basis(inst)
    columns = lambda_rows._column_images(M, range(len(M[0])))
    verdicts = []
    for row in kernel_over_quotient(M, inst.minors):
        for bent in _bent_rows(row):
            images = [lambda_rows._toric_image(p) for p in bent]
            for k, column in columns:
                nonzero = bool(lambda_rows._image_of_product(images, column))
                assert nonzero == (groebner.first_nonzero_column(bent, [[line[k]] for line in M], gb) is not None)
                verdicts.append(nonzero)
    assert True in verdicts and False in verdicts


def _trace_of_rows(inst, rows):
    minors = groebner.buchberger(inst.minors)
    degrees = [p.wdeg() for row in rows for p in row if not minors.contains(p)]
    return RelativeIdeal(inst.H, degrees)


@pytest.mark.parametrize("make", [inst_345, inst_six] + [partial(sample_instance, *e) for e in SYZYGY_SAMPLE])
def test_stopped_kernel_gives_the_full_trace(make):
    # the route stops the pair loop once the trace is saturated; it must
    # read the trace of the whole kernel of the wrap columns, which is that
    # of the first columns, and the oracle's
    inst = make()
    _, M = inst.matrices
    wrap, first = (
        _trace_of_rows(inst, kernel_over_quotient([line[k :: inst.n] for line in M], inst.minors))
        for k in (inst.n - 1, 0)
    )
    assert trace_canonical_syzygy(inst) == wrap == first == trace_canonical_oracle(inst.H)


def test_route_stops_with_pairs_left(monkeypatch):
    # on an n = 5 sample the trace is saturated while pairs are still queued
    real_close, left = groebner._close, []

    def close(gens, basis, ring, stop=None):
        closed = real_close(gens, basis, ring, stop)
        left.append(closed.stats["pairs_left"])
        return closed

    monkeypatch.setattr(groebner, "_close", close)
    inst = sample_instance(*SYZYGY_SAMPLE[6])
    assert inst.n == 5
    assert trace_canonical_syzygy(inst) == trace_canonical_oracle(inst.H)
    assert left[-1] > 0


LEADS_STRIDE = 20  # of the n = 5 corpus


def test_no_lead_of_the_minors_basis_involves_the_last_variable(acceptance_corpus):
    # the wrap column's speed rests on this: X_n is last in the reverse
    # lexicographic order and not in P, so no minimal generator of in(P) is
    # divisible by X_n; the certified minors' leads are such generators, and
    # a kernel row led by X_n^ln has a ring lead coprime to every basis lead
    corpus, _ = acceptance_corpus
    corpora = [by_n(corpus, n) for n in (3, 4, 5)]
    instances = corpora[0] + corpora[1] + corpora[2][::LEADS_STRIDE]
    assert len(instances) == 444 + 2960 + 830
    for inst in instances:
        ring = inst.ring
        assert all(ring.exponents(g.lm())[-1] == 0 for g in minors_basis(inst)), inst


def _pairs_popped(inst, monkeypatch, column=None):
    """The pairs the route's module pair loop pops on inst; with ``column``,
    its kernel is taken of that column of each block instead."""
    real_close, real_kernel, popped = groebner._close, kernel_over_quotient, []

    def close(gens, basis, ring, stop=None):
        closed = real_close(gens, basis, ring, stop)
        if isinstance(ring, FreeModule):
            popped.append(closed.stats["pairs_queued"] - closed.stats["pairs_left"])
        return closed

    def kernel(rows, ideal, **stop):
        if column is not None:
            rows = [line[column :: inst.n] for line in inst.matrices[1]]
        return real_kernel(rows, ideal, **stop)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_close", close)
        patch.setattr(lambda_rows, "kernel_over_quotient", kernel)
        assert trace_canonical_syzygy(inst) == trace_canonical_oracle(inst.H)
    (count,) = popped
    return count


PAIR_STRIDE = 40  # of the acceptance corpus
# the route's module pair loop counters summed over that stride; chained and
# zero reductions split the popped pairs that add no element, 4,732 in all,
# by the order of equal-degree pairs, which follows the minors' order
STRIDE_STATS = {
    "pairs_queued": 28405,
    "pairs_skipped": 34299,
    "pairs_chained": 1291,
    "zero_reductions": 3441,
    "peak_basis": 37102,
    "max_lead_wdeg": 123407,
    "pairs_left": 19855,
}


def test_route_pair_loop_work_on_a_corpus_stride(acceptance_corpus, monkeypatch):
    # a work guard: the counters of every pair loop the route runs, summed
    # over every 40th instance of the acceptance corpus, repeat exactly
    corpus, _ = acceptance_corpus
    instances = corpus[::PAIR_STRIDE]
    assert len(instances) == 501
    real_close, totals = groebner._close, dict.fromkeys(groebner.STAT_NAMES, 0)

    def close(gens, basis, ring, stop=None):
        closed = real_close(gens, basis, ring, stop)
        assert isinstance(ring, FreeModule)  # the minors' basis is certified, not closed
        for name, count in closed.stats.items():
            totals[name] += count
        return closed

    monkeypatch.setattr(groebner, "_close", close)
    for inst in instances:
        trace_canonical_syzygy(inst)
    assert totals == STRIDE_STATS
    assert totals["pairs_chained"] + totals["zero_reductions"] == 4732


@pytest.mark.parametrize("m, ell", [e for e in SYZYGY_SAMPLE if len(e[0]) == 5])
def test_wrap_column_pops_fewer_pairs_than_the_first(m, ell, monkeypatch):
    # a work guard: the rows led by X_n^ln skip their pairs with the
    # minors' basis, so the route pops fewer pairs than the same route
    # with the kernel of the first column of each block
    inst = sample_instance(m, ell)
    assert _pairs_popped(inst, monkeypatch) < _pairs_popped(inst, monkeypatch, column=0)


def _closures(monkeypatch):
    """Record (closure, basis) for every module pair loop run."""
    real_close, seen = groebner._close, []

    def close(gens, basis, ring, stop=None):
        basis = list(basis)
        closed = real_close(gens, basis, ring, stop)
        if isinstance(ring, FreeModule):
            seen.append((closed, basis))
        return closed

    monkeypatch.setattr(groebner, "_close", close)
    return seen


@pytest.mark.parametrize("make", [inst_345] + [partial(sample_instance, *e) for e in SYZYGY_SAMPLE])
def test_kernel_entries_are_in_normal_form(make, monkeypatch):
    # the lemmas that spare the kernel and the route their membership tests:
    # every element the kernel's pair loop admits, and every returned row,
    # has each entry equal to its normal form modulo the minors, and no
    # returned row is zero in the quotient
    inst = make()
    _, M = inst.matrices
    minors = groebner.buchberger(inst.minors)
    seen = _closures(monkeypatch)
    trace_canonical_syzygy(inst)
    rows = kernel_over_quotient(M, minors)
    assert len(seen) == 2
    for closed, _ in seen:
        for v in closed.polys:
            assert all(minors.normal_form(p) == p for p in closed.ring.components(v))
    assert rows
    assert all(minors.normal_form(p) == p for row in rows for p in row)
    assert not any(all(minors.contains(p) for p in row) for row in rows)


@pytest.mark.parametrize("make", [inst_345, inst_six] + [partial(sample_instance, *e) for e in SYZYGY_SAMPLE])
def test_kernel_closure_with_seed_product_criterion_is_complete(make, monkeypatch):
    # the product criterion skips pairs of a kernel element with a basis
    # poly g (g e_k) whose ring leads are coprime; the closure of the full
    # M, run to the end, with g e_k at every position k, must still pass
    # the check of every pair
    inst = make()
    _, M = inst.matrices
    seen = _closures(monkeypatch)
    kernel_over_quotient(M, inst.minors)
    ((closed, basis),) = seen
    assert closed.stats["pairs_skipped"] > 0 and closed.stats["pairs_left"] == 0
    assert spolys_reduce_to_zero(_with_basis(closed, basis))


def members_break_the_lemma(inst) -> list[str]:
    """What fails of the two facts that spare the lambda trace its sieve:
    inside the window its members are closed under each generator of H,
    and they hold the conductor F + 1."""
    W = trace_window(inst)
    members = _trace_members(inst, W)
    window = (1 << (W + 1)) - 1
    broken = [f"not closed under {a}" for a in inst.H.generators if (members << a) & window & ~members]
    if not members >> (inst.H.frobenius() + 1) & 1:
        broken.append("F + 1 is not a member")
    return broken


def test_lambda_members_are_closed_and_hold_the_conductor(acceptance_corpus):
    corpus, _ = acceptance_corpus
    assert {inst.n for inst in corpus} == {3, 4, 5} and {inst.c > 0 for inst in corpus} == {True, False}
    broken = [(inst.to_json(), why) for inst in corpus if (why := members_break_the_lemma(inst))]
    assert not broken, broken[:10]


@pytest.mark.parametrize("make", [inst_345, inst_7890, inst_six])
def test_lambda_conductor_sentinel_trips(make, monkeypatch):
    # row starts with every bit up to F + 1 + (n - 2)|c| cleared leave no
    # row through F + 1 (nor below it), while the window end keeps its rows:
    # the conductor sentinel must fire before any mask is built from them
    inst = make()
    span = inst.H.frobenius() + 2 + (inst.n - 2) * abs(inst.c)
    real = lambda_rows._row_starts
    monkeypatch.setattr(lambda_rows, "_row_starts", lambda inst, top: real(inst, top) & (-1 << span))
    with pytest.raises(AssertionError, match="conductor sentinel"):
        trace_canonical_lambda(inst)


BEYOND_GRID = {3: 189, 4: 137, 5: 24}  # instances the seeded draws find, per n


@pytest.mark.parametrize("n", sorted(BEYOND_GRID))
def test_random_exponents_beyond_the_grid(n):
    # the corpus stops at exponent 3 and generator 150; 400 seeded draws of
    # exponents 1..6 with search bound 500 go past both.  Every instance
    # found passes check_instance, its lambda members keep the lemma of
    # trace_canonical_lambda, and its syzygy trace is the oracle's; a
    # ResourceLimit fails the test, listed by its payload and reason
    rng = random.Random(1000 + n)
    found, failures = 0, []
    for _ in range(400):
        m = tuple(rng.randint(1, 6) for _ in range(n))
        ell = tuple(rng.randint(1, 6) for _ in range(n))
        payload = {"m": m, "ell": ell, "bound": 500}
        try:
            for inst in search_instances(m, ell, 500):
                found += 1
                payload = inst.to_json()
                report = check_instance(inst)
                if report.violations():
                    failures.append((payload, report.violations()))
                if broken := members_break_the_lemma(inst):
                    failures.append((payload, broken))
                if trace_canonical_syzygy(inst) != report.trace_oracle:
                    failures.append((payload, "the syzygy trace differs from the oracle's"))
        except ResourceLimit as exc:
            failures.append((payload, f"ResourceLimit: {exc}"))
    assert not failures, failures
    assert found == BEYOND_GRID[n]
