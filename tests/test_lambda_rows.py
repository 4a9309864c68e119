import pytest

from ngtrace import groebner, lambda_rows
from ngtrace.determinantal import build, search_instances
from ngtrace.errors import NotApplicable
from ngtrace.ideals import canonical_ideal, trace_canonical_oracle, unit_ideal
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
    # then interreduces only its tag part), and the minors' reduced basis
    real_close, real_buchberger = groebner._close, lambda_rows.buchberger
    checked = []

    def close_and_check(*args):
        closed = real_close(*args)
        assert closed.self_check()
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
