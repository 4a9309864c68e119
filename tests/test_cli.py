import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngtrace import cli
from ngtrace.cli import main
from ngtrace.errors import ResourceLimit
from ngtrace.higher_dim import rearranged
from ngtrace.ideals import unit_ideal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


INST_7890 = json.dumps(
    {"generators": [7, 8, 9, 10], "order": [7, 8, 9, 10], "m": [3, 1, 1, 1], "ell": [1, 1, 1, 2]}
)
INST_345 = json.dumps(
    {"generators": [3, 4, 5], "order": [3, 4, 5], "m": [2, 1, 1], "ell": [1, 1, 1]}
)


def test_sgp_report(capsys):
    code, payload, _ = run_json(capsys, "sgp", "7,8,9,10")
    assert code == 0
    assert payload["frobenius"] == 13
    assert payload["pseudo_frobenius"] == [11, 12, 13]
    assert payload["type"] == 3
    assert payload["almost_symmetric"] is False


def test_sgp_symmetric(capsys):
    code, payload, _ = run_json(capsys, "sgp", "2,3")
    assert code == 0 and payload["symmetric"] is True


def test_sgp_of_the_natural_numbers(capsys):
    # N = <1> has F = -1 and PF = {-1}: type 1, symmetric
    code, out, _ = run(capsys, "sgp", "1")
    assert code == 0
    assert "pseudo_frobenius: -1" in out.splitlines()
    assert "type: 1" in out.splitlines() and "symmetric: True" in out.splitlines()
    code, payload, _ = run_json(capsys, "sgp", "1")
    assert payload["pseudo_frobenius"] == [-1] and payload["type"] == 1
    assert payload["symmetric"] is True


def test_sgp_table_format(capsys):
    code, out, _ = run(capsys, "sgp", "3,4,5")
    assert code == 0
    assert "almost_symmetric: True" in out
    assert "type: 2" in out


def test_sgp_bad_input_exit_2(capsys):
    code, _, err = run(capsys, "sgp", "2,4")
    assert code == 2
    assert "error" in err


def test_classify_example(capsys):
    code, payload, _ = run_json(capsys, "classify", INST_7890)
    assert code == 0
    assert payload["ng_theorem"] is True
    assert payload["ng_case"] == "B"
    assert payload["ag_theorem"] is False
    assert payload["ng_oracle"] is True and payload["ng_lambda"] is True
    assert payload["trace_oracle"] == [7, 8, 9, 10]


def test_classify_345(capsys):
    code, payload, _ = run_json(capsys, "classify", INST_345)
    assert code == 0
    assert payload["ng_theorem"] is True and payload["ag_theorem"] is True


def test_classify_inhomogeneous_exit_3(capsys):
    bad = json.dumps(
        {"generators": [3, 4, 5], "order": [3, 4, 5], "m": [1, 1, 1], "ell": [1, 1, 1]}
    )
    code, _, err = run(capsys, "classify", bad)
    assert code == 3


def test_classify_ideal_mismatch_exit_3(capsys):
    bad = json.dumps(
        {"generators": [3, 4, 5], "order": [3, 4, 5], "m": [5, 2, 5], "ell": [1, 5, 2]}
    )
    code, _, err = run(capsys, "classify", bad)
    assert code == 3


def test_classify_zero_gap_exit_3(capsys):
    # c = 0 with prod(m) = prod(ell) = 60: the test c == prod(m) - prod(ell)
    # alone would accept it
    bad = json.dumps(
        {"generators": [3, 4, 5], "order": [3, 4, 5], "m": [5, 3, 4], "ell": [4, 5, 3]}
    )
    code, out, err = run(capsys, "classify", bad)
    assert code == 3
    assert "degree gap c = 0" in err
    assert out == ""


def test_classify_large_exponents_exit_3(capsys):
    # c = 1 but prod(m) - prod(ell) = 784617: decided by arithmetic, where a
    # Groebner basis of the minors would pass the degree cap
    bad = json.dumps(
        {"generators": [3, 4, 5], "order": [3, 4, 5], "m": [1002, 1000, 1001], "ell": [1333, 1251, 601]}
    )
    code, out, err = run(capsys, "classify", bad)
    assert code == 3
    assert "colength of the 2-minors + X3 is 3923085, not a_3 = 5" in err
    assert out == ""


def test_classify_bad_json_exit_2(capsys):
    code, _, err = run(capsys, "classify", "{not json")
    assert code == 2


def test_trace_all_methods_agree(capsys):
    code, payload, _ = run_json(capsys, "trace", INST_345, "--method", "all")
    assert code == 0
    assert payload["oracle"] == [3, 4, 5]
    assert payload["lambda"] == [3, 4, 5]
    assert any("j=1" in r for r in payload["rows"])


def test_trace_syzygy_needs_flag(capsys):
    code, _, err = run(capsys, "trace", INST_345, "--method", "syzygy")
    assert code == 2
    code, payload, _ = run_json(
        capsys, "trace", INST_345, "--method", "syzygy", "--stretch-syzygy"
    )
    assert code == 0
    assert payload["syzygy"] == [3, 4, 5]


def test_trace_rows_failing_relations_exit_5(capsys, monkeypatch):
    # a row is reported verified only after relations_hold() has checked it
    monkeypatch.setattr("ngtrace.lambda_rows.LambdaRow.relations_hold", lambda row: False)
    code, payload, err = run_json(capsys, "trace", INST_345, "--method", "lambda")
    assert code == 5
    assert payload["rows"] and all(r.endswith("f.N = 0 FAILED") for r in payload["rows"])
    assert err.startswith("error: property violation:") and "Traceback" not in err


def test_search_finds_family(capsys):
    code, payload, _ = run_json(capsys, "search", "--m", "3,1,1,1", "--ell", "1,1,1,2", "--bound", "50")
    assert code == 0
    assert len(payload) == 1
    assert payload[0]["generators"] == [7, 8, 9, 10]
    assert payload[0]["ng"] is True and payload[0]["ag"] is False


def test_search_empty_is_ok(capsys):
    code, payload, _ = run_json(capsys, "search", "--m", "1,1,1", "--ell", "1,1,1")
    assert code == 0 and payload == []


def test_search_bound_cap_exit_2(capsys):
    code, _, _ = run(capsys, "search", "--m", "2,1,1", "--ell", "1,1,1", "--bound", "501")
    assert code == 2


TAIL_2B = {"generators": [6, 7, 8, 17], "order": [6, 7, 8, 17], "m": [3, 1, 1, 1], "ell": [1, 1, 2, 1],
           "I": [1], "J": [3]}


def test_higher_tail_2b(capsys):
    code, payload, _ = run_json(capsys, "higher", json.dumps(TAIL_2B))
    assert code == 0
    assert payload["nearly_gorenstein"] is True
    assert payload["rule"] == "tail(2b)"
    assert payload["dimension"] == 3
    assert payload["witness"] == "verified"


def test_higher_clause_three(capsys):
    data = json.loads(INST_7890)
    data["I"] = [1]
    data["J"] = [3, 4]
    code, payload, _ = run_json(capsys, "higher", json.dumps(data))
    assert code == 0
    assert payload["nearly_gorenstein"] is False
    assert payload["rule"] == "tail(3)"


def test_higher_unsupported_exit_4(capsys):
    data = {
        "generators": [3, 7, 8],
        "order": [8, 7, 3],
        "m": [1, 1, 2],
        "ell": [1, 1, 3],
        "I": [1],
        "J": [],
    }
    code, _, err = run(capsys, "higher", json.dumps(data))
    assert code == 4


def test_corpus_small_run(capsys):
    code, payload, _ = run_json(
        capsys, "corpus", "--ns", "3", "--emax", "2", "--bound", "60"
    )
    assert code == 0
    assert payload["violations"] == 0
    assert payload["instances"] > 0


def test_corpus_seeded_sample_deterministic(capsys):
    args = ("corpus", "--ns", "3", "--emax", "3", "--bound", "80", "--seed", "11", "--sample", "120")
    code1, p1, _ = run_json(capsys, *args)
    code2, p2, _ = run_json(capsys, *args)
    assert code1 == code2 == 0
    assert p1 == p2


def test_verify_base_instance(capsys):
    code, payload, _ = run_json(capsys, "verify", INST_7890)
    assert code == 0
    assert payload["traces_equal"] is True
    assert payload["ng_agreement"] is True
    assert payload["witness_rows"]


def test_verify_higher_dispatch(capsys):
    data = json.loads(INST_7890)
    data["I"] = [1]
    data["J"] = []
    code, payload, _ = run_json(capsys, "verify", json.dumps(data))
    assert code == 0
    assert payload["witness"] == "verified"


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(INST_345))
    code, payload, _ = run_json(capsys, "classify", "-")
    assert code == 0
    assert payload["ng_theorem"] is True


def test_file_input(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(INST_7890)
    code, payload, _ = run_json(capsys, "classify", str(path))
    assert code == 0 and payload["ng_case"] == "B"


N3_ALLONES = {"generators": [3, 4, 5], "order": [5, 4, 3], "m": [1, 1, 1], "ell": [1, 1, 2]}


@pytest.mark.parametrize("command", ["higher", "verify"])
@pytest.mark.parametrize("marks", [{"I": [], "J": [1, 2]}, {"I": [1], "J": [3]}])
def test_higher_n3_untabulated_true_case(capsys, command, marks):
    # true n = 3 cases outside the witness tables: reported, not a violation
    code, payload, err = run_json(capsys, command, json.dumps({**N3_ALLONES, **marks}))
    assert code == 0, err
    assert payload["nearly_gorenstein"] is True
    assert payload["rule"] == "n3-allones"
    assert payload["witness"].startswith("no tabulated row")
    assert "trace_n3_decision" in payload["witness"]


def _raise_cap(*args, **kwargs):
    raise ResourceLimit("cap for the test")


def test_search_resource_limit_exit_2(capsys, monkeypatch):
    # a cap hit in validation leaves the candidate undecided: an error, not
    # "found: 0"
    monkeypatch.setattr("ngtrace.determinantal.validate_defining_ideal", _raise_cap)
    code, out, err = run(capsys, "search", "--m", "1,4,3,3", "--ell", "2,4,4,4", "--bound", "500")
    assert code == 2
    assert "resource limit: cap for the test" in err
    assert "found" not in out


def test_search_computes_no_groebner_basis(capsys, monkeypatch):
    patched = [
        name
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "ngtrace" and hasattr(module, "buchberger")
    ]
    assert "ngtrace.groebner" in patched
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "buchberger", _raise_cap)
    code, out, err = run(capsys, "search", "--m", "1,4,3,3", "--ell", "2,4,4,4", "--bound", "500")
    assert code == 0, err
    assert out.startswith("found: 1\n")


def test_search_weights_above_200(capsys):
    # colength of the 2-minors + X4 is 76 = a_4: a valid presentation, which
    # the weight cap of the toric route used to leave undecided
    code, payload, err = run_json(capsys, "search", "--m", "1,4,3,3", "--ell", "2,4,4,4", "--bound", "500")
    assert code == 0, err
    assert len(payload) == 1
    assert payload[0]["generators"] == [76, 80, 83, 212]
    assert payload[0]["order"] == [212, 83, 80, 76]


def test_classify_huge_generators_exit_2(capsys):
    # Frobenius number about 5 * 10^7: capped before the gap list is built
    huge = json.dumps({"generators": [9967, 9973, 9979], "m": [1, 1, 1], "ell": [1, 1, 1]})
    code, out, err = run(capsys, "classify", huge)
    assert code == 2
    assert "resource limit: Frobenius number" in err
    assert out == ""


def test_corpus_resource_limit_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("ngtrace.corpus.search_instances", _raise_cap)
    code, out, err = run(capsys, "corpus", "--ns", "3", "--emax", "1")
    assert code == 2
    assert "resource limit: cap for the test" in err


REARRANGED = [
    # base fits no classified block as given; true after shift(2), with no
    # tabulated row at n = 3
    ({"generators": [3, 4, 5], "order": [4, 5, 3], "m": [1, 1, 2], "ell": [1, 1, 1], "I": [1], "J": []},
     "shift(2)", "no tabulated row"),
    ({"generators": [4, 5, 6, 7], "order": [5, 6, 7, 4], "m": [1, 1, 1, 2], "ell": [1, 1, 1, 1], "I": [2], "J": []},
     "reversal+shift(0)", "verified"),
]


@pytest.mark.parametrize("command", ["higher", "verify"])
@pytest.mark.parametrize("data, via, witness", REARRANGED)
def test_higher_rearrange_witness(capsys, command, data, via, witness):
    code, payload, err = run_json(capsys, command, "--rearrange", json.dumps(data))
    assert code == 0, err
    assert payload["nearly_gorenstein"] is True
    assert payload["rearranged_via"] == via
    assert payload["witness"].startswith(witness)


def test_parser_state_does_not_leak(capsys, monkeypatch):
    seen = []

    def spy(hd):
        seen.append(hd)
        return rearranged(hd)

    monkeypatch.setattr("ngtrace.cli.rearranged", spy)
    code, payload, _ = run_json(capsys, "higher", "--rearrange", json.dumps(REARRANGED[0][0]))
    assert code == 0 and payload["rearranged_via"] == "shift(2)"
    code, out, _ = run(capsys, "higher", json.dumps(TAIL_2B))
    assert code == 0
    assert out.startswith("instance: ")  # table format again
    assert len(seen) == 1  # no --rearrange the second time
    assert cli._parser() is cli._parser()  # built once per process


BASE_345 = json.loads(INST_345)


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", json.dumps({**BASE_345, "generators": None})),
        ("classify", json.dumps({**BASE_345, "m": 5})),
        ("classify", json.dumps({**BASE_345, "m": [2.7, 1, 1]})),  # no silent truncation to 2
        ("higher", json.dumps({**BASE_345, "I": 5})),
        ("higher", json.dumps({**BASE_345, "I": [None]})),
        ("sgp", '{"generators": 5}'),
        ("sgp", ""),  # not the working directory read as a file
        ("corpus", "--ns", "2"),
        ("corpus", "--ns", "x"),
        ("classify", '{"m": ' + "[" * 100000 + "]" * 100000 + "}"),
    ],
    ids=[
        "classify-generators-null",
        "classify-m-int",
        "classify-m-float",
        "higher-I-int",
        "higher-I-null",
        "sgp-generators-int",
        "sgp-empty",
        "corpus-ns-2",
        "corpus-ns-x",
        "classify-deep-nesting",
    ],
)
def test_malformed_input_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: bad input:")
    assert out == ""


def test_verify_deformed_from_stdin(capsys, monkeypatch):
    # verify reads stdin once and hands the payload to the deformed path
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TAIL_2B)))
    code, payload, err = run_json(capsys, "verify", "-")
    assert code == 0, err
    assert payload["rule"] == "tail(2b)" and payload["witness"] == "verified"


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_route_disagreement_exit_5(capsys, monkeypatch, command):
    # a lambda route answering the unit ideal disagrees with the oracle
    monkeypatch.setattr("ngtrace.corpus.trace_canonical_lambda", lambda inst: unit_ideal(inst.H))
    code, payload, err = run_json(capsys, command, INST_7890)
    assert code == 5
    assert payload is not None  # the report is printed before the exit
    assert "trace-methods-differ" in err


# -- the exit-code contract over malformed payloads and flag combinations ------

VALID = [BASE_345, json.loads(INST_7890), N3_ALLONES, TAIL_2B, REARRANGED[0][0]]
SMALL_INT = st.integers(min_value=-2, max_value=40)
JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, width=16), st.text(max_size=3), SMALL_INT)
VALUE = st.one_of(
    st.lists(SMALL_INT, max_size=6),
    st.lists(st.integers(min_value=-1, max_value=4), min_size=3, max_size=5),
    st.lists(st.one_of(SMALL_INT, JUNK), max_size=5),
    JUNK,
)
KEYS = st.sampled_from(["generators", "order", "m", "ell", "I", "J"])


@st.composite
def payload_text(draw):
    kind = draw(st.sampled_from(["valid", "mutated", "dropped", "random", "raw"]))
    if kind == "raw":
        return draw(st.one_of(st.text(max_size=12), st.just("[1, 2]"), st.just("-"), st.just("null")))
    if kind == "random":
        return json.dumps(draw(st.dictionaries(KEYS, VALUE, max_size=6)))
    data = dict(draw(st.sampled_from(VALID)))
    if kind == "dropped":
        data.pop(draw(KEYS), None)
    elif kind == "mutated":
        data[draw(KEYS)] = draw(VALUE)
    return json.dumps(data)


def comma_list(values):
    return st.lists(values, max_size=5).map(lambda xs: ",".join(map(str, xs)))


@st.composite
def cli_argv(draw):
    argv = ["--format", draw(st.sampled_from(["table", "json"]))]
    command = draw(st.sampled_from(["sgp", "classify", "trace", "search", "higher", "corpus", "verify"]))
    argv.append(command)
    if command == "sgp":
        argv.append(draw(st.one_of(payload_text(), comma_list(SMALL_INT), st.text(max_size=8))))
    elif command == "search":
        exps = st.one_of(comma_list(st.integers(min_value=-1, max_value=3)), st.text(max_size=6))
        argv += ["--m", draw(exps), "--ell", draw(exps)]
        argv += draw(st.sampled_from([[], ["--bound", "40"], ["--bound", "-3"], ["--bound", "501"]]))
    elif command == "corpus":
        ns = st.one_of(comma_list(st.integers(min_value=-1, max_value=6)), st.text(max_size=4))
        argv += ["--ns", draw(ns), "--emax", str(draw(st.integers(min_value=-1, max_value=1)))]
        argv += draw(st.sampled_from([[], ["--bound", "40"], ["--bound", "999"]]))
        argv += draw(st.sampled_from([[], ["--seed", "3", "--sample", "2"], ["--sample", "-1"]]))
    else:
        argv.append(draw(payload_text()))
        if command == "trace":
            argv += draw(st.sampled_from([[], ["--method", "lambda"], ["--method", "syzygy"]]))
            argv += draw(st.sampled_from([[], ["--stretch-syzygy"]]))
        elif command in ("higher", "verify"):
            argv += draw(st.sampled_from([[], ["--rearrange"]]))
    return argv


@given(cli_argv(), st.text(max_size=8))
@settings(max_examples=300, deadline=None)
def test_every_call_exits_with_a_documented_code(argv, stdin_text):
    import io
    from contextlib import redirect_stderr, redirect_stdout
    from unittest import mock

    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(stdin_text if argv[-1] != "-" else json.dumps(TAIL_2B))
    with mock.patch("sys.stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
