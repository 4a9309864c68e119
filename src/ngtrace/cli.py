"""Command line front end.

Subcommands: sgp, classify, trace, search, higher, corpus, verify.
Exit codes: 0 success, 2 input validation or a resource cap hit,
3 defining-ideal mismatch, 4 unsupported case, 5 property violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .determinantal import (
    DeterminantalInstance,
    classify_almost_gorenstein,
    classify_nearly_gorenstein,
    search_instances,
)
from .errors import (
    IdealMismatch,
    InhomogeneousMatrix,
    NoTabulatedWitness,
    ResourceLimit,
    UnsupportedBaseCase,
    WitnessFailed,
)
from .higher_dim import (
    HigherDimInstance,
    classify as classify_hd,
    rearranged,
    verify_witness,
    witness_rows,
)
from .ideals import trace_canonical_oracle
from .lambda_rows import (
    lambda_membership,
    theorem_if_witnesses,
    trace_canonical_lambda,
    trace_canonical_syzygy,
)
from .semigroup import NumericalSemigroup

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IDEAL = 3
EXIT_UNSUPPORTED = 4
EXIT_VIOLATION = 5


def _load_payload(arg: str) -> dict:
    """Accept a JSON string, a file path, or '-' for stdin."""
    text = arg
    if arg == "-":
        text = sys.stdin.read()
    elif not arg.lstrip().startswith("{") and Path(arg).exists():
        text = Path(arg).read_text()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    return data


def _parse_gens(arg: str) -> list[int]:
    if arg.lstrip().startswith("{") or arg == "-" or Path(arg).exists():
        return [int(x) for x in _load_payload(arg)["generators"]]
    return [int(x) for x in arg.replace(",", " ").split()]


def _emit(report: dict, fmt: str, out):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True), file=out)
        return
    for key, value in report.items():
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        print(f"{key}: {value}", file=out)


def cmd_sgp(args, out) -> int:
    try:
        H = NumericalSemigroup(_parse_gens(args.gens))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {
        "generators": list(H.generators),
        "multiplicity": H.multiplicity,
        "frobenius": H.frobenius(),
        "genus": H.genus(),
        "gaps": H.gaps(),
        "apery": list(H.apery),
        "pseudo_frobenius": H.pseudo_frobenius(),
        "type": H.type(),
        "symmetric": H.is_symmetric(),
        "almost_symmetric": H.is_almost_symmetric(),
    }
    _emit(report, args.format, out)
    return EXIT_OK


def _build_instance(arg: str) -> tuple[int, DeterminantalInstance | None, str | None]:
    try:
        payload = _load_payload(arg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return EXIT_INPUT, None, f"bad input: {exc}"
    try:
        inst = DeterminantalInstance.from_json(payload)
    except (InhomogeneousMatrix, IdealMismatch) as exc:
        return EXIT_IDEAL, None, f"not a determinantal presentation: {exc}"
    except (ValueError, KeyError) as exc:
        return EXIT_INPUT, None, f"bad input: {exc}"
    return EXIT_OK, inst, None


def cmd_classify(args, out) -> int:
    code, inst, err = _build_instance(args.instance)
    if inst is None:
        print(f"error: {err}", file=sys.stderr)
        return code
    ng = classify_nearly_gorenstein(inst, full_perm=args.full_perm)
    tr_oracle = trace_canonical_oracle(inst.H)
    tr_lambda = trace_canonical_lambda(inst)
    ng_oracle = all(tr_oracle.contains(a) for a in inst.H.generators)
    ng_lambda = all(tr_lambda.contains(a) for a in inst.H.generators)
    ag = classify_almost_gorenstein(inst)
    nari = inst.H.is_almost_symmetric()
    report = {
        "instance": inst.to_json(),
        "c": inst.c,
        "ng_theorem": ng.is_ng,
        "ng_case": ng.case,
        "ng_symmetry": ng.symmetry.describe() if ng.symmetry else None,
        "ng_oracle": ng_oracle,
        "ng_lambda": ng_lambda,
        "ag_theorem": ag,
        "ag_pseudo_frobenius": nari,
        "trace_oracle": list(tr_oracle.generators),
        "trace_lambda": list(tr_lambda.generators),
    }
    if args.format == "table":
        report["instance"] = json.dumps(report["instance"], sort_keys=True)
    _emit(report, args.format, out)
    if not (ng.is_ng == ng_oracle == ng_lambda) or ag != nari:
        print("error: classification methods disagree", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_trace(args, out) -> int:
    if args.method == "syzygy" and not args.stretch_syzygy:
        print("error: --method syzygy requires --stretch-syzygy", file=sys.stderr)
        return EXIT_INPUT
    code, inst, err = _build_instance(args.instance)
    if inst is None:
        print(f"error: {err}", file=sys.stderr)
        return code
    report: dict = {"instance": json.dumps(inst.to_json(), sort_keys=True)}
    results = {}
    if args.method in ("oracle", "all"):
        results["oracle"] = list(trace_canonical_oracle(inst.H).generators)
    if args.method in ("lambda", "all"):
        results["lambda"] = list(trace_canonical_lambda(inst).generators)
    if args.method == "syzygy" or (args.method == "all" and args.stretch_syzygy):
        results["syzygy"] = list(trace_canonical_syzygy(inst).generators)
    report.update(results)
    if args.method in ("lambda", "all"):
        rows = []
        for a in inst.H.generators:
            hit = lambda_membership(inst, a)
            if hit:
                row, j = hit
                rows.append(f"f = {row}, j={j}, f.N = 0 verified")
        report["rows"] = rows
    _emit(report, args.format, out)
    if len(set(map(tuple, (v for k, v in results.items())))) > 1:
        print("error: trace methods disagree", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_search(args, out) -> int:
    try:
        m = [int(x) for x in args.m.replace(",", " ").split()]
        ell = [int(x) for x in args.ell.replace(",", " ").split()]
        instances = search_instances(m, ell, args.bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    rows = []
    for inst in instances:
        ng = classify_nearly_gorenstein(inst)
        rows.append(
            {
                **inst.to_json(),
                "c": inst.c,
                "ng": ng.is_ng,
                "case": ng.case,
                "ag": classify_almost_gorenstein(inst),
            }
        )
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True), file=out)
    else:
        print(f"found: {len(rows)}", file=out)
        for row in rows:
            print(json.dumps(row, sort_keys=True), file=out)
    return EXIT_OK


def cmd_higher(args, out) -> int:
    try:
        payload = _load_payload(args.instance)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    code, inst, err = _build_instance(json.dumps({k: v for k, v in payload.items() if k not in ("I", "J")}))
    if inst is None:
        print(f"error: {err}", file=sys.stderr)
        return code
    try:
        hd = HigherDimInstance(
            inst, frozenset(payload.get("I", [])), frozenset(payload.get("J", []))
        )
        sym, target = rearranged(hd) if args.rearrange else (None, hd)
        res = classify_hd(target)
    except UnsupportedBaseCase as exc:
        print(f"error: unsupported base case: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {
        "instance": json.dumps(hd.to_json(), sort_keys=True),
        "base_case": hd.base_case,
        "dimension": hd.dimension(),
        "nearly_gorenstein": res.is_ng,
        "rule": res.rule,
    }
    via = sym or res.symmetry
    if via is not None:
        report["rearranged_via"] = via.describe()
    if res.is_ng:
        try:
            rows = witness_rows(target)
            verify_witness(target, rows)
            report["witness"] = "verified"
            report["witness_rows"] = [
                "(" + ", ".join(str(p) for p in row) + ")" for row in rows
            ]
        except NoTabulatedWitness as exc:
            report["witness"] = f"no tabulated row: {exc}"
        except WitnessFailed as exc:
            report["witness"] = f"FAILED: {exc}"
            _emit(report, args.format, out)
            return EXIT_VIOLATION
    _emit(report, args.format, out)
    return EXIT_OK


def cmd_corpus(args, out) -> int:
    ns = tuple(int(x) for x in args.ns.replace(",", " ").split())
    progress = None
    if args.format == "table":

        def progress(done, total):
            print(f"  checked {done}/{total}", file=sys.stderr)

    result = corpus_mod.run_corpus(
        ns=ns,
        emax=args.emax,
        bound=args.bound,
        seed=args.seed,
        sample=args.sample,
        progress=progress,
    )
    report = dict(result.counts)
    _emit(report, args.format, out)
    if result.violations:
        print("error: property violations; minimal reproducer follows", file=sys.stderr)
        print(result.reproducer(), file=out)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args, out) -> int:
    try:
        payload = _load_payload(args.instance)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if payload.get("I") or payload.get("J"):
        return cmd_higher(args, out)
    code, inst, err = _build_instance(json.dumps(payload))
    if inst is None:
        print(f"error: {err}", file=sys.stderr)
        return code
    tr_oracle = trace_canonical_oracle(inst.H)
    tr_lambda = trace_canonical_lambda(inst)
    ng = classify_nearly_gorenstein(inst)
    ng_oracle = all(tr_oracle.contains(a) for a in inst.H.generators)
    report = {
        "instance": json.dumps(inst.to_json(), sort_keys=True),
        "traces_equal": tr_oracle == tr_lambda,
        "ng_agreement": ng.is_ng == ng_oracle,
    }
    if ng.is_ng:
        rows = theorem_if_witnesses(inst)
        report["witness_rows"] = [str(r) for r in rows]
    _emit(report, args.format, out)
    if not (report["traces_equal"] and report["ng_agreement"]):
        return EXIT_VIOLATION
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngtrace",
        description=(
            "Exact computations with canonical trace ideals of numerical "
            "semigroup rings presented by 2-minors of cyclic 2xn matrices."
        ),
    )
    parser.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sgp", help="numerical semigroup invariants")
    p.add_argument("gens", help="comma list like 7,8,9,10 or JSON {\"generators\": [...]}")

    p = sub.add_parser("classify", help="validate and classify an instance")
    p.add_argument("instance", help="JSON object/file/- with generators, order, m, ell")
    p.add_argument("--full-perm", action="store_true", help="scan all presentations too")

    p = sub.add_parser("trace", help="canonical trace ideal by one or all methods")
    p.add_argument("instance")
    p.add_argument("--method", choices=("oracle", "lambda", "syzygy", "all"), default="all")
    p.add_argument("--stretch-syzygy", action="store_true", help="enable the syzygy route")

    p = sub.add_parser("search", help="instances for given exponents")
    p.add_argument("--m", required=True, help="comma list of top exponents")
    p.add_argument("--ell", required=True, help="comma list of bottom exponents")
    p.add_argument("--bound", type=int, default=150, help="largest allowed generator")

    p = sub.add_parser("higher", help="classify a deformed instance (I and J sets)")
    p.add_argument("instance", help="JSON with generators, order, m, ell, I, J")
    p.add_argument("--rearrange", action="store_true", help="scan rearrangements first")

    p = sub.add_parser("corpus", help="exhaustive agreement run")
    p.add_argument("--ns", default="3,4", help="comma list of matrix sizes")
    p.add_argument("--emax", type=int, default=3, help="largest exponent")
    p.add_argument("--bound", type=int, default=100, help="largest allowed generator")
    p.add_argument("--seed", type=int, default=None, help="seed for subsampling")
    p.add_argument("--sample", type=int, default=None, help="exponent tuples per size")

    p = sub.add_parser("verify", help="verify witnesses / cross-method agreement")
    p.add_argument("instance")
    p.add_argument("--rearrange", action="store_true")

    return parser


# argparse keeps no state between parse_args calls, so one parser serves
# every call in the process
_parser = functools.cache(make_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = sys.stdout
    handlers = {
        "sgp": cmd_sgp,
        "classify": cmd_classify,
        "trace": cmd_trace,
        "search": cmd_search,
        "higher": cmd_higher,
        "corpus": cmd_corpus,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args, out)
    except ResourceLimit as exc:
        # a cap leaves the question undecided: an input the tool cannot handle
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
