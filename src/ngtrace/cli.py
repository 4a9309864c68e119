"""Command line front end.

Subcommands: sgp, classify, trace, search, higher, corpus, verify.
Exit codes: 0 success, 2 input validation or a resource cap hit,
3 defining-ideal mismatch, 5 property violation.
A subcommand prints its report, then raises on a failed check or returns
nothing; main maps every exception to its exit code and error: line in one
place.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from .corpus import TRACE_ROUTES, InstanceReport, check_instance, run_corpus
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
    PropertyViolation,
    ResourceLimit,
    WitnessFailed,
)
from .higher_dim import HigherDimInstance, classify as classify_hd
from .lambda_rows import lambda_membership, theorem_if_witnesses
from .semigroup import NumericalSemigroup, _apery_by_residue

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IDEAL = 3
EXIT_VIOLATION = 5


def _load_payload(arg: str, required=("generators", "m", "ell")) -> dict:
    """Read a JSON object given inline, as a file path, or as '-' for stdin.

    The keys in ``required`` must be present, and each of generators, order,
    m, ell, I and J that is present must be a list of ints.
    """
    text = arg
    if arg == "-":
        text = sys.stdin.read()
    elif not arg.lstrip().startswith("{") and Path(arg).is_file():
        text = Path(arg).read_text()
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    for key in ("generators", "order", "m", "ell", "I", "J"):
        value = data.get(key, [])
        if type(value) is not list or any(type(x) is not int for x in value):
            raise ValueError(f"{key} must be a list of integers, got {value!r}")
    return data


def _parse_gens(arg: str) -> list[int]:
    if arg.lstrip().startswith("{") or arg == "-" or Path(arg).is_file():
        return _load_payload(arg, required=("generators",))["generators"]
    return [int(x) for x in arg.replace(",", " ").split()]


def _emit(report: dict, fmt: str, out):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True), file=out)
        return
    for key, value in report.items():
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        print(f"{key}: {value}", file=out)


def _raise_violations(report: InstanceReport) -> None:
    violations = report.violations()
    if violations:
        raise PropertyViolation(f"property violations: {'; '.join(violations)}")


def cmd_sgp(args, out) -> None:
    H = NumericalSemigroup(_parse_gens(args.gens))
    report = {
        "generators": list(H.generators),
        "multiplicity": H.multiplicity,
        "frobenius": H.frobenius(),
        "genus": H.genus(),
        "gaps": H.gaps(),
        "apery": _apery_by_residue(H.mask, H.multiplicity),
        "pseudo_frobenius": H.pseudo_frobenius(),
        "type": H.type(),
        "symmetric": H.is_symmetric(),
        "almost_symmetric": H.is_almost_symmetric(),
    }
    _emit(report, args.format, out)


def cmd_classify(args, out) -> None:
    inst = DeterminantalInstance.from_json(_load_payload(args.instance))
    checked = check_instance(inst)
    ng = checked.ng
    report = {
        "instance": inst.to_json(),
        "c": inst.c,
        "ng_theorem": ng.is_ng,
        "ng_case": ng.case,
        "ng_symmetry": ng.symmetry.describe() if ng.symmetry else None,
        "ng_oracle": checked.ng_oracle,
        "ng_lambda": checked.ng_lambda,
        "ag_theorem": checked.ag_theorem,
        "ag_pseudo_frobenius": checked.ag_nari,
        "trace_oracle": list(checked.trace_oracle.generators),
        "trace_lambda": list(checked.trace_lambda.generators),
    }
    if args.format == "table":
        report["instance"] = json.dumps(report["instance"], sort_keys=True)
    _emit(report, args.format, out)
    _raise_violations(checked)


def cmd_trace(args, out) -> None:
    inst = DeterminantalInstance.from_json(_load_payload(args.instance))
    if args.method == "all":
        # each route runs once: the engine runs two, and the syzygy trace joins its report
        checked = replace(check_instance(inst), trace_syzygy=TRACE_ROUTES["syzygy"](inst))
        traces = {name: getattr(checked, f"trace_{name}") for name in TRACE_ROUTES}
    else:
        checked, traces = None, {args.method: TRACE_ROUTES[args.method](inst)}
    report: dict = {"instance": json.dumps(inst.to_json(), sort_keys=True)}
    report.update((name, list(trace.generators)) for name, trace in traces.items())
    failed = []
    if "lambda" in traces:
        rows = []
        for a in inst.H.generators:
            hit = lambda_membership(inst, a)
            if hit:
                row, j = hit
                ok = row.relations_hold()
                rows.append(f"f = {row}, j={j}, f.N = 0 {'verified' if ok else 'FAILED'}")
                if not ok:
                    failed.append(str(row))
        report["rows"] = rows
    _emit(report, args.format, out)
    if failed:
        raise PropertyViolation(f"property violation: f.N != 0 for rows {', '.join(failed)}")
    if checked is not None:
        _raise_violations(checked)


def cmd_search(args, out) -> None:
    m = [int(x) for x in args.m.replace(",", " ").split()]
    ell = [int(x) for x in args.ell.replace(",", " ").split()]
    rows = []
    for inst in search_instances(m, ell, args.bound):
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


def cmd_higher(args, out, payload: dict | None = None) -> None:
    if payload is None:
        payload = _load_payload(args.instance)
    hd = HigherDimInstance.from_json(payload)
    res = classify_hd(hd)
    report = {
        "instance": json.dumps(hd.to_json(), sort_keys=True),
        "base_case": hd.base_case,
        "dimension": hd.dimension(),
        "nearly_gorenstein": res.is_ng,
        "rule": res.rule,
    }
    if res.symmetry is not None:
        report["rearranged_via"] = res.symmetry.describe()
    if res.is_ng:
        try:
            rows = res.witness_rows()
            res.verify(rows)
            report["witness"] = "verified"
            report["witness_rows"] = [
                "(" + ", ".join(str(p) for p in row) + ")" for row in rows
            ]
        except NoTabulatedWitness as exc:
            report["witness"] = f"no tabulated row: {exc}"
        except WitnessFailed as exc:
            report["witness"] = f"FAILED: {exc}"
            _emit(report, args.format, out)
            raise PropertyViolation(f"witness failed: {exc}")
    _emit(report, args.format, out)


def cmd_corpus(args, out) -> None:
    ns = tuple(int(x) for x in args.ns.replace(",", " ").split())
    progress = None
    if args.format == "table":

        def progress(done, total):
            print(f"  checked {done}/{total}", file=sys.stderr)

    result = run_corpus(
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
        print(result.reproducer(), file=out)
        raise PropertyViolation("property violations; minimal reproducer follows")


def cmd_verify(args, out) -> None:
    payload = _load_payload(args.instance)
    if payload.get("I") or payload.get("J"):
        cmd_higher(args, out, payload)
        return
    inst = DeterminantalInstance.from_json(payload)
    checked = check_instance(inst)
    report = {
        "instance": json.dumps(inst.to_json(), sort_keys=True),
        "traces_equal": checked.traces_equal,
        "ng_agreement": checked.ng_theorem == checked.ng_oracle,
    }
    if checked.ng_theorem:
        report["witness_rows"] = [str(r) for r in theorem_if_witnesses(inst)]
    _emit(report, args.format, out)
    _raise_violations(checked)


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
    p.set_defaults(handler=cmd_sgp)

    p = sub.add_parser("classify", help="validate and classify an instance")
    p.add_argument("instance", help="JSON object/file/- with generators, order, m, ell")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("trace", help="canonical trace ideal by one or all methods")
    p.add_argument("instance")
    p.add_argument("--method", choices=(*TRACE_ROUTES, "all"), default="all")
    # a no-op: the syzygy route always runs under --method all or syzygy.  It
    # stays parseable because benchmark scripts still pass it.
    p.add_argument("--stretch-syzygy", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("search", help="instances for given exponents")
    p.add_argument("--m", required=True, help="comma list of top exponents")
    p.add_argument("--ell", required=True, help="comma list of bottom exponents")
    p.add_argument("--bound", type=int, default=150, help="largest allowed generator")
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("higher", help="classify a deformed instance (I and J sets)")
    p.add_argument("instance", help="JSON with generators, order, m, ell, I, J")
    p.set_defaults(handler=cmd_higher)

    p = sub.add_parser("corpus", help="exhaustive agreement run")
    p.add_argument("--ns", default="3,4", help="comma list of matrix sizes")
    p.add_argument("--emax", type=int, default=3, help="largest exponent")
    p.add_argument("--bound", type=int, default=100, help="largest allowed generator")
    p.add_argument("--seed", type=int, default=None, help="seed for subsampling")
    p.add_argument("--sample", type=int, default=None, help="exponent tuples per size")
    p.set_defaults(handler=cmd_corpus)

    p = sub.add_parser("verify", help="verify witnesses / cross-method agreement")
    p.add_argument("instance")
    p.set_defaults(handler=cmd_verify)

    return parser


# argparse keeps no state between parse_args calls, so one parser serves
# every call in the process
_parser = functools.cache(make_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.handler(args, sys.stdout)
        return EXIT_OK
    except PropertyViolation as exc:
        code, message = EXIT_VIOLATION, str(exc)
    except (InhomogeneousMatrix, IdealMismatch) as exc:
        code, message = EXIT_IDEAL, f"not a determinantal presentation: {exc}"
    except ResourceLimit as exc:
        # a cap leaves the question undecided: an input the tool cannot handle
        code, message = EXIT_INPUT, f"resource limit: {exc}"
    except (ValueError, OSError) as exc:
        code, message = EXIT_INPUT, f"bad input: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
