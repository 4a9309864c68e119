"""Run one workload of the ngtrace benchmark and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ngtrace is imported from src/.
Set-up runs three to nine times, each in a fresh interpreter, and setup_s
is the median.  The measured run is another fresh interpreter.  With
--trace 1 one more measures again with spans and replays the first rounds
layer by layer (see bench.py).

Every time is CPU time scaled to the machine speed of perfbench/speed.py:
an operation's time by the reference loop timed just before it, a set-up's
stretch by stretch (speed.ScaledClock).

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the line
before it is the full report, also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_table  # noqa: E402
from speed import REFERENCE_NS  # noqa: E402

SETUPS = 3  # set-ups per run at least; cheap ones repeat, up to MAX_SETUPS,
MAX_SETUPS = 9  # until SETUP_WALL_S have passed, so their median steadies
SETUP_WALL_S = 3.0
DEADLINE_S = 170  # a run must end within 180 s, so children are stopped after this
LAYER_TIMES = [
    "semigroup.construct", "determinantal.validate", "determinantal.classify",
    "groebner.minors_gb", "groebner.toric", "groebner.kernel",
    "ideals.canonical", "ideals.colon", "ideals.oracle",
    "lambda_rows.trace", "lambda_rows.syzygy", "lambda_rows.witness",
    "higher_dim.classify", "higher_dim.witness_rows", "higher_dim.verify",
    "corpus.check",
]
COUNTS = [
    "semigroup.construct_calls", "determinantal.validate_calls", "determinantal.instances",
    "groebner.toric_basis_elems", "higher_dim.verify_calls",
    "determinantal.reject.degenerate", "determinantal.reject.repeated",
    "determinantal.reject.nonminimal", "determinantal.reject.overbound",
    "determinantal.reject.mismatch", "determinantal.reject.resource_limit",
]


class ChildFailed(RuntimeError):
    pass


def child(args: list[str], deadline: float) -> str:
    """Run bench.py in a fresh interpreter; returns its standard output."""
    timeout = max(1.0, deadline - time.monotonic())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"bench.py {args[0]} timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"bench.py {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def cost_ns(rec: dict) -> float:
    """An operation's CPU time at the reference speed."""
    return rec["ns"] * REFERENCE_NS / rec["ref_ns"]


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def end_to_end(workload: str, measured: dict, setup_times: list[float]) -> tuple[dict, dict]:
    recs = [r for r in measured["records"] if "error" not in r and r.get("code", 0) == 0]
    queries = [r for r in recs if r["kind"] == "cli"]
    batch = queries if workload == "cli-queries" else [r for r in recs if r["kind"] != "cli"]
    ms = lambda rs: [cost_ns(r) / 1e6 for r in rs]
    if workload == "corpus":  # an instance's latency is that of the search that found it
        per_instance = [cost_ns(r) / 1e6 for r in batch for _ in r["inst"]]
    else:
        per_instance = ms(batch)
    batch_s = sum(map(cost_ns, batch)) / 1e9
    by_kind = {k: ms([r for r in queries if r["q"] == k]) for k in ("classify", "verify", "higher", "trace")}
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "instances_per_s": (len(per_instance) / batch_s, "1/s"),
        "instance_ms_p50": (statistics.median(per_instance), "ms"),
        "instance_ms_p99": (p99(per_instance), "ms"),
        "queries_per_s": (len(batch) / batch_s, "1/s"),
        "query_ms_p99": (p99(ms(batch)), "ms"),
        **{f"{k}_ms_p50": (statistics.median(v), "ms") for k, v in by_kind.items()},
    }
    samples = {"instances": len(per_instance), "operations": len(batch),
               **{f"{k}_queries": len(v) for k, v in by_kind.items()},
               **{f"{k}_ms_max": max(v) for k, v in by_kind.items()}}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, samples


def per_layer(measured: dict, traced: dict) -> tuple[dict, dict]:
    ops = traced["replayed_ops"]
    table = layer_table([s for s in traced["spans"] if s[1] < ops])
    scale = REFERENCE_NS / statistics.median(r["ref_ns"] for r in traced["records"])
    for row in table.values():
        row["total_s"] *= scale
        row["self_s"] *= scale
    counts = traced["counts"]
    metrics = {f"{name}_s": (table.get(name, {}).get("self_s", 0.0), "s") for name in LAYER_TIMES}
    metrics["cli.self_s"] = (table.get("cli", {}).get("self_s", 0.0), "s")
    metrics["corpus.check_calls"] = (table.get("corpus.check", {}).get("calls", 0), "count")
    metrics.update({name: (counts.get(name, 0), "count") for name in COUNTS})
    calls = counts.get("determinantal.validate_calls", 0)
    metrics["determinantal.validate_accept_ratio"] = (
        counts.get("determinantal.instances", 0) / calls if calls else 0.0, "ratio")
    common = min(len(measured["records"]), len(traced["records"]))
    plain = sum(map(cost_ns, measured["records"][:common]))
    spanned = sum(map(cost_ns, traced["records"][:common]))
    metrics["tracing.overhead_pct"] = (100.0 * (spanned / plain - 1.0), "%")
    spans = sum(1 for s in traced["spans"] if s[3] is None and s[1] >= 0)
    metrics["tracing.span_cost_pct"] = (
        100.0 * spans * traced["span_ns"] / sum(r["ns"] for r in traced["records"]), "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, table


def run(args) -> int:
    if not (ROOT / "src" / "ngtrace").is_dir():
        print(f"error: no ngtrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload]
    setups, started = [], time.monotonic()
    while len(setups) < SETUPS or (len(setups) < MAX_SETUPS and time.monotonic() - started < SETUP_WALL_S):
        out = child(["setup", *common, "--seed", str(args.seed), "--out", str(work / f"inputs{len(setups)}.json")], deadline)
        setups.append(json.loads(out.splitlines()[-1]))
    setup_times = [s["scaled_s"] for s in setups]
    inputs = work / "inputs0.json"
    for k in range(1, len(setups)):
        if (work / f"inputs{k}.json").read_bytes() != inputs.read_bytes():
            raise ChildFailed("set-up made different inputs from the same seed")
        (work / f"inputs{k}.json").unlink()
    child(["measure", *common, "--inputs", str(inputs), "--seconds", str(args.seconds), "--out", str(work / "measured.json")], deadline)
    measured = json.loads((work / "measured.json").read_text())
    metrics, samples = end_to_end(args.workload, measured, setup_times)
    runs = [measured]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "rounds": measured["rounds"], "measured_s": measured["elapsed_s"],
        "inputs_exhausted": measured["exhausted"], "setup_runs_s": setup_times,
        "setup_runs_cpu_s": [s["cpu_s"] for s in setups],
        "reference_ns": {"measured": statistics.median(r["ref_ns"] for r in measured["records"])},
        "samples": samples, "end_to_end": metrics,
    }
    if args.trace:
        child(["measure", *common, "--inputs", str(inputs), "--seconds", str(args.seconds), "--spans", "--out", str(work / "traced.json")], deadline)
        traced = json.loads((work / "traced.json").read_text())
        metrics, table = per_layer(measured, traced)
        runs.append(traced)
        report["reference_ns"]["traced"] = statistics.median(r["ref_ns"] for r in traced["records"])
        report.update(per_layer=metrics, layer_table=table, replayed_ops=traced["replayed_ops"])
        (work / "spans.json").write_text(json.dumps(
            {"fields": ["id", "op", "name", "parent", "start_ns", "end_ns"], "spans": traced["spans"]}))
    problems = [p for r in runs for p in r["problems"]]
    attempted = sum(len(r["records"]) for r in runs)
    failed = sum(1 for r in runs for rec in r["records"] if "error" in rec or rec.get("code", 0) != 0)
    report.update(attempted=attempted, failed=failed, correct=not problems, problems=problems[:50])
    for name in ("inputs0.json", "measured.json", "traced.json"):
        (work / name).unlink(missing_ok=True)
    (work / "result.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "trace-scan", "cli-queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
