"""The benchmark's workloads: inputs, the timed loop, the replays, the checks.

Each phase runs in a fresh interpreter started by perfbench/run.py:

    bench.py setup   --workload W --seed S --out INPUTS
    bench.py measure --workload W --inputs INPUTS --seconds T [--spans] --out RESULT

``setup`` makes a run's inputs from the seed.  ``measure`` runs whole rounds
of operations until the time is up, one client, one thread, then checks every
output against perfbench/checks.py.  Both time the reference loop of
perfbench/speed.py, so that the machine's speed can be taken out of their
times.  With ``--spans`` it records a span
around every call into ngtrace and replays the first rounds layer by layer.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import random
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import ScaledClock, reference_ns  # noqa: E402

from ngtrace import cli  # noqa: E402
from ngtrace.corpus import check_instance  # noqa: E402
from ngtrace.determinantal import (  # noqa: E402
    DeterminantalInstance,
    classify_nearly_gorenstein,
    homogeneity_constant,
    remark_degrees,
    search_instances,
    validate_defining_ideal,
)
from ngtrace.errors import NoTabulatedWitness, ResourceLimit  # noqa: E402
from ngtrace.groebner import buchberger, kernel_over_quotient, toric_ideal  # noqa: E402
from ngtrace.higher_dim import (  # noqa: E402
    HigherDimInstance,
    build_matrices,
    classify as classify_hd,
    verify_witness,
    witness_rows,
)
from ngtrace.ideals import canonical_ideal, trace_canonical_oracle, unit_ideal  # noqa: E402
from ngtrace.lambda_rows import (  # noqa: E402
    theorem_if_witnesses,
    trace_canonical_lambda,
    trace_canonical_syzygy,
)
from ngtrace.semigroup import NumericalSemigroup  # noqa: E402

WORKLOADS = ("corpus", "trace-scan", "cli-queries")
BOUND = 150  # the acceptance corpus bound
CLASSES_PER_ROUND = 3  # corpus: dihedral classes per round, next to one side round
CHECKS_PER_ROUND = 50  # trace-scan: check_instance calls per round, next to one side round
REPLAY_ROUNDS = {"corpus": 30, "trace-scan": 20, "cli-queries": 12}
# Query rounds.  (command, n, pool): "grid" and "trace" pools as in
# make_pools.py; "true"/"false" pick deformations by the verdict, "alt" takes
# true ones in even rounds and false ones in odd rounds.
MIX_ROUND = (
    [(k, n, "grid") for k in ("classify", "verify") for n in (3, 4, 5) for _ in range(6)]
    + [("higher", n, side) for n in (3, 4, 5) for side in ("true", "false")]
    + [("trace", 5, "trace")]
)
SIDE_ROUND = [("classify", 3, "grid"), ("classify", 3, "grid"), ("verify", 3, "grid"), ("verify", 3, "grid"),
              ("higher", 3, "alt"), ("trace", 3, "trace")]
STRATA = 8
COLENGTH_SAMPLE = 6  # validation verdicts compared with sympy, per source


def load_pool(name: str):
    return json.loads((HERE / "pools" / f"{name}.json").read_text())


def payload(entry) -> dict:
    order, m, ell = entry[:3]
    data = {"generators": sorted(order), "order": order, "m": m, "ell": ell}
    if len(entry) == 5:
        data["I"], data["J"] = entry[3], entry[4]
    return data


def argv_for(kind: str, data: dict) -> list[str]:
    argv = ["--format", "json", kind, json.dumps(data, sort_keys=True)]
    if kind == "trace":
        argv += ["--method", "all", "--stretch-syzygy"]
    return argv


# -- set-up -------------------------------------------------------------------


def cli_rounds(rng: random.Random, make_up: list, used_orders: set) -> list[list]:
    """Query rounds of a fixed make-up; no two queries share an arrangement.

    Each pool is sorted by the product of the generators, a proxy for the
    cost of a query, and cut into STRATA strata; the k-th draw from a pool
    takes a random entry of stratum k mod STRATA, so every run asks the
    same mix of cheap and costly queries.  Rounds stop when a stratum runs dry.
    """
    pool = load_pool("cli")
    sources = {}
    for kind in ("grid", "trace"):
        for n, rows in pool[kind].items():
            sources[(kind, int(n))] = rows
    for n, sides in pool["higher"].items():
        for side, rows in sides.items():
            sources[(side, int(n))] = rows
    strata, drawn = {}, {}
    for key in sorted(sources, key=str):
        rows = sorted(sources[key], key=lambda e: (math.prod(e[0]), e))
        strata[key] = [rows[k * len(rows) // STRATA : (k + 1) * len(rows) // STRATA] for k in range(STRATA)]
        for stratum in strata[key]:
            rng.shuffle(stratum)
        drawn[key] = 0

    def draw(key):
        stratum = strata[key][drawn[key] % STRATA]
        drawn[key] += 1
        while stratum:
            entry = stratum.pop()
            if tuple(entry[0]) not in used_orders:
                used_orders.add(tuple(entry[0]))
                return entry
        return None

    rounds = []
    while True:
        queries = []
        for kind, n, source in make_up:
            if source == "alt":
                source = "true" if len(rounds) % 2 == 0 else "false"
            entry = draw((source, n))
            if entry is None:
                return rounds
            queries.append([kind, n, payload(entry)])
        rounds.append(queries)


def dihedral_class(m, ell) -> tuple:
    """Every (m, ell) reached by cyclic shifts and the reversal (which swaps m and ell)."""
    n = len(m)
    out = set()
    for a, b in ((m, ell), (tuple(reversed(ell)), tuple(reversed(m)))):
        for s in range(n):
            out.add((a[s:] + a[:s], b[s:] + b[:s]))
    return tuple(sorted(out))


def setup(workload: str, seed: int, tick=lambda: None) -> dict:
    """A run's inputs; ``tick`` is called between stretches of costly work."""
    rng = random.Random(seed)
    if workload == "cli-queries":
        return {"cli": cli_rounds(rng, MIX_ROUND, set())}
    if workload == "corpus":
        rounds = cli_rounds(rng, SIDE_ROUND, set())
        taken = {(tuple(q[2]["m"]), tuple(q[2]["ell"])) for r in rounds for q in r}
        # The classes, and their order, are the same for every seed.  Each
        # stratum (n, verdict) is sorted by cost in the pool; cut it into
        # STRATA blocks, take one class from each block in turn, and spread
        # the result evenly over the plan: every prefix of the plan then holds
        # the strata in the grid's proportions, each with the same mix of
        # cheap and costly classes.  The 2n tuples of a class cost about the
        # same, so a run's slowest 1% of instances come from one or two
        # classes, and a plan drawn by the seed moves instance_ms_p99 by a
        # quarter from seed to seed.  The seed picks the side-round queries.
        plan = random.Random(0)
        spread = []
        for key, rows in sorted(load_pool("corpus").items()):
            blocks = [rows[k * len(rows) // STRATA : (k + 1) * len(rows) // STRATA] for k in range(STRATA)]
            for block in blocks:
                plan.shuffle(block)
            rows = [block[i] for i in range(max(map(len, blocks))) for block in blocks if i < len(block)]
            u = plan.random()
            spread += [((k + u) / len(rows), key, row) for k, row in enumerate(rows)]
        spread.sort()
        classes = []
        for _, _, (m, ell) in spread:
            cls = dihedral_class(tuple(m), tuple(ell))
            if any(pair in taken for pair in cls):
                continue
            classes.append([[list(a), list(b)] for a, b in cls])
            if len(classes) == CLASSES_PER_ROUND * len(rounds):
                break
        return {"cli": rounds, "classes": classes}
    if workload == "trace-scan":
        # Every semigroup of the pool once, with one seeded arrangement.  The
        # pool is sorted by Frobenius number; cut it into CHECKS_PER_ROUND
        # blocks and deal them out in turn, so that every stretch of
        # CHECKS_PER_ROUND checks holds one semigroup from each block.
        pool = load_pool("trace_scan")
        k = CHECKS_PER_ROUND
        blocks = [pool[b * len(pool) // k : (b + 1) * len(pool) // k] for b in range(k)]
        for block in blocks:
            rng.shuffle(block)
        sample = []
        for i in range(max(map(len, blocks))):
            if i % 2 == 0:
                tick()
            for block in blocks:
                if i >= len(block):
                    continue
                m, ell = rng.choice(block[i][2])
                found = search_instances(m, ell, BOUND)
                if len(found) != 1:
                    raise RuntimeError(f"pool presentation m={m} ell={ell} did not validate")
                inst = found[0]
                sample.append([list(inst.order), m, ell, inst.c])
        return {"cli": cli_rounds(rng, SIDE_ROUND, {tuple(s[0]) for s in sample}), "instances": sample}
    raise ValueError(f"unknown workload {workload}")


# -- operations -----------------------------------------------------------------


def rounds_of(workload: str, inputs: dict):
    """Operations of each round, in order: (kind, reference)."""
    for r, queries in enumerate(inputs["cli"]):
        ops = []
        if workload == "corpus":
            for c in range(CLASSES_PER_ROUND * r, CLASSES_PER_ROUND * (r + 1)):
                ops += [("corpus", (c, j)) for j in range(len(inputs["classes"][c]))]
        elif workload == "trace-scan":
            k = len(inputs["instances"])
            ops += [("check", (CHECKS_PER_ROUND * r + j) % k) for j in range(CHECKS_PER_ROUND)]
        ops += [("cli", (r, q)) for q in range(len(queries))]
        yield ops


def instance_from(order, m, ell, c) -> DeterminantalInstance:
    """An instance validated elsewhere, rebuilt without validating again."""
    return DeterminantalInstance(NumericalSemigroup(order), tuple(order), tuple(m), tuple(ell), c)


def report_fields(rep) -> list:
    return [rep.ng_theorem, rep.ng_oracle, rep.ng_lambda, rep.ag_theorem, rep.ag_nari,
            rep.traces_equal, rep.type_ok, rep.herzog_ok, rep.ap_ok, rep.violations()]


def call(tracer, op, name, fn, *args, top=None):
    """fn(*args), inside a span when tracing; the span id is added to ``top``."""
    if tracer is None:
        return fn(*args)
    with tracer.span(op, name) as sid:
        top.setdefault(name, []).append(sid)
        return fn(*args)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed query, recorded with its traceback
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_op(op: int, kind: str, ref, inputs: dict, tracer) -> tuple[dict, list, dict]:
    """One operation: its record, the instances it checked, its top-level spans.

    A trace-scan check gets an instance object of its own, built before the
    clock starts, so nothing cached on an earlier check's object is reused.
    """
    rec, found, top = {"kind": kind, "ref": ref}, [], {}
    if kind == "check":
        found = [instance_from(*inputs["instances"][ref])]
    c0 = time.thread_time_ns()
    if kind == "cli":
        qkind, _, data = inputs["cli"][ref[0]][ref[1]]
        code, out, err = call(tracer, op, "cli", run_cli, argv_for(qkind, data), top=top)
        rec.update(q=qkind, code=code, out=out, err=err[-2000:])
    else:
        try:
            if kind == "corpus":
                m, ell = inputs["classes"][ref[0]][ref[1]]
                found = call(tracer, op, "determinantal.search", search_instances, m, ell, BOUND, top=top)
                reports = [call(tracer, op, "corpus.check", check_instance, i, top=top) for i in found]
                rec["inst"] = [[list(i.order), i.c] for i in found]
                rec["reports"] = [report_fields(r) for r in reports]
            else:
                rec["report"] = report_fields(call(tracer, op, "corpus.check", check_instance, found[0], top=top))
        except Exception:  # a crash is a failed operation, recorded with its traceback
            rec["error"] = traceback.format_exc()[-2000:]
    rec["ns"] = time.thread_time_ns() - c0
    return rec, found, top


def measure(workload: str, inputs: dict, seconds: float, spans: bool) -> dict:
    """Whole rounds until ``seconds`` have passed.

    With spans, the operations of the first REPLAY_ROUNDS rounds (all of
    them, however long they take, so the counts repeat) are each followed by
    the replay of their inputs through the layers below.  The reference loop
    is timed just before each operation, and the operation carries that time.
    """
    tracer = Tracer() if spans else None
    records, rounds, replayed_ops = [], 0, 0
    start = time.perf_counter()
    for r, ops in enumerate(rounds_of(workload, inputs)):
        replaying = tracer is not None and r < REPLAY_ROUNDS[workload]
        if not replaying and time.perf_counter() - start >= seconds:
            break
        for kind, ref in ops:
            ref_ns = reference_ns()
            rec, found, top = run_op(len(records), kind, ref, inputs, tracer)
            rec["ref_ns"] = ref_ns
            if replaying and "error" not in rec:
                replay_op(tracer, len(records), rec, inputs, found, top)
            records.append(rec)
        rounds += 1
        replayed_ops = len(records) if replaying else replayed_ops
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    span_ns = None
    if tracer is not None:
        if workload == "trace-scan":  # the set-up's validation, cold here as it was there
            for order, m, ell, _ in inputs["instances"]:
                top = {}
                call(tracer, -1, "determinantal.search", search_instances, m, ell, BOUND, top=top)
                replay_search(tracer, -1, top["determinantal.search"][0], tuple(m), tuple(ell))
        probe, t0 = Tracer(), time.thread_time_ns()  # what one span costs, around nothing
        for _ in range(20000):
            call(probe, 0, "probe", int, top={})
        span_ns = (time.thread_time_ns() - t0) / 20000
    problems = check_records(workload, inputs, records)
    if tracer is not None and tracer.counts["replay.disagreements"]:
        problems.append(f"{tracer.counts['replay.disagreements']} replays disagree with the real call")
    return {
        "rounds": rounds,
        "elapsed_s": elapsed,
        "exhausted": rounds == len(inputs["cli"]),
        "peak_rss_mb": peak_rss_mb,
        "records": [{k: v for k, v in r.items() if k not in ("out", "err")} for r in records],
        "problems": problems,
        "span_ns": span_ns,
        "spans": tracer.spans if tracer else [],
        "counts": dict(tracer.counts) if tracer else {},
        "replayed_ops": replayed_ops,
    }


# -- independent checks -----------------------------------------------------------


def check_records(workload: str, inputs: dict, records: list[dict]) -> list[str]:
    """Compare every output with perfbench/checks.py; returns the disagreements."""
    problems: list[str] = []
    facts: dict = {}

    def fact(gens) -> checks.Facts:
        key = tuple(sorted(gens))
        if key not in facts:
            facts[key] = checks.Facts(key)
        return facts[key]

    def same_report(rep, order, m, ell, c, where):
        f = fact(order)
        ng_t, ng_o, ng_l, ag_t, ag_n, teq, type_ok, herzog, ap, viol = rep
        if not (ng_t == ng_o == ng_l == f.nearly_gorenstein):
            problems.append(f"{where}: nearly Gorenstein {rep[:3]} vs {f.nearly_gorenstein}")
        if not (ag_t == ag_n == f.almost_symmetric):
            problems.append(f"{where}: almost Gorenstein {rep[3:5]} vs {f.almost_symmetric}")
        if not (teq and type_ok and f.type == len(order) - 1 and herzog is not False and ap is not False):
            problems.append(f"{where}: report {rep}")
        if viol:
            problems.append(f"{where}: violations {viol}")
        inst = instance_from(order, m, ell, c)
        for route, tr in (("oracle", trace_canonical_oracle(inst.H)), ("lambda", trace_canonical_lambda(inst))):
            if tr.generators != f.trace:
                problems.append(f"{where}: {route} trace {tr.generators} vs {f.trace}")

    # validation verdicts compared with the sympy colength: (order, m, ell, verdict)
    samples = {"accepted": [], "rejected": [], "queried": []}
    if workload == "corpus":
        found_by_class: dict = {}
        for rec in records:
            if rec["kind"] != "corpus" or "error" in rec:
                continue
            c, j = rec["ref"]
            m, ell = inputs["classes"][c][j]
            found_by_class.setdefault(c, set()).add(bool(rec["inst"]))
            for (order, cc), rep in zip(rec["inst"], rec["reports"]):
                same_report(rep, order, m, ell, cc, f"m={m} ell={ell}")
            order = checks.own_degrees(m, ell)
            if order and max(order) <= BOUND and len(set(order)) == len(order) and checks.is_minimal(order):
                samples["accepted" if rec["inst"] else "rejected"].append((order, m, ell, bool(rec["inst"])))
        for c, seen in found_by_class.items():
            if len(seen) != 1:
                problems.append(f"validity differs inside dihedral class {inputs['classes'][c]}")
    if workload == "trace-scan":
        first: dict = {}
        for rec in records:
            if rec["kind"] == "check" and "error" not in rec:
                first.setdefault(rec["ref"], rec["report"])
                if rec["report"] != first[rec["ref"]]:
                    problems.append(f"check_instance changed its answer on {inputs['instances'][rec['ref']]}")
        for ref, rep in first.items():
            order, m, ell, c = inputs["instances"][ref]
            same_report(rep, order, m, ell, c, f"order={order} m={m} ell={ell}")
        samples["accepted"] = [(*row[:3], True) for row in inputs["instances"]]
    for rec in records:
        if rec["kind"] == "cli" and rec["code"] == 0:
            kind, _, data = inputs["cli"][rec["ref"][0]][rec["ref"][1]]
            try:
                problems += check_query(kind, data, json.loads(rec["out"]), fact)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{kind} {data}: unreadable output ({exc})")
            if kind == "classify":
                samples["queried"].append((data["order"], data["m"], data["ell"], True))
    for sample in samples.values():
        for order, m, ell, verdict in sample[:COLENGTH_SAMPLE]:
            if checks.colength_valid(order, m, ell) != verdict:
                problems.append(f"validation said {verdict} for order={order} m={m} ell={ell}; colength disagrees")
    return problems


def check_query(kind: str, data: dict, out: dict, fact) -> list[str]:
    f = fact(data["generators"])
    where = f"{kind} {json.dumps(data, sort_keys=True)}"
    bad = []
    if kind == "classify":
        if not (out["trace_oracle"] == out["trace_lambda"] == list(f.trace)):
            bad.append(f"{where}: traces {out['trace_oracle']} {out['trace_lambda']} vs {list(f.trace)}")
        if not (out["ng_theorem"] == out["ng_oracle"] == out["ng_lambda"] == f.nearly_gorenstein):
            bad.append(f"{where}: nearly Gorenstein answers disagree with {f.nearly_gorenstein}")
        if not (out["ag_theorem"] == out["ag_pseudo_frobenius"] == f.almost_symmetric):
            bad.append(f"{where}: almost Gorenstein answers disagree with {f.almost_symmetric}")
        if f.type != len(data["order"]) - 1:
            bad.append(f"{where}: type {f.type}")
    elif kind == "verify":
        if not (out["traces_equal"] and out["ng_agreement"]):
            bad.append(f"{where}: {out}")
        rows = [[int(t[2:]) for t in r.strip("()").split(", ")] for r in out.get("witness_rows", [])]
        order, m, ell = data["order"], data["m"], data["ell"]
        c = m[1] * order[1] - ell[0] * order[0]
        covered = {e for r in rows for e in r}
        if bool(rows) != f.nearly_gorenstein:
            bad.append(f"{where}: witness rows {bool(rows)} vs nearly Gorenstein {f.nearly_gorenstein}")
        if rows and not (all(checks.lambda_row_ok(r, c, f.H) for r in rows) and set(f.gens) <= covered):
            bad.append(f"{where}: witness rows {rows} are not rows of step {c} covering the generators")
    elif kind == "trace":
        if not (out["oracle"] == out["lambda"] == out["syzygy"] == list(f.trace)):
            bad.append(f"{where}: traces {out['oracle']} {out['lambda']} {out['syzygy']} vs {list(f.trace)}")
    elif kind == "higher":
        I, J = data["I"], data["J"]
        ng = out["nearly_gorenstein"]
        if out["dimension"] != len(I) + len(J) + 1:
            bad.append(f"{where}: dimension {out['dimension']}")
        if len(data["order"]) == 3 and ng != checks.entry_ideal_ng(data["m"], data["ell"], I, J):
            bad.append(f"{where}: {ng} disagrees with the entry ideal")
        if ng:
            base = instance_from(data["order"], data["m"], data["ell"],
                                 homogeneity_constant(data["order"], data["m"], data["ell"]))
            fewer = [(set(I) - {k}, set(J)) for k in I] + [(set(I), set(J) - {k}) for k in J]
            for I2, J2 in fewer:
                if not classify_hd(HigherDimInstance(base, frozenset(I2), frozenset(J2))).is_ng:
                    bad.append(f"{where}: false after dropping to I={sorted(I2)} J={sorted(J2)}")
            if str(out.get("witness", "")).startswith("FAILED"):
                bad.append(f"{where}: witness {out['witness']}")
    return bad


# -- replay -------------------------------------------------------------------------
#
# A replay follows the real call it stands in for, in the same process, and
# calls the public functions of the layers below with the same inputs.  Its
# spans name the real call's span as parent.  validate_defining_ideal finds
# the toric basis the real call has just cached, so its replay covers the
# rest of validation and toric_ideal is replayed beside it.


def replay_op(tr: Tracer, op: int, rec: dict, inputs: dict, found: list, top: dict):
    kind, ref = rec["kind"], rec["ref"]
    if kind == "corpus":
        m, ell = map(tuple, inputs["classes"][ref[0]][ref[1]])
        inst = replay_search(tr, op, top["determinantal.search"][0], m, ell)
        if (inst is None) == bool(found):
            tr.counts["replay.disagreements"] += 1
        for inst, sid in zip(found, top.get("corpus.check", [])):
            replay_check(tr, op, sid, inst)
    elif kind == "check":
        replay_check(tr, op, top["corpus.check"][0], found[0])
    elif rec["code"] == 0:
        qkind, _, data = inputs["cli"][ref[0]][ref[1]]
        replay_query(tr, op, top["cli"][0], qkind, data)


def replay_search(tr: Tracer, op: int, parent, m, ell):
    """search_instances step by step; counts why a tuple gave no instance."""
    if math.prod(m) == math.prod(ell):
        tr.counts["determinantal.reject.degenerate"] += 1
        return None
    d = remark_degrees(m, ell)
    order = tuple(x // math.gcd(*d) for x in d)
    if max(order) > BOUND:
        tr.counts["determinantal.reject.overbound"] += 1
        return None
    if len(set(order)) != len(order):
        tr.counts["determinantal.reject.repeated"] += 1
        return None
    return replay_validate(tr, op, parent, order, m, ell)


def replay_validate(tr: Tracer, op: int, parent, order, m, ell):
    tr.counts["semigroup.construct_calls"] += 1
    with tr.span(op, "semigroup.construct", parent):
        try:
            H = NumericalSemigroup(order)
        except ValueError:
            H = None
    if H is None:
        tr.counts["determinantal.reject.nonminimal"] += 1
        return None
    tr.counts["determinantal.validate_calls"] += 1
    with tr.span(op, "determinantal.validate", parent) as vid:
        try:
            ok = bool(validate_defining_ideal(H, order, m, ell))
        except ResourceLimit:
            ok = None
    inst = DeterminantalInstance(H, tuple(order), tuple(m), tuple(ell), homogeneity_constant(order, m, ell))
    minors = inst.minors
    with tr.span(op, "groebner.minors_gb", vid):
        buchberger(minors)
    try:
        with tr.span(op, "groebner.toric", parent):
            tr.counts["groebner.toric_basis_elems"] += len(toric_ideal(order, seed=minors))
    except ResourceLimit:
        pass
    if ok is None:
        tr.counts["determinantal.reject.resource_limit"] += 1
        return None
    if not ok:
        tr.counts["determinantal.reject.mismatch"] += 1
        return None
    tr.counts["determinantal.instances"] += 1
    return inst


def replay_traces(tr: Tracer, op: int, parent, inst):
    with tr.span(op, "ideals.oracle", parent) as oid:
        trace_canonical_oracle(inst.H)
    with tr.span(op, "ideals.canonical", oid):
        K = canonical_ideal(inst.H)
    with tr.span(op, "ideals.colon", oid):
        unit_ideal(inst.H).colon(K)
    with tr.span(op, "lambda_rows.trace", parent):
        trace_canonical_lambda(inst)


def replay_check(tr: Tracer, op: int, parent, inst):
    replay_traces(tr, op, parent, inst)
    with tr.span(op, "determinantal.classify", parent):
        classify_nearly_gorenstein(inst)


def replay_query(tr: Tracer, op: int, parent, kind: str, data: dict):
    inst = replay_validate(tr, op, parent, tuple(data["order"]), tuple(data["m"]), tuple(data["ell"]))
    if kind == "higher":
        hd = HigherDimInstance(inst, frozenset(data["I"]), frozenset(data["J"]))
        with tr.span(op, "higher_dim.classify", parent):
            ng = classify_hd(hd).is_ng
        if ng:
            try:
                with tr.span(op, "higher_dim.witness_rows", parent):
                    rows = witness_rows(hd)
            except NoTabulatedWitness:
                return
            tr.counts["higher_dim.verify_calls"] += 1
            with tr.span(op, "higher_dim.verify", parent):
                verify_witness(hd, rows)
        return
    replay_traces(tr, op, parent, inst)
    if kind in ("classify", "verify"):
        with tr.span(op, "determinantal.classify", parent):
            ng = classify_nearly_gorenstein(inst).is_ng
        if kind == "verify" and ng:
            with tr.span(op, "lambda_rows.witness", parent):
                theorem_if_witnesses(inst)
    if kind == "trace":
        with tr.span(op, "lambda_rows.syzygy", parent) as sid:
            trace_canonical_syzygy(inst)
        _, M = build_matrices(HigherDimInstance(inst))
        with tr.span(op, "groebner.kernel", sid):
            kernel_over_quotient(M, inst.minors)


# -- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("phase", choices=("setup", "measure"))
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--inputs")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--spans", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.phase == "setup":
        clock = ScaledClock()
        result = setup(args.workload, args.seed, clock.tick)
        clock.tick()
        print(json.dumps({"cpu_s": clock.cpu_ns / 1e9, "scaled_s": clock.scaled_ns / 1e9}))
    else:
        inputs = json.loads(Path(args.inputs).read_text())
        result = measure(args.workload, inputs, args.seconds, args.spans)
    Path(args.out).write_text(json.dumps(result, separators=(",", ":"), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
