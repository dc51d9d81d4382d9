#!/usr/bin/env python3
"""Repo benchmark: builds the driver from source, runs one workload and
prints the run's metrics as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload dss_paper --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(the traced run also writes its spans and self-time table next to the
build). Build output and a human-readable summary go to stderr. Metric
names, units and the timing protocol are in perfbench/README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats as bs  # noqa: E402

WORKLOADS = ("dss_paper", "oltp_rw", "tenant_stream")
# Stage families whose time is simulator replay (plan builds included).
REPLAY_PREFIXES = ("sim.", "frontend.", "backend.", "trace_io.stream")
LAYOUTS = ("orig", "ph", "torr", "auto", "ops", "ops_part")
BACKEND_STALLS = ("frontend_stall_cycles", "dispatch_stall_iq",
                  "dispatch_stall_rob", "issue_stall_cycles")
MODELLED = ("trace_bytes_per_event", "miss_pct", "fetch_ipc", "tc_ipc",
            "core_ipc", "worst_tenant_miss_pct")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures and builds the driver; returns (its path or None on a
    build failure, the build directory)."""
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, base, "perfbench")
    cmds = [["cmake", "--build", build_dir, "--target", "perfbench_driver",
             "-j", "4"]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None, build_dir
    return os.path.join(build_dir, "perfbench_driver"), build_dir


def family(stage):
    """A stage's family: its name up to the first ':' or '#' (stages are
    split per cell, layout and call: "sim.missrate:ops/2048#3")."""
    return re.split(r"[:#]", stage, maxsplit=1)[0]


def is_replay(stage):
    return family(stage).startswith(REPLAY_PREFIXES)


def best_pieces(logs, pred):
    """Sum over the stages selected by `pred` of each stage's best round:
    every stage is timed separately, so each keeps its own fastest round
    (0.0 when no log ran any)."""
    names = {k for l in logs for k in l["stages"] if pred(k)}
    return sum(bs.best(l["stages"][k] for l in logs if k in l["stages"])
               for k in names)


def best_ops(logs):
    """Each op's best over the logs that ran ops."""
    return bs.best_per_op(l["ops"] for l in logs)


def best_job(logs):
    """Best-of-rounds time of a whole round (or setup repeat), taken piece by
    piece: each stage and each op at its best round, plus the best of what
    the round spent outside them. Phases of the machine are shorter than a round, so this is
    steadier than the single fastest round and still only drops added time."""
    rest = bs.best(l["seconds"] - sum(l["stages"].values()) - sum(l["ops"])
                   for l in logs)
    ops = sum(best_ops(logs)) if logs[0]["ops"] else 0.0
    return best_pieces(logs, lambda k: True) + ops + rest


def rate(work, seconds, scale=1e6):
    return work / scale / seconds if seconds else 0.0


def record_logs(raw, measured):
    """Where the workload records its ops: its rounds, or (tenant_stream)
    its setup repeats; with the events recorded per log."""
    if measured[0]["ops"]:
        return measured, raw["work"]["record"]
    return raw["setup"], raw["setup_work"]["record"]


def end_to_end(raw, measured):
    m = {}
    m["setup_s"] = best_job(raw["setup"])
    m["job_s"] = best_job(measured)
    logs, events = record_logs(raw, measured)
    ops = best_ops(logs)
    m["record_mev_per_s"] = rate(events, sum(ops))
    rep_work = sum(v for k, v in raw["work"].items() if is_replay(k))
    m["replay_mev_per_s"] = rate(rep_work, best_pieces(measured, is_replay))
    m["op_ms_p50"] = 1e3 * bs.percentile(ops, 0.5)
    p90, beyond, ok = bs.tail_percentile(ops, 0.9)
    m["op_ms_p90"] = 1e3 * p90
    log(f"ops: {len(ops)} samples, {beyond} beyond p90"
        + ("" if ok else f" (fewer than {bs.MIN_TAIL_SAMPLES}: not a tail)"))
    m["peak_rss_mb"] = raw["peak_rss_mb"]
    for name in MODELLED:
        m[name] = raw["modelled"][name]
    return m


def per_layer(raw, measured, spans_path):
    work = raw["work"]
    every = raw["setup"] + raw["prep"] + raw["rounds"] + raw["probes"]
    m = {}

    def best_of(logs, fam):
        return best_pieces(logs, lambda k: family(k) == fam)

    def rate_of(fam, scale=1e6):
        return rate(work.get(fam, 0.0), best_of(measured, fam), scale)

    m["db.build_s"] = best_of(every, "db.build")
    exec_s = best_of(raw["probes"], "db.exec")
    m["db.exec_ms"] = 1e3 * exec_s
    for name in ("db.rows_read", "db.rows_inserted", "trace.events"):
        m[name] = raw["layer"].get(name, 0.0)
    logs, _ = record_logs(raw, measured)
    record_s = sum(best_ops(logs))
    m["trace.record_overhead_pct"] = (
        100.0 * (record_s - exec_s) / exec_s if exec_s else 0.0)
    m["profile.wcfg_ms"] = 1e3 * best_of(measured, "profile.wcfg")
    for layout in LAYOUTS:
        m[f"core.layout_ms.{layout}"] = 1e3 * best_of(measured,
                                                      f"core.layout.{layout}")
    m["sim.plan_ms"] = 1e3 * best_of(measured, "sim.plan")
    m["sim.missrate_mev_per_s"] = rate_of("sim.missrate")
    m["sim.seq3_mev_per_s"] = rate_of("sim.seq3")
    m["sim.tc_mev_per_s"] = rate_of("sim.tc")
    m["sim.tc_hit_pct"] = raw["layer"].get("sim.tc_hit_pct", 0.0)
    m["frontend.mev_per_s"] = rate_of("frontend.gshare")
    m["frontend.mpki"] = raw["layer"].get("frontend.mpki", 0.0)
    m["backend.mev_per_s"] = rate_of("backend.ooo")
    for stall in BACKEND_STALLS:
        m[f"backend.{stall}"] = raw["layer"].get(f"backend.{stall}", 0.0)
    m["workload.compose_mev_per_s"] = rate_of("workload.compose")
    m["workload.context_switches"] = raw["layer"].get(
        "workload.context_switches", 0.0)
    m["trace.write_mb_per_s"] = rate_of("trace_io.write")
    m["trace.stream_mev_per_s"] = rate_of("trace_io.stream")
    m["trace.file_bytes"] = raw["layer"].get("trace.file_bytes", 0.0)

    # Spans: odd rounds were traced, even rounds (after the warm-up) not.
    # The self-time table is the fastest traced round's, so it sums to that
    # round's duration; the overhead compares whole rounds, not pieces.
    traced = [l for l in measured if l["traced"]]
    untraced = [l for l in measured if not l["traced"]]
    best_traced = min(traced, key=lambda l: l["seconds"])
    spans = raw["spans"]
    selfs = bs.self_times(spans, bs.round_root(spans, best_traced["id"]))
    for layer in bs.LAYERS:
        m[f"self_ms.{layer}"] = 1e3 * selfs[layer]
    m["span.traced_job_s"] = best_traced["seconds"]
    m["span.untraced_job_s"] = bs.best(l["seconds"] for l in untraced)
    m["span.overhead_ms"] = 1e3 * (m["span.traced_job_s"]
                                   - m["span.untraced_job_s"])
    m["span.count"] = float(len(spans))

    with open(spans_path, "w") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "round"],
                   "spans": spans}, f)
    log(f"spans: {len(spans)} written to {spans_path}")
    log(f"self time per layer, round {best_traced['id']} "
        f"(traced job {best_traced['seconds']:.4f} s):")
    for layer in bs.LAYERS:
        log(f"  {layer:10s} {1e3 * selfs[layer]:10.3f} ms")
    log(f"  {'sum':10s} {1e3 * sum(selfs.values()):10.3f} ms; tracing "
        f"overhead {m['span.overhead_ms']:.3f} ms")
    return m


def labelled(values, declared):
    """The metrics with their units from BENCHMARK.json, which must list
    exactly the metrics computed."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise ValueError("computed metrics differ from BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    driver, build_dir = build(root)
    if driver is None:
        return 1
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=150)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout)
    measured = [l for l in raw["rounds"] if l["id"] > 0]  # 0 is the warm-up

    for failure in raw["failures"]:
        log("FAILED: " + failure)
    correct = raw["failed"] == 0
    metrics = {}
    if correct:
        if args.trace:
            spans_path = os.path.join(
                build_dir, f"spans_{args.workload}_{args.seed}.json")
            values = per_layer(raw, measured, spans_path)
            declared = bench["per_layer"]
        else:
            values = end_to_end(raw, measured)
            declared = bench["end_to_end"]
        metrics = labelled(values, declared)
    log(f"{args.workload}: {len(measured)} measured rounds, "
        f"{raw['attempted']} ops attempted, {raw['failed']} failed")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
