#!/usr/bin/env python3
"""The pkvd benchmark: one command, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds pkvd and the benchmark client (perfbench/pb.ml), runs one workload
against a fresh pkvd in its shipped default configuration, checks every reply
and the acked writes after a kill -9, and prints a report followed, as the
last line, by one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are its per-layer ones.

Other modes:
    --repeat N     run N times (seeds N0..N0+N-1) and print each end-to-end
                   metric's median, quartiles and spread against its bound
    --self-test    a short smoke run of every workload: every metric prints
                   with its unit, and an injected model fault is caught

See perfbench/README.md for the workloads and the noise measurements.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

RUN_DIR = ".perfbench_run"
PB = os.path.join("_build", "default", "perfbench", "pb.exe")
PKVD = os.path.join("_build", "default", "bin", "pkvd.exe")
WORKLOADS = ["ingest_seq", "read_mostly", "string_churn"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Build pkvd and pb from the checkout's sources; False on any failure."""
    needed = ["dune-project", "bin/pkvd.ml", "lib/server/core.ml", "perfbench/pb.ml"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        log("perfbench: not a pkvd source checkout (missing %s)" % ", ".join(missing))
        return False
    if shutil.which("dune") is None:
        log("perfbench: dune is not on PATH")
        return False
    r = subprocess.run(["dune", "build", "--root", ".", PKVD, PB],
                       stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def pb(args, env=None, timeout=170):
    """Run pb.exe and return the JSON object on its last stdout line.  pb
    and the pkvd processes it starts share a process group, which is
    killed whole if pb overruns."""
    p = subprocess.Popen([PB] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=env, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise
    r = subprocess.CompletedProcess(p.args, p.returncode, out, err)
    if r.returncode != 0:
        raise RuntimeError("pb %s failed (%d): %s" % (args[0], r.returncode, r.stderr.strip()[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def fresh_run_dir():
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)


def drive(workload, seed, seconds, trace, fault=False):
    args = ["drive", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--pkvd", PKVD, "--dir", RUN_DIR]
    if fault:
        args += ["--inject-fault", "1"]
    return pb(args)


def end_to_end(raw):
    """The end-to-end metrics of one drive, with their sample counts."""
    attempted = raw["attempted"]
    return {
        "throughput_kops": (raw["throughput_kops"], raw["throughput_samples"]),
        "read_p50_us": (raw["read_p50_us"], raw["read_samples"]),
        "read_p99_us": (raw["read_p99_us"], raw["read_samples"]),
        "write_p50_us": (raw["write_p50_us"], raw["write_samples"]),
        "write_p99_us": (raw["write_p99_us"], raw["write_samples"]),
        "fences_per_op": (raw["fences_per_op"], raw["fences_samples"]),
        "space_amp": (raw["space_amp"], raw["live_bytes"]),
        "restart_s": (raw["restart_s"], raw["restart_samples"]),
        "setup_s": (raw["setup_s"], raw["setup_samples"]),
        "ok_frac": (1.0 - raw["failed"] / max(1, attempted), attempted),
    }


def check_trace(path):
    """Well-nesting of the client's Chrome trace: on each lane, spans obey
    stack discipline; each child lies inside its parent and shares its
    request id.  Returns (spans checked, list of problems)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    eps = 0.002  # microseconds: the export's 1 ns grid, rounded
    problems = []
    by_span = {}
    lanes = {}
    for e in events:
        for k in ("name", "ph", "ts", "dur", "tid", "args"):
            if k not in e:
                problems.append("event without %s: %r" % (k, e))
                break
        else:
            by_span[e["args"]["span"]] = e
            lanes.setdefault(e["tid"], []).append(e)
    for e in by_span.values():
        p = e["args"]["parent"]
        if p == 0:
            continue
        par = by_span.get(p)
        if par is None:
            problems.append("orphan span %s" % e["args"]["span"])
        elif par["args"]["req"] != e["args"]["req"]:
            problems.append("span %s and its parent belong to different requests" % e["args"]["span"])
        elif e["ts"] < par["ts"] - eps or e["ts"] + e["dur"] > par["ts"] + par["dur"] + eps:
            problems.append("span %s leaves its parent" % e["args"]["span"])
    for tid, evs in lanes.items():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in evs:
            while stack and stack[-1] <= e["ts"] + eps:
                stack.pop()
            end = e["ts"] + e["dur"]
            if stack and end > stack[-1] + eps:
                problems.append("lane %s: span %s overlaps without nesting" % (tid, e["args"]["span"]))
            stack.append(end)
    return len(by_span), problems[:10]


def per_layer(workload, seed, seconds):
    """The traced run: pkvd with the client's spans on, then the layer
    ladder under pkvd's telemetry switches and under OBS_DISABLED."""
    raw = drive(workload, seed, seconds, 1)
    prod = pb(["ladder", "--workload", workload, "--seed", str(seed), "--dir", RUN_DIR])
    env = dict(os.environ, OBS_DISABLED="1")
    off = pb(["ladder", "--workload", workload, "--seed", str(seed), "--dir", RUN_DIR], env=env)
    spans, problems = check_trace(os.path.join(RUN_DIR, "client_trace.json"))
    layer = dict(raw)
    layer.update(prod)
    layer["obs.fences_per_op"] = prod["store.fences_per_op"] - off["store.fences_per_op"]
    layer["obs.flushes_per_op"] = prod["store.flushes_per_op"] - off["store.flushes_per_op"]
    layer["obs.tax_ns_per_op"] = prod["l3.ns_per_op"] - off["l3.ns_per_op"]
    return raw, layer, prod, off, spans, problems


def report_e2e(workload, seed, e2e, raw):
    print("pkvd benchmark  workload=%s seed=%d" % (workload, seed))
    print("  %-18s %14s  %-6s %9s" % ("metric", "value", "unit", "samples"))
    units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    for name, (v, n) in e2e.items():
        print("  %-18s %14.4f  %-6s %9d" % (name, v, units.get(name, ""), n))
    print("  %-18s %14.6f  %-6s %9d" % ("fail_frac", raw["failed"] / max(1, raw["attempted"]),
                                         "1", raw["attempted"]))
    print("  read-back after kill -9: %d bindings, %d wrong" % (raw["readback"], raw["readback_failed"]))


def report_layers(layer, prod, off, spans, problems):
    spec = load_spec()
    print("per-layer (traced run)")
    for m in spec["per_layer"]:
        print("  %-32s %16.4f  %s" % (m["name"], layer[m["name"]], m["unit"]))
    print("telemetry tax: ladder under pkvd's switches vs OBS_DISABLED")
    print("  %-20s %14s %14s %14s" % ("row", "production", "OBS_DISABLED", "difference"))
    for row in ("l1.ns_per_call", "l1.fences_per_call", "l1.flushes_per_call",
                "l2.ns_per_op", "l2.fences_per_op", "l2.flushes_per_op",
                "l3.ns_per_op", "store.fences_per_op", "store.flushes_per_op"):
        print("  %-20s %14.4f %14.4f %14.4f" % (row, prod[row], off[row], prod[row] - off[row]))
    print("client trace: %d spans, %s; tracing overhead %.4f (traced / untraced throughput)"
          % (spans, "well nested" if not problems else "NOT well nested", layer["client.trace_overhead"]))
    for p in problems:
        print("  " + p)


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def one_run(workload, seed, seconds, trace, fault=False):
    """One benchmark run; returns the result object (not yet printed)."""
    fresh_run_dir()
    spec = load_spec()
    if trace:
        raw, layer, prod, off, spans, problems = per_layer(workload, seed, seconds)
        report_e2e(workload, seed, end_to_end(raw), raw)
        report_layers(layer, prod, off, spans, problems)
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        ok = not problems and spans > 0
    else:
        raw = drive(workload, seed, seconds, 0, fault=fault)
        e2e = end_to_end(raw)
        report_e2e(workload, seed, e2e, raw)
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
        ok = True
    ok = ok and raw["failed"] == 0 and all(finite(m["value"]) for m in metrics.values())
    return {"correct": ok, "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}


def repeat(workload, seed0, seconds, n):
    """Steadiness report: n runs with seeds seed0.., each metric's median,
    quartiles and spread (IQR / median) against a third of its bound."""
    spec = load_spec()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(n):
        res = one_run(workload, seed0 + i, seconds, 0)
        print(json.dumps(res), flush=True)
        if not res["correct"]:
            log("perfbench: run with seed %d was not correct" % (seed0 + i))
        for k in values:
            values[k].append(res["metrics"][k]["value"])
    print("steadiness  workload=%s seeds=%d..%d seconds=%s" % (workload, seed0, seed0 + n - 1, seconds))
    print("  %-16s %12s %12s %12s %8s %8s  %s" % ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    steady = True
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO NOISY")
        if m["name"] != "setup_s" and spread > m["bound"]:
            steady = False
        print("  %-16s %12.4f %12.4f %12.4f %8.4f %8.4f  %s" % (m["name"], q1, med, q3, spread, m["bound"], verdict))
    return steady


def self_test():
    """Short smoke run: every named metric prints with its unit, the checks
    pass on a healthy pkvd, and an injected model fault is caught."""
    spec = load_spec()
    failures = []
    for w in WORKLOADS:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = one_run(w, 1, 2, trace)
            for m in names:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not finite(got["value"]):
                    failures.append("%s trace=%d: metric %s missing or malformed" % (w, trace, m["name"]))
            if not res["correct"]:
                failures.append("%s trace=%d: a healthy run was not correct" % (w, trace))
        res = one_run(w, 1, 2, 0, fault=True)
        if res["correct"] or res["failed"] == 0:
            failures.append("%s: the injected model fault went unnoticed" % w)
    for f in failures:
        print("self-test FAIL: " + f)
    print("self-test %s" % ("passed" if not failures else "FAILED"))
    return not failures


def main():
    ap = argparse.ArgumentParser(description="pkvd benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not os.path.exists("BENCHMARK.json") or not build():
        sys.exit(2)
    t0 = time.time()
    try:
        if a.self_test:
            ok = self_test()
        elif a.repeat:
            ok = repeat(a.workload or "read_mostly", a.seed, a.seconds, a.repeat)
        else:
            if a.workload is None:
                ap.error("--workload is required")
            res = one_run(a.workload, a.seed, a.seconds, a.trace)
            log("perfbench: %.1f s" % (time.time() - t0))
            print(json.dumps(res))
            ok = True
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
