#!/usr/bin/env python3
"""The benchmark's own test.  Run from the repository root:

    python3 perfbench/test_bench.py

For every workload, at a small size and one seed, it makes two traced
runs and checks that

- both runs are correct and every count metric (unit "count": stage
  counts, pivots, touches, tickets, instances, rows recomputed,
  rebuilds, ticks, alerts, subgraphs, table rows) is identical between
  them — later count-based claims rest on this;
- the per-layer self-times equal what `tinflow obs report --json`
  reads from the same trace file;
- another seed generates different input files.

Exits nonzero if any check fails.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL = {"batch-btc": 0.02, "patterns-prosper": 0.05, "serve-btc": 0.02}
INPUTS = 2
SEED = 7

# Per-layer metric -> the span whose self-time (or count) it reports.
SELF_MS = {
    "io.load_ms": "io.load",
    "extract.run_ms": "extract.extract",
    "preprocess.self_ms": "pipeline.preprocess",
    "simplify.self_ms": "pipeline.simplify",
    "greedy.self_ms": "pipeline.greedy",
    "lp.solve_self_ms": "lp.solve",
    "lp.build_self_ms": "pipeline.lp",
    "time_expand.self_ms": "pipeline.time_expand",
    "catalog.search_self_ms": "catalog.search",
    "ingest.decode_ms": "ingest.parse_body",
    "daemon.ingest_self_ms": "serve.ingest",
    "daemon.tick_self_ms": "serve.tick",
    "daemon.status_handler_ms": "daemon./status",
}
SPAN_COUNTS = {"lp.solves": "lp.solve", "time_expand.calls": "pipeline.time_expand"}

failures = []


def check(cond, msg):
    print(("ok    " if cond else "FAIL  ") + msg, flush=True)
    if not cond:
        failures.append(msg)


def traced_run(workload, seed, work):
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    r = subprocess.run(
        [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1", "--scale", str(SMALL[workload]),
         "--inputs", str(INPUTS), "--keep", work],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if r.returncode != 0:
        raise SystemExit("%s: run.py exited with code %d" % (workload, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def digest(work):
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(work)):
        for f in sorted(files):
            if f != "trace.json":
                with open(os.path.join(dirpath, f), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def obs_report(trace):
    r = subprocess.run([run.TINFLOW, "obs", "report", "--top", "100000", "--json", "-", trace],
                       cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    check(r.returncode == 0, "tinflow obs report reads %s as one trace tree" % os.path.basename(trace))
    return json.loads(r.stdout)


def close(a, b):
    # The report prints %.6g.
    return abs(a - b) <= 1e-5 * max(abs(a), abs(b)) + 1e-6


def main():
    run.build(("./perfbench/bench.exe", "./bin/tinflow.exe"))
    scratch = os.path.join(run.BUILD, "test")
    for workload in run.WORKLOADS:
        a_dir, b_dir, c_dir = (os.path.join(scratch, workload + x) for x in ("-a", "-b", "-c"))
        a = traced_run(workload, SEED, a_dir)
        b = traced_run(workload, SEED, b_dir)
        check(a["correct"] and b["correct"] and a["failed"] == 0 and b["failed"] == 0,
              "%s: both traced runs are correct" % workload)
        counts = [n for n, m in a["metrics"].items() if m["unit"] == "count"]
        differ = [n for n in counts if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        check(not differ, "%s: %d count metrics identical across runs%s"
              % (workload, len(counts), (": " + ", ".join(differ)) if differ else ""))
        check(digest(a_dir) == digest(b_dir), "%s: the same seed writes the same inputs" % workload)

        report = obs_report(os.path.join(a_dir, "trace.json"))
        selfs = {s["name"]: s for s in report["self_times"]}
        bad = []
        for metric, span in SELF_MS.items():
            want = selfs[span]["self_ms"] if span in selfs else 0.0
            if not close(a["metrics"][metric]["value"], want):
                bad.append("%s %r vs %r" % (metric, a["metrics"][metric]["value"], want))
        for metric, span in SPAN_COUNTS.items():
            want = selfs[span]["count"] if span in selfs else 0
            if a["metrics"][metric]["value"] != want:
                bad.append("%s %r vs %r" % (metric, a["metrics"][metric]["value"], want))
        if workload == "batch-btc" and report["chunks"] is not None:
            if not close(a["metrics"]["batch.imbalance"]["value"], report["chunks"]["imbalance"]):
                bad.append("batch.imbalance")
        check(not bad, "%s: per-layer self-times equal tinflow obs report%s"
              % (workload, (": " + "; ".join(bad)) if bad else ""))

        shutil.rmtree(c_dir, ignore_errors=True)
        os.makedirs(c_dir)
        subprocess.run([run.EXE, "gen", "--workload", workload, "--seed", str(SEED + 1), "--dir", c_dir,
                        "--inputs", str(INPUTS), "--scale", str(SMALL[workload])],
                       cwd=run.ROOT, stdout=subprocess.DEVNULL, check=True, timeout=300)
        check(digest(c_dir) != digest(a_dir), "%s: another seed writes other inputs" % workload)
    shutil.rmtree(scratch, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
