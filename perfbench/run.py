#!/usr/bin/env python3
"""End-to-end benchmark of tinflow: batch flow, pattern search and
streaming ingest, split by layer.  See NOTES.md for what each workload
and metric means.

    python3 perfbench/run.py --workload batch-btc --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds the benchmark binary from source
into .bench_build/, generates the workload's inputs from the seed,
measures for about --seconds seconds with tracing off (--trace 0: the
end-to-end metrics) or adds one traced answer (--trace 1: the
per-layer metrics), checks every answer, and prints each metric with
its unit followed by one JSON result line.  Exits nonzero, without a
result line, when the tree cannot be built or a run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "bench.exe")
TINFLOW = os.path.join(BUILD, "default", "bin", "tinflow.exe")

WORKLOADS = ["batch-btc", "patterns-prosper", "serve-btc"]
END_TO_END = [
    ("setup_s", "s"),
    ("answer_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lat_ms_p50", "ms"),
    ("lat_ms_p99", "ms"),
]
# Per-layer metrics read from the untraced run beside the traced one.
HARNESS = [
    ("serve.status_ms_p95", "ms", "GET /status latency from due time, open loop: serve-btc"),
    ("serve.alert_ms_p50", "ms", "latency of POSTs answered with tick alerts: serve-btc"),
    ("serve.ingest_per_s", "1/s", "saturated closed-loop ingest rate (answer_s): serve-btc"),
    ("gen.late_ms_p99", "ms", "open-loop generator lateness (lat_ms_*): serve-btc"),
    ("gen.late_ms_max", "ms", "open-loop generator lateness (lat_ms_*): serve-btc"),
    ("trace.overhead", "x", "traced over untraced answer time, first input: every workload"),
]


class BenchError(Exception):
    pass


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def env():
    # Keep every byte the build writes inside the checkout.
    e = dict(os.environ)
    e["DUNE_CACHE"] = "disabled"
    e["TMPDIR"] = os.path.join(BUILD, "tmp")
    return e


def build(targets=("./perfbench/bench.exe",)):
    for f in ("dune-project", os.path.join("lib", "core", "dune"), os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, f)):
            raise BenchError("not a tinflow source tree: %s is missing" % f)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD, "--profile", "release"] + list(targets)
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env(), stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build failed: %s" % e)
    if r.returncode != 0:
        raise BenchError("build failed with exit code %d" % r.returncode)


# Every run ends within this many seconds after the build.
DEADLINE_S = 170
deadline = None
running = None  # the benchmark binary's process, while it runs


def stop(signum, _frame):
    if running is not None and running.poll() is None:
        os.killpg(running.pid, signal.SIGKILL)
        running.wait()
    sys.exit(128 + signum)


def bench(args):
    """Run the benchmark binary; its last stdout line is a JSON object.
    It runs in a process group of its own, so that a timeout also stops
    the answers it has forked."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before %s" % " ".join(args[:3]))
    global running
    try:
        p = running = subprocess.Popen([EXE] + args, cwd=ROOT, env=env(), stdout=subprocess.PIPE,
                                       stderr=sys.stderr, text=True, start_new_session=True)
    except OSError as e:
        raise BenchError("%s: %s" % (" ".join(args[:3]), e))
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise BenchError("%s: timed out" % " ".join(args[:3]))
    finally:
        running = None
    r = subprocess.CompletedProcess(p.args, p.returncode, out)
    if r.returncode == 3:
        raise BenchError("skipped (see above); no number is recorded")
    if r.returncode != 0:
        raise BenchError("%s exited with code %d" % (" ".join(args[:3]), r.returncode))
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no result" % " ".join(args[:3]))
    return json.loads(lines[-1])


def value(res, name, default=None):
    m = res.get("metrics", {}).get(name)
    if m is not None:
        return m["value"]
    if name in res:
        return res[name]
    if default is None:
        raise BenchError("result lacks %s" % name)
    return default


def measure(workload, seed, seconds, trace, work, scale=None, inputs=None):
    gen = ["gen", "--workload", workload, "--seed", str(seed), "--dir", work]
    if scale is not None:
        gen += ["--scale", str(scale)]
    if inputs is not None:
        gen += ["--inputs", str(inputs)]
    setup = bench(gen)
    run = ["run", "--workload", workload, "--dir", work]
    # Beside a traced answer, the untraced run only supplies the base of
    # trace.overhead and the harness metrics: half the time will do.
    plain = bench(run + ["--seconds", str(seconds if not trace else max(1, seconds // 2))])
    setup_s = setup["setup_s"] + plain.get("server_start_s", 0.0)
    if not trace:
        metrics = {"setup_s": (setup_s, "s")}
        for name, unit in END_TO_END[1:]:
            metrics[name] = (value(plain, name), unit)
        return plain["correct"], plain["attempted"], plain["failed"], metrics, {}
    traced = bench(run + ["--seconds", "0", "--trace-file", os.path.join(work, "trace.json")])
    metrics = {name: (m["value"], m["unit"]) for name, m in traced["metrics"].items()}
    targets = dict(traced.get("targets", {}))
    for name, unit, target in HARNESS:
        if name == "trace.overhead":
            v = traced["traced_answer_s"] / plain["first_input_answer_s"]
        else:
            v = value(plain, name, 0.0)
        metrics[name] = (v, unit)
        targets[name] = target
    return (plain["correct"] and traced["correct"], plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], metrics, targets)


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--scale", type=float, default=None,
                    help="input size against Spec's full size (tests use small sizes)")
    ap.add_argument("--inputs", type=int, default=None,
                    help="independent inputs per run (tests use fewer)")
    ap.add_argument("--keep", metavar="DIR", default=None,
                    help="work in DIR and keep the inputs and trace there")
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    work = a.keep or os.path.join(BUILD, "work", "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    global deadline
    try:
        build()
        deadline = time.monotonic() + DEADLINE_S
        os.makedirs(work, exist_ok=True)
        correct, attempted, failed, metrics, targets = measure(
            a.workload, a.seed, a.seconds, a.trace == 1, work, a.scale, a.inputs)
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        if a.keep is None:
            shutil.rmtree(work, ignore_errors=True)
    print("%s, seed %d, %s run: correct=%s attempted=%d failed=%d"
          % (a.workload, a.seed, "traced" if a.trace else "untraced", correct, attempted, failed))
    for name, (v, unit) in metrics.items():
        target = targets.get(name)
        print("  %-40s %14s %-11s%s" % (name, fmt(v), unit, "  -> " + target if target else ""))
    print(json.dumps({
        "correct": bool(correct) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
