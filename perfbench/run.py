#!/usr/bin/env python3
"""Repository benchmark for the P4DB simulator.

Builds perfbench_harness (perfbench/CMakeLists.txt) into .bench_build, then
repeats one workload for --seconds of host time, one fresh process per
repetition, and prints every metric by name and unit as a median with
quartiles and a sample count. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  --trace 0   end-to-end metrics from untraced repetitions
  --trace 1   per-layer metrics from traced repetitions (spans written to
              .bench_build/results/)

Usage (from the repository root):
  python3 perfbench/run.py --workload ycsb_p4db --seed 42 --seconds 20 --trace 0
  python3 perfbench/run.py                 # every workload, seed 42

Workloads, metrics and checks: perfbench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "perfbench_harness"
RESULTS = BUILD / "results"

WORKLOADS = ["ycsb_p4db", "smallbank_noswitch", "tpcc_p4db", "ycsb_openloop_t2"]
# Workloads on the sharded runtime: once per invocation, outside the timed
# repetitions, a threads=1 run must decide exactly what the timed runs did.
SHARDED = {"ycsb_openloop_t2"}

# (name, unit). failed_ratio is printed but left out of the result JSON's
# metrics: it is 0 on a healthy run, and the JSON's attempted/failed carry it.
END_TO_END = [
    ("wall_txn_per_s", "txn/s"),
    ("setup_s", "s"),
    ("allocs_per_txn", "allocs/txn"),
    ("peak_rss_mb", "MiB"),
    ("sim_txn_per_s", "txn/s"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_p999_us", "us"),
    ("failed_ratio", "ratio"),
]
NOT_IN_JSON = {"failed_ratio"}

PER_LAYER = [
    ("sim.events_per_txn", "events/txn"),
    ("sim.ns_per_event", "ns/event"),
    ("sim.parallel_speedup", "x"),
    ("switchsim.passes_per_txn", "passes/txn"),
    ("switchsim.recircs_per_txn", "recircs/txn"),
    ("switchsim.pipeline_ns_per_txn", "ns/txn"),
    ("switchsim.codec_ns_per_packet", "ns/packet"),
    ("core.compile_ns_per_txn", "ns/txn"),
    ("core.schema_s", "s"),
    ("core.offload_s", "s"),
    ("core.commit_ratio", "ratio"),
    ("core.batch_fill", "txns/batch"),
    ("db.table_ns_per_access", "ns/access"),
    ("db.rows_per_txn", "rows/txn"),
    ("db.lock_ns_per_acquire", "ns/acquire"),
    ("db.lock_waits_per_txn", "waits/txn"),
    ("db.wal_ns_per_record", "ns/record"),
    ("db.wal_records_per_txn", "records/txn"),
    ("net.messages_per_txn", "msgs/txn"),
    ("net.bytes_per_txn", "bytes/txn"),
    ("workload.next_ns_per_txn", "ns/txn"),
    ("bench.unattributed_ns_per_txn", "ns/txn"),
    ("bench.trace_overhead", "x"),
]

MIN_REPS = {0: 3, 1: 1}
REP_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result (build or harness failure)."""


# ------------------------------------------------------------- arguments --

def _uint(text):
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _seconds(text):
    value = _uint(text)
    if not 1 <= value <= 3600:
        raise argparse.ArgumentTypeError("must be in [1, 3600]")
    return value


def _trace(text):
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("must be 0 or 1")
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="P4DB simulator benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=_uint, default=42)
    parser.add_argument("--seconds", type=_seconds, default=20,
                        help="host seconds of repetitions per workload")
    parser.add_argument("--trace", type=_trace, default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------- build --

def run_quiet(cmd):
    """Runs a build step with its output on stderr; raises on failure. The
    compiler's temporary files stay inside the build directory."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, check=False,
                            env={**os.environ, "TMPDIR": str(tmp)})
    if result.returncode != 0:
        raise BenchError(f"command failed ({result.returncode}): "
                         + " ".join(cmd))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs,
               "--target", "perfbench_harness"])


def git_provenance():
    """(sha, dirty) of the checkout, read at run time; unknown outside git."""
    def git(*args):
        result = subprocess.run(["git", "--no-optional-locks", "-C",
                                 str(ROOT), *args], cwd=ROOT,
                                capture_output=True, text=True, check=False)
        return result.stdout.strip() if result.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or Path(top).resolve() != ROOT:
            return "unknown", None
        status = git("status", "--porcelain", "--untracked-files=no")
        return git("rev-parse", "HEAD") or "unknown", bool(status)
    except OSError:
        return "unknown", None


# ------------------------------------------------------------ repetitions --

def run_harness(args):
    cmd = [str(HARNESS), *args]
    try:
        result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"harness timed out: {' '.join(cmd)}") from exc
    if result.stderr:
        sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise BenchError(f"harness failed ({result.returncode}): "
                         + " ".join(cmd))
    return json.loads(lines[-1])


def summarize(values):
    """(median, q1, q3, n) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def measure(workload, seed, seconds, trace):
    """Repeats `workload` for `seconds`, checks the repetitions against each
    other and returns the result document."""
    base = ["--workload", workload, "--seed", str(seed)]
    sharded = workload in SHARDED
    untraced, threads1, traced = [], [], []
    if trace == 0 and sharded:
        # Once per invocation, outside the timed repetitions.
        threads1.append(run_harness(base + ["--threads", "1"]))
    deadline = time.monotonic() + seconds
    if trace == 0:
        while len(untraced) < MIN_REPS[0] or time.monotonic() < deadline:
            untraced.append(run_harness(base))
    else:
        # Each traced repetition is paired with an untraced one (and, on the
        # sharded workload, a threads=1 one), each in its own process, so
        # the overhead and speedup ratios compare like with like.
        while len(traced) < MIN_REPS[1] or time.monotonic() < deadline:
            untraced.append(run_harness(base))
            if sharded:
                threads1.append(run_harness(base + ["--threads", "1"]))
            spans = (RESULTS /
                     f"spans-{workload}-seed{seed}-rep{len(traced)}.json")
            traced.append(run_harness(base + ["--mode", "trace",
                                             "--spans", str(spans)]))
    runs = untraced + threads1 + traced

    # Correctness: the harness's per-run identities, and every run of this
    # seed (untraced, traced, threads=1) deciding the same simulated results.
    failures = []
    for kind, group in (("untraced", untraced), ("threads=1", threads1),
                        ("traced", traced)):
        for i, rep in enumerate(group):
            failures += [f"{kind} run {i}: {c}" for c in rep["failed_checks"]]
    digests = sorted({rep["digest"] for rep in runs})
    if len(digests) != 1:
        failures.append(f"runs disagree on the simulated-result digest: "
                        f"{digests}")
    single = [rep for rep in runs if rep["threads"] == 0]
    if len({rep["window_allocs"] for rep in single}) > 1:
        failures.append("single-threaded runs disagree on allocations in "
                        "the measured window")

    for rep in runs:
        lost = rep["gaveup"] + rep["shed"] + (rep["started"] if failures else 0)
        rep["failed_ratio"] = lost / max(rep["started"], 1)
    attempted = sum(rep["started"] for rep in runs)
    failed = attempted if failures else sum(rep["gaveup"] + rep["shed"]
                                            for rep in runs)

    def median_of(group, key):
        return summarize([rep[key] for rep in group])[0]

    summary = {}
    if trace == 0:
        for name, unit in END_TO_END:
            median, q1, q3, n = summarize([rep[name] for rep in untraced])
            summary[name] = {"unit": unit, "median": median, "q1": q1,
                             "q3": q3, "n": n}
    else:
        untraced_run_s = median_of(untraced, "run_s")
        derived = {
            "sim.parallel_speedup": (median_of(threads1, "run_s") /
                                     untraced_run_s) if sharded else 1.0,
            "bench.trace_overhead": median_of(traced, "run_s") / untraced_run_s,
        }
        for name, unit in PER_LAYER:
            values = ([derived[name]] if name in derived else
                      [rep["per_layer"][name] for rep in traced])
            median, q1, q3, n = summarize(values)
            summary[name] = {"unit": unit, "median": median, "q1": q1,
                             "q3": q3, "n": n}

    shown = traced if trace else untraced
    sha, dirty = git_provenance()
    build_info = shown[0]["build"]
    return {
        "workload": workload,
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary,
        "provenance": {
            "git_sha": sha,
            "git_dirty": dirty,
            "compiler": build_info["compiler"],
            "build_type": build_info["build_type"],
            "ndebug": build_info["ndebug"],
            "nproc": os.cpu_count(),
            "threads": shown[0]["threads"],
            "seed": seed,
            "trace": trace,
            "run_seconds": seconds,
            "repetitions": len(shown),
            "sim_warmup_ns": shown[0]["sim_warmup_ns"],
            "sim_measure_ns": shown[0]["sim_measure_ns"],
        },
        "runs": {"untraced": untraced, "threads1": threads1,
                 "traced": traced},
    }


def print_table(doc):
    p = doc["provenance"]
    print(f"== {doc['workload']}  seed={p['seed']}  trace={p['trace']}  "
          f"reps={p['repetitions']}  threads={p['threads']}  "
          f"sim window={p['sim_measure_ns'] / 1e6:g} ms  "
          f"git={p['git_sha'][:12]}{'+dirty' if p['git_dirty'] else ''}")
    print(f"  {'metric':32s} {'unit':12s} {'median':>16s} {'q1':>16s} "
          f"{'q3':>16s} {'n':>3s}")
    for name, m in doc["metrics"].items():
        print(f"  {name:32s} {m['unit']:12s} {m['median']:16.6g} "
              f"{m['q1']:16.6g} {m['q3']:16.6g} {m['n']:3d}")
    print(f"  correct={doc['correct']}  attempted={doc['attempted']}  "
          f"failed={doc['failed']}")
    for failure in doc["failures"]:
        print(f"  CHECK FAILED: {failure}")


def main(argv):
    args = parse_args(argv)
    try:
        build()
        RESULTS.mkdir(parents=True, exist_ok=True)
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        docs = []
        for workload in workloads:
            doc = measure(workload, args.seed, args.seconds, args.trace)
            path = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n")
            print_table(doc)
            print(f"  result file: {path.relative_to(ROOT)}")
            docs.append(doc)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    prefix = len(docs) > 1
    metrics = {}
    for doc in docs:
        for name, m in doc["metrics"].items():
            if name in NOT_IN_JSON:
                continue
            key = f"{doc['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["median"], "unit": m["unit"]}
    correct = all(doc["correct"] for doc in docs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(doc["attempted"] for doc in docs),
        "failed": sum(doc["failed"] for doc in docs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
