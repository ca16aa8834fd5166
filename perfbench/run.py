#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload wide|service|faults|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the simulator libraries under src/) into .bench_build/;
later runs reuse that build. The harness runs in its own process under a
time budget; a run that exceeds it is cut, and its unfinished simulated jobs
count as failed ops. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. --workload all runs
the three workloads one after another and ends with one JSON object per
workload. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "spans"
WORKLOADS = ("wide", "service", "faults")
# The harness must finish well inside the 180 s a run may take.
MAX_BUDGET_S = 150.0
# Address-space cap of the harness: a runaway simulation fails with
# std::bad_alloc instead of exhausting the host's memory. service peaks
# near 0.7 GiB RSS.
MAX_MEMORY_BYTES = 4 << 30


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("perfbench: cmake not found")
        return None
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = [cmake, "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = [cmake, "--build", str(BUILD_DIR), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return BUILD_DIR / "perfbench"


def host_stamp():
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={model!r}"


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS,
                       (MAX_MEMORY_BYTES, MAX_MEMORY_BYTES))


def run_harness(binary, workload, seed, seconds, trace):
    """Runs the harness under a budget.

    Returns its events, exit code, whether it was cut, and its elapsed
    seconds.
    """
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-dir", str(SPANS_DIR)]
    budget = min(MAX_BUDGET_S, 2.0 * seconds + 60.0)
    start = time.monotonic()
    # Its own process group, so a cut also stops the rounds it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=limit_memory, start_new_session=True)
    events = []

    def read():
        for line in proc.stdout:
            try:
                events.append(json.loads(line))
            except ValueError:
                log(f"perfbench: unparsable line: {line.rstrip()}")

    reader = threading.Thread(target=read)
    reader.start()
    deadline = start + budget
    cut = False
    while True:
        pid, status = os.waitpid(proc.pid, os.WNOHANG)
        if pid != 0:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status = os.waitpid(proc.pid, 0)
            cut = True
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything the harness left
    except ProcessLookupError:
        pass
    reader.join()  # returns once every writer of the pipe has exited
    proc.stdout.close()
    return events, proc.returncode, cut, time.monotonic() - start


def summarize(spec, workload, events, code, cut, elapsed, trace):
    """Folds the harness events into the contract's result object."""
    begun = sum(e["ops"] for e in events if e["ev"] == "begin")
    ops = [e for e in events if e["ev"] == "op"]
    unfinished = max(0, begun - len(ops))
    failed = sum(1 for e in ops if not e["ok"]) + unfinished
    attempted = max(begun, len(ops), 1)
    correct = code == 0 and not cut and failed == 0

    for e in events:
        if e["ev"] == "check":
            tag = "ok" if e["ok"] else ("FAILED" if e["gating"]
                                        else "FAILED (known defect)")
            print(f"  check {e['name']}: {tag} - {e['detail']}")
            if e["gating"] and not e["ok"]:
                correct = False
        elif e["ev"] == "sim":
            sim = {k: v for k, v in e.items() if k != "ev"}
            print(f"  simulated outputs: {json.dumps(sim)}")
        elif e["ev"] == "op" and not e["ok"]:
            print(f"  failed op {e['op']}: {e.get('detail', '')}")
    if cut:
        print(f"  run cut after {elapsed:.1f} s; {unfinished} unfinished ops "
              "counted as failed")
    elif code != 0:
        print(f"  harness exited with code {code}")

    metrics = {}
    if trace:
        layers = next((e["metrics"] for e in events if e["ev"] == "layers"),
                      {})
        for m in spec["per_layer"]:
            if m["name"] not in layers:
                correct = False
            metrics[m["name"]] = {"value": layers.get(m["name"], 0.0),
                                  "unit": m["unit"]}
    else:
        samples = {}
        for e in events:
            if e["ev"] == "sample":
                samples.setdefault(e["metric"], []).append(e["value"])
        for m in spec["end_to_end"]:
            name = m["name"]
            if samples.get(name):
                value = statistics.median(samples[name])
            else:
                # No round finished: the run is incorrect, and the elapsed
                # time stands in (a lower bound for the time metrics).
                correct = False
                value = elapsed
            metrics[name] = {"value": value, "unit": m["unit"]}
            count = len(samples.get(name, [])) or 1
            print(f"  {workload:8s} {name:26s} {value:14.6f} {m['unit']:6s}"
                  f" (median of {count})")
    print(f"  {workload:8s} ops attempted {attempted}, failed {failed}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    print(f"host: {host_stamp()}")
    results = {}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        print(f"{workload}: seed {args.seed}, {args.seconds:g} s window, "
              f"trace {args.trace}")
        events, code, cut, elapsed = run_harness(
            binary, workload, args.seed, args.seconds, args.trace)
        results[workload] = summarize(spec, workload, events, code, cut,
                                      elapsed, args.trace)
    last = results if args.workload == "all" else results[args.workload]
    print(json.dumps(last), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
