#!/usr/bin/env python3
"""End-to-end benchmark of rmt_serve (see perfbench/README.md).

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run builds rmt_serve with the
repository's own CMake build (tests, benches and examples off) and the
harness in perfbench/ into .bench_build/; later runs reuse both. The last
stdout line is the result object; everything else goes to stderr. Each
result is also saved, with the environment it ran in, under
.bench_build/results/ for perfbench/compare.py.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
RMT_BUILD = os.path.join(BUILD, "rmt")
HARNESS_BUILD = os.path.join(BUILD, "perfbench")
HARNESS = os.path.join(HARNESS_BUILD, "rmt_perfbench")
SERVER = os.path.join(RMT_BUILD, "src", "rmt_serve")
WORKLOADS = ("warm_hits", "cold_mix", "restart_store")
JOBS = "4"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sh(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail(f"build step failed: {' '.join(cmd)} (log: {log})", 1)


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                 os.path.join("tools", "rmt_serve.cpp")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of an rmt checkout")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.exists(os.path.join(RMT_BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", ".", "-B", RMT_BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
            "-DRMT_BUILD_TESTS=OFF", "-DRMT_BUILD_BENCHMARKS=OFF",
            "-DRMT_BUILD_EXAMPLES=OFF"], log)
    sh(["cmake", "--build", RMT_BUILD, "-j", JOBS, "--target", "rmt", "rmt_serve"], log)
    if not os.path.exists(os.path.join(HARNESS_BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", HARNESS_BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
            "-DRMT_BUILD_DIR=" + os.path.abspath(RMT_BUILD)], log)
    sh(["cmake", "--build", HARNESS_BUILD, "-j", JOBS], log)


def environment():
    cache = {}
    with open(os.path.join(RMT_BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(("CMAKE_CXX_COMPILER:", "CMAKE_BUILD_TYPE:")):
                key, _, value = line.strip().partition("=")
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "compiler": f"{compiler} ({version})",
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "network": "loopback only (127.0.0.1); stdio workloads use pipes",
    }


def run_one(workload, seed, seconds, trace, quiet=False):
    """Runs the harness once; returns (exit code, result dict or None)."""
    workdir = os.path.join(BUILD, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--server", SERVER, "--workdir", workdir]
    start = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=None if not quiet else
                              subprocess.DEVNULL, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    finally:
        # The traced run's span dump is kept, one per workload (the latest).
        spans = os.path.join(workdir, "spans.tsv")
        if os.path.exists(spans):
            os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
            shutil.move(spans, os.path.join(BUILD, "results", f"{workload}.spans.tsv"))
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    result = json.loads(lines[-1])
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "started": start, "env": environment(), "result": result}
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    name = f"{workload}-s{seed}-t{trace}-{int(start * 1000)}.json"
    with open(os.path.join(BUILD, "results", name), "w") as f:
        json.dump(record, f, indent=1)
    return 0, result


def smoke():
    """All workloads briefly, both modes: every declared metric present."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, result = run_one(workload, 7, 1, trace, quiet=True)
            missing = [] if result is None else \
                [n for n in names[trace] if n not in result["metrics"]]
            ok = rc == 0 and result["correct"] and result["failed"] == 0 and not missing
            bad += not ok
            print(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAILED'}"
                  + (f" (exit {rc})" if rc else "") + (f" missing {missing}" if missing else ""),
                  file=sys.stderr)
    print(json.dumps({"smoke": "ok" if bad == 0 else "failed", "failures": bad}))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload for 1 s in both modes and check the output")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    build()
    print("perfbench environment: " + json.dumps(environment()), file=sys.stderr)
    if args.smoke:
        return smoke()
    rc, result = run_one(args.workload, args.seed, args.seconds, args.trace)
    if rc != 0:
        return rc
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
