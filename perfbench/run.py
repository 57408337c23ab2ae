#!/usr/bin/env python3
"""Builds and runs the chtread benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the repository root. It builds perfbench/ (and the repository's
libraries from src/) into .bench_build/, runs the benchmark's own math tests,
measures set-up time over several launches, runs the workload, and prints a
report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics. The full result, with the host and build
record, is also written to .bench_build/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "chtbench")
MATH_TEST = os.path.join(BUILD, "chtbench_math_test")

# Launches measured for setup_s besides the main run's own.
SETUP_SAMPLES = 10
# Everything after the build must end within this many seconds.
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise BenchError("command failed: " + " ".join(cmd))


def configured_source(cache):
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no repository sources at " +
                         os.path.join(ROOT, "src"))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache) and configured_source(cache) != HERE:
        shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, *generator,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", BUILD, "-j", "4", "--target", "chtbench",
               "chtbench_math_test"], timeout=840)
    run_quiet([MATH_TEST], timeout=60)


def launch(args, deadline):
    """Starts the benchmark binary; returns (process, seconds to 'ready')."""
    start = time.perf_counter()
    # Unbuffered, so readline takes no more than the "ready" line and
    # communicate() in finish() sees everything after it.
    proc = subprocess.Popen([BINARY, *args], cwd=ROOT, stdout=subprocess.PIPE,
                            bufsize=0)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if not line.startswith(b"ready"):
        proc.kill()
        proc.wait()
        raise BenchError("benchmark binary did not finish set-up")
    if time.monotonic() > deadline:
        proc.kill()
        proc.wait()
        raise BenchError("deadline passed during set-up")
    return proc, ready


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("benchmark binary ran past the deadline")
    if proc.returncode != 0:
        raise BenchError("benchmark binary exited with %d" % proc.returncode)
    return out.decode()


def source_record():
    """The git commit if the root is a git checkout, else a source digest."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=False)
        if commit.returncode == 0:
            return {"git_commit": commit.stdout.strip()}
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_commit": None, "source_sha256": digest.hexdigest()}


def declared_metrics(trace):
    """(name, unit) pairs this mode reports, as BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        raise BenchError("--seed must be >= 0")

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", str(args.trace)]

    # Set-up times, each scaled to the nominal host speed by the calibration
    # kernel timed right after it (see src/calibrate.h).
    setup, setup_raw = [], []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        proc, ready = launch(bench_args + ["--setup-only"], deadline)
        fields = finish(proc, deadline).split()
        if len(fields) != 3 or fields[0] != "calibration":
            raise BenchError("set-up launch printed no calibration")
        setup.append(ready * float(fields[2]) / float(fields[1]))
        setup_raw.append(ready)
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    proc, ready = launch(bench_args + ["--trace-dir", trace_dir], deadline)
    out = finish(proc, deadline)

    lines = out.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("RESULT "):
        raise BenchError("benchmark binary printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    setup.append(ready * result["nominal_calibration_ms"] /
                 result["calibration_ms"])
    setup_raw.append(ready)
    measured = result["metrics"]
    if not args.trace:
        measured["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    metrics = {}
    for name, unit in declared_metrics(args.trace):
        m = measured.get(name)
        if m is None or m["unit"] != unit:
            raise BenchError("metric %s (%s) not measured as declared" %
                             (name, unit))
        metrics[name] = {"value": m["value"], "unit": unit}

    record = dict(result)
    record["host"] = dict(result["host"], **source_record())
    record["workload"] = args.workload
    record["seed"] = args.seed
    record["trace"] = args.trace
    record["setup_samples_s"] = setup
    record["setup_samples_raw_s"] = setup_raw
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print("  %-34s %16s s        n=%d (median of launches)" %
              ("setup_s", repr(metrics["setup_s"]["value"]), len(setup)))
        print("  %-34s %16s s        n=%d (median of launches)" %
              ("setup_s.raw", repr(statistics.median(setup_raw)),
               len(setup_raw)))
    print("host " + json.dumps(record["host"], sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(str(e))
        sys.exit(1)
