#!/usr/bin/env python3
"""Build and run the repository benchmark (see benchmark/README.md).

    python3 benchmark/run.py --workload road-serve --seed 1 --trace 0
    python3 benchmark/run.py --selftest

Run from the repository root. The harness is built from this checkout's
sources into $CARGO_TARGET_DIR (default .bench_build). Each run prints
every metric by name with its unit, then, as its last stdout line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end set; with --trace 1 they are
its per_layer set, taken from a traced run that follows an untraced one
on the same seed (their difference is the tracing overhead). The exit
code is nonzero when the build fails or a correctness gate fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("road-serve", "rmat-build", "road-update")
# A traced run makes two passes within the same overall limit.
RUN_TIMEOUT_S = 170
UNTRACED = ("query_p99_ms", "query_failed_rate", "update_p50_ms", "update_p90_ms",
            "update_ok_rps", "update_failed_rate", "recovery_s")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_harness():
    """Configure once, then (re)build; returns the binary path or None."""
    cmake_dir = os.path.join(build_root(), "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", cmake_dir, "--target", "repo_bench", "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(cmake_dir, "repo_bench")
    return binary if os.path.exists(binary) else None


# What a generated graph depends on: the generators, the .pcsr writer and
# reader, the RNG, and the harness's own generation parameters.
GRAPH_INPUTS = [os.path.join("bench", "bench_common.hpp"), os.path.join("src", "graph"),
                os.path.join("src", "random"), os.path.join(os.path.relpath(BENCH_DIR), "repo_bench.cpp")]


def graph_key():
    """A short digest of GRAPH_INPUTS; cached graphs are named by it."""
    return tree_digest(GRAPH_INPUTS)[:16]


def graph_file(binary, workload, key):
    """The workload's graph, generated once per checkout and key, outside any timing."""
    path = os.path.join(build_root(), "graphs", f"{workload}-{key}.pcsr")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        res = subprocess.run([binary, "--generate", workload, "--out", path],
                             stdout=sys.stderr, stderr=sys.stderr, timeout=600)
        if res.returncode != 0:
            return None
    return path


MEASURED = ["src", os.path.relpath(BENCH_DIR), "CMakeLists.txt",
            os.path.join("bench", "bench_common.hpp")]


def tree_digest(roots):
    """sha256 over the files under roots (the checkout may not be git)."""
    h = hashlib.sha256()
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for dirpath, _, names in os.walk(root):
            files.extend(os.path.join(dirpath, n) for n in names)
    for f in sorted(files):
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None where it is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_harness(binary, graph, workload, seed, seconds, trace, tag, passes):
    workdir = os.path.join(build_root(), "work", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    results = os.path.join(build_root(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", workload, "--graph", graph, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    if trace:
        cmd += ["--spans", os.path.join(results, tag + ".spans.json")]
    try:
        timeout = RUN_TIMEOUT_S // 2 if passes == 2 else RUN_TIMEOUT_S
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} timed out after {timeout}s")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if not lines:
        log(f"run.py: harness exited {res.returncode} without a result")
        return None
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"run.py: unparseable harness output: {lines[-1][:200]}")
        return None
    out["exit_code"] = res.returncode
    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump(out, fh, indent=1)
    return out


def print_report(result, names):
    prov = result["provenance"]
    log("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {int(result['trace'])}: attempted {result['attempted']}, "
          f"failed {result['failed']}, answer digest {result['answer_digest']}")
    for name, m in result["metrics"].items():
        mark = "*" if name in names else " "
        print(f" {mark} {name:34s} {m['value']!s:>24} {m['unit']}")
    for failure in result["gate_failures"]:
        print(f"GATE FAILED: {failure}")


def selftest():
    binary = build_harness()
    if binary is None:
        log("run.py: build failed")
        return 1
    workdir = os.path.join(build_root(), "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return subprocess.run([binary, "--selftest", "--workdir", workdir],
                              timeout=RUN_TIMEOUT_S).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    # Accepted because the benchmark is invoked with it, but the length is
    # fixed: the bounds and the p99 sample gate hold at run_seconds only.
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("run.py: run from the repository root (CMakeLists.txt and src/ not found)")
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        log(f"run.py: --seconds must be BENCHMARK.json's run_seconds ({seconds})")
        return 2
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    binary = build_harness()
    if binary is None:
        log("run.py: build failed")
        return 1
    key = graph_key()
    graph = graph_file(binary, args.workload, key)
    if graph is None:
        log("run.py: graph generation failed")
        return 1

    ticks0 = cpu_ticks()
    tag = f"{args.workload}-seed{args.seed}"
    passes = 2 if args.trace else 1
    base = run_harness(binary, graph, args.workload, args.seed, seconds, 0, tag + "-trace0",
                       passes)
    if base is None:
        return 1
    result, correct = base, base["correct"]
    if args.trace:
        traced = run_harness(binary, graph, args.workload, args.seed, seconds, 1,
                             tag + "-trace1", passes)
        if traced is None:
            return 1
        m0, m1 = base["metrics"], traced["metrics"]
        traced["metrics"]["trace.overhead_query_p50_ms"] = {
            "value": m1["query_p50_ms"]["value"] - m0["query_p50_ms"]["value"], "unit": "ms"}
        traced["metrics"]["trace.overhead_setup_s"] = {
            "value": m1["setup_s"]["value"] - m0["setup_s"]["value"], "unit": "s"}
        if traced["answer_digest"] != base["answer_digest"]:
            traced["gate_failures"].append("traced and untraced answer digests differ")
        # End-to-end figures that live in the per-layer list (they exist on
        # one workload only) keep their untraced values.
        for name in UNTRACED:
            traced["metrics"][name] = m0[name]
        result, correct = traced, base["correct"] and not traced["gate_failures"]
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # CPU time the hypervisor gave to other guests during the run.
        result["provenance"]["host_steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    result["provenance"]["commit"] = commit()
    result["provenance"]["tree_sha256"] = tree_digest(MEASURED)
    result["provenance"]["graph_cache_key"] = key
    print_report(result, set(wanted))

    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        log("run.py: harness did not report " + ", ".join(missing))
        return 1
    line = {
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in wanted},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    t0 = time.time()
    rc = main()
    log(f"run.py: done in {time.time() - t0:.1f}s, exit {rc}")
    sys.exit(rc)
