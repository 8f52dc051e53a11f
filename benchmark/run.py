#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

Run from the repository root:

    python3 benchmark/run.py --workload serve_cold_circuits --seed 1 \
        --seconds 12 --trace 0
    python3 benchmark/run.py --smoke

It builds the library, the shipped tools and the benchmark driver
(`benchkit`) from source into `.bench_build/` (or `$CARGO_TARGET_DIR`),
trains the serving checkpoint once with `nettag_train --out` (default
ExprLLM config), runs one workload, writes the full report (host block,
checks, input properties, per-layer table) under `.bench_build/results/`,
and prints the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer metrics. `--smoke` runs every workload at a tiny size, traced
and untraced, and checks that every named metric is emitted and every output
check passes. See benchmark/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["serve_cold_circuits", "serve_hot_cones", "serve_stdin_cones",
             "train_pipeline"]
# The serving checkpoint: a short nettag_train run with the default ExprLLM.
TRAIN_ARGS = ["--no-align", "--expr-steps", "30", "--tag-steps", "30",
              "--designs", "1", "--seed", "24029"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build(bdir):
    """Configures (once) and incrementally builds the benchmark package."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("repository sources missing (%s); run from a full checkout"
                 % needed)
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log, 600) != 0:
            if os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
                os.remove(os.path.join(bdir, "CMakeCache.txt"))
            fail("cmake configure failed; see " + log)
    if run_logged(["cmake", "--build", bdir, "-j", "4"], log, 900) != 0:
        fail("build failed; see " + log)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def checkpoint(bdir):
    """Trains the serving checkpoint once per nettag_train binary."""
    trainer = os.path.join(bdir, "nettag_tools", "nettag_train")
    model_dir = os.path.join(bdir, "model")
    stamp = os.path.join(model_dir, "stamp")
    digest = sha256(trainer) + " " + " ".join(TRAIN_ARGS)
    if os.path.isfile(stamp) and open(stamp).read() == digest:
        return os.path.join(model_dir, "default")
    tmp = model_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if run_logged([trainer, "--out", os.path.join(tmp, "default")] + TRAIN_ARGS,
                  os.path.join(bdir, "build.log"), 600) != 0:
        fail("nettag_train failed; see " + os.path.join(bdir, "build.log"))
    with open(os.path.join(tmp, "stamp"), "w") as f:
        f.write(digest)
    shutil.rmtree(model_dir, ignore_errors=True)
    os.rename(tmp, model_dir)
    return os.path.join(model_dir, "default")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError, IndexError):
        return ""


def host_block(bdir, process):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = ""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            cache = f.read()
        for line in cache.splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = first_line([line.split("=", 1)[1], "--version"])
    except OSError:
        pass
    commit = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]) or "unknown"
    return {
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "simd_backend": process.get("simd_backend"),
        "pool_width": process.get("pool_width"),
        "nettag_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("NETTAG_")},
        "git_commit": commit,
        "python": platform.python_version(),
    }


def cpu_times():
    """Aggregate /proc/stat CPU jiffies (empty when unavailable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests in between."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_workload(bdir, model, workload, seed, seconds, trace, smoke):
    workdir = os.path.join(bdir, "run", "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(bdir, "benchkit"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", workdir,
           "--serve-bin", os.path.join(bdir, "nettag_tools", "nettag_serve"),
           "--model", model]
    if smoke:
        cmd.append("--smoke")
    cpu0 = cpu_times()
    # Own session, so a timeout also takes down the servers benchkit spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchkit timed out")
    if proc.returncode != 0 or not stdout.strip():
        fail("benchkit exited with %d" % proc.returncode)
    report = json.loads(stdout.strip().splitlines()[-1])
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (workload, seed, int(trace)))
    spans = os.path.join(workdir, "spans.ndjson")
    if os.path.isfile(spans):
        shutil.move(spans, stem + ".spans.ndjson")
    shutil.rmtree(workdir, ignore_errors=True)
    report["host"] = host_block(bdir, report.pop("process", {}))
    report["host"]["cpu_steal_share"] = steal_share(cpu0, cpu_times())
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1)
    return report, stem + ".json"


def result_line(report, names):
    metrics = report["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("metrics not emitted: " + ", ".join(missing))
    bad = [n for n in names if not isinstance(metrics[n]["value"], (int, float))
           or not math.isfinite(metrics[n]["value"])]
    if bad:
        fail("metrics not finite: " + ", ".join(bad))
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": {n: metrics[n] for n in names}}


def smoke(bdir, model):
    end_to_end, per_layer = declared_metrics()
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        documented = json.load(f)["per_layer"]
    undocumented = sorted(set(per_layer) ^ set(documented))
    ok = not undocumented
    if undocumented:
        print("layers.json and BENCHMARK.json disagree on: "
              + ", ".join(undocumented))
    for workload in WORKLOADS:
        for trace in (False, True):
            t0 = time.time()
            report, path = run_workload(bdir, model, workload, 7, 1.5, trace, True)
            names = per_layer if trace else end_to_end
            missing = [n for n in names if n not in report["metrics"]]
            passed = (report["correct"] and report["failed"] == 0
                      and report["attempted"] >= 1 and not missing)
            ok = ok and passed
            print("smoke %-20s trace=%d %s  attempted=%d failed=%d %.1fs%s"
                  % (workload, trace, "ok  " if passed else "FAIL",
                     report["attempted"], report["failed"], time.time() - t0,
                     ("  missing: " + ", ".join(missing)) if missing else ""))
            if not passed:
                print("  errors: %s (report %s)" % (report.get("errors"), path))
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny run of every workload; checks metric names")
    args = p.parse_args()
    check = os.environ.get("NETTAG_CHECK", "")
    if check not in ("", "0"):
        fail("refusing to run with NETTAG_CHECK=%s: deep checks disable the "
             "memory planner and measure a different program" % check)
    if not args.smoke and args.workload is None:
        p.error("--workload is required (or --smoke)")
    os.chdir(ROOT)
    bdir = build_dir()
    build(bdir)
    model = checkpoint(bdir)
    if args.smoke:
        return smoke(bdir, model)
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]
    report, path = run_workload(bdir, model, args.workload, args.seed, seconds,
                                bool(args.trace), False)
    end_to_end, per_layer = declared_metrics()
    line = result_line(report, per_layer if args.trace else end_to_end)
    for name, m in line["metrics"].items():
        print("%-42s %14.6g %s" % (name, m["value"], m["unit"]))
    print("report: " + path)
    if report.get("errors"):
        print("errors: " + "; ".join(report["errors"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
