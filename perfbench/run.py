#!/usr/bin/env python3
"""Builds and runs the ipdb query-service benchmark (see README.md).

One run (the form BENCHMARK.json's command takes):
  python3 perfbench/run.py --workload serve-ground --seed 1 --seconds 25 --trace 0
Repeat mode: one workload N times on seeds seed..seed+N-1, with per-metric
median, quartiles, min/max and spread against the bounds in BENCHMARK.json:
  python3 perfbench/run.py --workload churn-durable --repeat 10
Self-test: oracles vs brute force, stream determinism, repeatable counts:
  python3 perfbench/run.py --selftest

Run from the repository root or anywhere else: paths resolve from this
file. The build goes to .bench_build/perfbench (Release), the traces and
temporary stores to .bench_build/perfbench-out.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["serve-ground", "serve-lifted", "churn-durable"]
RUN_TIMEOUT_S = 175
# Per-layer metrics that depend on the seed only and must repeat exactly.
EXACT_UNITS = {"count", "bytes"}
EXACT_NAMES = {"kc.hit_share", "server.failed_share"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the ipdb sources (src/) are not in this checkout")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)


def source_hash():
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_once(workload, seed, seconds, trace, stamp, echo=True):
    """Runs the binary once; returns the parsed result object."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", OUT, "--git-sha", stamp[0],
           "--source-hash", stamp[1]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        sys.exit(3)
    lines = proc.stdout.strip().splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode != 0 or not lines:
        log("perfbench: run failed with exit code %d" % proc.returncode)
        sys.exit(proc.returncode or 4)
    result = json.loads(lines[-1])
    spec = expected_metrics(trace)
    if spec is not None:
        want = {m["name"] for m in spec}
        if set(result["metrics"]) != want:
            log("perfbench: metrics %s do not match BENCHMARK.json %s"
                % (sorted(result["metrics"]), sorted(want)))
            sys.exit(5)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def repeat(args, stamp):
    spec = {m["name"]: m for m in (expected_metrics(args.trace) or [])}
    runs = []
    for i in range(args.repeat):
        result = run_once(args.workload, args.seed + i, args.seconds, args.trace, stamp,
                          echo=False)
        if not result["correct"]:
            log("perfbench: seed %d gave a wrong answer" % (args.seed + i))
            sys.exit(6)
        runs.append(result["metrics"])
        log("run %d/%d seed %d done" % (i + 1, args.repeat, args.seed + i))
    print("%-36s %12s %12s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
    summary = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = spec.get(name, {}).get("bound")
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print("%-36s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s %s" %
              (name, med, q1, q3, min(values), max(values), spread,
               "" if bound is None else bound, flag))
        summary[name] = {"median": med, "q1": q1, "q3": q3, "min": min(values),
                         "max": max(values), "spread": spread, "values": values}
    print(json.dumps({"workload": args.workload, "repeat": args.repeat, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, "metrics": summary}))


def selftest(args, stamp):
    ok = True
    if subprocess.run([BINARY, "--oracle-selftest"]).returncode != 0:
        ok = False
    for workload in WORKLOADS:
        def stream_hash(seed):
            return subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                                   "--stream-hash"], capture_output=True, text=True,
                                  check=True).stdout.strip()
        a, b, c = stream_hash(args.seed), stream_hash(args.seed), stream_hash(args.seed + 1)
        same, differs = a == b, a != c
        print("%s stream hash seed %d: %s (repeat %s); seed %d: %s (%s)" %
              (workload, args.seed, a, "identical" if same else "DIFFERS", args.seed + 1, c,
               "differs" if differs else "SAME"))
        ok = ok and same and differs
        spec = {m["name"]: m for m in expected_metrics(1) or []}
        first = run_once(workload, args.seed, args.seconds, 1, stamp, echo=False)["metrics"]
        second = run_once(workload, args.seed, args.seconds, 1, stamp, echo=False)["metrics"]
        for name, metric in first.items():
            unit = spec.get(name, metric)["unit"]
            if unit in EXACT_UNITS or name in EXACT_NAMES:
                same = metric["value"] == second[name]["value"]
                ok = ok and same
                print("  %-36s %s %s" % (name, metric["value"],
                                         "repeats" if same else "DIFFERS: %s" %
                                         second[name]["value"]))
    print("selftest %s" % ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    build()
    stamp = (git_sha(), source_hash())
    if args.selftest:
        selftest(args, stamp)
    elif args.repeat > 0:
        repeat(args, stamp)
    else:
        result = run_once(args.workload, args.seed, args.seconds, args.trace, stamp)
        sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
