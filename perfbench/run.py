#!/usr/bin/env python3
"""End-to-end benchmark of the Socrates reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark from source (CMake,
into $CARGO_TARGET_DIR or .bench_build), runs its self-tests, then runs
one workload. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, from a traced run whose simulated results must equal the untraced
run's, plus a gprof profile grouped by module. Exits non-zero when the
build, a self-test or a correctness check fails. See README.md.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = ["tps", "txn_mean_us", "txn_p99_us", "primary_cpu_pct",
              "wall_s", "setup_s", "peak_rss_mb"]
# Simulated metrics: identical for a seed, traced or not.
SIMULATED = ["tps", "txn_mean_us", "txn_p99_us", "primary_cpu_pct"]
MODULES = ["sim", "common", "storage", "engine", "compute", "rbio",
           "pageserver", "xlog", "xstore", "workload"]
# Namespaces nested under socrates:: that live in src/common.
COMMON_NAMESPACES = {"crc32c", "compress"}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_root, name, extra):
    """Configure (once) and build one CMake tree; returns its path."""
    tree = os.path.join(build_root, name)
    cmd = ["cmake", "-S", HERE, "-B", tree]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(cmd + extra)
    steps.append(["cmake", "--build", tree, "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        p = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-8000:])
            die("build failed: " + " ".join(step))
    return tree


def run_bench(binary, args, cwd=None):
    p = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, cwd=cwd)
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(p.stderr[-4000:])
        die("perfbench printed nothing (exit %d)" % p.returncode)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        die("perfbench output is not JSON: " + lines[-1][:200])


def module_of(symbol):
    """Map a demangled symbol to its src/ module (or 'other')."""
    m = re.match(r"socrates::(\w+)::", symbol)
    if m:
        ns = m.group(1)
        if ns in MODULES:
            return ns
        if ns in COMMON_NAMESPACES:
            return "common"
        if not re.match(r"[a-z_]+$", ns):
            return "common"  # a class directly in socrates:: (Status, ...)
        return "other"
    if symbol.startswith("socrates::"):
        return "common"
    return "other"


def profile_shares(binary, gmon):
    """Self time per module from gprof's flat profile, as % of the total."""
    p = subprocess.run(["gprof", "-b", "-p", binary, gmon],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        die("gprof failed: " + p.stderr[-2000:])
    self_s = {m: 0.0 for m in MODULES + ["other"]}
    row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")
    for line in p.stdout.splitlines():
        r = row.match(line)
        if r:
            self_s[module_of(r.group(2).strip())] += float(r.group(1))
    total = sum(self_s.values())
    if total <= 0:
        die("gprof recorded no samples")
    return {m: 100.0 * s / total for m, s in self_s.items()}


def print_table(result, names):
    counts = result.get("counts", {})
    for name in names:
        m = result["metrics"][name]
        prefix = re.sub(r"_p(50|99)_\w+$", "", name)
        n = " (n=%d)" % counts[prefix] if prefix in counts and prefix != name else ""
        print("  %-44s %16.4f %-6s%s" % (name, m["value"], m["unit"], n))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ tree next to perfbench/; run from a full checkout")
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    opt = build(build_root, "opt", [])
    prof = build(build_root, "prof", ["-DPERFBENCH_GPROF=ON"])
    selftest = subprocess.run([os.path.join(opt, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        die("self-tests failed")

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    base = run_bench(os.path.join(opt, "perfbench"), common)
    problems = list(base["checks"]["failures"])
    if base["counts"].get("txn", 0) < 1000:
        problems.append("%d transactions cannot support a p99"
                        % base["counts"].get("txn", 0))

    print("%s seed=%d: %d transactions, %d failed; checked %d keys, %d scans "
          "(%d pushed down)" % (args.workload, args.seed, base["transactions"],
                                base["failed"], base["checks"]["keys_compared"],
                                base["checks"]["scans_compared"],
                                base["checks"]["scans_pushed"]))
    if args.trace == 0:
        print_table(base, END_TO_END)
        metrics = {k: base["metrics"][k] for k in END_TO_END}
    else:
        traced = run_bench(os.path.join(opt, "perfbench"), common + ["--traced"])
        for k in SIMULATED:
            if traced["metrics"][k]["value"] != base["metrics"][k]["value"]:
                problems.append("traced run changed %s" % k)
        for k in ("events", "trace_hash", "transactions", "failed"):
            if traced[k] != base[k]:
                problems.append("traced run changed %s" % k)
        problems += traced["checks"]["failures"]
        metrics = {k: v for k, v in traced["metrics"].items() if k not in END_TO_END}
        metrics["trace.overhead_wall_s"] = {
            "value": traced["metrics"]["wall_s"]["value"] - base["metrics"]["wall_s"]["value"],
            "unit": "s"}
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            run_bench(os.path.join(prof, "perfbench"), common + ["--traced"], cwd=tmp)
            shares = profile_shares(os.path.join(prof, "perfbench"),
                                    os.path.join(tmp, "gmon.out"))
        for m, pct in shares.items():
            metrics["real.%s.self_pct" % m] = {"value": pct, "unit": "%"}
        traced["metrics"] = metrics
        print_table(traced, sorted(metrics))

    # The metrics must be exactly those BENCHMARK.json declares.
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            declared = json.load(f)["end_to_end" if args.trace == 0 else "per_layer"]
        units = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in metrics.items()}
        if units != got:
            problems.append("metrics differ from BENCHMARK.json: %s"
                            % sorted(set(units.items()) ^ set(got.items())))
    if args.trace == 0:
        problems += ["%s is 0" % k for k, v in metrics.items() if v["value"] <= 0]

    for p in problems:
        print("CHECK FAILED: " + p)
    print(json.dumps({"correct": not problems,
                      "attempted": base["transactions"],
                      "failed": base["failed"],
                      "metrics": metrics}))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
