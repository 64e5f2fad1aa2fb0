#!/usr/bin/env python3
"""Diff smoke-run bench JSON against a committed baseline.

    python3 tools/bench_diff.py bench/baseline build/bench

Every bench here runs on the simulator's virtual clock, so for a given
seed its rows are exact: any change in a simulated number is a change in
behaviour. This tool compares each `BENCH_*.json` in the baseline
directory with the file of the same name in the run directory, row by
row (one JSON object per line), and fails on any difference outside the
real-time fields listed in REAL_TIME_FIELDS. It also fails when a run
file has no baseline, unless REAL_TIME_FILES names it.

A change that is meant to move simulated results regenerates the
baseline from the CI "Smoke-run benches" commands and says why in its
description.
"""

import glob
import json
import os
import sys

# Fields measured on the host's clock: they differ between any two runs.
REAL_TIME_FIELDS = {
    "wall_ms",  # every row's wall-clock stamp
}

# Files that are real time through and through (google-benchmark output,
# gated by the "Perf smoke" budgets instead).
REAL_TIME_FILES = {
    "BENCH_micro.json",
}


def load_rows(path):
    rows = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit("%s:%d: not JSON: %s" % (path, n, e))
    return rows


def diff_value(where, old, new, out):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key in REAL_TIME_FIELDS:
                continue
            if key not in old:
                out.append("%s.%s: added (%r)" % (where, key, new[key]))
            elif key not in new:
                out.append("%s.%s: removed (was %r)" % (where, key, old[key]))
            else:
                diff_value("%s.%s" % (where, key), old[key], new[key], out)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append("%s: %d items -> %d" % (where, len(old), len(new)))
        for i, (a, b) in enumerate(zip(old, new)):
            diff_value("%s[%d]" % (where, i), a, b, out)
    elif old != new or type(old) is not type(new):
        out.append("%s: %r -> %r" % (where, old, new))


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base_dir, run_dir = argv[1], argv[2]
    baselines = sorted(glob.glob(os.path.join(base_dir, "BENCH_*.json")))
    if not baselines:
        sys.exit("no BENCH_*.json under %s" % base_dir)
    problems = []
    for base in baselines:
        name = os.path.basename(base)
        run = os.path.join(run_dir, name)
        if not os.path.exists(run):
            problems.append("%s: missing from %s" % (name, run_dir))
            continue
        old, new = load_rows(base), load_rows(run)
        if len(old) != len(new):
            problems.append("%s: %d rows -> %d" % (name, len(old), len(new)))
        for i, (a, b) in enumerate(zip(old, new)):
            diff_value("%s:%d" % (name, i + 1), a, b, problems)
    have = {os.path.basename(p) for p in baselines}
    for run in sorted(glob.glob(os.path.join(run_dir, "BENCH_*.json"))):
        name = os.path.basename(run)
        if name not in have and name not in REAL_TIME_FILES:
            problems.append("%s: no baseline in %s" % (name, base_dir))
    for p in problems:
        print(p)
    if problems:
        print("bench diff: %d difference(s) from %s" % (len(problems), base_dir))
        return 1
    print("bench diff: %d file(s) match %s apart from %s" %
          (len(baselines), base_dir, ", ".join(sorted(REAL_TIME_FIELDS))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
