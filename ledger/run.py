#!/usr/bin/env python3
"""Build and run bench_ledger, the repository's benchmark.

One workload (the last stdout line is the JSON summary):
    python3 ledger/run.py --workload encode_10mb --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, records written to FILE in the
bench_json schema (name = workload, config = "e2e" or the layer):
    python3 ledger/run.py --seed 1 --out FILE

Compare two record sets (a file per run, or a directory of such files):
    python3 ledger/run.py --compare BASE NEW

The program is built from source into .bench_build/ledger on first use.
"""
import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "bench_ledger")

# Counts that repeat exactly for a given seed: compared for equality.
DETERMINISTIC_PREFIXES = ("slp.enc.", "slp.dec.")
DETERMINISTIC = {"net.bytes_per_request", "ec.plan_cache.misses_timed"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; build logs go to stderr."""
    def step(cmd):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))

    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "--target", "bench_ledger", "-j", jobs])


def run_one(workload, seed, seconds, trace, capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, "trace_%s.json" % workload)]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None,
                          text=True)


def full_run(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    traces = [args.trace] if args.trace is not None else [0, 1]
    records, status = [], 0
    for w in spec["workloads"]:
        for trace in traces:
            proc = run_one(w["name"], args.seed, seconds, trace, capture=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0:
                status = 1
            if not lines or not lines[-1].startswith("{"):
                status = 1
                continue
            summary = json.loads(lines[-1])
            for name, m in summary["metrics"].items():
                layer = name.split(".")[0] if trace and "." in name else "e2e"
                records.append((w["name"], layer, name, m["value"]))
    with open(args.out, "w") as f:
        f.write('{\n  "bench": "bench_ledger",\n')
        f.write('  "config": {"seed": "%d", "seconds": "%d"},\n' % (args.seed, seconds))
        f.write('  "records": [\n')
        f.write(",\n".join(
            '    {"name": %s, "config": %s, "metric": %s, "value": %s}'
            % (json.dumps(n), json.dumps(c), json.dumps(m), repr(v)) for n, c, m, v in records))
        f.write("\n  ]\n}\n")
    print("wrote %s (%d records)" % (args.out, len(records)))
    return status


def load_runs(path):
    """{(workload, metric): [value per run]} from a record file or a directory of them."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = {}
    for fn in files:
        with open(fn) as f:
            for r in json.load(f)["records"]:
                runs.setdefault((r["name"], r["metric"]), []).append(r["value"])
    return runs, len(files)


def deterministic(metric):
    return metric in DETERMINISTIC or metric.startswith(DETERMINISTIC_PREFIXES)


def rel_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def stays_zero(info, base):
    """A lower-is-better count or ratio that was 0 in every base run, like
    error_ratio, api.failed_jobs or net.errors: any rise at all is worse."""
    return info["better"] == "lower" and info["unit"] in ("count", "ratio") and not any(base)


def verdict(metric, base, new, info, bound):
    """better / same / worse / unresolved for one workload x metric."""
    lower = info["better"] == "lower"
    if deterministic(metric):
        if set(base) == set(new) and len(set(base)) == 1:
            return "same"
        if len(set(base)) > 1 or len(set(new)) > 1:
            return "unresolved"
        return "better" if (new[0] < base[0]) == lower else "worse"
    if stays_zero(info, base):
        return "worse" if any(new) else "same"
    all_better = max(new) < min(base) if lower else min(new) > max(base)
    all_worse = min(new) > max(base) if lower else max(new) < min(base)
    if bound is None:  # per-layer timing: only a full separation of the runs counts
        return "better" if all_better else "worse" if all_worse else "same"
    mb, mn = statistics.median(base), statistics.median(new)
    change = (mn - mb) / abs(mb) if mb else 0.0
    if not lower:
        change = -change
    if max(rel_spread(base), rel_spread(new)) > bound:
        return "better" if all_better else "unresolved"
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def compare(base_path, new_path, spec):
    base, nb = load_runs(base_path)
    new, nn = load_runs(new_path)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    print("base: %d run(s) from %s\nnew:  %d run(s) from %s" % (nb, base_path, nn, new_path))
    print("%-18s %-40s %14s %14s %9s %6s  %s"
          % ("workload", "metric", "base median", "new median", "change", "bound", "verdict"))
    status = 0
    for key in sorted(set(base) | set(new)):
        workload, metric = key
        if key not in base or key not in new:
            print("%-18s %-40s %s" % (workload, metric, "missing on one side"))
            continue
        info = gated.get(metric) or layer.get(metric) or {"better": "lower", "unit": ""}
        bound = gated[metric]["bound"] if metric in gated else None
        v = verdict(metric, base[key], new[key], info, bound)
        mb, mn = statistics.median(base[key]), statistics.median(new[key])
        change = "%+8.2f%%" % (100 * (mn - mb) / abs(mb)) if mb else "%9s" % "-"
        print("%-18s %-40s %14.6g %14.6g %s %6s  %s"
              % (workload, metric, mb, mn, change,
                 "%d%%" % round(100 * bound) if bound is not None else "-", v))
        if v == "worse" and (bound is not None or deterministic(metric)
                             or stays_zero(info, base[key])):
            status = 1
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--out", help="full run: write every workload's records here")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not args.workload and not args.out:
        p.error("give --workload, --out or --compare")
    build()
    if args.workload:
        proc = run_one(args.workload, args.seed, args.seconds or spec["run_seconds"],
                       args.trace or 0)
        return proc.returncode
    return full_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
