#!/usr/bin/env python3
"""The sessions ledger: build and run one benchmark run, sweep many, or
compare two result sets.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload session-churn --seed 1 --seconds 45 --trace 0
      builds perfbench/ledger.exe with dune, runs one workload and passes
      its output through; the last stdout line is the JSON result.

  python3 perfbench/run.py sweep --out runs.jsonl [--seeds 1-10]
      [--workloads a,b] [--trace 0] [--seconds 45]
      runs every (workload, seed) pair and appends one JSON line per run;
      the workloads default to those BENCHMARK.json gates on.

  python3 perfbench/run.py compare parent.jsonl change.jsonl
      diffs two sweeps per (metric, workload) against BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.join("_build", "default", "perfbench", "ledger.exe")
RUN_TIMEOUT_S = 170
WORKLOADS = ["authz-check", "session-churn", "cluster-fanout"]


def bench_config():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def die(message, code=2):
    print(message, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the ledger from source; dune output goes to stderr."""
    if not (os.path.isfile("dune-project") and os.path.isfile("perfbench/dune")):
        die("run from the root of an expirel source checkout (no dune-project here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/ledger.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        die("build failed", proc.returncode or 1)


def pin_to_one_cpu():
    # The program runs one OCaml domain: its threads take turns on one
    # runtime lock, so it never uses more than one core at a time.
    # Pinning makes each lock hand-off a switch on the same core instead
    # of a cross-core wake-up, whose cost varies run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_once(workload, seed, seconds, trace, capture=False):
    """One ledger run; returns (exit code, stdout text)."""
    args = [LEDGER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL if capture else None,
                              timeout=RUN_TIMEOUT_S, text=True,
                              preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def parse_flags(argv, defaults):
    flags = dict(defaults)
    i = 0
    while i < len(argv):
        key = argv[i]
        if not key.startswith("--") or key[2:] not in flags or i + 1 >= len(argv):
            die(__doc__)
        flags[key[2:]] = argv[i + 1]
        i += 2
    return flags


def seed_range(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def load_runs(path):
    """(workload, trace) -> metric -> [values] over the correct runs."""
    table = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            result = run.get("result")
            if not result or not result.get("correct"):
                continue
            per = table.setdefault((run["workload"], run["trace"]), {})
            for name, m in result["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return table


def sweep(argv):
    bench = bench_config()
    flags = parse_flags(argv, {"out": "", "seeds": "1-10",
                               "seconds": str(bench["run_seconds"]), "trace": "0",
                               "workloads": ",".join(w["name"] for w in bench["workloads"])})
    if not flags["out"]:
        die(__doc__)
    build()
    with open(flags["out"], "a") as out:
        for workload in flags["workloads"].split(","):
            for seed in seed_range(flags["seeds"]):
                code, text = run_once(workload, seed, flags["seconds"], flags["trace"],
                                      capture=True)
                try:
                    result = last_json(text)
                except ValueError:
                    result = None
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": int(flags["trace"]),
                                      "seconds": int(flags["seconds"]),
                                      "exit": code, "result": result}) + "\n")
                out.flush()
                ok = result is not None and result.get("correct") and code == 0
                print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
    summarize(flags["out"])


def summarize(path):
    for (workload, trace), metrics in sorted(load_runs(path).items()):
        print(f"== {workload} (trace {trace})")
        for name, values in metrics.items():
            print(f"  {name:40s} n={len(values):2d} median={statistics.median(values):14.4f}"
                  f" spread={100 * spread(values):6.2f}%")


def compare(argv):
    if len(argv) != 2:
        die(__doc__)
    bench = bench_config()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower"
                    for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    regressed = False
    print(f"{'workload':16s} {'metric':38s} {'parent':>12s} {'change':>12s}"
          f" {'delta':>8s} {'spread':>8s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        for name in sorted(set(parent[key]) & set(change[key])):
            a, b = parent[key][name], change[key][name]
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1 if lower_better.get(name, True) else -1
            worse = sign * (mb - ma) / ma if ma else 0.0
            noise = max(spread(a), spread(b))
            if name not in bounds:
                verdict = "info"
            else:
                bound = bounds[name]["bound"]
                all_better = max(sign * x for x in b) < min(sign * x for x in a)
                if worse > bound:
                    verdict = "REGRESSED"
                elif worse < -bound:
                    verdict = "improved"
                elif noise > bound and not all_better:
                    # Within the bound, but the runs spread wider than it:
                    # no evidence either way.
                    verdict = "unresolved"
                else:
                    verdict = "unchanged"
                regressed = regressed or verdict == "REGRESSED"
            print(f"{workload:16s} {name:38s} {ma:12.4g} {mb:12.4g}"
                  f" {100 * (mb - ma) / ma if ma else 0:+7.1f}% {100 * noise:7.1f}%  {verdict}")
    sys.exit(1 if regressed else 0)


def main(argv):
    if argv and argv[0] == "sweep":
        return sweep(argv[1:])
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    flags = parse_flags(argv, {"workload": "", "seed": "1", "seconds": "45", "trace": "0"})
    if flags["workload"] not in WORKLOADS or flags["trace"] not in ("0", "1"):
        die(__doc__)
    build()
    code, text = run_once(flags["workload"], flags["seed"], flags["seconds"], flags["trace"])
    sys.stdout.write(text)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
