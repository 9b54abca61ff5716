#!/usr/bin/env python3
"""Parent-vs-change comparison for the repository benchmark.

Stdlib only. Three subcommands:

  compare.py run PARENT_DIR CHANGE_DIR [--pairs 10] [--seed 1]
                 [--workloads a,b] --out PREFIX
      Runs benchmark/run.py in both checkouts for --pairs alternating pairs
      per workload (pair i uses seed --seed + i; even pairs run the parent
      first, odd pairs the change), each run a fresh process. Writes
      PREFIX.parent.json and PREFIX.change.json in run.py --suite's format.

  compare.py diff PARENT.json CHANGE.json [--claim METRIC@WORKLOAD ...]
      One row per workload. A claimed metric must win at least 9 of 10
      pairs (ties count for neither side) with a median gap wider than the
      parent's interquartile range. Every other end-to-end metric must stay
      within its bound: BENCHMARK.json's, except for the session-outcome
      ratios (emerged_fraction, release_resilience), whose bound is four
      binomial standard errors at the workload's own rate and sessions per
      run. Where the parent's own spread is wider than the bound the metric
      is reported as unresolved, unless every run of the change reads
      better than every run of the parent. The failure share (failed /
      attempted sessions) must not rise by more than four binomial
      standard errors, and every run must be correct. Exits 1 on a
      regression, 2 when a claim is not met, 0 otherwise.

  compare.py baseline SET1.json SET2.json [--out-dir benchmark/baseline]
      Writes benchmark/baseline/<workload>.json from two run.py --suite
      outputs of one commit: each set's values, median and quartiles per
      metric, the spread (q3 - q1) / median that each bound must exceed,
      and the drift between the two sets' medians.
"""

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

from benchlib import call, load_json as load, quartiles

ROOT = Path(__file__).resolve().parent.parent
# Shares of a run's sessions: compared by the binomial rule below.
BINOMIAL = ("emerged_fraction", "release_resilience")


def binomial_bound(parent, change, sessions):
    """E2eRunner::cross_validate's z=4 rule for two rates over `sessions`
    sessions each: 4 standard errors of their difference at the pooled rate
    plus the continuity correction, as a share of the parent's rate."""
    pooled = (parent + change) / 2
    inv_n = 2.0 / sessions
    return (4.0 * math.sqrt(pooled * (1.0 - pooled) * inv_n) + inv_n) / parent


def end_to_end():
    return {m["name"]: m for m in load(ROOT / "BENCHMARK.json")["end_to_end"]}


def values_of(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs]


def better(metric, a, b):
    """True when value a is strictly better than value b."""
    return a < b if metric["better"] == "lower" else a > b


# -- run -----------------------------------------------------------------------

def cmd_run(args):
    spec = load(ROOT / "BENCHMARK.json")
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    sides = {"parent": Path(args.parent_dir), "change": Path(args.change_dir)}
    results = {side: {w: {"runs": [], "trace": []} for w in workloads}
               for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, "benchmark/run.py", "--workload",
                       workload, "--seed", str(args.seed + i), "--seconds",
                       str(spec["run_seconds"]), "--trace", "0"]
                code, out, err = call(cmd, timeout=900, cwd=sides[side])
                lines = out.strip().splitlines()
                if code != 0 or not lines:
                    print(f"{side} {workload} pair {i}: exit {code}: "
                          f"{err.strip()}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                result["seed"] = args.seed + i
                results[side][workload]["runs"].append(result)
                print(f"# pair {i} {workload} {side}: done", flush=True)
    for side in sides:
        with open(f"{args.out}.{side}.json", "w", encoding="utf-8") as out:
            json.dump({"run_seconds": spec["run_seconds"],
                       "workloads": results[side]}, out, indent=1)
    return 0


# -- diff ----------------------------------------------------------------------

def judge(metric, bound, parent, change, claimed):
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    iqr = q3 - q1
    gap = med_c - med_p
    worse_by = (gap if metric["better"] == "lower" else -gap) / med_p
    if claimed:
        pairs = list(zip(parent, change))
        wins = sum(better(metric, c, p) for p, c in pairs)
        met = (wins >= math.ceil(0.9 * len(pairs)) and worse_by < 0
               and abs(gap) > iqr)
        return ("GAIN" if met else "CLAIM NOT MET",
                f"wins {wins}/{len(pairs)}, gap {abs(gap):.6g} vs parent "
                f"IQR {iqr:.6g}")
    spread = iqr / med_p if med_p else math.inf
    detail = (f"worse by {worse_by:+.2%}, parent spread {spread:.2%}, "
              f"bound {bound:.2%}")
    if spread > bound:
        if all(better(metric, c, p) for c in change for p in parent):
            return "better", detail
        return "unresolved", detail
    if worse_by > bound:
        return "REGRESSION", detail
    return "ok", detail


def failure_rise(parent_runs, change_runs):
    fp = sum(r["failed"] for r in parent_runs)
    np_ = sum(r["attempted"] for r in parent_runs)
    fc = sum(r["failed"] for r in change_runs)
    nc = sum(r["attempted"] for r in change_runs)
    pooled = (fp + fc) / (np_ + nc)
    se = math.sqrt(pooled * (1 - pooled) * (1 / np_ + 1 / nc))
    rises = fc / nc - fp / np_ > 4 * se
    return rises, f"failure share {fp / np_:.4%} -> {fc / nc:.4%}"


def cmd_diff(args):
    metrics = end_to_end()
    parent = load(args.parent)["workloads"]
    change = load(args.change)["workloads"]
    claims = {}
    for claim in args.claim or []:
        name, _, workload = claim.partition("@")
        if name not in metrics or workload not in parent:
            print(f"unknown claim {claim!r}", file=sys.stderr)
            return 2
        claims.setdefault(workload, set()).add(name)

    regression = claim_missed = False
    print(f"{'workload':18s} {'verdict':12s} details")
    for workload in parent:
        if workload not in change:
            continue
        p_runs, c_runs = parent[workload]["runs"], change[workload]["runs"]
        rows, verdict = [], "ok"
        if not all(r["correct"] for r in p_runs + c_runs):
            rows.append("  an output check failed in some run")
            verdict = "REGRESSION"
        rises, text = failure_rise(p_runs, c_runs)
        if rises:
            verdict = "REGRESSION"
        rows.append(f"  {text}{'  REGRESSION' if rises else ''}")
        sessions = statistics.median(r["attempted"] for r in p_runs)
        for name, metric in metrics.items():
            parent_values = values_of(p_runs, name)
            change_values = values_of(c_runs, name)
            bound = metric["bound"]
            if name in BINOMIAL:
                bound = binomial_bound(statistics.median(parent_values),
                                       statistics.median(change_values),
                                       sessions)
            outcome, detail = judge(metric, bound, parent_values,
                                    change_values,
                                    name in claims.get(workload, ()))
            rows.append(f"  {name:22s} {outcome:14s} {detail}")
            if outcome == "REGRESSION":
                verdict = "REGRESSION"
            elif outcome == "CLAIM NOT MET":
                claim_missed = True
                if verdict != "REGRESSION":
                    verdict = "claim not met"
            elif outcome == "unresolved" and verdict == "ok":
                verdict = "unresolved"
        regression = regression or verdict == "REGRESSION"
        print(f"{workload:18s} {verdict:12s} {len(p_runs)} parent / "
              f"{len(c_runs)} change runs")
        print("\n".join(rows))
    if regression:
        return 1
    return 2 if claim_missed else 0


# -- baseline ------------------------------------------------------------------

def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} cores"


def cmd_baseline(args):
    metrics = end_to_end()
    sets = [load(args.set1), load(args.set2)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in sets[0]["workloads"]:
        doc = {"workload": workload, "machine": machine(),
               "run_seconds": sets[0]["run_seconds"], "sets": [],
               "bounds": {}}
        for s in sets:
            runs = s["workloads"][workload]["runs"]
            summary = {"seeds": [r["seed"] for r in runs],
                       "failed": sum(r["failed"] for r in runs),
                       "attempted": sum(r["attempted"] for r in runs),
                       "metrics": {}}
            for name in metrics:
                values = values_of(runs, name)
                q1, med, q3 = quartiles(values)
                summary["metrics"][name] = {
                    "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med, "values": values}
            doc["sets"].append(summary)
        sessions = statistics.median(
            r["attempted"] for r in sets[0]["workloads"][workload]["runs"])
        for name, metric in metrics.items():
            spreads = [s["metrics"][name]["spread"] for s in doc["sets"]]
            medians = [s["metrics"][name]["median"] for s in doc["sets"]]
            drift = medians[1] - medians[0]
            if metric["better"] == "higher":
                drift = -drift
            entry = {"bound": metric["bound"], "unit": metric["unit"],
                     "better": metric["better"], "max_spread": max(spreads),
                     "spread_over_bound": max(spreads) / metric["bound"],
                     "second_median_worse_by": drift / medians[0]}
            if name in BINOMIAL:
                entry["workload_bound"] = binomial_bound(
                    medians[0], medians[0], sessions)
            doc["bounds"][name] = entry
        path = out_dir / f"{workload}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
        print(f"# wrote {path}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("parent_dir")
    run.add_argument("change_dir")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--workloads")
    run.add_argument("--out", required=True)
    diff = sub.add_parser("diff")
    diff.add_argument("parent")
    diff.add_argument("change")
    diff.add_argument("--claim", action="append")
    base = sub.add_parser("baseline")
    base.add_argument("set1")
    base.add_argument("set2")
    base.add_argument("--out-dir", default=str(ROOT / "benchmark" / "baseline"))
    args = parser.parse_args(argv[1:])
    return {"run": cmd_run, "diff": cmd_diff, "baseline": cmd_baseline}[
        args.command](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
