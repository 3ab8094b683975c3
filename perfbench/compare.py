"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as ``run.py --out`` appends them; untraced,
full-size runs are compared.  For every workload x end-to-end metric in
``BENCHMARK.json`` it prints each side's median and quartiles, the share of
paired runs the new side won (runs pair up by seed, else in order; ties
count for neither) and a verdict:

``better``
    the new side won at least 9 in 10 pairs, the medians differ by more
    than the base's own spread (its interquartile distance), and no more
    operations failed on the new side than on the base;
``worse``
    the new median is worse than the base median by more than the bound;
``unresolved``
    the run-to-run spread (interquartile distance over median) of either
    side exceeds the metric's bound, and not every new run beats every base
    run;
``unchanged``
    otherwise.

Each workload's row group starts with the failed / attempted operations
of each side.  The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace") or record.get("tiny"):
            continue
        runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, new):
    """Pair runs by seed when both sides share seeds, else by position."""
    by_seed = {run["seed"]: run for run in base}
    matched = [(by_seed[run["seed"]], run) for run in new if run["seed"] in by_seed]
    return matched if matched else list(zip(base, new))


def failures(runs):
    """(failed, attempted) operations over all phases of *runs*."""
    phases = [phase for run in runs for phase in run["phases"].values()]
    return sum(p["failed"] for p in phases), sum(p["sent"] for p in phases)


def verdict(metric, base_runs, new_runs):
    name, lower = metric["name"], metric["better"] == "lower"
    base = [run["metrics"][name]["value"] for run in base_runs]
    new = [run["metrics"][name]["value"] for run in new_runs]
    b1, b2, b3 = quartiles(base)
    n1, n2, n3 = quartiles(new)

    def beats(x, y):
        return x < y if lower else x > y

    paired = pairs(base_runs, new_runs)
    wins = sum(
        beats(n["metrics"][name]["value"], b["metrics"][name]["value"]) for b, n in paired
    )
    won = wins / len(paired) if paired else 0.0
    worse_by = ((n2 - b2) if lower else (b2 - n2)) / b2 if b2 else 0.0
    spread = max((b3 - b1) / b2 if b2 else 0.0, (n3 - n1) / n2 if n2 else 0.0)
    all_better = all(beats(x, y) for x in new for y in base)
    no_more_failures = failures(new_runs)[0] <= failures(base_runs)[0]
    if won >= 0.9 and beats(n2, b2) and abs(n2 - b2) > (b3 - b1) and no_more_failures:
        result = "better"
    elif worse_by > metric["bound"]:
        result = "worse"
    elif spread > metric["bound"] and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return (b1, b2, b3), (n1, n2, n3), won, len(paired), result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(BENCHMARK))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    base, new = load_runs(args.base), load_runs(args.new)
    print(f"{'workload':<16} {'metric':<15} {'base q1/median/q3':>30} {'new q1/median/q3':>30} "
          f"{'won':>9} verdict")
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print(f"{workload:<16} (missing from {'base' if workload not in base else 'new'})")
            continue
        (bf, ba), (nf, na) = failures(base[workload]), failures(new[workload])
        print(f"{workload:<16} {'failed':<15} {f'{bf} of {ba}':>30} {f'{nf} of {na}':>30}")
        for metric in spec["end_to_end"]:
            (b1, b2, b3), (n1, n2, n3), won, count, result = verdict(
                metric, base[workload], new[workload]
            )
            any_worse |= result == "worse"
            print(f"{workload:<16} {metric['name']:<15} "
                  f"{b1:>9.4g} {b2:>9.4g} {b3:>9.4g}   {n1:>9.4g} {n2:>9.4g} {n3:>9.4g}   "
                  f"{won:>4.0%} of {count:<2} {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
