"""Compare two result files written with ``run.py --out``.

For each workload and end-to-end metric, prints each side's median and
quartiles over its runs, the ratio NEW/BASE of the medians, and whether NEW
is worse than BASE by more than the bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _load(path) -> dict:
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec.get("trace"):
                    runs[rec["workload"]].append(rec)
    return runs


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fmt(quartiles) -> str:
    return "/".join(f"{v:.4g}" for v in quartiles)


def main(base_path, new_path, spec_path) -> int:
    spec = json.loads(spec_path.read_text())
    base, new = _load(base_path), _load(new_path)
    worse = 0
    header = f"{'workload':<20} {'metric':<17} {'base q1/med/q3':<32} {'new q1/med/q3':<32} {'ratio':>7}  verdict"
    print(header)
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print(f"{workload:<20} present on one side only")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base[workload]]
            b = [r["metrics"][name]["value"] for r in new[workload]]
            qa, qb = _quartiles(a), _quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("inf")
            change = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            verdict = "WORSE beyond bound" if change > metric["bound"] else "within bound"
            worse += change > metric["bound"]
            print(f"{workload:<20} {name:<17} {_fmt(qa):<32} {_fmt(qb):<32} {ratio:>7.3f}  "
                  f"{verdict} ({len(a)} vs {len(b)} runs, bound {metric['bound']})")
        fa = sum(r["failed"] for r in base[workload]), sum(r["attempted"] for r in base[workload])
        fb = sum(r["failed"] for r in new[workload]), sum(r["attempted"] for r in new[workload])
        print(f"{workload:<20} failed/attempted: base {fa[0]}/{fa[1]}, new {fb[0]}/{fb[1]}")
    return 1 if worse else 0
