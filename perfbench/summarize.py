"""Median, quartiles and spread of each metric over a set of result files.

    python3 perfbench/summarize.py .perfbench/results [--json OUT]

Spread is (Q3 - Q1) / median with statistics.quantiles(values, n=4),
per workload and metric; compare it with the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def summarize(paths: list[Path]) -> dict:
    groups: dict[str, list[dict]] = {}
    for path in paths:
        r = json.loads(path.read_text())
        groups.setdefault(f"{r['workload']} trace{r['trace']}", []).append(r)
    out = {}
    for key, runs in sorted(groups.items()):
        names = list(runs[0]["metrics"]) + list(runs[0]["gates"])
        table = {}
        for name in names:
            vals = [r["metrics"][name]["value"] if name in r["metrics"]
                    else r["gates"][name] for r in runs]
            vals = [v for v in vals if v is not None]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            table[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else None,
                           "values": vals}
        out[key] = {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs),
                    "failed": sum(r["failed"] for r in runs),
                    "attempted": sum(r["attempted"] for r in runs),
                    "environment": runs[0]["environment"], "metrics": table}
        if "trace_overhead" in runs[0]:
            out[key]["trace_overhead"] = [r["trace_overhead"] for r in runs]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", type=Path,
                    help="result files or directories of them")
    ap.add_argument("--json", type=Path, help="also write the summary here")
    args = ap.parse_args()
    files = sorted(f for p in args.paths
                   for f in (p.glob("*.json") if p.is_dir() else [p]))
    summary = summarize(files)
    for key, s in summary.items():
        print(f"== {key}: {s['runs']} runs, {s['failed']}/{s['attempted']} "
              f"operations failed")
        for name, m in s["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:48} median {m['median']:<12.6g} spread {spread}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
