"""Pinned expected results and the check that compares outputs against them.

A produced histogram passes when every tally it carries equals the pinned
one exactly and its total-variation distance to the pinned histogram is
below NOISE_SHARE of the distance Poisson noise alone would give at the
pinned counts.  A change that moves last bits (and so at most a few hits
across a bin edge) shows as a small nonzero tv_to_pinned; a change that
corrupts the physics fails.

Regenerate the pinned files (about six minutes on two cores):

    python3 perfbench/pinning.py
"""

from __future__ import annotations

import json
import math
import sys

import workloads

PINNED = workloads.BENCH / "pinned"
NOISE_SHARE = 0.1


def poisson_tv(counts: list[int], n_detected: int) -> float:
    """Expected TV between two independent Poisson histograms with these means.

    Per bin, |c1 - c2| has mean about 2 sqrt(lambda / pi).
    """
    if n_detected <= 0:
        return 0.0
    return sum(math.sqrt(c / math.pi) for c in counts) / n_detected


def total_variation(a: list[int], na: int, b: list[int], nb: int) -> float:
    if na <= 0 and nb <= 0:
        return 0.0
    fa = [c / na for c in a] if na > 0 else [0.0] * len(a)
    fb = [c / nb for c in b] if nb > 0 else [0.0] * len(b)
    return 0.5 * sum(abs(x - y) for x, y in zip(fa, fb))


def check(produced: dict, pinned: dict) -> tuple[float, list[str]]:
    """(tv_to_pinned, failure reasons) for one produced histogram record."""
    reasons = []
    expect = dict(pinned, in_range=pinned["n_detected"] - pinned["underflow"]
                  - pinned["overflow"])
    for key, val in produced.items():
        if key != "counts" and val != expect[key]:
            reasons.append(f"{key} = {val}, pinned {expect[key]}")
    if len(produced["counts"]) != len(pinned["counts"]):
        reasons.append(f"{len(produced['counts'])} bins, pinned {len(pinned['counts'])}")
        return math.inf, reasons
    tv = total_variation(produced["counts"], produced["n_detected"],
                         pinned["counts"], pinned["n_detected"])
    limit = NOISE_SHARE * poisson_tv(pinned["counts"], pinned["n_detected"])
    if tv > limit:
        reasons.append(f"tv_to_pinned {tv:.3g} above {limit:.3g} "
                       f"({NOISE_SHARE} of the Poisson noise)")
    return tv, reasons


def check_all(produced: dict[str, dict], pinned: dict[str, dict]
              ) -> tuple[float, list[str]]:
    """Worst tv and all reasons over the histograms of one operation."""
    worst, reasons = 0.0, []
    if set(produced) != set(pinned):
        return math.inf, [f"histograms {sorted(produced)}, pinned {sorted(pinned)}"]
    for key in sorted(pinned):
        tv, why = check(produced[key], pinned[key])
        worst = max(worst, tv)
        reasons += [f"{key}: {w}" for w in why]
    return worst, reasons


def load(workload: str, variant: int) -> dict[str, dict]:
    data = json.loads((PINNED / f"{workload}.json").read_text())
    return data["variants"][str(variant)]


def regenerate(workload: str) -> None:
    variants = {}
    for v in range(workloads.N_VARIANTS):
        run_dir = workloads.WORK / "pin" / f"{workload}-v{v}"
        variants[str(v)] = workloads.expected_records(workload, v, run_dir)
        print(f"{workload} variant {v} pinned", flush=True)
    text = json.dumps({"workload": workload, "variants": variants},
                      separators=(",", ":"), sort_keys=True)
    PINNED.mkdir(exist_ok=True)
    (PINNED / f"{workload}.json").write_text(text + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(workloads.SRC))
    for name in workloads.WORKLOADS:
        regenerate(name)
