"""slitsim benchmark: one workload, timed for --seconds, outputs checked.

    python3 perfbench/run.py --workload kernel-grid --seed 1 --seconds 45 --trace 0

Run from anywhere; the program is imported from src/ next to this
directory.  --workload all runs the three workloads in turn.  With
--trace 0 the last stdout line carries the end-to-end metrics, measured
with tracing off; with --trace 1 it carries the per-layer metrics.  Both
lists, with their units, are read from BENCHMARK.json.  Every run writes a result file with its environment,
every operation and every metric to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import pinning
import spans
import workloads
from workloads import SRC, WORK, WORKLOADS

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
# Reported with every end-to-end block and gated through `correct`; both
# are 0 on a correct program, so no relative bound can apply to them.
GATES = {"tv_to_pinned": "1", "failed_frac": "1"}
MIN_SETUP_SAMPLES = 3


def environment() -> dict:
    cpu = next((ln.split(":", 1)[1].strip()
                for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    commit = None
    if (workloads.ROOT / ".git").exists():
        commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                                cwd=workloads.ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def measure_setup(workload: str, cfg: Path) -> float:
    """A fresh interpreter importing the entry point and parsing the config."""
    entry = "slitsim.config" if workload == "kernel-grid" else "slitsim.cli"
    code = f"import slitsim, {entry} as m; m.parse_config({str(cfg)!r})"
    t = workloads.run_child([sys.executable, "-c", code],
                            cfg.parent / "setup.stderr")
    if t["returncode"] != 0:
        raise RuntimeError(f"setup exited with {t['returncode']}")
    return t["wall_s"]


class Workload:
    """One workload variant: configs on disk, its pinned results, its ops."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.name = name
        self.variant = workloads.variant_of(seed)
        self.dir = run_dir / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.cfgs = workloads.write_configs(name, self.variant, self.dir)
        self.pinned = pinning.load(name, self.variant)
        self.loaded = (workloads.load_kernel_grid(self.cfgs)
                       if name == "kernel-grid" else None)
        self.count = 0

    def op(self, traced: bool) -> dict:
        """Run, time and check one operation; failures are recorded, not raised."""
        self.count += 1
        op = {"workload": self.name, "traced": traced, "reasons": [], "tv": None}
        t0 = time.perf_counter()
        try:
            if self.name == "kernel-grid":
                tracer = spans.Tracer() if traced else None
                if traced:
                    with tracer.patched(spans.program_targets()):
                        timing, records = workloads.kernel_grid_op(self.loaded, tracer)
                    op["spans"] = tracer.all_spans()
                else:
                    timing, records = workloads.kernel_grid_op(self.loaded)
            else:
                out = self.dir / f"op{self.count}"
                span_file = self.dir / f"op{self.count}-spans.json" if traced else None
                timing, records = workloads.cli_op(self.name, self.cfgs[0], out,
                                                   span_file)
                if traced:
                    op["spans"] = json.loads(span_file.read_text())
                shutil.rmtree(out, ignore_errors=True)
            op["timing"], op["records"] = timing, records
            tv, reasons = pinning.check_all(records, self.pinned)
            op["tv"] = tv
            op["reasons"] = reasons
        except Exception as exc:  # every failure is counted, never fatal
            op["timing"] = {"wall_s": time.perf_counter() - t0}
            op["reasons"] = [f"{type(exc).__name__}: {exc}"]
        op["ok"] = not op["reasons"]
        return op


def tail_percentile(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it.

    None while that percentile is not above the median (n < 21).
    """
    n = len(values)
    p = math.floor(100 * (1 - 10 / n))
    if p <= 50:
        return {"percentile": None, "value": None, "n": n}
    return {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1],
            "n": n}


def end_to_end(w: Workload, ops: list[dict], setup: list[float]) -> dict:
    walls = [op["timing"]["wall_s"] for op in ops]
    timed = [op["timing"] for op in ops if op["ok"]] or [op["timing"] for op in ops]
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "traj_per_s": workloads.trajectories_per_op(w.name) / wall,
        "cpu_s": statistics.median(t.get("cpu_s", math.nan) for t in timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(t.get("peak_rss_mb", math.nan) for t in timed),
    }


def neighbour_overhead(ops: list[dict]) -> list[float]:
    """Each traced wall_s minus the mean of its two untraced neighbours."""
    walls = [op["timing"]["wall_s"] for op in ops]
    return [walls[i] - (walls[i - 1] + walls[i + 1]) / 2
            for i in range(1, len(ops) - 1, 2)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = WORK / f"seed{seed}-trace{int(trace)}"
    w = Workload(name, seed, run_dir)
    setup, t0 = [], time.perf_counter()
    if trace:
        # Untraced, then traced and untraced in turn: every traced operation
        # sits between two untraced ones, and the difference to their mean
        # is the tracing overhead.
        ops = [w.op(traced=False)]
        while len(ops) < 3 or time.perf_counter() - t0 < seconds:
            ops += [w.op(traced=True), w.op(traced=False)]
    else:
        # One fresh-interpreter setup sample before each operation, so the
        # samples are spread over the run like the operations.
        ops = []
        while (len(setup) < MIN_SETUP_SAMPLES
               or time.perf_counter() - t0 < seconds):
            setup.append(measure_setup(name, w.cfgs[0]))
            ops.append(w.op(traced=False))
    result = {"workload": name, "seed": seed, "variant": w.variant,
              "trace": int(trace), "seconds": seconds,
              "configs": {p.name: p.read_text() for p in w.cfgs}}
    if trace:
        traced = {name: [op for op in ops if op["traced"]]}
        overheads = neighbour_overhead(ops)
        spans_per_op = statistics.median(len(op.get("spans", []))
                                         for op in traced[name])
        for other in WORKLOADS:
            if other != name:
                op = Workload(other, seed, run_dir).op(traced=True)
                ops.append(op)
                traced[other] = [op]
        metrics = layers.span_metrics({k: [op for op in v if op["ok"]]
                                       for k, v in traced.items()})
        metrics.update(layers.microbenchmarks(w.variant))
        sweep_cfg = workloads.write_configs("sweep-cli", w.variant,
                                            run_dir / "speedup")[0]
        metrics["ensemble.parallel_speedup_2w"] = layers.parallel_speedup(sweep_cfg)
        metrics["bench.trace_overhead_s"] = statistics.median(overheads)
        result["trace_overhead"] = {
            "pairs": len(overheads), "values_s": overheads,
            "spans_per_op": spans_per_op,
            "span_cost_s": layers.span_cost_s() * spans_per_op}
        section = "per_layer"
    else:
        metrics = end_to_end(w, ops, setup)
        result["setup_samples"] = setup
        result["wall_s_tail"] = tail_percentile([op["timing"]["wall_s"] for op in ops])
        section = "end_to_end"
    failed = sum(not op["ok"] for op in ops)
    tvs = [op["tv"] for op in ops if op["tv"] is not None]
    result.update(
        attempted=len(ops), failed=failed,
        gates={"tv_to_pinned": max(tvs) if tvs else math.inf,
               "failed_frac": failed / len(ops)},
        metrics={m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                 for m in BENCHMARK[section]},
        ops=[{k: v for k, v in op.items() if k != "spans"} for op in ops])
    return result


def print_block(r: dict) -> None:
    print(f"== {r['workload']} seed {r['seed']} (variant {r['variant']}) "
          f"trace {r['trace']}: {r['attempted']} operations, {r['failed']} failed")
    for name, m in r["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    for name, value in r["gates"].items():
        print(f"{name} = {value} {GATES[name]}")
    if "wall_s_tail" in r:
        t = r["wall_s_tail"]
        print(f"wall_s tail: p{t['percentile']} = {t['value']} s over n = {t['n']} "
              "operations (a tail above the median needs n >= 21)")
    if r["trace"]:
        t = r["trace_overhead"]
        print(f"tracing overhead on {r['workload']}: median over {t['pairs']} "
              "traced operations of traced wall_s minus the mean of its untraced "
              f"neighbours; span wrapper cost {t['span_cost_s']:.3g} s for "
              f"{t['spans_per_op']:g} spans per operation")
    for op in r["ops"]:
        for reason in op["reasons"]:
            print(f"FAILED {op['workload']}: {reason}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "slitsim" / "__init__.py").is_file():
        print(f"perfbench: no slitsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        r = run_workload(name, args.seed, args.seconds, bool(args.trace))
        r["environment"] = env
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
        path.write_text(json.dumps(r, indent=1) + "\n")
        print_block(r)
        print(f"result file: {path.relative_to(workloads.ROOT)}")
        results.append(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results
                   for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["failed"] == 0 for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
