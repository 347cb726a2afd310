"""Per-layer metrics: span-derived timings, exact counts and microbenchmarks.

Span metrics are taken on traced operations of the workload that
exercises the layer; a traced run makes at least one traced operation of
every workload, so every traced run reports every metric whatever its
--workload.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import workloads
from spans import Tracer, self_time

GRID_POINTS = [f"v{v0:g}-tau{tau:g}" for v0 in workloads.GRID_V0
               for tau in workloads.GRID_TAU]


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _dur(spans, name) -> float:
    return sum(s["end"] - s["start"] for s in _named(spans, name))


def _median_over(ops, fn):
    vals = [fn(op) for op in ops]
    return statistics.median(vals) if vals else None


def _kernel_point_us(spans, point):
    batches = [s for s in _named(spans, "ensemble.simulate_batch")
               if s["attrs"]["point"] == point]
    return 1e6 * sum(s["end"] - s["start"] for s in batches) / sum(
        s["attrs"]["lanes"] for s in batches)


def span_metrics(traced: dict[str, list[dict]]) -> dict[str, float]:
    """Metrics from traced operations, keyed by workload.

    Each operation is {"spans": [...], "records": {...}, "timing": {...}};
    a value is the median over that workload's traced operations.
    """
    grid, sweep, trace = (traced.get(w, []) for w in workloads.WORKLOADS)
    m = {}
    for p in GRID_POINTS:
        m[f"ensemble.simulate_batch.us_per_traj.{p}"] = _median_over(
            grid, lambda op, p=p: _kernel_point_us(op["spans"], p))
    if grid:
        recs = grid[0]["records"].values()
        tally = {k: sum(r[f"n_{k}"] for r in recs)
                 for k in ("detected", "blocked", "escaped", "steplimit")}
        for k, v in tally.items():
            m[f"ensemble.outcomes.{k}"] = v
        m["ensemble.detected_frac"] = tally["detected"] / sum(r["n_emitted"] for r in recs)

    m["ensemble.run_ensemble.s"] = _median_over(
        sweep, lambda op: _dur(op["spans"], "ensemble.run_ensemble"))
    m["ensemble.overhead_s"] = _median_over(sweep, lambda op: sum(
        self_time(s, op["spans"]) for s in _named(op["spans"], "ensemble.run_ensemble")))
    for f in ("find_extrema", "oscillation_index", "total_variation"):
        m[f"analysis.{f}.ms"] = _median_over(
            sweep, lambda op, f=f: 1e3 * _dur(op["spans"], f"analysis.{f}"))

    def steps(op):
        return [s["attrs"]["steps"]
                for s in _named(op["spans"], "scattering.run_discrete_trajectory")]
    m["scattering.run_discrete_trajectory.us_per_step"] = _median_over(
        trace, lambda op: 1e6 * _dur(op["spans"], "scattering.run_discrete_trajectory")
        / sum(steps(op)))
    m["scattering.steps_per_traj.min"] = _median_over(trace, lambda op: min(steps(op)))
    m["scattering.steps_per_traj.mean"] = _median_over(
        trace, lambda op: statistics.fmean(steps(op)))
    m["scattering.steps_per_traj.max"] = _median_over(trace, lambda op: max(steps(op)))
    m["cli.cmd_self_s"] = _median_over(trace, lambda op: sum(
        self_time(s, op["spans"]) for s in _named(op["spans"], "cli.cmd_trace")))
    m["cli.output_bytes"] = _median_over(trace, lambda op: op["timing"]["output_bytes"])
    m["svg.render_trajectories.s"] = _median_over(
        trace, lambda op: _dur(op["spans"], "svg.render_trajectories"))

    cli_ops = sweep + trace
    m["cli.import_s"] = _median_over(cli_ops, lambda op: _dur(op["spans"], "cli.import"))
    m["config.parse_config.ms"] = _median_over(
        cli_ops, lambda op: 1e3 * _dur(op["spans"], "config.parse_config"))
    return m


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean time per call, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def span_cost_s() -> float:
    """Cost of one span: a traced no-op call minus the bare call."""
    def noop():
        return None
    traced = Tracer().wrap(noop, "noop")
    return _per_call(traced, calls=20000) - _per_call(noop, calls=20000)


def microbenchmarks(variant: int) -> dict[str, float]:
    """Scalar and array force and the scalar step on seeded arena points."""
    from slitsim.dynamics import ParticleState, StepParams, step_discrete
    from slitsim.field import FieldParams, Vec2, force_batch, force_closed_form

    rng = np.random.default_rng(variant)
    fld = FieldParams(charge_product=-1.0, slit_half_height=5.0)
    # The arena between the left escape bound and the detector, off x = 0.
    x = rng.uniform(-10.0, 25.0, workloads.KERNEL_LANES)
    x[x == 0.0] = 1e-3
    y = rng.uniform(-25.0, 25.0, workloads.KERNEL_LANES)
    per_call = _per_call(lambda: force_batch(x, y, fld), calls=100)
    m = {"field.force_batch.ns_per_elem": 1e9 * per_call / x.size}

    pts = [Vec2(float(a), float(b)) for a, b in zip(x[:2000], y[:2000])]
    per_call = _per_call(lambda: [force_closed_form(p, fld) for p in pts], calls=5)
    m["field.force_closed_form.us_per_call"] = 1e6 * per_call / len(pts)

    ang = rng.uniform(-np.pi, np.pi, len(pts))
    states = [ParticleState(pos=p, vel=Vec2(15.0 * math.cos(a), 15.0 * math.sin(a)), t=0.0)
              for p, a in zip(pts, ang.tolist())]
    sp = StepParams(tau=workloads.TRACE_TAU)
    per_call = _per_call(lambda: [step_discrete(s, fld, sp) for s in states], calls=5)
    m["dynamics.step_discrete.us_per_call"] = 1e6 * per_call / len(states)
    return m


def parallel_speedup(cfg_path) -> float:
    """In-process sweep-cli sweep: 1-worker wall time over 2-worker wall time."""
    from slitsim.config import (build_emission, build_field, build_geometry,
                                build_histogram_spec, build_step, parse_config)
    from slitsim.ensemble import run_ensemble
    cfg = parse_config(cfg_path)
    walls = []
    for workers in (1, 2):
        t0 = time.perf_counter()
        for tau in cfg.tau_list:
            run_ensemble(build_emission(cfg), build_geometry(cfg), build_field(cfg),
                         build_step(cfg, tau=tau), build_histogram_spec(cfg),
                         workers=workers)
        walls.append(time.perf_counter() - t0)
    return walls[0] / walls[1]
