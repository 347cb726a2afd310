"""Workload definitions: seeded configs, one timed operation each, output readers.

Every workload runs the arrivals physics of the paper's setup (attracting
screen, slit half-height 5, detector at x = +25).  A run's seed is folded
onto one of N_VARIANTS input variants (seed mod N_VARIANTS); each variant
has pinned expected results in pinned/<workload>.json.

  kernel-grid  in-process run_ensemble, workers=1, one 16384-lane chunk
               per point of v0 in {12, 15} x tau in {0.05, 0.01, 0.001}
  sweep-cli    fresh-process `slitsim sweep-tau`, v0 = 15, random mode,
               n = 1e5, tau_list = 0.05, 0.01, workers = 2
  trace-cli    fresh-process `slitsim trace`, v0 = 15, tau = 0.002,
               100 swept angles
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("kernel-grid", "sweep-cli", "trace-cli")
N_VARIANTS = 32
GRID_V0 = (12.0, 15.0)
GRID_TAU = (0.05, 0.01, 0.001)
KERNEL_LANES = 16384
SWEEP_N = 100_000
SWEEP_TAUS = (0.05, 0.01)
TRACE_TAU = 0.002
TRACE_N = 100
OP_TIMEOUT_S = 120.0

_PHYSICS = """\
charge_product   = -1.0
slit_half_height = 5.0
emitter_distance = 5.0
screen_gap       = 25.0
particle_radius  = 0.2
y_bound          = 50.0
max_steps        = 1000000
mass             = 1.0
bin_width        = 0.4
y_min            = -25.0
y_max            = 25.0
window           = 5
k_sigma          = 5.0
"""
DETECTOR_X = 25.0
BIN_WIDTH, Y_MIN, N_BINS = 0.4, -25.0, 125


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _fmt_taus(taus) -> str:
    return ", ".join(f"{t:g}" for t in taus)


def generate_configs(workload: str, variant: int) -> dict[str, str]:
    """Config file texts for one workload variant, keyed by file name.

    A pure function of (workload, variant): the same seed always gives
    byte-identical configs.
    """
    rng = random.Random(f"{workload}:{variant}")
    seed = rng.randrange(1, 2**31)
    if workload == "kernel-grid":
        return {f"v{v0:g}.cfg": _PHYSICS + (
            f"v0 = {v0!r}\nalpha_min_deg = -45.5\nalpha_max_deg = 45.5\n"
            f"mode = random\nn = {KERNEL_LANES}\nseed = {seed}\n"
            f"tau = {GRID_TAU[0]!r}\ntau_list = {_fmt_taus(GRID_TAU)}\n"
            "workers = 1\n") for v0 in GRID_V0}
    if workload == "sweep-cli":
        return {"sweep.cfg": _PHYSICS + (
            "v0 = 15.0\nalpha_min_deg = -45.5\nalpha_max_deg = 45.5\n"
            f"mode = random\nn = {SWEEP_N}\nseed = {seed}\n"
            f"tau = {SWEEP_TAUS[0]!r}\ntau_list = {_fmt_taus(SWEEP_TAUS)}\n"
            "workers = 2\n")}
    if workload == "trace-cli":
        # Trace angles are swept, not drawn, so the seed moves the range.
        lo = -45.5 + rng.uniform(0.0, 0.5)
        hi = 45.5 - rng.uniform(0.0, 0.5)
        return {"trace.cfg": _PHYSICS + (
            f"v0 = 15.0\nalpha_min_deg = {lo!r}\nalpha_max_deg = {hi!r}\n"
            f"mode = sweep\nn = {TRACE_N}\nseed = {seed}\n"
            f"tau = {TRACE_TAU!r}\ntau_list = {TRACE_TAU!r}\nworkers = 1\n")}
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(workload: str, variant: int, run_dir: Path) -> list[Path]:
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in generate_configs(workload, variant).items():
        path = run_dir / name
        path.write_text(text)
        paths.append(path)
    return paths


def trajectories_per_op(workload: str) -> int:
    return {"kernel-grid": KERNEL_LANES * len(GRID_V0) * len(GRID_TAU),
            "sweep-cli": SWEEP_N * len(SWEEP_TAUS),
            "trace-cli": TRACE_N}[workload]


def cli_argv(workload: str, cfg: Path, out: Path) -> list[str]:
    if workload == "sweep-cli":
        return ["sweep-tau", "--config", str(cfg), "--out", str(out)]
    return ["trace", "--config", str(cfg), "--n", str(TRACE_N), "--out", str(out)]


# -- histogram records ------------------------------------------------------

TALLIES = ("n_emitted", "n_detected", "n_blocked", "n_escaped", "n_steplimit",
           "underflow", "overflow")


def record_from_histogram(h) -> dict:
    rec = {k: int(getattr(h, k)) for k in TALLIES}
    rec["counts"] = [int(c) for c in h.counts]
    return rec


def bin_hits(ys) -> tuple[list[int], int, int]:
    """Detector binning with the configs' cells (0.4 wide over [-25, 25))."""
    ix = np.floor((np.asarray(ys, dtype=float) - Y_MIN) / BIN_WIDTH).astype(np.int64)
    ok = (ix >= 0) & (ix < N_BINS)
    counts = np.bincount(ix[ok], minlength=N_BINS)
    return [int(c) for c in counts], int((ix < 0).sum()), int((ix >= N_BINS).sum())


def _report_values(path: Path) -> dict[str, str]:
    vals = {}
    for line in path.read_text().splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            vals[key.strip()] = val.strip()
    return vals


def read_sweep_outputs(out: Path) -> dict[str, dict]:
    """Per-tau records from sweep-tau's distribution CSVs and report.

    sweep-tau reports only n_detected per tau; the in-range total is the
    sum of the CSV counts, so underflow + overflow is checked as a sum.
    """
    detected = {}
    for line in (out / "report.txt").read_text().splitlines():
        if line.startswith("tau=") and " detected=" in line:
            tau = float(line[4:line.index(":")])
            detected[tau] = int(line.split(" detected=")[1].split()[0])
    recs = {}
    for tau in SWEEP_TAUS:
        rows = (out / f"distribution_tau{tau:g}.csv").read_text().splitlines()[1:]
        counts = [int(r.split(",")[1]) for r in rows]
        recs[f"tau{tau:g}"] = {"n_detected": detected[tau],
                               "in_range": sum(counts), "counts": counts}
    return recs


def read_trace_outputs(out: Path) -> dict[str, dict]:
    """Outcome tallies from report.txt, detector hits from trajectories.csv.

    The last row of a detected trajectory is its interpolated hit on the
    detector plane x = +25.
    """
    rep = _report_values(out / "report.txt")
    last: dict[str, tuple[str, str]] = {}
    with open(out / "trajectories.csv") as fh:
        next(fh)
        for line in fh:
            tid, _, x, y = line.rstrip("\n").split(",")
            last[tid] = (x, y)
    hits = [float(y) for x, y in last.values() if float(x) == DETECTOR_X]
    counts, under, over = bin_hits(hits)
    rec = {"n_emitted": int(rep["trajectories"]),
           "n_detected": int(rep["detected"]),
           "n_blocked": int(rep["blocked"]),
           "n_escaped": int(rep["escaped"]),
           "n_steplimit": int(rep["steplimit"]),
           "underflow": under, "overflow": over, "counts": counts}
    if len(last) != rec["n_emitted"] or len(hits) != rec["n_detected"]:
        raise ValueError(f"trajectories.csv holds {len(last)} paths with "
                         f"{len(hits)} detector hits, report says "
                         f"{rec['n_emitted']} and {rec['n_detected']}")
    return {"trace": rec}


# -- one operation ----------------------------------------------------------

def load_kernel_grid(cfg_paths: list[Path]):
    """Parse the grid configs once, outside the timed region."""
    from slitsim.config import parse_config
    return [parse_config(p) for p in cfg_paths]


def kernel_grid_op(cfgs, tracer=None) -> tuple[dict, dict]:
    """Run the grid in-process; returns (timings, {point: histogram record})."""
    from slitsim.config import (build_emission, build_field, build_geometry,
                                build_histogram_spec, build_step)
    from slitsim.ensemble import run_ensemble
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    hists = {}
    for cfg in cfgs:
        for tau in cfg.tau_list:
            args = (build_emission(cfg), build_geometry(cfg), build_field(cfg),
                    build_step(cfg, tau=tau), build_histogram_spec(cfg))
            if tracer is None:
                h = run_ensemble(*args, workers=cfg.workers)
            else:
                with tracer.span("ensemble.run_ensemble"):
                    h = run_ensemble(*args, workers=cfg.workers)
            hists[f"v{cfg.v0:g}-tau{tau:g}"] = h
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    timing = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": r1.ru_maxrss / 1024.0}
    return timing, {k: record_from_histogram(h) for k, h in hists.items()}


def run_child(cmd: list[str], stderr_path: Path) -> dict:
    """Run one child process tree; wall time, its CPU and peak RSS from wait4.

    The child leads its own process group, so a timeout stops its pool
    workers too.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                                cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(OP_TIMEOUT_S, os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0, "returncode": proc.returncode}


def cli_op(workload: str, cfg: Path, out: Path, spans_path: Path | None = None
           ) -> tuple[dict, dict]:
    """One fresh-process CLI run; returns (timings, output records)."""
    shutil.rmtree(out, ignore_errors=True)
    argv = cli_argv(workload, cfg, out)
    if spans_path is None:
        cmd = [sys.executable, "-m", "slitsim", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *argv]
    stderr = out.parent / f"{out.name}.stderr"
    timing = run_child(cmd, stderr)
    if timing["returncode"] != 0:
        raise RuntimeError(f"exit code {timing['returncode']}: "
                           + stderr.read_text()[-500:])
    timing["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    reader = read_sweep_outputs if workload == "sweep-cli" else read_trace_outputs
    return timing, reader(out)


# -- expected results, computed in-process for pinning ------------------------

def expected_records(workload: str, variant: int, run_dir: Path) -> dict[str, dict]:
    """The records a correct run of this variant produces.

    Computed with the library calls each command makes; sweep-tau's
    worker-count invariance makes the single-worker in-process result the
    reference for its two-worker run.
    """
    from slitsim.config import (build_emission, build_field, build_geometry,
                                build_histogram_spec, build_step, parse_config)
    from slitsim.ensemble import emission_angles, run_ensemble
    from slitsim.scattering import Detected, run_discrete_trajectory

    paths = write_configs(workload, variant, run_dir)
    if workload == "kernel-grid":
        return kernel_grid_op(load_kernel_grid(paths))[1]
    cfg = parse_config(paths[0])
    if workload == "sweep-cli":
        return {f"tau{tau:g}": record_from_histogram(run_ensemble(
            build_emission(cfg), build_geometry(cfg), build_field(cfg),
            build_step(cfg, tau=tau), build_histogram_spec(cfg), workers=1))
            for tau in cfg.tau_list}
    emission = build_emission(cfg, n=TRACE_N, mode="sweep")
    geom, fld, step = build_geometry(cfg), build_field(cfg), build_step(cfg)
    outcomes = [run_discrete_trajectory(a, cfg.v0, geom, fld, step).outcome
                for a in emission_angles(emission, 0, TRACE_N)]
    names = [type(o).__name__ for o in outcomes]
    counts, under, over = bin_hits([o.y_hit for o in outcomes
                                    if isinstance(o, Detected)])
    return {"trace": {"n_emitted": TRACE_N,
                      "n_detected": names.count("Detected"),
                      "n_blocked": names.count("Blocked"),
                      "n_escaped": names.count("Escaped"),
                      "n_steplimit": names.count("StepLimit"),
                      "underflow": under, "overflow": over, "counts": counts}}
