"""Command-line front end: declarative configs in, data files and plots out.

Subcommands
    simulate   run one ensemble, write distribution.csv and report.txt
    sweep-tau  rerun the ensemble for each time step in tau_list and
               compare fringe metrics across the sweep
    trace      record individual trajectories, write CSV polylines and
               an SVG picture of the bundle
    analyze    locate significant extrema in an emitted distribution.csv

Every data file is a pure function of (config, seed); reruns are
byte-identical regardless of worker count.  Exit codes: 0 success,
2 configuration or input error, 3 I/O error, 4 a worker process died,
130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
import typing
from concurrent.futures import BrokenExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ExtremaReport, find_extrema, oscillation_index, total_variation
from .config import (
    CONFIG_KEYS,
    PARSERS,
    ExperimentConfig,
    build_emission,
    build_field,
    build_geometry,
    build_histogram_spec,
    build_step,
    config_echo,
    parse_config,
)
from .ensemble import Histogram, HistogramSpec, emission_angles, normalize, run_ensemble
from .errors import ConfigurationError
from .scattering import Outcome, run_discrete_trajectory
from .svg import render_trajectories, sketch

_DIST_HEADER = "bin_center,count,frequency"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _run_tau(cfg: ExperimentConfig, tau: float, path: Path) -> tuple[Histogram, np.ndarray]:
    """Run cfg's ensemble at step tau; write its distribution CSV to path."""
    hist = run_ensemble(build_emission(cfg), build_geometry(cfg),
                        build_field(cfg), build_step(cfg, tau=tau),
                        build_histogram_spec(cfg), workers=cfg.workers)
    freqs = normalize(hist)
    lines = [_DIST_HEADER]
    for center, count, freq in zip(hist.spec.bin_centers(), hist.counts, freqs):
        lines.append(f"{center:.17g},{int(count)},{freq:.17g}")
    _write_text(path, "\n".join(lines) + "\n")
    return hist, freqs


def _write_report(cfg: ExperimentConfig, body: list[str], t0: float) -> None:
    """Write report.txt: the body, the wall time since t0 and the parameters."""
    lines = [f"slitsim {__version__} run report", "", *body, "",
             f"wall_time_s = {time.perf_counter() - t0:.3f}", "", "parameters:"]
    lines += ["  " + ln for ln in config_echo(cfg).splitlines()]
    _write_text(Path(cfg.output_dir) / "report.txt", "\n".join(lines) + "\n")


def cmd_simulate(cfg: ExperimentConfig) -> Path:
    """Run one ensemble; returns the output directory."""
    out = Path(cfg.output_dir)
    t0 = time.perf_counter()
    hist, _ = _run_tau(cfg, cfg.tau, out / "distribution.csv")
    _write_report(cfg, [f"{fd.name} = {getattr(hist, fd.name)}" for fd in fields(hist)
                        if fd.name not in ("spec", "counts")], t0)
    return out


def cmd_sweep_tau(cfg: ExperimentConfig) -> Path:
    """Run the ensemble once per tau in tau_list and compare the profiles."""
    out = Path(cfg.output_dir)
    t0 = time.perf_counter()
    sweep_lines = ["tau,n_maxima,oscillation_index"]
    body = []
    profiles: list[tuple[float, np.ndarray]] = []
    for tau in cfg.tau_list:
        hist, freqs = _run_tau(cfg, tau, out / f"distribution_tau{tau!r}.csv")
        report = find_extrema(freqs, hist.spec.bin_centers(), hist.n_detected,
                              window=cfg.window, k_sigma=cfg.k_sigma)
        osc = oscillation_index(freqs, window=cfg.window)
        sweep_lines.append(f"{tau!r},{len(report.maxima)},{osc:.17g}")
        body.append(f"tau={tau!r}: detected={hist.n_detected} blocked={hist.n_blocked} "
                    f"escaped={hist.n_escaped} steplimit={hist.n_steplimit} "
                    f"maxima={len(report.maxima)} oscillation_index={osc:.6g}")
        profiles.append((tau, freqs))
    _write_text(out / "sweep_report.csv", "\n".join(sweep_lines) + "\n")

    tv_lines = ["tau_a,tau_b,total_variation"]
    for (ta, fa), (tb, fb) in itertools.combinations(profiles, 2):
        tv = total_variation(fa, fb)
        tv_lines.append(f"{ta!r},{tb!r},{tv:.17g}")
        body.append(f"tv(tau={ta!r}, tau={tb!r}) = {tv:.6g}")
    _write_text(out / "tv_report.csv", "\n".join(tv_lines) + "\n")
    _write_report(cfg, body, t0)
    return out


def cmd_trace(cfg: ExperimentConfig) -> Path:
    """Record a swept-angle bundle of cfg.n trajectories as CSV and SVG."""
    cfg = replace(cfg, mode="sweep")
    out = Path(cfg.output_dir)
    t0 = time.perf_counter()
    emission = build_emission(cfg)
    geom = build_geometry(cfg)
    fld = build_field(cfg)
    step = build_step(cfg)
    angles = emission_angles(emission, 0, cfg.n)

    # One full path at a time: its CSV rows are written as it finishes,
    # and only its thinned sketch is kept for the picture.
    out.mkdir(parents=True, exist_ok=True)
    sketches = []
    with open(out / "trajectories.csv", "w", newline="\n") as fh:
        fh.write("traj_id,t,x,y\n")
        for tid, a in enumerate(angles):
            rec = run_discrete_trajectory(a, cfg.v0, geom, fld, step, record=True)
            fh.writelines(f"{tid},{s.t:.17g},{s.pos[0]:.17g},{s.pos[1]:.17g}\n"
                          for s in rec.path)
            sketches.append(sketch(rec))
            del rec
    _write_text(out / "trajectories.svg", render_trajectories(sketches, geom))

    outcomes = [type(sk.outcome) for sk in sketches]
    body = [f"trajectories = {cfg.n}"]
    for kind in typing.get_args(Outcome):
        body.append(f"{kind.__name__.lower()} = {outcomes.count(kind)}")
    _write_report(cfg, body, t0)
    return out


def _read_distribution(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    text = Path(path).read_text()
    rows = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not rows or rows[0][1].strip() != _DIST_HEADER:
        raise ConfigurationError(f"{path}: expected header {_DIST_HEADER!r}")
    if len(rows) < 3:
        raise ConfigurationError(f"{path}: not enough data rows")
    centers, counts, freqs = [], [], []
    for lineno, ln in rows[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ConfigurationError(f"{path}:{lineno}: expected 3 columns")
        try:
            centers.append(float(parts[0]))
            counts.append(int(parts[1]))
            freqs.append(float(parts[2]))
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}")
    try:
        return np.array(centers), np.array(counts, dtype=np.int64), np.array(freqs)
    except OverflowError:
        raise ConfigurationError(f"{path}: a count does not fit in 64 bits")


def analyze_distribution(path: Path, window: int, k_sigma: float) -> tuple[ExtremaReport, int]:
    """Extrema report for an emitted distribution.csv."""
    centers, counts, freqs = _read_distribution(path)
    widths = np.diff(centers)
    width = float(widths[0])
    if width <= 0 or not np.allclose(widths, width, rtol=1e-9, atol=0):
        raise ConfigurationError(f"{path}: bin centers are not evenly spaced")
    total_count = int(counts.sum())
    total_freq = float(freqs.sum())
    # frequencies sum to 0 or to at least 1 / n_detected, and n_detected < 2**62
    n_detected = round(total_count / total_freq) if total_freq > 2.0 ** -62 else 0
    if (counts < 0).any() or total_count > n_detected:
        raise ConfigurationError(f"{path}: counts are negative or exceed n_detected")
    y_min = float(centers[0]) - 0.5 * width
    spec = HistogramSpec(bin_width=width, y_min=y_min,
                         y_max=y_min + width * len(centers))
    values = normalize(Histogram(spec, counts, n_detected=n_detected))
    if not np.array_equal(values, freqs):
        raise ConfigurationError(f"{path}: frequencies are not count / n_detected")
    report = find_extrema(values, centers, n_detected, window=window, k_sigma=k_sigma)
    return report, n_detected


def cmd_analyze(csv_path: Path, window: int, k_sigma: float,
                out_dir: Path | None = None) -> ExtremaReport:
    """Write extrema.csv next to the input, then print the extrema table."""
    report, n_detected = analyze_distribution(csv_path, window, k_sigma)
    out = out_dir if out_dir is not None else Path(csv_path).parent
    rows = ([("maximum", *e) for e in report.maxima]
            + [("minimum", *e) for e in report.minima])
    # the file first: a reader that closes stdout early must not lose it
    _write_text(out / "extrema.csv", "kind,bin_center,height,prominence\n" + "".join(
        f"{kind},{c:.17g},{h:.17g},{p:.17g}\n" for kind, c, h, p in rows))
    print(f"{csv_path}: n_detected={n_detected} window={window} "
          f"k_sigma={k_sigma:g}")
    print(f"{'kind':8} {'bin_center':>12} {'height':>12} {'prominence':>12}")
    for kind, c, h, p in rows:
        print(f"{kind:8} {c:12.4f} {h:12.6g} {p:12.6g}")
    return report


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    return replace(cfg, **{k: v for k, v in vars(args).items()
                           if k in CONFIG_KEYS and v is not None})


def _add_run_flags(p: argparse.ArgumentParser, *keys: str) -> None:
    """--config, --out and --<key> for each key named, parsed as in a config file."""
    p.add_argument("--config", metavar="PATH", help="config file (key = value lines)")
    p.add_argument("--out", dest="output_dir", metavar="DIR", help="override: output_dir")
    for key in keys:
        p.add_argument(f"--{key}", type=PARSERS[key], help=f"override: {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slitsim",
        description=__doc__,
        epilog="config keys: " + ", ".join(CONFIG_KEYS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_flags(sub.add_parser("simulate", help="run one ensemble"),
                   "seed", "workers", "n", "tau")
    # sweep-tau takes its steps from tau_list; trace sweeps its angles
    # without a seed, in this process
    _add_run_flags(sub.add_parser("sweep-tau", help="rerun across tau_list and compare"),
                   "seed", "workers", "n")
    p = sub.add_parser("trace", help="record and draw trajectories (n = 250 unless --n)")
    _add_run_flags(p, "n", "tau")
    p.set_defaults(n=250)

    p = sub.add_parser("analyze", help="find extrema in a distribution.csv")
    p.add_argument("csv", metavar="CSV", help="distribution file to analyze")
    p.add_argument("--window", type=int, default=ExperimentConfig.window,
                   help="smoothing window (odd)")
    p.add_argument("--k-sigma", type=float, default=ExperimentConfig.k_sigma,
                   help="prominence threshold in Poisson sigmas")
    p.add_argument("--out", metavar="DIR", help="where to write extrema.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a patched cmd_* is the one that runs
    run = {"simulate": cmd_simulate, "sweep-tau": cmd_sweep_tau,
           "trace": cmd_trace}.get(args.command)
    try:
        if run is not None:
            run(_load_config(args))
        else:
            cmd_analyze(Path(args.csv), args.window, args.k_sigma,
                        Path(args.out) if args.out else None)
    except ValueError as exc:
        print(f"slitsim: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"slitsim: i/o error: {exc}", file=sys.stderr)
        return 3
    except BrokenExecutor as exc:
        print(f"slitsim: worker process died: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("slitsim: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
