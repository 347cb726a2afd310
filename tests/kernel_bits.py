"""Print one `case sha256` line per kernel case, to compare two trees.

The hash covers `codes.tobytes() + y_final.tobytes()` from
`ensemble.simulate_batch` on 38 cases:

  * the 12 kernel-grid cases: v0 {12, 15} x tau {0.05, 0.01, 0.001} x
    mode {random, sweep}, 16384 lanes, seed 1;
  * 20 step-limited batches: v0 {12, 15} x tau {0.05, 0.01} x
    max_steps {1, 7, 30, 60, 100}, 4096 lanes, seed 3, and one more at
    v0 15, tau 0.05, max_steps 33, which is not a multiple of the
    retire cadence;
  * 4 repulsive-screen sweeps (charge product +4, v0 15) at
    tau {0.5, 0.3, 0.1, 0.05}, 16384 lanes;
  * 1 batch of 16383 lanes, v0 15, tau 0.01, seed 1: a lane count that
    is not a multiple of 8, so the state rows carry padding.

It then prints one `steps <case> sha256` line per case, the hash of the
per-lane end steps (int64) of the same run, and one `cli <config>
<command> <file> sha256` line for each data file the command line
writes from each `configs/*.cfg`: `simulate --n 20000`, `sweep-tau --n
20000`, `trace --n 60`, and `analyze --window 3 --k-sigma 2` on every
distribution those runs wrote.  `report.txt` is left out: it holds the
wall time and the output directory.  A tree from before the kernel gave
end steps prints neither the `steps` lines nor the max_steps 33 case.

A change that should move no output bit prints the same lines before
and after it:

    PYTHONPATH=src python3 tests/kernel_bits.py > after.txt
    (in a checkout of the parent) PYTHONPATH=src python3 tests/kernel_bits.py > before.txt
    diff before.txt after.txt

The file name keeps it out of pytest's collection.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from slitsim.cli import main
from slitsim.config import (
    ExperimentConfig,
    build_emission,
    build_field,
    build_geometry,
    build_step,
)
from slitsim.ensemble import emission_angles, simulate_batch


def cases():
    base = ExperimentConfig()
    for v0 in (12.0, 15.0):
        for tau in (0.05, 0.01, 0.001):
            for mode in ("random", "sweep"):
                yield (f"grid v0={v0:g} tau={tau:g} {mode}",
                       replace(base, v0=v0, tau=tau, mode=mode, n=16384, seed=1))
    for v0 in (12.0, 15.0):
        for tau in (0.05, 0.01):
            for max_steps in (1, 7, 30, 60, 100):
                yield (f"steplimit v0={v0:g} tau={tau:g} max_steps={max_steps}",
                       replace(base, v0=v0, tau=tau, n=4096, seed=3,
                               max_steps=max_steps))
    yield ("steplimit v0=15 tau=0.05 max_steps=33",
           replace(base, v0=15.0, tau=0.05, n=4096, seed=3, max_steps=33))
    for tau in (0.5, 0.3, 0.1, 0.05):
        yield (f"repulsive+4 v0=15 tau={tau:g} sweep",
               replace(base, charge_product=4.0, v0=15.0, tau=tau,
                       mode="sweep", n=16384))
    yield ("padded v0=15 tau=0.01 n=16383",
           replace(base, v0=15.0, tau=0.01, n=16383, seed=1))


def digests(cfg: ExperimentConfig) -> tuple[str, str]:
    """sha256 of codes and y_final, and of the end steps."""
    e = build_emission(cfg)
    steps = np.empty(e.n, dtype=np.int64)
    codes, y_final = simulate_batch(emission_angles(e, 0, e.n), e.v0,
                                    build_geometry(cfg), build_field(cfg),
                                    build_step(cfg), steps=steps)
    return (hashlib.sha256(codes.tobytes() + y_final.tobytes()).hexdigest(),
            hashlib.sha256(steps.tobytes()).hexdigest())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_digests(tmp: Path):
    """(config, command, file, sha256) for every CLI data file."""
    run_flags = {"simulate": ["--n", "20000"], "sweep-tau": ["--n", "20000"],
                 "trace": ["--n", "60"]}
    for cfg in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")):
        for command, flags in run_flags.items():
            out = tmp / cfg.stem / command
            assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 0
            for f in sorted(out.iterdir()):
                if f.name != "report.txt":
                    yield cfg.name, command, f"{command}/{f.name}", sha256(f)
        for dist in sorted((tmp / cfg.stem).glob("*/distribution*.csv")):
            name = f"{dist.parent.name}/{dist.name}"
            out = tmp / cfg.stem / "analyze" / name
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["analyze", str(dist), "--window", "3", "--k-sigma", "2",
                             "--out", str(out)]) == 0
            yield cfg.name, "analyze", f"{name}/extrema.csv", sha256(out / "extrema.csv")


if __name__ == "__main__":
    step_lines = []
    for name, cfg in cases():
        bits, steps = digests(cfg)
        print(name, bits, flush=True)
        step_lines.append(f"steps {name} {steps}")
    print(*step_lines, sep="\n", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for line in cli_digests(Path(tmp)):
            print("cli", *line, flush=True)
