"""Flat key=value experiment configs and their mapping onto run parameters.

Every knob of an experiment lives in one human-editable text file;
unknown keys are hard errors so a typo cannot silently change a run.
Angles are degrees in the config and converted to radians at the library
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .analysis import find_extrema
from .dynamics import StepParams
from .ensemble import EmissionSpec, HistogramSpec
from .errors import ConfigurationError
from .field import FieldParams
from .scattering import Geometry


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully specified. Defaults are the canonical setup:
    emitter 5 units left of the screen, detector 25 to the right, slit
    half-height 5, attracting screen (charge product -1), particle radius
    0.2, speed 12, angles within +/-45.5 degrees, detector cells of one
    particle diameter.  Construction checks every value, so a config that
    exists is valid."""

    charge_product: float = -1.0
    slit_half_height: float = 5.0
    emitter_distance: float = 5.0
    screen_gap: float = 25.0
    particle_radius: float = 0.2
    y_bound: float = 50.0
    max_steps: int = 1_000_000
    tau: float = 0.05
    tau_list: tuple[float, ...] = (0.05, 0.01)
    mass: float = 1.0
    v0: float = 12.0
    alpha_min_deg: float = -45.5
    alpha_max_deg: float = 45.5
    mode: str = "random"
    n: int = 10_000
    seed: int = 1
    bin_width: float = 0.4
    y_min: float = -25.0
    y_max: float = 25.0
    workers: int = 1
    output_dir: str = "out"
    window: int = 5
    k_sigma: float = 5.0

    def __post_init__(self) -> None:
        """Check every run parameter; raises ConfigurationError."""
        try:
            numbers = [(key, getattr(self, key)) for key, parse in PARSERS.items()
                       if parse is float]
            numbers += [("tau_list", tau) for tau in self.tau_list]
            for key, val in numbers:
                if not math.isfinite(val):
                    raise ValueError(f"{key} must be finite")
            if not self.tau_list:
                raise ValueError("tau_list must be non-empty")
            if any(b > a for a, b in zip(self.tau_list, self.tau_list[1:])):
                raise ValueError("tau_list must be descending")
            build_field(self)
            build_geometry(self)
            for tau in (self.tau, *self.tau_list):
                build_step(self, tau=tau)
            build_emission(self)
            spec = build_histogram_spec(self)
            if self.workers < 1:
                raise ValueError("workers must be >= 1")
            # report.txt echoes it as a config line, which must parse back to it
            out = self.output_dir
            if "#" in out or out != out.strip() or len(out.splitlines()) > 1:
                raise ValueError(f"output_dir {out!r} must hold no '#' or line break "
                                 "and must not begin or end with whitespace")
            # window and k_sigma: the analysis's own checks, on an empty profile
            find_extrema(np.zeros(spec.n_bins), spec.bin_centers(), 0,
                         window=self.window, k_sigma=self.k_sigma)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc


def _parse_tau_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


# Each key's parser is its field's type, except for the list form of tau_list.
PARSERS = {key: _parse_tau_list if key == "tau_list" else hint
           for key, hint in get_type_hints(ExperimentConfig).items()}

CONFIG_KEYS = tuple(sorted(PARSERS))


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load a config file; raises ConfigurationError on any bad content."""
    values: dict[str, object] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in PARSERS:
            raise ConfigurationError(
                f"{path}:{lineno}: unknown key {key!r} (valid keys: "
                f"{', '.join(CONFIG_KEYS)})")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = PARSERS[key](val)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return ExperimentConfig(**values)


def build_field(cfg: ExperimentConfig) -> FieldParams:
    return FieldParams(charge_product=cfg.charge_product,
                       slit_half_height=cfg.slit_half_height)


def build_geometry(cfg: ExperimentConfig) -> Geometry:
    return Geometry(emitter_distance=cfg.emitter_distance,
                    screen_gap=cfg.screen_gap,
                    slit_half_height=cfg.slit_half_height,
                    particle_radius=cfg.particle_radius,
                    y_bound=cfg.y_bound,
                    max_steps=cfg.max_steps)


def build_step(cfg: ExperimentConfig, tau: float | None = None) -> StepParams:
    return StepParams(tau=cfg.tau if tau is None else tau, mass=cfg.mass)


def build_emission(cfg: ExperimentConfig, n: int | None = None,
                   mode: str | None = None) -> EmissionSpec:
    return EmissionSpec(v0=cfg.v0,
                        alpha_min=math.radians(cfg.alpha_min_deg),
                        alpha_max=math.radians(cfg.alpha_max_deg),
                        n=cfg.n if n is None else n,
                        mode=cfg.mode if mode is None else mode,
                        seed=cfg.seed)


def build_histogram_spec(cfg: ExperimentConfig) -> HistogramSpec:
    return HistogramSpec(bin_width=cfg.bin_width, y_min=cfg.y_min, y_max=cfg.y_max)


def config_echo(cfg: ExperimentConfig) -> str:
    """Canonical textual form of a config, one key per line."""
    lines = []
    for key in CONFIG_KEYS:
        val = getattr(cfg, key)
        if key == "tau_list":
            val = ",".join(repr(t) for t in val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines)
