"""Single-particle runs from emitter to termination.

`_run` checks a launch, starts the particle at (-D, 0) with speed v0 at
angle alpha and steps it until one of four things happens:

  Blocked   - its segment crossed the screen plane x = 0 with the
              interpolated |y| at or beyond the effective aperture R - r
              (finite particle radius shrinks the opening);
  Detected  - its segment crossed the detector plane x = +d; the hit
              position and time are interpolated onto the plane;
  Escaped   - it left the tracked region (|y| > y_bound or x < -2D);
  StepLimit - the step budget ran out.

Crossings are tested on the straight segment between consecutive
positions, so a coarse step cannot jump through either plane unnoticed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .dynamics import ParticleState, StepParams, step_discrete
from .errors import ConfigurationError
from .field import FieldParams, Vec2


@dataclass(frozen=True)
class Geometry:
    """Scattering arena: emitter, screen, detector and termination bounds."""

    emitter_distance: float
    screen_gap: float
    slit_half_height: float
    particle_radius: float
    y_bound: float = 50.0
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if not (0 < self.emitter_distance < math.inf and 0 < self.screen_gap < math.inf):
            raise ValueError("emitter_distance and screen_gap must be finite and > 0")
        if not (0 <= self.particle_radius < self.slit_half_height):
            raise ValueError("particle_radius must satisfy 0 <= r < R")
        if not (self.slit_half_height < self.y_bound < math.inf):
            raise ValueError("y_bound must be finite and exceed slit_half_height")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    @property
    def aperture(self) -> float:
        """Effective slit half-opening for the particle center."""
        return self.slit_half_height - self.particle_radius

    @property
    def x_escape(self) -> float:
        """Left termination bound."""
        return -2.0 * self.emitter_distance


@dataclass(frozen=True)
class Blocked:
    y_impact: float


@dataclass(frozen=True)
class Detected:
    y_hit: float
    t_hit: float


@dataclass(frozen=True)
class Escaped:
    pass


@dataclass(frozen=True)
class StepLimit:
    pass


Outcome = Blocked | Detected | Escaped | StepLimit


@dataclass(frozen=True)
class TrajectoryRecord:
    outcome: Outcome
    path: Optional[list[ParticleState]]
    steps_taken: int


def check_consistent(g: Geometry, f: FieldParams) -> None:
    """The slit half-height enters both the force and the collision rule."""
    if g.slit_half_height != f.slit_half_height:
        raise ConfigurationError(
            f"slit_half_height mismatch: geometry {g.slit_half_height} "
            f"vs field {f.slit_half_height}")


def _segment_event(x0: float, y0: float, x1: float, y1: float,
                   aperture: float, detector_x: float):
    """Terminal event on the segment (x0,y0) -> (x1,y1), or None.

    Returns (x, y, lam): the point where the segment ends, x = 0.0 for a
    block and x = detector_x for a hit, and lam the segment fraction.
    The screen plane comes first: a segment that crosses x = 0 at
    |y| >= aperture is blocked there, and only a segment that is not
    blocked can be detected at x = detector_x.
    """
    if (x0 < 0.0 and x1 >= 0.0) or (x0 > 0.0 and x1 <= 0.0):
        lam = x0 / (x0 - x1)
        yc = y0 + lam * (y1 - y0)
        if abs(yc) >= aperture:
            return (0.0, yc, lam)
    if x0 < detector_x <= x1:
        lam = (detector_x - x0) / (x1 - x0)
        return (detector_x, y0 + lam * (y1 - y0), lam)
    return None


def _run(alpha: float, v0: float, g: Geometry, f: FieldParams, advance,
         record: bool) -> TrajectoryRecord:
    """Check a per-trajectory launch, start it at (-D, 0) and step it to its end."""
    if not (0 < v0 < math.inf and math.isfinite(alpha)):
        raise ValueError("v0 must be finite and > 0, and alpha finite")
    check_consistent(g, f)
    cur = ParticleState(pos=Vec2(-g.emitter_distance, 0.0),
                        vel=Vec2(v0 * math.cos(alpha), v0 * math.sin(alpha)), t=0.0)
    path = [cur] if record else None
    aperture = g.aperture
    d = g.screen_gap
    for step in range(1, g.max_steps + 1):
        nxt = advance(cur)
        ev = _segment_event(cur.pos[0], cur.pos[1], nxt.pos[0], nxt.pos[1],
                            aperture, d)
        if ev is not None:
            xc, yc, lam = ev
            t = cur.t + lam * (nxt.t - cur.t)
            if record:
                path.append(ParticleState(pos=Vec2(xc, yc), vel=nxt.vel, t=t))
            return TrajectoryRecord(Detected(y_hit=yc, t_hit=t) if xc == d
                                    else Blocked(y_impact=yc), path, step)
        if record:
            path.append(nxt)
        if abs(nxt.pos[1]) > g.y_bound or nxt.pos[0] < g.x_escape:
            return TrajectoryRecord(Escaped(), path, step)
        cur = nxt
    return TrajectoryRecord(StepLimit(), path, g.max_steps)


def run_discrete_trajectory(alpha: float, v0: float, g: Geometry,
                            f: FieldParams, sp: StepParams,
                            record: bool = False) -> TrajectoryRecord:
    """Run one particle under the discrete-time update rule.

    alpha is the launch angle in radians measured from the +x axis.
    """
    return _run(alpha, v0, g, f, lambda s: step_discrete(s, f, sp), record)
