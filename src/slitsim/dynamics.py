"""Time stepping: the discrete-time update rule.

The production stepper replaces Newton's differential equations with
finite differences at step tau:

    v(t + tau) = v(t) + (tau / m) * F(r(t))
    r(t + tau) = r(t) + tau * v(t + tau)

i.e. semi-implicit Euler with the force taken at the pre-step position.
The array kernel (`ensemble.simulate_batch`) runs the same map on the
displacement per step u = tau * v:

    u(t + tau) = u(t) + (tau^2 / m) * F(r(t))
    r(t + tau) = r(t) + u(t + tau)

which saves two multiplies per coordinate and differs from this form
only in rounding.  The tests compare it with a 4th-order Runge-Kutta
integration of the underlying ODE (`tests/oracle.py`), which stands in
for the tau -> 0 limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import FieldParams, Vec2, _check_point, _force_scalar, potential


@dataclass(frozen=True)
class ParticleState:
    """Position, velocity and time of one particle in the xy-plane."""

    pos: Vec2
    vel: Vec2
    t: float


@dataclass(frozen=True)
class StepParams:
    """Discrete-time step size and particle mass."""

    tau: float
    mass: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.tau < math.inf):
            raise ValueError("tau must be finite and > 0")
        if not (0 < self.mass < math.inf):
            raise ValueError("mass must be finite and > 0")


def step_discrete(s: ParticleState, params: FieldParams, sp: StepParams) -> ParticleState:
    """One discrete-time update. Deterministic; raises if s.pos is on the screen."""
    _check_point(s.pos, params)
    fx, fy = _force_scalar(s.pos[0], s.pos[1], params.charge_product,
                           params.slit_half_height)
    k = sp.tau / sp.mass
    vx = s.vel[0] + k * fx
    vy = s.vel[1] + k * fy
    return ParticleState(
        pos=Vec2(s.pos[0] + sp.tau * vx, s.pos[1] + sp.tau * vy),
        vel=Vec2(vx, vy),
        t=s.t + sp.tau,
    )


def energy(s: ParticleState, params: FieldParams, mass: float) -> float:
    """Kinetic plus potential energy; conserved by the continuous dynamics."""
    vx, vy = s.vel
    return 0.5 * mass * (vx * vx + vy * vy) + potential(s.pos, params)
