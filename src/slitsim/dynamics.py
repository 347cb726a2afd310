"""Time stepping: the discrete-time update rule and a continuous reference.

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
only in rounding.
`integrate_reference` is a fixed-step classical Runge-Kutta (4th order)
integrator of the underlying ODE and stands in for the tau -> 0 limit in
convergence and energy tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import StepLimitExceededError
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
        if not (self.tau > 0):
            raise ValueError("tau must be > 0")
        if not (self.mass > 0):
            raise ValueError("mass must be > 0")


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


def _accel(x: float, y: float, params: FieldParams, inv_mass: float) -> tuple[float, float]:
    fx, fy = _force_scalar(x, y, params.charge_product, params.slit_half_height)
    return fx * inv_mass, fy * inv_mass


def rk4_step(s: ParticleState, params: FieldParams, mass: float, h: float) -> ParticleState:
    """Classical 4th-order step of r'' = F(r)/m."""
    im = 1.0 / mass
    x, y = s.pos
    vx, vy = s.vel

    ax1, ay1 = _accel(x, y, params, im)
    k1x, k1y = vx, vy

    ax2, ay2 = _accel(x + 0.5 * h * k1x, y + 0.5 * h * k1y, params, im)
    k2x, k2y = vx + 0.5 * h * ax1, vy + 0.5 * h * ay1

    ax3, ay3 = _accel(x + 0.5 * h * k2x, y + 0.5 * h * k2y, params, im)
    k3x, k3y = vx + 0.5 * h * ax2, vy + 0.5 * h * ay2

    ax4, ay4 = _accel(x + h * k3x, y + h * k3y, params, im)
    k4x, k4y = vx + h * ax3, vy + h * ay3

    sixth = h / 6.0
    return ParticleState(
        pos=Vec2(x + sixth * (k1x + 2 * k2x + 2 * k3x + k4x),
                 y + sixth * (k1y + 2 * k2y + 2 * k3y + k4y)),
        vel=Vec2(vx + sixth * (ax1 + 2 * ax2 + 2 * ax3 + ax4),
                 vy + sixth * (ay1 + 2 * ay2 + 2 * ay3 + ay4)),
        t=s.t + h,
    )


def integrate_reference(
    s: ParticleState,
    params: FieldParams,
    mass: float,
    stop: Callable[[ParticleState], bool],
    h: float,
    max_steps: int = 10_000_000,
) -> list[ParticleState]:
    """Integrate until the stop predicate fires; returns the visited states.

    The initial state is included.  Raises StepLimitExceededError if the
    predicate never fires within max_steps.
    """
    if not (h > 0):
        raise ValueError("h must be > 0")
    states = [s]
    cur = s
    for _ in range(max_steps):
        if stop(cur):
            return states
        cur = rk4_step(cur, params, mass, h)
        states.append(cur)
    if stop(cur):
        return states
    raise StepLimitExceededError(
        f"stop predicate did not fire within {max_steps} steps")


def energy(s: ParticleState, params: FieldParams, mass: float) -> float:
    """Kinetic plus potential energy; conserved by the continuous dynamics."""
    vx, vy = s.vel
    return 0.5 * mass * (vx * vx + vy * vy) + potential(s.pos, params)
