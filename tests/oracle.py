"""Independent references the tests check the simulator against.

Nothing in `slitsim` calls these; they exist to test the claim, not to
make it, so they live with the tests:

  * `force_quadrature` integrates the surface-charge integrals of the
    screen directly with scipy, an independent check of
    `field.force_closed_form`, including its sign convention;
  * `integrate_reference` is a fixed-step classical Runge-Kutta (4th
    order) integrator of the underlying ODE and stands in for the
    tau -> 0 limit in convergence and energy tests;
  * `run_continuous_trajectory` runs one particle with that integrator
    through the package's own runner, so the crossing rule is the one
    the discrete runner uses.

scipy is needed here only; the package itself runs on numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.integrate import quad

from slitsim.dynamics import ParticleState
from slitsim.field import FieldParams, Vec2, _check_point, _force_scalar
from slitsim.scattering import Geometry, TrajectoryRecord, _run


class ToleranceNotMetError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


class StepLimitExceededError(RuntimeError):
    """Reference integration ran out of steps before its stop condition fired."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the direct numerical integration of the screen force.

    truncation_half_width: symmetric cutoff Y for the charged-line
        coordinate; the two half-lines are truncated at the same |Y| so
        their logarithmically divergent contributions cancel.  The
        remainder beyond Y is integrated as a symmetrically paired tail,
        which is the exact Y -> infinity limit of the symmetric cutoff.
    abs_tol: absolute tolerance on each force component.
    max_subdivisions: adaptive subdivision budget per integral.
    """

    truncation_half_width: float
    abs_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0):
            raise ValueError("abs_tol must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def _quad_checked(fun, a: float, b: float, spec: QuadratureSpec) -> float:
    """scipy.integrate.quad within the QuadratureSpec budget, or ToleranceNotMetError."""
    result = quad(fun, a, b, epsabs=spec.abs_tol / 8.0, epsrel=1e-12,
                  limit=spec.max_subdivisions, full_output=1)
    if len(result) > 3:
        raise ToleranceNotMetError(
            f"quadrature on [{a}, {b}] did not converge: {result[3]}")
    value, abserr = result[0], result[1]
    if abserr > max(spec.abs_tol, 1e-10 * abs(value)):
        raise ToleranceNotMetError(
            f"quadrature on [{a}, {b}] reached error {abserr:.3e} > {spec.abs_tol:.3e}")
    return value


def force_quadrature(p: Vec2, params: FieldParams, spec: QuadratureSpec) -> Vec2:
    """Direct integration of the screen-charge force, the oracle for
    `force_closed_form`.

    The z-integral of the Coulomb kernel is done analytically, leaving
    one integral per component over the charged set |y'| > R:

        F_x = qs * Int 2 x / (x^2 + (y - y')^2) dy'
        F_y = qs * Int 2 (y - y') / (x^2 + (y - y')^2) dy'

    Each half-line is integrated up to the symmetric cutoff Y; beyond Y
    the two tails are combined into a single absolutely convergent
    integrand (the y' -> -y' pair), which preserves the cancellation of
    the log divergence and removes the O(1/Y) truncation error.
    """
    _check_point(p, params)
    x, y = float(p[0]), float(p[1])
    qs = params.charge_product
    R = params.slit_half_height
    Y = float(spec.truncation_half_width)
    if not Y > R:
        raise ValueError("truncation_half_width must exceed slit_half_height")

    def gx(yp: float) -> float:
        u = y - yp
        return 2.0 * x / (x * x + u * u)

    def gy(yp: float) -> float:
        u = y - yp
        return 2.0 * u / (x * x + u * u)

    fx = _quad_checked(gx, R, Y, spec) + _quad_checked(gx, -Y, -R, spec)
    fy = _quad_checked(gy, R, Y, spec) + _quad_checked(gy, -Y, -R, spec)
    # Paired tails: s >= Y contributes g(s) + g(-s), decaying like 1/s^2.
    fx += _quad_checked(lambda s: gx(s) + gx(-s), Y, math.inf, spec)
    fy += _quad_checked(lambda s: gy(s) + gy(-s), Y, math.inf, spec)
    return Vec2(qs * fx, qs * fy)


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


def run_continuous_trajectory(alpha: float, v0: float, g: Geometry,
                              f: FieldParams, mass: float = 1.0,
                              h: float | None = None,
                              record: bool = False) -> TrajectoryRecord:
    """Reference run with the 4th-order integrator, the tau -> 0 limit.

    Default step: h = 1e-4 * D / v0.  The launch checks and crossing
    rules are the discrete runner's, both in `_run`.
    """
    if not (v0 > 0):
        raise ValueError("v0 must be > 0")
    if h is None:
        h = 1e-4 * g.emitter_distance / v0
    if not (h > 0):
        raise ValueError("h must be > 0")
    return _run(alpha, v0, g, f, lambda s: rk4_step(s, f, mass, h), record)
