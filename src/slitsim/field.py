"""Electrostatic field of a uniformly charged plane with a horizontal slit.

The screen occupies the plane x = 0 except for a gap |y| < R (the slit);
the strip extends to infinity along z.  A point charge moving in the z = 0
plane feels the in-plane force

    F_x = 2*qs * atan2(2R*x, (R-y)*(R+y) - x^2)
    F_y = qs * (ln[x^2 + (R-y)^2] - ln[x^2 + (R+y)^2])

where qs is the product of particle charge and screen charge density
(qs < 0 means attraction).  F_x / (2*qs) is the angle that the charged part
of the plane subtends at the particle.  F_x equals the textbook form
2*qs * (sign(x)*pi + atan((y-R)/x) - atan((y+R)/x)), but needs no sign(x)
term: atan2 takes the sign of its first argument, 2R*x, so the one
expression is valid on both sides of the screen, and it is finite at
x = 0, where it gives F_x = 0 inside the slit and at its edges.
The tests check the closed form, including the sign convention, against
direct quadrature of the underlying surface-charge integrals
(`tests/oracle.py`).

All quantities are dimensionless model units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ScreenSurfaceError


class Vec2(NamedTuple):
    """Point or vector in the xy-plane."""

    x: float
    y: float


@dataclass(frozen=True)
class FieldParams:
    """Strength and geometry of the charged screen.

    charge_product: combined q*sigma scale; 0 disables the field,
        negative values attract the particle to the screen.
    slit_half_height: half-height R of the gap, R > 0.
    """

    charge_product: float
    slit_half_height: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.charge_product):
            raise ValueError("charge_product must be finite")
        if not (0 < self.slit_half_height < math.inf):
            raise ValueError("slit_half_height must be finite and > 0")


def on_screen_surface(p: Vec2, params: FieldParams) -> bool:
    """True when p lies on the charged part of the plane x = 0."""
    return p[0] == 0.0 and abs(p[1]) >= params.slit_half_height


def _check_point(p: Vec2, params: FieldParams) -> None:
    if not (math.isfinite(p[0]) and math.isfinite(p[1])):
        raise ValueError(f"non-finite field point {p!r}")
    if on_screen_surface(p, params):
        raise ScreenSurfaceError(f"point {p!r} lies on the screen surface")


def _force_scalar(x: float, y: float, qs: float, R: float) -> tuple[float, float]:
    """Closed-form force components; assumes the point is off the surface.

    The mirror identities F_x(-x, y) = -F_x(x, y) and
    F_y(x, -y) = -F_y(x, y) hold exactly in floating point: atan2 is odd
    in its first argument, y -> -y swaps the two factors of the product
    and the two logs, and IEEE subtraction is exactly antisymmetric.
    Trajectory mirror tests rely on this.  `force_batch` applies the same
    operations in the same order.
    """
    d1 = R - y
    d2 = R + y
    x2 = x * x
    fx = math.atan2((2.0 * R) * x, d1 * d2 - x2) * (2.0 * qs)
    fy = (math.log(x2 + d1 * d1) - math.log(x2 + d2 * d2)) * qs
    return fx, fy


def force_closed_form(p: Vec2, params: FieldParams) -> Vec2:
    """Force of the charged screen on a particle at p.

    Raises ScreenSurfaceError on the charged surface and ValueError on
    non-finite input.  At x = 0 inside the slit the analytic limit
    F_x = 0 is returned.
    """
    _check_point(p, params)
    fx, fy = _force_scalar(p[0], p[1], params.charge_product, params.slit_half_height)
    return Vec2(fx, fy)


def force_batch(x: np.ndarray, y: np.ndarray, params: FieldParams,
                out=None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed-form force for trajectory ensembles.

    The float operations of `_force_scalar` in the same order, so mirror
    symmetry is exact elementwise.  Points on the screen surface are the
    caller's responsibility; in the stepping loop only a lane that has
    already ended can reach one, as blocking is found before the force
    is evaluated there, and its values are not read.

    out: optional four float arrays shaped like x, used as scratch; the
    returned (F_x, F_y) are the first two.  None may share memory with x
    or y.  Without it they are allocated.
    """
    qs = params.charge_product
    R = params.slit_half_height
    fx, fy, d1, d2 = np.empty((4,) + np.shape(x)) if out is None else out
    np.subtract(R, y, out=d1)
    np.add(y, R, out=d2)
    np.square(x, out=fy)                        # x^2 until F_y
    np.multiply(d1, d2, out=fx)
    np.subtract(fx, fy, out=fx)
    np.square(d1, out=d1)
    np.add(fy, d1, out=d1)
    np.square(d2, out=d2)
    np.add(fy, d2, out=d2)
    np.multiply(x, 2.0 * R, out=fy)
    np.arctan2(fy, fx, out=fx)
    np.multiply(fx, 2.0 * qs, out=fx)
    np.log(d1, out=d1)
    np.log(d2, out=d2)
    np.subtract(d1, d2, out=d1)
    np.multiply(d1, qs, out=fy)
    return fx, fy


def potential(p: Vec2, params: FieldParams) -> float:
    """Potential energy of the particle in the screen field, zero at (0, 0).

    Exact antiderivative of the closed-form force; equals the line
    integral of -F along any path from the origin through the slit.
    Raises ScreenSurfaceError on the charged surface, where no such path
    ends.
    """
    _check_point(p, params)
    qs = params.charge_product
    R = params.slit_half_height
    x, y = float(p[0]), float(p[1])
    a1 = y - R
    a2 = y + R
    bracket = math.pi * abs(x)
    if x != 0.0:
        bracket += x * (math.atan(a1 / x) - math.atan(a2 / x))
    bracket += 0.5 * a1 * math.log(x * x + a1 * a1)
    bracket -= 0.5 * a2 * math.log(x * x + a2 * a2)
    return -2.0 * qs * (bracket + 2.0 * R * math.log(R))
