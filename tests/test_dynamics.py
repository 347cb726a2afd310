"""Discrete stepper against the 4th-order reference integrator."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slitsim import (
    FieldParams,
    ParticleState,
    ScreenSurfaceError,
    StepParams,
    Vec2,
    energy,
    step_discrete,
)
from slitsim.field import on_screen_surface

from oracle import (
    QuadratureSpec,
    StepLimitExceededError,
    force_quadrature,
    integrate_reference,
)

FREE = FieldParams(charge_product=0.0, slit_half_height=5.0)
ATTRACT = FieldParams(charge_product=-1.0, slit_half_height=5.0)

# Measured once on the canonical field (launch (-5,0), v0=15, alpha=15deg,
# transit to x=25): max relative energy deviation / tau levels off at 0.43.
# Regression bound with headroom; the deviation oscillates, it does not drift.
ENERGY_DEV_PER_TAU = 1.0


def launch(v0: float, alpha_deg: float) -> ParticleState:
    a = math.radians(alpha_deg)
    return ParticleState(Vec2(-5.0, 0.0), Vec2(v0 * math.cos(a), v0 * math.sin(a)), 0.0)


def advance_for(s, field, sp, t_end):
    for _ in range(round(t_end / sp.tau)):
        s = step_discrete(s, field, sp)
    return s


class TestStepDiscrete:
    def test_free_motion_step(self):
        s = step_discrete(ParticleState(Vec2(-5.0, 0.0), Vec2(12.0, 0.0), 0.0),
                          FREE, StepParams(tau=0.05))
        assert s.pos.x == pytest.approx(-4.4, abs=1e-12)
        assert s.pos.y == 0.0
        assert s.vel == (12.0, 0.0)
        assert s.t == 0.05

    def test_forced_step_composes_with_force_oracle(self):
        """Velocity-first update with the force taken at the old position."""
        oracle = force_quadrature(Vec2(-5.0, 0.0), ATTRACT,
                                  QuadratureSpec(truncation_half_width=1e4))
        tau = 0.05
        vx = 12.0 + tau * oracle.x
        vy = 0.0 + tau * oracle.y
        expect = (-5.0 + tau * vx, 0.0 + tau * vy)
        s = step_discrete(ParticleState(Vec2(-5.0, 0.0), Vec2(12.0, 0.0), 0.0),
                          ATTRACT, StepParams(tau=tau))
        assert s.vel.x == pytest.approx(12.0 + 0.05 * math.pi, rel=1e-9)
        assert s.pos.x == pytest.approx(expect[0], rel=1e-9)
        assert s.pos.y == pytest.approx(expect[1], abs=1e-12)

    def test_two_small_steps_differ_from_one_big(self):
        sp1 = StepParams(tau=0.05)
        sp2 = StepParams(tau=0.1)
        s0 = launch(12.0, 20.0)
        twice = step_discrete(step_discrete(s0, ATTRACT, sp1), ATTRACT, sp1)
        once = step_discrete(s0, ATTRACT, sp2)
        assert twice.t == pytest.approx(once.t)
        assert abs(twice.pos.x - once.pos.x) > 1e-12

    def test_deterministic(self):
        s0 = launch(12.0, 7.0)
        sp = StepParams(tau=0.05)
        a = step_discrete(s0, ATTRACT, sp)
        b = step_discrete(s0, ATTRACT, sp)
        assert a == b

    @given(px=st.integers(-64, 64), py=st.integers(-64, 64),
           vx=st.integers(-256, 256), vy=st.integers(-256, 256),
           tau_exp=st.integers(-3, 0))
    @settings(max_examples=200, deadline=None)
    def test_time_reversal_at_zero_force(self, px, py, vx, vy, tau_exp):
        """Forward step then reversed step returns exactly to the start.

        Dyadic coordinates keep every product and sum exact in binary
        floating point, so the identity can be asserted bitwise.
        """
        sp = StepParams(tau=2.0 ** tau_exp)
        s0 = ParticleState(Vec2(px / 16.0, py / 16.0), Vec2(vx / 16.0, vy / 16.0), 0.0)
        assume(not on_screen_surface(s0.pos, FREE))
        fwd = step_discrete(s0, FREE, sp)
        assume(not on_screen_surface(fwd.pos, FREE))
        back = step_discrete(ParticleState(fwd.pos, Vec2(-fwd.vel.x, -fwd.vel.y), fwd.t),
                             FREE, sp)
        assert back.pos == s0.pos

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StepParams(tau=0.0)
        with pytest.raises(ValueError):
            StepParams(tau=0.05, mass=-1.0)
        with pytest.raises(ValueError):
            StepParams(tau=math.inf)
        with pytest.raises(ValueError):
            StepParams(tau=0.05, mass=math.nan)

    def test_screen_surface_error_propagates(self):
        s = ParticleState(Vec2(0.0, 6.0), Vec2(1.0, 0.0), 0.0)
        with pytest.raises(ScreenSurfaceError):
            step_discrete(s, ATTRACT, StepParams(tau=0.05))
        with pytest.raises(ScreenSurfaceError):
            energy(s, ATTRACT, 1.0)


class TestReferenceIntegrator:
    def test_free_motion_straight_line(self):
        s0 = ParticleState(Vec2(-5.0, 1.0), Vec2(3.0, -2.0), 0.0)
        states = integrate_reference(s0, FREE, 1.0, lambda s: s.t >= 1.0 - 1e-12,
                                     h=1e-3)
        end = states[-1]
        assert end.pos.x == pytest.approx(-5.0 + 3.0 * end.t, abs=1e-12)
        assert end.pos.y == pytest.approx(1.0 - 2.0 * end.t, abs=1e-12)

    def test_axial_launch_stays_on_axis(self):
        s0 = launch(12.0, 0.0)
        states = integrate_reference(s0, ATTRACT, 1.0, lambda s: s.t >= 0.4 - 1e-12,
                                     h=1e-3)
        assert all(s.pos.y == 0.0 for s in states)
        assert all(s.vel.y == 0.0 for s in states)

    def test_richardson_fourth_order(self):
        """Halving h shrinks the endpoint change by about 2^4."""
        s0 = launch(7.0, 35.0)

        def endpoint(h):
            return integrate_reference(s0, ATTRACT, 1.0,
                                       lambda s: s.t >= 0.4 - 1e-12, h=h)[-1].pos

        p1, p2, p4 = endpoint(0.04), endpoint(0.02), endpoint(0.01)
        d1 = math.hypot(p1.x - p2.x, p1.y - p2.y)
        d2 = math.hypot(p2.x - p4.x, p2.y - p4.y)
        assert 8.0 < d1 / d2 < 32.0

    def test_step_limit_error(self):
        s0 = launch(12.0, 0.0)
        with pytest.raises(StepLimitExceededError):
            integrate_reference(s0, FREE, 1.0, lambda s: False, h=1e-3, max_steps=10)


class TestConvergenceOrder:
    def test_discrete_stepper_is_first_order(self):
        """Endpoint error vs the reference scales like tau on a short flight."""
        s0 = launch(7.0, 35.0)
        t_end = 0.4
        ref = integrate_reference(s0, ATTRACT, 1.0,
                                  lambda s: s.t >= t_end - 1e-12, h=1e-4 * 5 / 12)[-1]
        taus = [0.04, 0.02, 0.01, 0.005]
        errs = []
        for tau in taus:
            end = advance_for(s0, ATTRACT, StepParams(tau=tau), t_end)
            errs.append(math.hypot(end.pos.x - ref.pos.x, end.pos.y - ref.pos.y))
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.2)


class TestEnergy:
    def test_at_rest_at_origin(self):
        s = ParticleState(Vec2(0.0, 0.0), Vec2(0.0, 0.0), 0.0)
        assert energy(s, ATTRACT, 1.0) == 0.0

    def test_free_particle_energy_constant(self):
        sp = StepParams(tau=0.05)
        s = ParticleState(Vec2(-5.0, 1.0), Vec2(4.0, 2.0), 0.0)
        e0 = energy(s, FREE, 1.0)
        for _ in range(100):
            s = step_discrete(s, FREE, sp)
        assert energy(s, FREE, 1.0) == pytest.approx(e0, rel=1e-12)

    def test_reference_trajectory_conserves_energy(self):
        s0 = launch(7.0, 35.0)
        states = integrate_reference(s0, ATTRACT, 1.0,
                                     lambda s: s.t >= 2.0 - 1e-12, h=1e-4 * 5 / 12)
        e0 = energy(states[0], ATTRACT, 1.0)
        worst = max(abs(energy(s, ATTRACT, 1.0) - e0) / abs(e0)
                    for s in states[::100])
        assert worst <= 1e-4

    def test_discrete_energy_deviation_bounded(self):
        """Semi-implicit scheme: bounded energy oscillation, scale tau."""
        tau = 0.01
        sp = StepParams(tau=tau)
        s = launch(15.0, 15.0)
        e0 = energy(s, ATTRACT, 1.0)
        worst = 0.0
        while s.pos.x < 25.0 and s.t < 20.0:
            s = step_discrete(s, ATTRACT, sp)
            worst = max(worst, abs(energy(s, ATTRACT, 1.0) - e0) / abs(e0))
        assert s.pos.x >= 25.0, "transit should reach the detector plane"
        assert worst <= ENERGY_DEV_PER_TAU * tau
