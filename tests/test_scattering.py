"""Trajectory runners: outcomes, crossing detection, mirror symmetry."""

import math
from dataclasses import replace

import numpy as np
import pytest

from slitsim import (
    Blocked,
    ConfigurationError,
    Detected,
    Escaped,
    FieldParams,
    Geometry,
    HistogramSpec,
    StepLimit,
    StepParams,
    run_discrete_trajectory,
    run_ensemble,
)
from slitsim.ensemble import _DETECTED, CHUNK_SIZE, simulate_batch
from slitsim.field import potential
from slitsim.scattering import _segment_event

from oracle import run_continuous_trajectory

FREE = FieldParams(charge_product=0.0, slit_half_height=5.0)


def y_of(outcome):
    if isinstance(outcome, Detected):
        return outcome.y_hit
    if isinstance(outcome, Blocked):
        return outcome.y_impact
    return None


class TestAxialAndFree:
    def test_axial_launch_detected_on_axis(self, paper_geometry, paper_field, paper_step):
        """On-axis symmetry: F_y = 0, so the hit lands exactly at y = 0.

        v0 = 14 clears the potential rise between slit and detector;
        the canonical v0 = 12 cannot (threshold 13.775 at tau = 0.05).
        """
        rec = run_discrete_trajectory(0.0, 14.0, paper_geometry, paper_field, paper_step)
        assert isinstance(rec.outcome, Detected)
        assert rec.outcome.y_hit == 0.0
        assert rec.outcome.t_hit > 0.0

    def test_axial_launch_continuous(self, paper_geometry, paper_field):
        rec = run_continuous_trajectory(0.0, 14.0, paper_geometry, paper_field,
                                        h=1e-3)
        assert isinstance(rec.outcome, Detected)
        assert rec.outcome.y_hit == 0.0

    def test_free_flight_straight_line(self, paper_geometry):
        """Zero charge: y_hit = (D + d) * tan(alpha)."""
        for alpha_deg in (3.0, -7.0, 12.0):
            a = math.radians(alpha_deg)
            rec = run_continuous_trajectory(a, 12.0, paper_geometry, FREE, h=1e-3)
            assert isinstance(rec.outcome, Detected)
            assert rec.outcome.y_hit == pytest.approx(30.0 * math.tan(a), abs=1e-9)
            disc = run_discrete_trajectory(a, 12.0, paper_geometry, FREE,
                                           StepParams(tau=0.05))
            assert disc.outcome.y_hit == pytest.approx(30.0 * math.tan(a), abs=1e-9)


class TestOutcomes:
    def test_steep_launch_blocked(self, paper_geometry, paper_field, paper_step):
        """45 degrees aims outside the aperture; the pull makes it worse."""
        rec = run_discrete_trajectory(math.radians(45.0), 12.0, paper_geometry,
                                      paper_field, paper_step)
        assert isinstance(rec.outcome, Blocked)
        ref = run_continuous_trajectory(math.radians(45.0), 12.0, paper_geometry,
                                        paper_field, h=1e-3)
        assert isinstance(ref.outcome, Blocked)

    def test_canonical_speed_never_detected(self, paper_geometry, paper_field,
                                            paper_step):
        """At v0 = 12 the detector plane is beyond the classical turning
        point, so every launch ends blocked or escaped."""
        for alpha_deg in (0.0, 5.0, 15.0, 30.0, 44.0):
            rec = run_discrete_trajectory(math.radians(alpha_deg), 12.0,
                                          paper_geometry, paper_field, paper_step)
            assert isinstance(rec.outcome, (Blocked, Escaped))

    def test_outcome_exhaustive_and_terminates(self, paper_geometry, paper_field,
                                               paper_step):
        for alpha_deg in np.linspace(-45.0, 45.0, 31):
            rec = run_discrete_trajectory(math.radians(alpha_deg), 15.0,
                                          paper_geometry, paper_field, paper_step)
            assert isinstance(rec.outcome, (Blocked, Detected, Escaped, StepLimit))
            assert rec.steps_taken <= paper_geometry.max_steps

    def test_step_limit(self, paper_field, paper_step):
        g = Geometry(emitter_distance=5.0, screen_gap=25.0, slit_half_height=5.0,
                     particle_radius=0.2, max_steps=3)
        rec = run_discrete_trajectory(0.0, 12.0, g, paper_field, paper_step)
        assert isinstance(rec.outcome, StepLimit)
        assert rec.steps_taken == 3

    def test_escape_bounds(self, paper_field):
        """A reflected particle leaves through x < -2D and is not dropped."""
        g = Geometry(emitter_distance=5.0, screen_gap=25.0, slit_half_height=5.0,
                     particle_radius=0.2)
        rec = run_discrete_trajectory(0.0, 12.0, g, paper_field,
                                      StepParams(tau=0.01), record=True)
        assert isinstance(rec.outcome, Escaped)
        assert rec.path[-1].pos.x < g.x_escape

    def test_geometry_field_mismatch(self, paper_field, paper_step, fast_emission):
        """R = 4 in the geometry, 5 in the field: every engine refuses to run,
        the kernel called directly too, and a worker's error reaches the caller."""
        g = Geometry(emitter_distance=5.0, screen_gap=25.0, slit_half_height=4.0,
                     particle_radius=0.2)
        with pytest.raises(ConfigurationError):
            run_discrete_trajectory(0.0, 12.0, g, paper_field, paper_step)
        with pytest.raises(ConfigurationError):
            simulate_batch(np.zeros(3), 12.0, g, paper_field, paper_step)
        e = replace(fast_emission, n=CHUNK_SIZE + 1)      # two chunks
        hspec = HistogramSpec(bin_width=0.4, y_min=-25.0, y_max=25.0)
        for workers in (1, 2):
            with pytest.raises(ConfigurationError, match="slit_half_height"):
                run_ensemble(e, g, paper_field, paper_step, hspec, workers=workers)

    def test_speed_must_be_positive(self, paper_geometry, paper_field, paper_step):
        with pytest.raises(ValueError):
            run_discrete_trajectory(0.0, 0.0, paper_geometry, paper_field, paper_step)
        with pytest.raises(ValueError):
            run_continuous_trajectory(0.0, -3.0, paper_geometry, paper_field)
        # a short step budget, so an engine that accepts the launch stops soon
        g = replace(paper_geometry, max_steps=100)
        for v0 in (math.inf, math.nan):
            with pytest.raises(ValueError, match="v0"):
                run_discrete_trajectory(0.0, v0, g, paper_field, paper_step)
            with pytest.raises(ValueError, match="v0"):
                simulate_batch(np.zeros(3), v0, g, paper_field, paper_step)
        with pytest.raises(ValueError, match="alpha"):
            run_discrete_trajectory(math.nan, 12.0, g, paper_field, paper_step)
        # the RK4 oracle launches through the same checks
        with pytest.raises(ValueError, match="alpha"):
            run_continuous_trajectory(math.nan, 12.0, g, paper_field, h=1e-3)
        with pytest.raises(ValueError, match="v0"):
            run_continuous_trajectory(0.0, math.inf, g, paper_field, h=1e-3)
        with pytest.raises(ValueError, match="alpha"):
            simulate_batch(np.array([0.1, math.nan, 0.2]), 12.0, g, paper_field,
                           paper_step)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Geometry(emitter_distance=0.0, screen_gap=25.0, slit_half_height=5.0,
                     particle_radius=0.2)
        g = dict(emitter_distance=5.0, screen_gap=25.0, slit_half_height=5.0,
                 particle_radius=0.2)
        for length in ("emitter_distance", "screen_gap", "y_bound"):
            with pytest.raises(ValueError, match=length):
                Geometry(**{**g, length: math.inf})
        with pytest.raises(ValueError):
            Geometry(emitter_distance=5.0, screen_gap=25.0, slit_half_height=5.0,
                     particle_radius=5.0)
        with pytest.raises(ValueError):
            Geometry(emitter_distance=5.0, screen_gap=25.0, slit_half_height=5.0,
                     particle_radius=0.2, y_bound=4.0)
        with pytest.raises(ValueError, match="max_steps"):
            Geometry(emitter_distance=5.0, screen_gap=25.0, slit_half_height=5.0,
                     particle_radius=0.2, max_steps=0)


class TestMirrorSymmetry:
    def test_outcomes_mirror_exactly(self, paper_geometry, paper_field, paper_step):
        """alpha -> outcome commutes with y negation, bitwise."""
        for alpha_deg in (2.0, 9.0, 17.0, 25.0, 33.0, 41.0):
            a = math.radians(alpha_deg)
            up = run_discrete_trajectory(a, 15.0, paper_geometry, paper_field, paper_step)
            dn = run_discrete_trajectory(-a, 15.0, paper_geometry, paper_field, paper_step)
            assert type(up.outcome) is type(dn.outcome)
            yu, yd = y_of(up.outcome), y_of(dn.outcome)
            if yu is not None:
                assert yd == -yu
            assert up.steps_taken == dn.steps_taken


class TestCrossingDetection:
    def test_no_tunneling_along_recorded_paths(self, paper_geometry, paper_field,
                                               paper_step):
        """A detected trajectory never straddled the plane outside the
        aperture on any earlier segment."""
        ap = paper_geometry.aperture
        checked = 0
        for alpha_deg in np.linspace(-20.0, 20.0, 21):
            rec = run_discrete_trajectory(math.radians(alpha_deg), 15.0,
                                          paper_geometry, paper_field, paper_step,
                                          record=True)
            if not isinstance(rec.outcome, Detected):
                continue
            checked += 1
            for s0, s1 in zip(rec.path, rec.path[1:]):
                x0, x1 = s0.pos.x, s1.pos.x
                if (x0 < 0 <= x1) or (x0 > 0 >= x1):
                    lam = x0 / (x0 - x1)
                    yc = s0.pos.y + lam * (s1.pos.y - s0.pos.y)
                    assert abs(yc) < ap
        assert checked > 5

    def test_detector_hit_is_interpolated(self, paper_geometry, paper_field,
                                          paper_step):
        rec = run_discrete_trajectory(math.radians(5.0), 15.0, paper_geometry,
                                      paper_field, paper_step, record=True)
        assert isinstance(rec.outcome, Detected)
        assert rec.path[-1].pos.x == paper_geometry.screen_gap
        assert rec.path[-1].pos.y == rec.outcome.y_hit
        assert rec.path[0].pos == (-5.0, 0.0)

    def test_segment_event_ordering(self):
        """Plane block beats a later detector crossing, also on an exact tie,
        and a pass through the slit does not."""
        # segment passes the plane (blocked region) then would reach x=25
        ev = _segment_event(-1.0, 6.0, 30.0, 6.0, aperture=4.8, detector_x=25.0)
        assert ev[0] == 0.0
        # through the slit then on to the detector in a single segment
        ev = _segment_event(-1.0, 0.0, 30.0, 0.0, aperture=4.8, detector_x=25.0)
        assert ev[0] == 25.0
        # no plane crossing at all
        assert _segment_event(1.0, 0.0, 2.0, 0.0, 4.8, 25.0) is None
        # both fractions round to 0.5: the screen plane still comes first
        ev = _segment_event(-1e18, 0.0, 1e18, 12.0, aperture=4.8, detector_x=25.0)
        assert ev == (0.0, 6.0, 0.5)

    def test_reapproach_from_the_right_uses_same_rule(self, paper_field):
        """Segments crossing back from x > 0 are blocked outside the aperture."""
        ev = _segment_event(0.5, 5.5, -0.5, 5.5, aperture=4.8, detector_x=25.0)
        assert ev[0] == 0.0
        ev = _segment_event(0.5, 1.0, -0.5, 1.0, aperture=4.8, detector_x=25.0)
        assert ev is None


class TestContinuousAgreement:
    def test_fine_tau_matches_reference(self, paper_geometry, paper_field):
        """tau = 1e-3 endpoint within 0.05 of the continuum."""
        for alpha_deg in (-12.0, 4.0, 21.0):
            a = math.radians(alpha_deg)
            cont = run_continuous_trajectory(a, 15.0, paper_geometry, paper_field,
                                             h=1e-3 * 5 / 15)
            disc = run_discrete_trajectory(a, 15.0, paper_geometry, paper_field,
                                           StepParams(tau=1e-3))
            assert type(cont.outcome) is type(disc.outcome)
            if y_of(cont.outcome) is not None:
                assert y_of(disc.outcome) == pytest.approx(y_of(cont.outcome), abs=0.05)

    def test_twenty_random_angles_converged(self, paper_geometry, paper_field):
        """tau = 5e-4 endpoints within 0.02 of the continuum, canonical range."""
        rng = np.random.default_rng(42)
        alphas = np.radians(rng.uniform(-45.5, 45.5, 20))
        for a in alphas:
            cont = run_continuous_trajectory(a, 15.0, paper_geometry, paper_field,
                                             h=1e-3 * 5 / 15)
            disc = run_discrete_trajectory(a, 15.0, paper_geometry, paper_field,
                                           StepParams(tau=5e-4))
            assert type(cont.outcome) is type(disc.outcome)
            if y_of(cont.outcome) is not None:
                assert y_of(disc.outcome) == pytest.approx(y_of(cont.outcome), abs=0.02)


def arrival_threshold(g, f, tau):
    """The least v0 in [10, 20] at which the axial launch is detected, to
    1e-11 by 40 bisection steps.  The bracket stays above 6.14, because
    slower axial lanes stay trapped in the slit until max_steps."""
    lo, hi = 10.0, 20.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        rec = run_discrete_trajectory(0.0, mid, g, f, StepParams(tau=tau))
        lo, hi = (lo, mid) if isinstance(rec.outcome, Detected) else (mid, hi)
    return hi


class TestArrivalThreshold:
    """Discrete time lowers the speed that reaches the detector plane, by
    about 1.6 tau, and the classical sqrt(2 dU) is its tau -> 0 limit."""

    def test_first_order_approach_to_classical(self, paper_geometry, paper_field):
        """The gap to sqrt(2 dU) halves with tau, so one Richardson step
        lands on it."""
        du = (potential((25.0, 0.0), paper_field)
              - potential((-5.0, 0.0), paper_field))
        classical = math.sqrt(2.0 * du)
        assert classical == pytest.approx(13.855152, abs=1e-6)
        taus = (0.05, 0.02, 0.01, 0.005)
        v = [arrival_threshold(paper_geometry, paper_field, tau) for tau in taus]
        assert v == pytest.approx([13.775397, 13.823528, 13.839393, 13.847286],
                                  abs=1e-6)
        gaps = classical - np.array(v)
        ratios = gaps[1:-1] / gaps[2:]              # tau 0.02 / 0.01, 0.01 / 0.005
        assert ((1.9 <= ratios) & (ratios <= 2.1)).all(), ratios
        assert abs(2.0 * v[3] - v[2] - classical) < 1e-4

    @pytest.mark.parametrize("tau", [0.5, 0.05])
    def test_no_angle_arrives_below_the_axial_threshold(self, paper_geometry,
                                                        paper_field, tau):
        """The axial launch is the first to arrive: 1e-6 below its threshold
        no angle of the canonical fan is detected, 1e-6 above some are."""
        v_star = arrival_threshold(paper_geometry, paper_field, tau)
        alphas = np.radians(np.linspace(-45.5, 45.5, 20_001))
        detected = [(simulate_batch(alphas, v_star + dv, paper_geometry, paper_field,
                                    StepParams(tau=tau))[0] == _DETECTED).sum()
                    for dv in (-1e-6, 1e-6)]
        assert detected[0] == 0 and detected[1] > 0, detected

    def test_canonical_speed_first_arrives_above_tau_080(self, paper_geometry,
                                                         paper_field):
        """At v0 = 12 the detector opens between tau = 0.80 and 0.85, far
        above the tau <= 0.05 of the acceptance criteria."""
        alphas = np.radians(np.linspace(-45.5, 45.5, 2_001))
        detected = [(simulate_batch(alphas, 12.0, paper_geometry, paper_field,
                                    StepParams(tau=tau))[0] == _DETECTED).sum()
                    for tau in (0.80, 0.85)]
        assert detected == [0, 67]
