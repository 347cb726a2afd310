"""Closed-form screen force against the direct quadrature oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from slitsim import (
    FieldParams,
    ScreenSurfaceError,
    Vec2,
    force_closed_form,
    potential,
)
from slitsim.field import force_batch

from oracle import QuadratureSpec, ToleranceNotMetError, force_quadrature

ORACLE = QuadratureSpec(truncation_half_width=1e4, abs_tol=1e-10, max_subdivisions=200)


def grid_points(field):
    """10x10 evaluation grid on both sides of the screen, away from it."""
    xs = np.concatenate([np.linspace(-10, -0.5, 5), np.linspace(0.5, 10, 5)])
    ys = np.linspace(-8, 8, 10)
    return [Vec2(float(x), float(y)) for x in xs for y in ys]


class TestClosedFormValues:
    def test_head_on_point_matches_oracle(self, paper_field):
        """Approach point (-5, 0): pull toward the screen of magnitude pi."""
        cf = force_closed_form(Vec2(-5.0, 0.0), paper_field)
        oq = force_quadrature(Vec2(-5.0, 0.0), paper_field, ORACLE)
        assert_allclose(cf.x, oq.x, rtol=1e-6)
        assert cf.x == pytest.approx(math.pi, rel=1e-12)
        assert cf.y == 0.0
        assert oq.y == pytest.approx(0.0, abs=1e-9)

    def test_off_axis_point(self, paper_field):
        """(1, 1): transverse pull toward the nearer charged half-plane."""
        cf = force_closed_form(Vec2(1.0, 1.0), paper_field)
        assert cf.y == pytest.approx(-math.log(17.0 / 37.0), rel=1e-12)
        oq = force_quadrature(Vec2(1.0, 1.0), paper_field, ORACLE)
        assert_allclose([cf.x, cf.y], [oq.x, oq.y], rtol=1e-6)

    def test_slit_axis_limit(self, paper_field):
        """F_x -> 0 approaching the plane inside the slit, and is 0 at x = 0."""
        assert abs(force_closed_form(Vec2(1e-9, 0.0), paper_field).x) < 1e-8
        on_plane = force_closed_form(Vec2(0.0, 2.5), paper_field)
        assert on_plane.x == 0.0
        assert math.isfinite(on_plane.y)

    def test_printed_formula_reproduced_for_positive_x(self, paper_field):
        """For x > 0 the implementation equals the uncorrected arctan form."""
        qs = paper_field.charge_product
        R = paper_field.slit_half_height
        for p in grid_points(paper_field):
            if p.x <= 0:
                continue
            fx = 2 * qs * (math.pi + math.atan((p.y - R) / p.x)
                           - math.atan((p.y + R) / p.x))
            assert force_closed_form(p, paper_field).x == pytest.approx(fx, rel=1e-13)

    def test_zero_charge(self):
        field = FieldParams(charge_product=0.0, slit_half_height=5.0)
        assert force_closed_form(Vec2(-3.0, 2.0), field) == (0.0, 0.0)
        f = force_quadrature(Vec2(-3.0, 2.0), field, ORACLE)
        assert f.x == 0.0 and f.y == 0.0


class TestOracleAgreement:
    def test_raw_surface_integral(self, paper_field):
        """End-to-end check against the 2-d Coulomb surface integral.

        Integrates the raw kernel num / r^3 over the charged half-planes
        with no analytic reduction: the z direction is parametrized as
        z = a tan(t) with a the local in-plane distance (a coordinate
        choice, the integrand stays the raw kernel), the charged lines
        are truncated at Y with the remainder taken as paired tails.
        """
        x, y = -5.0, 2.0
        qs = paper_field.charge_product
        R = paper_field.slit_half_height

        def z_integral(yp, num):
            a = math.hypot(x, y - yp)
            val, _ = quad(
                lambda t: num / (x * x + (y - yp) ** 2
                                 + (a * math.tan(t)) ** 2) ** 1.5
                * a / math.cos(t) ** 2,
                0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-11, limit=100)
            return 2.0 * val

        Y = 1e4
        components = []
        for num_of in (lambda yp: x, lambda yp: y - yp):
            pos, _ = quad(lambda yp: z_integral(yp, num_of(yp)), R, Y,
                          epsabs=1e-10, limit=400)
            neg, _ = quad(lambda yp: z_integral(yp, num_of(yp)), -Y, -R,
                          epsabs=1e-10, limit=400)
            tail, _ = quad(lambda s: z_integral(s, num_of(s))
                           + z_integral(-s, num_of(-s)),
                           Y, math.inf, epsabs=1e-10, limit=400)
            components.append(qs * (pos + neg + tail))
        cf = force_closed_form(Vec2(x, y), paper_field)
        assert components[0] == pytest.approx(cf.x, rel=1e-10)
        assert components[1] == pytest.approx(cf.y, rel=1e-10)

    def test_grid_agreement(self, paper_field):
        """Closed form vs quadrature within 1e-6 relative over the grid."""
        worst = 0.0
        for p in grid_points(paper_field):
            cf = np.array(force_closed_form(p, paper_field))
            oq = np.array(force_quadrature(p, paper_field, ORACLE))
            err = np.linalg.norm(cf - oq) / np.linalg.norm(oq)
            worst = max(worst, err)
        assert worst <= 1e-6

    def test_oracle_insensitive_to_cutoff(self, paper_field):
        """Paired tails remove the O(1/Y) truncation error."""
        p = Vec2(-5.0, 3.0)
        small = force_quadrature(p, paper_field, QuadratureSpec(truncation_half_width=20.0))
        large = force_quadrature(p, paper_field, ORACLE)
        assert_allclose(small, large, rtol=1e-8)

    def test_quadrature_mirror_symmetry(self, paper_field):
        p, q = Vec2(2.0, 3.0), Vec2(2.0, -3.0)
        fp = force_quadrature(p, paper_field, ORACLE)
        fq = force_quadrature(q, paper_field, ORACLE)
        assert fp.x == pytest.approx(fq.x, rel=1e-9)
        assert fp.y == pytest.approx(-fq.y, rel=1e-9)


class TestSymmetries:
    coord = st.floats(min_value=-20.0, max_value=20.0)

    @given(x=coord.filter(lambda v: abs(v) > 1e-6), y=coord)
    @settings(max_examples=200, deadline=None)
    def test_mirror_parities_exact(self, x, y):
        """F_y odd in y, F_x even in y; F_x odd in x, F_y even in x (bitwise)."""
        field = FieldParams(charge_product=-1.0, slit_half_height=5.0)
        f = force_closed_form(Vec2(x, y), field)
        fy_mirror = force_closed_form(Vec2(x, -y), field)
        fx_mirror = force_closed_form(Vec2(-x, y), field)
        assert fy_mirror.x == f.x and fy_mirror.y == -f.y
        assert fx_mirror.x == -f.x and fx_mirror.y == f.y

    def test_on_axis_transverse_force_vanishes(self, paper_field):
        for x in (-7.0, -0.3, 0.4, 9.0):
            assert force_closed_form(Vec2(x, 0.0), paper_field).y == 0.0

    @pytest.mark.parametrize("preallocated", [False, True], ids=["out_none", "out_buffers"])
    def test_batch_matches_scalar(self, paper_field, preallocated):
        pts = grid_points(paper_field)
        xs = np.array([p.x for p in pts])
        ys = np.array([p.y for p in pts])
        out = np.full((4, xs.size), np.nan) if preallocated else None
        fx, fy = force_batch(xs, ys, paper_field, out=out)
        ref_x, ref_y = force_batch(xs, ys, paper_field)
        np.testing.assert_array_equal(fx, ref_x)
        np.testing.assert_array_equal(fy, ref_y)
        if preallocated:
            assert np.shares_memory(fx, out[0]) and np.shares_memory(fy, out[1])
        for i, p in enumerate(pts):
            cf = force_closed_form(p, paper_field)
            assert fx[i] == pytest.approx(cf.x, rel=1e-14, abs=1e-300)
            assert fy[i] == pytest.approx(cf.y, rel=1e-14, abs=1e-300)

    def test_batch_mirror_parities_exact(self, paper_field):
        """The array force is exactly odd in x (F_x) and in y (F_y), and even
        in the other coordinate, on points off the charged surface."""
        R = paper_field.slit_half_height
        special = np.array([5e-324, 1e-300, 1e-12, 1e-6, 0.3, R - 1e-9, R,
                            R + 1e-9, 7.0, 40.0])
        sx, sy = np.meshgrid(special, np.concatenate([[0.0], special]))
        rng = np.random.default_rng(7)
        xs = np.concatenate([sx.ravel(), rng.uniform(-30.0, 30.0, 2000)])
        ys = np.concatenate([sy.ravel(), rng.uniform(-30.0, 30.0, 2000)])
        # x^2 underflows for the tiniest x, so F_y is infinite at (x, +-R)
        with np.errstate(divide="ignore"):
            fx, fy = force_batch(xs, ys, paper_field)
            fx_x, fy_x = force_batch(-xs, ys, paper_field)
            fx_y, fy_y = force_batch(xs, -ys, paper_field)
        assert not np.isnan(fx).any() and not np.isnan(fy).any()
        assert np.array_equal(fx_x, -fx) and np.array_equal(fy_x, fy)
        assert np.array_equal(fx_y, fx) and np.array_equal(fy_y, -fy)

    def test_batch_zero_x_force(self, paper_field):
        """On the plane x = +-0, inside the slit and at its edges, F_x is 0,
        and F_y is 0 on the axis."""
        R = paper_field.slit_half_height
        ys = np.array([0.0, 3.0, -3.0, R, -R])
        for x0 in (0.0, -0.0):
            with np.errstate(divide="ignore"):      # F_y at the edges is infinite
                fx, fy = force_batch(np.full(ys.size, x0), ys, paper_field)
            assert np.all(fx == 0.0)
            assert fy[0] == 0.0


class TestFieldStructure:
    def test_curl_free(self, paper_field):
        """dF_x/dy - dF_y/dx vanishes off the screen (central differences)."""
        h = 1e-4
        for p in grid_points(paper_field):
            up = force_closed_form(Vec2(p.x, p.y + h), paper_field).x
            dn = force_closed_form(Vec2(p.x, p.y - h), paper_field).x
            ri = force_closed_form(Vec2(p.x + h, p.y), paper_field).y
            le = force_closed_form(Vec2(p.x - h, p.y), paper_field).y
            curl = (up - dn) / (2 * h) - (ri - le) / (2 * h)
            fmag = np.linalg.norm(force_closed_form(p, paper_field))
            assert abs(curl) <= 1e-5 * max(fmag, 1.0)

    def test_far_field_limit(self, paper_field):
        """|F_x| approaches the gapless-plane value 2*pi*|qs| far away."""
        plane = 2 * math.pi * abs(paper_field.charge_product)
        for y in (0.0, 3.0, -8.0):
            for x in (5000.0, -5000.0):
                fx = force_closed_form(Vec2(x, y), paper_field).x
                assert abs(fx) == pytest.approx(plane, rel=1e-3)
                # attraction: the force points back toward the plane
                assert math.copysign(1.0, fx) == -math.copysign(1.0, x)


class TestPotential:
    def test_reference_point(self, paper_field):
        assert potential(Vec2(0.0, 0.0), paper_field) == 0.0

    def test_even_in_y(self, paper_field):
        for x, y in ((-5.0, 2.0), (3.0, 7.0), (0.0, 4.0)):
            assert potential(Vec2(x, y), paper_field) == pytest.approx(
                potential(Vec2(x, -y), paper_field), rel=1e-13)

    def test_against_line_integral_on_axis(self, paper_field):
        """Independent oracle: quadrature of -F_x from the origin to (-5, 0)."""
        val, err = quad(
            lambda t: -force_closed_form(Vec2(t, 0.0), paper_field).x, 0.0, -5.0)
        assert err < 1e-9
        assert potential(Vec2(-5.0, 0.0), paper_field) == pytest.approx(val, rel=1e-5)

    def test_path_independence_through_slit(self, paper_field):
        """Line integral along (0,0)->(0,2)->(3,2) matches the closed form."""
        leg1, e1 = quad(
            lambda t: -force_closed_form(Vec2(0.0, t), paper_field).y, 0.0, 2.0)
        leg2, e2 = quad(
            lambda t: -force_closed_form(Vec2(t, 2.0), paper_field).x, 0.0, 3.0)
        assert e1 + e2 < 1e-9
        assert potential(Vec2(3.0, 2.0), paper_field) == pytest.approx(
            leg1 + leg2, rel=1e-8)

    def test_gradient_consistency(self, paper_field):
        """-grad(potential) equals the force (central differences)."""
        h = 1e-5
        for p in (Vec2(-4.0, 1.5), Vec2(2.0, -6.0), Vec2(6.0, 0.5)):
            fx = -(potential(Vec2(p.x + h, p.y), paper_field)
                   - potential(Vec2(p.x - h, p.y), paper_field)) / (2 * h)
            fy = -(potential(Vec2(p.x, p.y + h), paper_field)
                   - potential(Vec2(p.x, p.y - h), paper_field)) / (2 * h)
            f = force_closed_form(p, paper_field)
            assert fx == pytest.approx(f.x, rel=1e-6, abs=1e-8)
            assert fy == pytest.approx(f.y, rel=1e-6, abs=1e-8)


class TestDomainErrors:
    def test_screen_surface_rejected(self, paper_field):
        for p in (Vec2(0.0, 5.0), Vec2(0.0, -6.0), Vec2(0.0, 12.0)):
            with pytest.raises(ScreenSurfaceError):
                force_closed_form(p, paper_field)
            with pytest.raises(ScreenSurfaceError):
                force_quadrature(p, paper_field, ORACLE)
            with pytest.raises(ScreenSurfaceError):
                potential(p, paper_field)

    def test_non_finite_input_rejected(self, paper_field):
        for bad in (Vec2(math.nan, 0.0), Vec2(1.0, math.inf)):
            with pytest.raises(ValueError):
                force_closed_form(bad, paper_field)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            FieldParams(charge_product=-1.0, slit_half_height=0.0)
        with pytest.raises(ValueError):
            FieldParams(charge_product=math.nan, slit_half_height=5.0)
        for r in (math.inf, math.nan):
            with pytest.raises(ValueError, match="slit_half_height"):
                FieldParams(charge_product=-1.0, slit_half_height=r)
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_half_width=10.0, abs_tol=0.0)

    def test_cutoff_must_exceed_slit(self, paper_field):
        with pytest.raises(ValueError):
            force_quadrature(Vec2(-5.0, 0.0), paper_field,
                             QuadratureSpec(truncation_half_width=2.0))

    def test_exhausted_subdivisions_raise(self, paper_field):
        """A one-interval budget cannot meet a tight tolerance near the slit."""
        starved = QuadratureSpec(truncation_half_width=1e4, abs_tol=1e-12,
                                 max_subdivisions=1)
        with pytest.raises(ToleranceNotMetError):
            force_quadrature(Vec2(-0.01, 4.99), paper_field, starved)
