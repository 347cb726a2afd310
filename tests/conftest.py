"""Shared parameter sets.

`paper_*` fixtures carry the canonical experiment values (attracting
screen, speed 12).  With those values the detector plane at x = +25 sits
above the reachable energy of the emitted particles (arrivals require
v0 > 13.775 at tau = 0.05), so machinery tests that need detected
outcomes use the `fast_*` variants at v0 = 15 instead.
"""

import math

import pytest

from slitsim import EmissionSpec, FieldParams, Geometry, StepParams

CANONICAL_ALPHA_DEG = 45.5


@pytest.fixture
def paper_field() -> FieldParams:
    return FieldParams(charge_product=-1.0, slit_half_height=5.0)


@pytest.fixture
def paper_geometry() -> Geometry:
    return Geometry(emitter_distance=5.0, screen_gap=25.0,
                    slit_half_height=5.0, particle_radius=0.2)


@pytest.fixture
def paper_step() -> StepParams:
    return StepParams(tau=0.05, mass=1.0)


@pytest.fixture
def paper_emission() -> EmissionSpec:
    return EmissionSpec(v0=12.0,
                        alpha_min=math.radians(-CANONICAL_ALPHA_DEG),
                        alpha_max=math.radians(CANONICAL_ALPHA_DEG),
                        n=1000, seed=1)


@pytest.fixture
def fast_emission() -> EmissionSpec:
    """Arrival-rich variant: everything canonical except v0 = 15."""
    return EmissionSpec(v0=15.0,
                        alpha_min=math.radians(-CANONICAL_ALPHA_DEG),
                        alpha_max=math.radians(CANONICAL_ALPHA_DEG),
                        n=1000, seed=1)
