"""Ensembles: reproducible emission, histogram accounting, parallel merge."""

import concurrent.futures
import math
import os
import re
import signal
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from slitsim import (
    Blocked,
    ConfigurationError,
    Detected,
    EmissionSpec,
    Escaped,
    FieldParams,
    Geometry,
    Histogram,
    HistogramSpec,
    StepLimit,
    StepParams,
    emission_angles,
    merge,
    normalize,
    run_discrete_trajectory,
    run_ensemble,
)
from slitsim import ensemble
from slitsim.config import (
    build_emission,
    build_field,
    build_geometry,
    build_step,
    parse_config,
)
from slitsim.ensemble import CHUNK_SIZE, simulate_batch, uniform01

from oracle import run_continuous_trajectory

HSPEC = HistogramSpec(bin_width=0.4, y_min=-25.0, y_max=25.0)
REPULSIVE = parse_config(Path(__file__).resolve().parents[1] / "configs" / "repulsive.cfg")
# configs/repulsive.cfg's half sweep: 50,001 angles over [0, 45.5] deg
HALF_SWEEP = replace(REPULSIVE, alpha_min_deg=0.0, n=50_001)
FREE = FieldParams(charge_product=0.0, slit_half_height=5.0)
SPLIT_LANES = 600


def make_hist(counts, **tallies) -> Histogram:
    arr = np.zeros(HSPEC.n_bins, dtype=np.int64)
    arr[:len(counts)] = counts
    detected = int(arr.sum()) + tallies.get("underflow", 0) + tallies.get("overflow", 0)
    defaults = dict(n_emitted=detected, n_detected=detected)
    defaults.update(tallies)
    return Histogram(spec=HSPEC, counts=arr, **defaults)


class TestCounterRng:
    def test_range_and_determinism(self):
        u = uniform01(12345, 0, 10000)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert np.array_equal(u, uniform01(12345, 0, 10000))

    def test_slicing_invariance(self):
        """Draw i depends only on (seed, i): any chunking yields the same stream."""
        whole = uniform01(7, 0, 1000)
        parts = np.concatenate([uniform01(7, 0, 137), uniform01(7, 137, 600),
                                uniform01(7, 600, 1000)])
        assert np.array_equal(whole, parts)

    def test_seeds_decorrelate(self):
        a = uniform01(1, 0, 1000)
        b = uniform01(2, 0, 1000)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_roughly_uniform(self):
        u = uniform01(99, 0, 200_000)
        counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
        expected = len(u) / 20
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.999, 19)


class TestEmissionAngles:
    def test_sweep_inclusive_and_even(self):
        e = EmissionSpec(v0=1.0, alpha_min=-1.0, alpha_max=1.0, n=5, mode="sweep")
        a = emission_angles(e, 0, 5)
        assert a[0] == -1.0 and a[-1] == 1.0
        assert np.allclose(np.diff(a), 0.5)

    def test_sweep_single_uses_midpoint(self):
        e = EmissionSpec(v0=1.0, alpha_min=-0.5, alpha_max=0.5, n=1, mode="sweep")
        assert emission_angles(e, 0, 1)[0] == 0.0

    def test_random_within_range(self):
        e = EmissionSpec(v0=1.0, alpha_min=-0.2, alpha_max=0.7, n=5000, seed=3)
        a = emission_angles(e, 0, 5000)
        assert np.all((a >= -0.2) & (a < 0.7))

    def test_validation(self, paper_geometry, paper_field, paper_step, paper_emission):
        with pytest.raises(ValueError):
            EmissionSpec(v0=1.0, alpha_min=1.0, alpha_max=-1.0, n=10)
        with pytest.raises(ValueError):
            EmissionSpec(v0=0.0, alpha_min=-1.0, alpha_max=1.0, n=10)
        with pytest.raises(ValueError):
            EmissionSpec(v0=math.inf, alpha_min=-1.0, alpha_max=1.0, n=10)
        with pytest.raises(ValueError):
            EmissionSpec(v0=1.0, alpha_min=-1.0, alpha_max=math.inf, n=10)
        with pytest.raises(ValueError):
            EmissionSpec(v0=1.0, alpha_min=-1.0, alpha_max=1.0, n=0)
        with pytest.raises(ValueError):
            EmissionSpec(v0=1.0, alpha_min=-1.0, alpha_max=1.0, n=10, mode="grid")
        with pytest.raises(ValueError, match="64 bits"):
            EmissionSpec(v0=1.0, alpha_min=-1.0, alpha_max=1.0, n=10, seed=2**64)
        with pytest.raises(ValueError, match="out of bounds"):
            emission_angles(paper_emission, 0, paper_emission.n + 1)
        with pytest.raises(ValueError, match="workers"):
            run_ensemble(paper_emission, paper_geometry, paper_field, paper_step,
                         HSPEC, workers=0)


class TestHistogramAccounting:
    def test_conservation(self, paper_geometry, paper_field, paper_step,
                          paper_emission):
        h = run_ensemble(paper_emission, paper_geometry, paper_field, paper_step,
                         HSPEC)
        assert h.n_emitted == 1000
        assert (h.n_detected + h.n_blocked + h.n_escaped + h.n_steplimit
                == h.n_emitted)
        assert int(h.counts.sum()) + h.underflow + h.overflow == h.n_detected

    def test_overflow_tallies(self, paper_geometry, paper_step):
        """Hits outside the binned range are tallied, never dropped."""
        e = EmissionSpec(v0=12.0, alpha_min=math.radians(-40), alpha_max=math.radians(40),
                         n=2000, seed=5)
        narrow = HistogramSpec(bin_width=0.4, y_min=-2.0, y_max=2.0)
        h = run_ensemble(e, paper_geometry, FREE, paper_step, narrow)
        assert h.underflow > 0 and h.overflow > 0
        assert int(h.counts.sum()) + h.underflow + h.overflow == h.n_detected

    def test_hit_at_y_max_is_overflow(self, monkeypatch, paper_geometry, paper_field,
                                      paper_step):
        """(0.7 - 0.1) / 0.2 rounds to 2.9999999999999996, so without the
        y >= y_max rule a hit at exactly 0.7 would land in the last cell."""
        ys = np.array([0.7, 0.1, 0.0999])
        monkeypatch.setattr(ensemble, "simulate_batch", lambda *_: (
            np.full(3, ensemble._DETECTED, dtype=np.uint8), ys))
        e = EmissionSpec(v0=15.0, alpha_min=-0.1, alpha_max=0.1, n=3)
        h = run_ensemble(e, paper_geometry, paper_field, paper_step,
                         HistogramSpec(bin_width=0.2, y_min=0.1, y_max=0.7))
        assert h.counts.tolist() == [1, 0, 0]
        assert (h.n_detected, h.underflow, h.overflow) == (3, 1, 1)

    def test_width_that_does_not_tile_is_rejected(self):
        """A width that does not divide the range would leave a cut last
        cell ([24.8, 25.0) here) labelled as a full one."""
        with pytest.raises(ValueError, match="does not tile"):
            HistogramSpec(bin_width=0.3, y_min=-25.0, y_max=25.0)

    def test_bin_count_rule(self):
        assert HSPEC.n_bins == 125
        with pytest.raises(ValueError, match="does not tile"):
            HistogramSpec(bin_width=0.4, y_min=0.0, y_max=1.0)
        # analyze reads back at least 2 rows, so a spec has at least 2 cells
        with pytest.raises(ValueError, match="1 bin is too few"):
            HistogramSpec(bin_width=50.0, y_min=-25.0, y_max=25.0)
        assert HistogramSpec(bin_width=25.0, y_min=-25.0, y_max=25.0).n_bins == 2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HistogramSpec(bin_width=0.0, y_min=-1.0, y_max=1.0)
        with pytest.raises(ValueError):
            HistogramSpec(bin_width=0.4, y_min=1.0, y_max=-1.0)
        # bounds or a bin count past the floats: ValueError, not OverflowError
        for bad in [(1e308, 0.0, math.inf), (0.4, -25.0, math.inf),
                    (0.4, -math.inf, 25.0), (math.inf, 0.0, 1.0),
                    (1e308, -1.5e308, 1.5e308), (1e-320, 0.0, 1.0)]:
            with pytest.raises(ValueError):
                HistogramSpec(*bad)
        # at most 2**20 cells (8 MiB of counts), and the message names the count
        for bad, count in [((1e-300, 0.0, 1.0), "1e+300"),
                           ((1.0, 0.0, 2.0 ** 20 + 1), "1048577")]:
            with pytest.raises(ValueError, match=re.escape(f"{count} bins exceed")):
                HistogramSpec(*bad)
        assert HistogramSpec(1.0, 0.0, 2.0 ** 20).n_bins == 2 ** 20


class TestDeterminism:
    def test_worker_count_invariance(self, monkeypatch, paper_geometry, paper_field,
                                     paper_step):
        """Bit-identical histograms for 1, 2 and 3 worker processes.

        40,000 lanes make 3 chunks, and the CPU count is patched to 3, so
        neither cap lowers a count below the one asked for."""
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        e = EmissionSpec(v0=15.0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=40_000, seed=11)
        base = run_ensemble(e, paper_geometry, paper_field, paper_step, HSPEC,
                            workers=1)
        for workers in (2, 3):
            h = run_ensemble(e, paper_geometry, paper_field, paper_step, HSPEC,
                             workers=workers)
            for fd in fields(Histogram):
                assert np.array_equal(getattr(h, fd.name), getattr(base, fd.name))

    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """Swap in a pool that runs each task in this process and starts none.

        Returns the keyword arguments of each pool made.
        """
        made = []

        class SerialPool:
            def __init__(self, **kwargs):
                made.append(kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, item):
                return SimpleNamespace(result=lambda: fn(item))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        # Pool sizes below do not depend on this host's CPU count.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        return made

    def test_pool_capped_at_chunk_count(self, serial_pool, paper_geometry,
                                        paper_field, paper_step):
        """No more worker processes are asked for than there are chunks."""
        e = EmissionSpec(v0=15.0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=CHUNK_SIZE + 1, seed=2)
        h = run_ensemble(e, paper_geometry, paper_field, paper_step, HSPEC,
                         workers=64)
        asked = [kwargs["max_workers"] for kwargs in serial_pool]
        assert asked == [2]
        assert h.n_emitted == e.n

    def test_pool_capped_at_cpu_count(self, serial_pool, monkeypatch,
                                      paper_geometry, paper_field, paper_step):
        """workers is capped at the CPU count before the serial-or-pool
        choice; an unknown count means one process.  No bit moves."""
        monkeypatch.setattr(ensemble, "CHUNK_SIZE", 100)
        e = EmissionSpec(v0=15.0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=1_000, seed=2)
        base = run_ensemble(e, paper_geometry, paper_field, paper_step, HSPEC)
        for cpus, asked in [(3, [3]), (1, []), (None, [])]:
            serial_pool.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            h = run_ensemble(e, paper_geometry, paper_field, paper_step, HSPEC,
                             workers=1000)
            assert [kwargs["max_workers"] for kwargs in serial_pool] == asked
            for fd in fields(Histogram):
                assert np.array_equal(getattr(h, fd.name), getattr(base, fd.name))

    def test_pool_workers_ignore_sigint(self, serial_pool, paper_geometry,
                                        paper_field, paper_step):
        """Each worker starts by ignoring SIGINT, so Ctrl-C stops the parent only."""
        e = EmissionSpec(v0=15.0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=CHUNK_SIZE + 1, seed=2)
        run_ensemble(e, replace(paper_geometry, max_steps=1), paper_field,
                     paper_step, HSPEC, workers=2)
        (kwargs,) = serial_pool
        saved = signal.getsignal(signal.SIGINT)
        try:
            kwargs["initializer"](*kwargs["initargs"])
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGINT, saved)

    # At max_steps 60 and tau 0.05 the wide angles run out of steps while
    # the narrow ones are blocked or detected, so every outcome branch runs.
    # At v0 12 every lane passes the slit, turns back short of the detector
    # and meets the screen again from x > 0.
    @pytest.mark.parametrize("v0, max_steps", [
        pytest.param(15.0, 1_000_000, id="1000000"),
        pytest.param(15.0, 60, id="60"),
        pytest.param(12.0, 1_000_000, id="v12-1000000"),
    ])
    def test_batch_kernel_matches_trajectory_api(self, paper_geometry, paper_field,
                                                 paper_step, v0, max_steps):
        """The vectorized kernel and the per-trajectory runner agree."""
        geometry = replace(paper_geometry, max_steps=max_steps)
        alphas = np.radians(np.linspace(-44.0, 44.0, 64))
        steps = np.empty(alphas.size, dtype=np.int64)
        codes, y_final = simulate_batch(alphas, v0, geometry, paper_field,
                                        paper_step, steps=steps)
        from_right = 0
        for i, a in enumerate(alphas):
            rec = run_discrete_trajectory(float(a), v0, geometry,
                                          paper_field, paper_step, record=True)
            assert steps[i] == rec.steps_taken
            if isinstance(rec.outcome, Blocked):
                assert codes[i] == 1
                assert y_final[i] == pytest.approx(rec.outcome.y_impact, abs=1e-9)
                from_right += rec.path[-2].pos[0] > 0.0
            elif isinstance(rec.outcome, Detected):
                assert codes[i] == 2
                assert y_final[i] == pytest.approx(rec.outcome.y_hit, abs=1e-9)
            elif isinstance(rec.outcome, Escaped):
                assert codes[i] == 3
                assert np.isnan(y_final[i])
            else:
                assert isinstance(rec.outcome, StepLimit)
                assert codes[i] == 4
                assert np.isnan(y_final[i])
        if max_steps == 60:
            assert 0 < int((codes == 4).sum()) < codes.size
        if v0 == 12.0:
            assert from_right > 0

    def test_zero_field_kernel_matches_trajectory_bits(self, paper_geometry):
        """Without a field both forces are exactly +-0 and every other float
        operation is the same, so kernel and runner agree bit for bit.

        The grid covers all four outcomes, a first step that lands exactly
        on x = 0 (v0 5, tau 1, alpha 0), blocks and detector hits on a
        segment that also crosses the screen plane, and blocks and detector
        hits on a segment that also leaves the escape bounds.  The far
        emitter (x0 = -1e18, where d = 25 is below half an ulp, so d - x0
        rounds to -x0) gives segments whose crossing fractions at x = 0 and
        at x = d are equal: the screen plane comes first there too.
        """
        alphas = np.radians(np.append(np.linspace(-179.0, 179.0, 181), 0.0))
        cases = [(replace(paper_geometry, max_steps=max_steps), tau, v0, alphas)
                 for tau in (0.05, 0.3, 1.0, 2.5, 7.0)
                 for max_steps in (1000, 3) for v0 in (5.0, 15.0)]
        far = Geometry(emitter_distance=1e18, screen_gap=25.0, slit_half_height=5.0,
                       particle_radius=0.2, y_bound=1e20, max_steps=3)
        cases += [(far, 1.0, v0, np.radians(np.linspace(1.0, 40.0, 4001)))
                  for v0 in (1.3e18, 1.7e18, 2.1e18)]
        codes, y_final, want_codes, want_y, both_planes, leaves = [], [], [], [], [], []
        ties = 0
        for geometry, tau, v0, lane_alphas in cases:
            step = StepParams(tau=tau)
            d = geometry.screen_gap
            c, y = simulate_batch(lane_alphas, v0, geometry, FREE, step)
            codes.append(c)
            y_final.append(y)
            for a in lane_alphas:
                rec = run_discrete_trajectory(float(a), v0, geometry, FREE, step)
                out = rec.outcome
                want_codes.append({Blocked: 1, Detected: 2, Escaped: 3,
                                   StepLimit: 4}[type(out)])
                want_y.append(out.y_impact if isinstance(out, Blocked)
                              else out.y_hit if isinstance(out, Detected)
                              else np.nan)
                # straight flight: the last segment's end points
                dx = tau * v0 * math.cos(a)
                x_end = -geometry.emitter_distance + rec.steps_taken * dx
                x0 = x_end - dx
                both_planes.append(x0 < 0.0 and x_end >= d)
                ties += (both_planes[-1]
                         and x0 / (x0 - x_end) == (d - x0) / (x_end - x0))
                y_end = rec.steps_taken * tau * v0 * math.sin(a)
                leaves.append(x_end < geometry.x_escape
                              or abs(y_end) > geometry.y_bound)
        codes = np.concatenate(codes)
        y_final = np.concatenate(y_final)
        want_codes = np.array(want_codes, dtype=np.uint8)
        want_y = np.array(want_y)
        both_planes = np.array(both_planes)
        leaves = np.array(leaves)
        assert set(want_codes.tolist()) == {1, 2, 3, 4}
        assert np.any(both_planes & (want_codes == 1))
        assert np.any(both_planes & (want_codes == 2))
        assert np.any(leaves & (want_codes == 1))
        assert np.any(leaves & (want_codes == 2))
        assert ties > 11_000
        assert int((codes != want_codes).sum()) == 0
        assert int((y_final.view(np.int64) != want_y.view(np.int64)).sum()) == 0

    @pytest.mark.parametrize("max_steps", [60, 1_000_000])
    def test_lane_order_invariance(self, paper_geometry, paper_field, paper_step,
                                   max_steps):
        """Permuting the lanes permutes the results bit for bit, so moving
        running lanes into the places of finished ones changes nothing."""
        geometry = replace(paper_geometry, max_steps=max_steps)
        e = EmissionSpec(v0=15.0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=SPLIT_LANES, seed=4)
        alphas = emission_angles(e, 0, e.n)
        p = np.random.default_rng(5).permutation(e.n)
        codes, y_final = simulate_batch(alphas, e.v0, geometry, paper_field,
                                        paper_step)
        p_codes, p_y = simulate_batch(alphas[p], e.v0, geometry, paper_field,
                                      paper_step)
        assert np.array_equal(p_codes, codes[p])
        assert np.array_equal(p_y.view(np.int64), y_final[p].view(np.int64))
        if max_steps == 60:
            assert 0 < int((codes == 4).sum()) < codes.size

    @settings(max_examples=15, deadline=None)
    @given(cuts=st.lists(st.integers(1, SPLIT_LANES - 1), max_size=6,
                         unique=True).map(sorted))
    @example(cuts=[7, 40, 41, 300])
    def test_batch_split_invariance(self, cuts):
        """A lane's outcome bits do not depend on how its batch was split."""
        geometry = Geometry(emitter_distance=5.0, screen_gap=25.0,
                            slit_half_height=5.0, particle_radius=0.2)
        field = FieldParams(charge_product=-1.0, slit_half_height=5.0)
        step = StepParams(tau=0.05, mass=1.0)
        e = EmissionSpec(v0=15.0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=SPLIT_LANES, seed=1)
        alphas = emission_angles(e, 0, e.n)
        codes, y_final = simulate_batch(alphas, e.v0, geometry, field, step)
        pieces = [simulate_batch(part, e.v0, geometry, field, step)
                  for part in np.split(alphas, cuts)]
        split_codes = np.concatenate([c for c, _ in pieces])
        split_y = np.concatenate([y for _, y in pieces])
        assert np.array_equal(split_codes, codes)
        assert np.array_equal(split_y.view(np.int64), y_final.view(np.int64))

    def test_chunk_size_invariance(self, monkeypatch, paper_geometry, paper_field,
                                   paper_step):
        """Every histogram field is the same for any chunk size and worker count."""
        e = EmissionSpec(v0=15.0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=20_000, seed=6)
        results = []
        for chunk_size in (1_000, 7_919, CHUNK_SIZE):
            monkeypatch.setattr(ensemble, "CHUNK_SIZE", chunk_size)
            for workers in (1, 2):
                results.append(run_ensemble(e, paper_geometry, paper_field,
                                            paper_step, HSPEC, workers=workers))
        base = results[0]
        assert 0 < base.n_detected < base.n_emitted
        for h in results[1:]:
            assert np.array_equal(h.counts, base.counts)
            for fd in fields(Histogram):
                if fd.name != "counts":
                    assert getattr(h, fd.name) == getattr(base, fd.name), fd.name

    @pytest.mark.parametrize("max_steps", [60, 1_000_000])
    def test_exact_stage_blocks_move_no_bit(self, monkeypatch, paper_geometry,
                                            paper_field, paper_step, max_steps):
        """The exact rule runs on the flagged lanes in blocks; blocks of 7
        lanes give the bits of one block holding them all."""
        geometry = replace(paper_geometry, max_steps=max_steps)
        e = EmissionSpec(v0=15.0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=SPLIT_LANES, seed=4)
        alphas = emission_angles(e, 0, e.n)
        codes, y_final = simulate_batch(alphas, e.v0, geometry, paper_field,
                                        paper_step)
        monkeypatch.setattr(ensemble, "_EXACT_BLOCK", 7)
        b_codes, b_y = simulate_batch(alphas, e.v0, geometry, paper_field,
                                      paper_step)
        assert np.array_equal(b_codes, codes)
        assert np.array_equal(b_y.view(np.int64), y_final.view(np.int64))

    @pytest.mark.parametrize("max_steps", [1, 7, 33, None])
    @pytest.mark.parametrize("tau", [0.05, 0.01])
    @pytest.mark.parametrize("v0", [12.0, 15.0])
    def test_retire_cadence_moves_no_bit(self, monkeypatch, paper_geometry,
                                         paper_field, v0, tau, max_steps):
        """Retiring after every step, only when the pending buffer fills or
        at the last step, or passing 7 pending lanes at a time gives the
        codes, y bits and end steps of the default cadence."""
        if max_steps is not None:
            paper_geometry = replace(paper_geometry, max_steps=max_steps)
        e = EmissionSpec(v0=v0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=4096, seed=3)
        alphas = emission_angles(e, 0, e.n)
        step = StepParams(tau=tau, mass=1.0)

        def run():
            steps = np.empty(e.n, dtype=np.int64)
            codes, y_final = simulate_batch(alphas, v0, paper_geometry,
                                            paper_field, step, steps=steps)
            return codes, y_final.view(np.int64), steps

        base = run()
        for name, value in [("_RETIRE_EVERY", 1), ("_RETIRE_EVERY", 10**9),
                            ("_EXACT_BLOCK", 7)]:
            with monkeypatch.context() as mp:
                mp.setattr(ensemble, name, value)
                for got, want in zip(run(), base):
                    assert np.array_equal(got, want), (name, value)

    def test_steps_array_is_checked(self, paper_geometry, paper_field, paper_step):
        """A wrong shape, a float dtype, or an int dtype too narrow for
        max_steps is a ValueError, not an OverflowError from the fill."""
        for geometry, steps in [
                (paper_geometry, np.empty(2, dtype=np.int64)),
                (paper_geometry, np.empty(3)),
                (paper_geometry, np.empty(3, dtype=np.int16)),      # 10**6 steps
                (replace(paper_geometry, max_steps=40_000), np.empty(3, dtype=np.uint8))]:
            with pytest.raises(ValueError, match="steps"):
                simulate_batch(np.zeros(3), 12.0, geometry, paper_field,
                               paper_step, steps=steps)
        steps = np.empty(3, dtype=np.uint16)                        # holds 40,000
        simulate_batch(np.zeros(3), 12.0, replace(paper_geometry, max_steps=40_000),
                       paper_field, paper_step, steps=steps)
        assert (steps < 40_000).all()

    @pytest.mark.parametrize("tau", [0.05, 0.01, 0.001])
    @pytest.mark.parametrize("v0", [12.0, 15.0])
    def test_heap_peak_per_lane(self, paper_geometry, paper_field, v0, tau):
        """A chunk's heap peak stays near its state rows, whatever tau.

        At tau 0.05 one step flags about half the lanes as the front meets
        the screen; the exact stage's temporaries must not grow with it.
        """
        e = EmissionSpec(v0=v0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=CHUNK_SIZE, seed=1)
        alphas = emission_angles(e, 0, e.n)
        tracemalloc.start()
        try:
            simulate_batch(alphas, v0, paper_geometry, paper_field,
                           StepParams(tau=tau, mass=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / e.n <= 100


class TestStateRows:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 16_383, 16_384])
    def test_rows_start_on_64_byte_lines(self, n):
        """Each state pair is (2, n), its rows contiguous and 64-byte
        aligned, and no two pairs share memory."""
        pairs = [ensemble._aligned_pair(n) for _ in range(4)]
        for i, pair in enumerate(pairs):
            assert pair.shape == (2, n)
            for row in pair:
                assert row.flags.c_contiguous
                assert row.ctypes.data % 64 == 0
            for other in pairs[i + 1:]:
                assert not np.shares_memory(pair, other)


class TestMirrorSymmetry:
    @pytest.mark.parametrize("charge", [-1.0, 1.0, 4.0])
    def test_kernel_mirror_exact(self, paper_geometry, charge):
        """simulate_batch(-a) gives the codes of simulate_batch(a) and
        exactly the negated y, bit for bit (NaN where NaN)."""
        field = FieldParams(charge_product=charge, slit_half_height=5.0)
        alphas = math.radians(45.5) * uniform01(8, 0, 20_000)
        for v0 in (12.0, 15.0):
            for tau in (0.5, 0.05):
                step = StepParams(tau=tau)
                codes, y = simulate_batch(alphas, v0, paper_geometry, field, step)
                m_codes, m_y = simulate_batch(-alphas, v0, paper_geometry, field,
                                              step)
                hit = ~np.isnan(y)
                assert hit.any()
                assert np.array_equal(m_codes, codes)
                assert np.array_equal(np.isnan(m_y), ~hit)
                assert np.array_equal((-m_y[hit]).view(np.int64),
                                      y[hit].view(np.int64))

    def test_sweep_free_flight_exactly_symmetric(self, paper_geometry, paper_step):
        """Symmetric sweep through a symmetric bin layout mirrors exactly."""
        e = EmissionSpec(v0=12.0, alpha_min=math.radians(-45),
                         alpha_max=math.radians(45), n=1001, mode="sweep")
        wide = HistogramSpec(bin_width=0.4, y_min=-35.0, y_max=35.0)
        h = run_ensemble(e, paper_geometry, FREE, paper_step, wide)
        assert h.n_detected > 900
        K = wide.n_bins
        for k in range(K):
            assert int(h.counts[k]) == int(h.counts[K - 1 - k])

    def test_random_ensemble_mirror_chi_squared(self, paper_geometry, paper_field,
                                                paper_step):
        """No systematic asymmetry at 99% confidence, n = 1e5."""
        e = EmissionSpec(v0=15.0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=100_000, seed=2)
        h = run_ensemble(e, paper_geometry, paper_field, paper_step, HSPEC,
                         workers=2)
        assert h.n_detected > 10_000
        stat, dof = 0.0, 0
        K = HSPEC.n_bins
        for k in range(K // 2):
            c, m = int(h.counts[k]), int(h.counts[K - 1 - k])
            if c + m > 0:
                stat += (c - m) ** 2 / (c + m)
                dof += 1
        assert stat < chi2.ppf(0.99, dof)


def detected_runs_and_folds(codes, y):
    """The number of detected runs (stretches of consecutive detected
    lanes, none when no lane is detected) and the y of each fold: a sign
    change of consecutive dy inside one run."""
    det = np.flatnonzero(codes == 2)
    runs = np.split(det, np.flatnonzero(np.diff(det) > 1) + 1) if det.size else []
    folds = []
    for run in runs:
        dy = np.diff(y[run])
        folds.extend(y[run][1:-1][dy[:-1] * dy[1:] < 0])
    return len(runs), folds


def half_sweep_map(cfg):
    """Codes, y and end steps of cfg's angle -> y map, on the cfg.n angles
    cfg sweeps."""
    e = build_emission(cfg)
    steps = np.empty(e.n, dtype=np.int64)
    codes, y = simulate_batch(emission_angles(e, 0, e.n), e.v0, build_geometry(cfg),
                              build_field(cfg), build_step(cfg), steps=steps)
    return codes, y, steps


def half_sweep_folds(cfg):
    """The detected-run count and fold ys of cfg's angle -> y map, on the
    cfg.n angles cfg sweeps."""
    codes, y, _ = half_sweep_map(cfg)
    return detected_runs_and_folds(codes, y)


def edge_distance_min(cfg):
    """delta_min: the least distance from a slit edge (0, +-R) over the
    detected paths of 361 recorded angles, each path's final hit point left
    out."""
    g, f, sp = build_geometry(cfg), build_field(cfg), build_step(cfg)
    delta = math.inf
    for a in emission_angles(build_emission(replace(cfg, n=361)), 0, 361):
        rec = run_discrete_trajectory(a, cfg.v0, g, f, sp, record=True)
        if isinstance(rec.outcome, Detected):
            xy = np.array([s.pos for s in rec.path[:-1]])
            delta = min(delta, np.hypot(
                xy[:, 0], np.abs(xy[:, 1]) - cfg.slit_half_height).min())
    return delta


class TestFoldCensus:
    @pytest.mark.parametrize("charge, tau, fold_ys", [
        pytest.param(-1.0, 0.05, [], id="attracting-0.05"),
        pytest.param(1.0, 0.25, [16.043], id="+1-0.25"),
        pytest.param(4.0, 0.05, [3.452], id="+4-0.05"),
        pytest.param(4.0, 0.0125, [3.710], id="+4-0.0125"),
        pytest.param(4.0, 0.5, [-9.104, 8.383, -8.431], id="+4-0.5"),
    ])
    def test_half_sweep_folds(self, charge, tau, fold_ys):
        """The README's fold census: configs/repulsive.cfg (and its screen
        set to -1 and +1) on a 50,001-angle half sweep over [0, 45.5] deg."""
        cfg = replace(HALF_SWEEP, charge_product=charge, tau=tau)
        e = build_emission(cfg)
        assert e.mode == "sweep" and e.v0 == 15.0
        n_runs, folds = half_sweep_folds(cfg)
        assert n_runs == 1  # so some lane is detected
        assert folds == pytest.approx(fold_ys, abs=0.01)

    def test_plus_4_fold_is_classical(self):
        """The +4 fold converges at first order to the maximum of the RK4
        map (h = 1.33e-4; the 9-angle grid's best point is within 2e-5 of
        the refined maximum), on 20,001 angles over [25, 30.5] deg."""
        g, f = build_geometry(REPULSIVE), build_field(REPULSIVE)
        rk4 = max(run_continuous_trajectory(math.radians(a), REPULSIVE.v0, g, f,
                                            h=1.33e-4).outcome.y_hit
                  for a in np.linspace(27.0, 29.5, 9))
        assert rk4 == pytest.approx(3.79240, abs=1e-5)
        folds = []
        for tau in (0.05, 0.025, 0.0125, 0.00625):
            _, fold_ys = half_sweep_folds(replace(
                REPULSIVE, tau=tau, alpha_min_deg=25.0, alpha_max_deg=30.5, n=20_001))
            assert len(fold_ys) == 1, (tau, fold_ys)
            folds += fold_ys
        assert folds == pytest.approx([3.45175, 3.62602, 3.71021, 3.75156], abs=1e-5)
        gaps = rk4 - np.array(folds)
        ratios = gaps[:-1] / gaps[1:]
        assert ((1.8 <= ratios) & (ratios <= 2.2)).all(), ratios
        assert abs(2.0 * folds[3] - folds[2] - rk4) < 1e-3

    def test_plus_1_folds_where_the_edge_kick_is_large(self):
        """The +1 screen folds where tau^2 |qs| / delta_min is large.

        A sample at distance delta from a slit edge (0, +-R) takes a kick of
        about tau^2 qs ln delta^2.  delta_min (`edge_distance_min`) is the
        least such distance on [0, 45.5] deg; the folds are counted on the
        50,001-angle half sweep.  delta_min alone does not sort the taus:
        0.125 has 0.156 and no fold."""
        cfg = replace(HALF_SWEEP, charge_product=1.0)
        taus = (0.6, 0.53, 0.5, 0.45, 0.4, 0.3, 0.25, 0.2, 0.125, 0.1, 0.0625, 0.05)
        n_folds, delta = {}, {}
        for tau in taus:
            c = replace(cfg, tau=tau)
            n_folds[tau] = len(half_sweep_folds(c)[1])
            delta[tau] = edge_distance_min(c)
        assert delta[0.25] < 0.3 and delta[0.3] > 1, delta
        assert n_folds == {tau: int(tau in (0.53, 0.5, 0.25)) for tau in taus}
        ratio = {tau: tau ** 2 * abs(cfg.charge_product) / delta[tau] for tau in taus}
        with_fold = min(ratio[tau] for tau in taus if n_folds[tau])
        without = max(ratio[tau] for tau in taus if not n_folds[tau])
        assert with_fold > without, (with_fold, without)

    def test_plus_1_fold_window_follows_the_step_lattice(self):
        """At tau = 0.25 the +1 fold moves with the emitter distance D, not
        with the particle radius, and needs a coarse step.

        On D = 4.5, 4.75, ..., 9.5 the half sweep folds at exactly D = 5.0,
        8.5 and 8.75.  The two windows are centred 3.625 apart, just under
        one launch step v0 tau = 3.75, and delta_min peaks at 1.475 between
        them (D = 7.0).  Every fold has delta_min < 0.25 and no D with
        delta_min > 0.25 folds, but not conversely: D = 4.75 has 0.220 and
        no fold.  A particle radius of 0.05 to 0.3 keeps the one fold at
        y = 16.0429; 0.4 and 0.6 block the lanes that pass the edge closely
        and fold nowhere.  At tau = 0.05, D = 5.0 and 8.5 do not fold."""
        cfg = replace(HALF_SWEEP, charge_product=1.0, tau=0.25)
        ds = [4.5 + 0.25 * k for k in range(21)]
        fold_ys, delta = {}, {}
        for d in ds:
            c = replace(cfg, emitter_distance=d)
            fold_ys[d], delta[d] = half_sweep_folds(c)[1], edge_distance_min(c)
        folding = [d for d in ds if fold_ys[d]]
        assert folding == [5.0, 8.5, 8.75], fold_ys
        assert [y for d in folding for y in fold_ys[d]] == pytest.approx(
            [16.043, 10.197, 9.969], abs=1e-3)
        assert all(delta[d] < 0.25 for d in folding), delta
        assert not any(fold_ys[d] for d in ds if delta[d] > 0.25), delta
        assert delta[4.75] < 0.25 and delta[7.0] > 1.4, delta
        windows = np.split(folding, np.flatnonzero(np.diff(folding) > 0.25) + 1)
        centres = [w.mean() for w in windows]
        assert len(centres) == 2 and 3.0 < centres[1] - centres[0] < cfg.v0 * cfg.tau
        radii = (0.05, 0.1, 0.2, 0.3, 0.4, 0.6)
        by_radius = [replace(cfg, particle_radius=r) for r in radii]
        assert [half_sweep_folds(c)[1] for c in by_radius] == [
            pytest.approx([16.0429], abs=1e-4)] * 4 + [[], []]
        assert np.all(np.diff([edge_distance_min(c) for c in by_radius]) > 0)
        for d in (5.0, 8.5):
            assert half_sweep_folds(replace(cfg, emitter_distance=d, tau=0.05))[1] == []

    def test_tau_induced_folds_vanish_as_tau_falls(self):
        """The half-sweep census on 13 taus from 0.8 to 0.0125.

        The attracting screen has one detected run and no fold at every
        tau.  The +4 screen's tau-induced folds end between tau = 0.4 and
        0.3; from 0.3 down one fold is left, the classical one, and its y
        rises towards the RK4 maximum 3.7924 as tau falls.  The +1 screen
        folds only at 0.5 and 0.25.  From tau = 0.2 down no screen has a
        tau-induced fold at these 13 taus; between them some do
        (`test_fold_windows_between_the_census_taus`)."""
        cfg = HALF_SWEEP
        taus = (0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.025, 0.0125)
        census = {q: [half_sweep_folds(replace(cfg, charge_product=q, tau=tau))
                      for tau in taus] for q in (-1.0, 1.0, 4.0)}
        assert census[-1.0] == [(1, [])] * len(taus)
        plus_4 = [folds for _, folds in census[4.0]]
        assert [len(folds) for folds in plus_4] == [5, 4, 3, 3, 3] + [1] * 8
        classical = [folds[0] for folds in plus_4[5:]]
        assert classical == pytest.approx(
            [1.36510, 1.82005, 2.26000, 2.68264, 3.08095, 3.45175, 3.62602, 3.71021],
            abs=1e-3)
        assert np.all(np.diff(classical) > 0)
        plus_1 = {tau: folds for tau, (_, folds) in zip(taus, census[1.0]) if folds}
        assert plus_1 == {0.5: pytest.approx([14.000], abs=1e-3),
                          0.25: pytest.approx([16.043], abs=1e-3)}

    def test_fold_windows_between_the_census_taus(self):
        """Finer taus than the 13-tau census find tau-induced folds below
        tau = 0.2 too, in narrow windows.

        The +1 screen keeps one detected run and folds once at 0.52, 0.25,
        0.167 and 0.166, but not at 0.54, 0.26, 0.247, 0.168 or 0.165.  On
        the +4 screen (as shipped) the classical fold is the first one
        listed; at 0.178, 0.180 and 0.233 a second detected run opens and a
        tau-induced fold comes with it, at 0.179 the second run does not
        fold, and at 0.177 and 0.181 the map has one run and one fold."""
        plus_1 = {tau: half_sweep_folds(replace(HALF_SWEEP, charge_product=1.0, tau=tau))
                  for tau in (0.54, 0.52, 0.26, 0.25, 0.247, 0.168, 0.167, 0.166, 0.165)}
        assert {tau: n_runs for tau, (n_runs, _) in plus_1.items()} == dict.fromkeys(plus_1, 1)
        assert {tau: folds for tau, (_, folds) in plus_1.items() if folds} == {
            0.52: pytest.approx([13.626], abs=1e-3),
            0.25: pytest.approx([16.043], abs=1e-3),
            0.167: pytest.approx([16.698], abs=1e-3),
            0.166: pytest.approx([16.721], abs=1e-3)}
        plus_4 = {tau: half_sweep_folds(replace(HALF_SWEEP, tau=tau))
                  for tau in (0.177, 0.178, 0.179, 0.180, 0.181, 0.233)}
        assert plus_4 == {
            0.177: (1, pytest.approx([2.4568], abs=1e-3)),
            0.178: (2, pytest.approx([2.4483, -1.8742], abs=1e-3)),
            0.179: (2, pytest.approx([2.4398], abs=1e-3)),
            0.180: (2, pytest.approx([2.4312, 2.5098, 2.6584], abs=1e-3)),
            0.181: (1, pytest.approx([2.4225], abs=1e-3)),
            0.233: (2, pytest.approx([1.9714, 5.5266], abs=1e-3))}


class TestKinkCensus:
    def test_kinks_are_end_step_changes(self):
        """The map's kinks, where a lane's end step changes along the sweep.

        On the 50,001-angle half sweep the detected lanes form one run, and
        along it the end step never falls and rises by 1 at each change.
        The changes number 2, 4, 9 and 17 at tau = 0.5, 0.2, 0.1 and 0.05
        on the attracting screen (about 0.85 / tau), and 2, 4 and 8 at
        tau = 0.2, 0.1 and 0.05 on the +1 screen (about 0.4 / tau).  The
        two attracting-screen kinks at tau = 0.5 lie at y = 12.43 and 21.27."""
        counts = {}
        for charge, taus in ((-1.0, (0.5, 0.2, 0.1, 0.05)), (1.0, (0.2, 0.1, 0.05))):
            for tau in taus:
                codes, y, steps = half_sweep_map(
                    replace(HALF_SWEEP, charge_product=charge, tau=tau))
                run = np.flatnonzero(codes == 2)
                assert run.size and np.all(np.diff(run) == 1), (charge, tau)
                rises = np.diff(steps[run])
                assert set(rises.tolist()) <= {0, 1}, (charge, tau)
                kinks = np.flatnonzero(rises)
                counts[charge, tau] = kinks.size
                if (charge, tau) == (-1.0, 0.5):
                    kink_ys = (y[run][kinks] + y[run][kinks + 1]) / 2
        assert counts == {(-1.0, 0.5): 2, (-1.0, 0.2): 4, (-1.0, 0.1): 9,
                          (-1.0, 0.05): 17, (1.0, 0.2): 2, (1.0, 0.1): 4,
                          (1.0, 0.05): 8}
        assert kink_ys == pytest.approx([12.43, 21.27], abs=0.01)


counts_arrays = st.lists(st.integers(0, 10_000), min_size=3, max_size=3)


class TestMergeMonoid:
    @given(a=counts_arrays, b=counts_arrays)
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, a, b):
        ha, hb = make_hist(a), make_hist(b)
        ab, ba = merge(ha, hb), merge(hb, ha)
        assert np.array_equal(ab.counts, ba.counts)
        assert ab.n_detected == ba.n_detected

    @given(a=counts_arrays, b=counts_arrays, c=counts_arrays)
    @settings(max_examples=50, deadline=None)
    def test_associative(self, a, b, c):
        ha, hb, hc = make_hist(a), make_hist(b), make_hist(c)
        left = merge(merge(ha, hb), hc)
        right = merge(ha, merge(hb, hc))
        assert np.array_equal(left.counts, right.counts)
        assert left.n_emitted == right.n_emitted

    @given(a=counts_arrays)
    @settings(max_examples=50, deadline=None)
    def test_identity(self, a):
        ha = make_hist(a)
        out = merge(ha, Histogram.zero(HSPEC))
        assert np.array_equal(out.counts, ha.counts)
        assert out.n_detected == ha.n_detected

    def test_sums_every_tally(self):
        a = make_hist([1, 2, 3], n_emitted=100, n_detected=10, n_blocked=20,
                      n_escaped=30, n_steplimit=40, underflow=1, overflow=2)
        b = make_hist([4, 5, 6], n_emitted=1000, n_detected=300, n_blocked=200,
                      n_escaped=400, n_steplimit=100, underflow=5, overflow=7)
        out = merge(a, b)
        assert np.array_equal(out.counts[:3], [5, 7, 9])
        assert (out.n_emitted, out.n_detected, out.n_blocked, out.n_escaped,
                out.n_steplimit, out.underflow, out.overflow) == (
                    1100, 310, 220, 430, 140, 6, 9)

    def test_spec_mismatch(self):
        other = Histogram.zero(HistogramSpec(bin_width=0.5, y_min=-25.0, y_max=25.0))
        with pytest.raises(ConfigurationError, match="histogram specs differ"):
            merge(make_hist([1]), other)


class TestNormalize:
    def test_single_bin(self):
        h = make_hist([0, 7, 0])
        freqs = normalize(h)
        assert freqs[1] == 1.0 and freqs.sum() == 1.0

    def test_uniform(self):
        h = make_hist([5, 5, 5])
        assert np.allclose(normalize(h)[:3], 1.0 / 3.0)
        assert normalize(h).sum() == pytest.approx(1.0, abs=1e-12)

    def test_sums_to_one_minus_overflow_share(self):
        h = make_hist([10, 20, 30], overflow=15, underflow=5)
        freqs = normalize(h)
        assert freqs.sum() == pytest.approx(1.0 - 20 / 80, abs=1e-12)

    def test_empty_gives_zeros(self):
        freqs = normalize(Histogram.zero(HSPEC))
        assert freqs.dtype == np.float64
        assert np.array_equal(freqs, np.zeros(HSPEC.n_bins))

    def test_golden_arrival_run(self, paper_geometry, paper_field, paper_step):
        """Regression pin for the arrival-rich configuration.

        Frozen from a verified run (v0=15, tau=0.05, n=30000, seed=123):
        11871 detected / 4468 blocked / 13661 escaped, hits spanning bins
        13..111, mean arrival y = -0.0486.  Loose tolerances absorb
        last-bit libm differences across platforms; a sign, binning or
        seeding regression lands far outside them.
        """
        e = EmissionSpec(v0=15.0, alpha_min=math.radians(-45.5),
                         alpha_max=math.radians(45.5), n=30_000, seed=123)
        h = run_ensemble(e, paper_geometry, paper_field, paper_step, HSPEC)
        assert h.n_detected == pytest.approx(11871, abs=120)
        assert h.n_blocked == pytest.approx(4468, abs=100)
        assert h.n_escaped == pytest.approx(13661, abs=120)
        assert h.n_steplimit == 0
        nz = np.nonzero(h.counts)[0]
        assert abs(int(nz.min()) - 13) <= 2 and abs(int(nz.max()) - 111) <= 2
        mean_y = float((HSPEC.bin_centers() * h.counts).sum() / h.counts.sum())
        assert mean_y == pytest.approx(-0.0486, abs=0.15)

    def test_ensemble_frequencies_sum_to_one(self, paper_geometry, paper_step):
        e = EmissionSpec(v0=12.0, alpha_min=math.radians(-30),
                         alpha_max=math.radians(30), n=5000, seed=8)
        wide = HistogramSpec(bin_width=0.4, y_min=-35.0, y_max=35.0)
        h = run_ensemble(e, paper_geometry, FREE, StepParams(tau=0.05), wide)
        assert h.overflow == 0 and h.underflow == 0
        assert normalize(h).sum() == pytest.approx(1.0, abs=1e-12)
