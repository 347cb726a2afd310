"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (run with `pytest -s`
to see them live).  Criteria 3, 4 and 7 depend on particles reaching the
detector with the canonical parameter set (v0 = 12, detector plane at
x = +25, unit mass).  With the sign-corrected field that configuration
is energetically closed: total emission energy is 80.78 while the
potential rise to the detector plane is 104.76, so the classical turning
point sits at x = 20.75 and arrivals require v0 > 13.775 at tau = 0.05
(13.855 as tau -> 0; at v0 = 12 not below tau = 0.80).  Direct
simulation confirms zero detections in 10^6 trajectories at tau = 0.05.
Those three tests are implemented exactly as stated and fail honestly;
see "Physics notes" in README.md for the full analysis.
"""

import math
import time

import numpy as np
import pytest

from slitsim import (
    EmissionSpec,
    FieldParams,
    Geometry,
    Histogram,
    HistogramSpec,
    ParticleState,
    StepParams,
    Vec2,
    find_extrema,
    force_closed_form,
    merge,
    normalize,
    oscillation_index,
    run_ensemble,
    step_discrete,
    total_variation,
)
from slitsim.cli import cmd_simulate, cmd_trace
from slitsim.config import ExperimentConfig

from oracle import QuadratureSpec, force_quadrature, integrate_reference

FIELD = FieldParams(charge_product=-1.0, slit_half_height=5.0)
GEOMETRY = Geometry(emitter_distance=5.0, screen_gap=25.0, slit_half_height=5.0,
                    particle_radius=0.2)
HSPEC = HistogramSpec(bin_width=0.4, y_min=-25.0, y_max=25.0)
ALPHA_MIN = math.radians(-45.5)
ALPHA_MAX = math.radians(45.5)
SEED = 20260808


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def canonical_ensemble(tau: float, n: int, workers: int = 2) -> Histogram:
    e = EmissionSpec(v0=12.0, alpha_min=ALPHA_MIN, alpha_max=ALPHA_MAX,
                     n=n, seed=SEED)
    return run_ensemble(e, GEOMETRY, FIELD, StepParams(tau=tau), HSPEC,
                        workers=workers)


def test_criterion_1_force_oracle_equivalence():
    """Closed form vs symmetric-truncation quadrature, <= 1e-6 relative."""
    t0 = time.perf_counter()
    oracle = QuadratureSpec(truncation_half_width=1e4)
    xs = np.concatenate([np.linspace(-10, -0.5, 5), np.linspace(0.5, 10, 5)])
    ys = np.linspace(-8, 8, 10)
    worst = 0.0
    for x in xs:
        for y in ys:
            p = Vec2(float(x), float(y))
            cf = np.array(force_closed_form(p, FIELD))
            oq = np.array(force_quadrature(p, FIELD, oracle))
            worst = max(worst, np.linalg.norm(cf - oq) / np.linalg.norm(oq))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-6 and wall < 5.0
    report(1, ok, f"100-point grid, worst rel err {worst:.2e} "
                  f"(<=1e-6), wall {wall:.2f}s (<5s)")
    assert worst <= 1e-6
    assert wall < 5.0


def test_criterion_2_convergence_order():
    """Discrete endpoint error vs 4th-order reference: slope 1.0 +/- 0.2."""
    t0 = time.perf_counter()
    alpha, v0, t_end = math.radians(35.0), 7.0, 0.4
    s0 = ParticleState(Vec2(-5.0, 0.0),
                       Vec2(v0 * math.cos(alpha), v0 * math.sin(alpha)), 0.0)
    ref = integrate_reference(s0, FIELD, 1.0, lambda s: s.t >= t_end - 1e-12,
                              h=1e-4 * 5.0 / 12.0)[-1]
    taus = [0.04, 0.02, 0.01, 0.005]
    errs = []
    for tau in taus:
        s = s0
        for _ in range(round(t_end / tau)):
            s = step_discrete(s, FIELD, StepParams(tau=tau))
        errs.append(math.hypot(s.pos.x - ref.pos.x, s.pos.y - ref.pos.y))
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    wall = time.perf_counter() - t0
    ok = abs(slope - 1.0) <= 0.2 and wall < 10.0
    report(2, ok, f"log-log slope {slope:.3f} (1.0 +/- 0.2), wall {wall:.2f}s (<10s)")
    assert slope == pytest.approx(1.0, abs=0.2)
    assert wall < 10.0


def test_criterion_3_fringe_emergence():
    """Canonical parameters, tau=0.05, n=1e6: >= 3 significant interior maxima.

    Unattainable as stated: the detector plane lies beyond the classical
    turning point at v0 = 12, so the detected set is empty at any n.  No
    regression peak positions can be frozen.  Kept at the stated
    tolerance; fails honestly.
    """
    t0 = time.perf_counter()
    hist = canonical_ensemble(tau=0.05, n=1_000_000)
    freqs = normalize(hist)
    rep = find_extrema(freqs, HSPEC.bin_centers(), hist.n_detected,
                       window=5, k_sigma=5.0)
    wall = time.perf_counter() - t0
    n_max = len(rep.maxima)
    ok = n_max >= 3
    report(3, ok, f"detected {hist.n_detected}/1000000, {n_max} significant "
                  f"maxima (need >=3), wall {wall:.0f}s (target <120s on 4 cores); "
                  f"arrivals require v0 > 13.775 at tau 0.05, see README.md \"Physics notes\"")
    assert wall < 600.0
    assert n_max >= 3, (
        f"no fringe maxima: {hist.n_detected} of 1000000 trajectories detected "
        f"(classical turning point x=20.75 < detector x=25 at v0=12)")


def test_criterion_4_decoherence_analog():
    """oscillation_index strictly decreasing over tau, TV continuum limit.

    The TV clause holds (both near-continuum distributions are empty, so
    their distance is 0).  The strict ordering clause cannot hold: all
    three histograms are empty at v0 = 12, giving indexes (0, 0, 0).
    Kept at the stated tolerance; fails honestly.
    """
    t0 = time.perf_counter()
    idx = {}
    for tau in (0.05, 0.01, 0.001):
        h = canonical_ensemble(tau=tau, n=100_000)
        idx[tau] = oscillation_index(normalize(h), window=5)
    fine_a = canonical_ensemble(tau=5e-4, n=100_000)
    fine_b = canonical_ensemble(tau=2.5e-4, n=100_000)
    tv = total_variation(normalize(fine_a), normalize(fine_b))
    wall = time.perf_counter() - t0
    ordered = idx[0.05] > idx[0.01] > idx[0.001]
    ok = ordered and tv <= 0.05 and wall < 600.0
    report(4, ok, f"indexes {idx[0.05]:.3g} / {idx[0.01]:.3g} / {idx[0.001]:.3g} "
                  f"(need strictly decreasing), tv(5e-4 vs 2.5e-4) = {tv:.3g} "
                  f"(<=0.05), wall {wall:.0f}s (<600s)")
    assert wall < 600.0
    assert tv <= 0.05
    assert ordered, (
        f"oscillation indexes not strictly decreasing: {idx} "
        f"(all distributions empty at v0=12; see README.md \"Physics notes\")")


def test_criterion_5_determinism(tmp_path):
    """Byte-identical distribution.csv for workers in {1, 4, 8}."""
    t0 = time.perf_counter()
    digests = []
    for workers in (1, 4, 8):
        cfg = ExperimentConfig(v0=15.0, n=40_000, seed=SEED, workers=workers,
                               output_dir=str(tmp_path / f"w{workers}"))
        out = cmd_simulate(cfg)
        digests.append((out / "distribution.csv").read_bytes())
    wall = time.perf_counter() - t0
    ok = digests[0] == digests[1] == digests[2] and wall < 60.0
    report(5, ok, f"3 worker counts, byte-identical: "
                  f"{digests[0] == digests[1] == digests[2]}, wall {wall:.1f}s (<60s)")
    assert digests[0] == digests[1] == digests[2]
    assert wall < 60.0


def test_criterion_6_property_suite():
    """Field parities, curl-free, far-field, conservation, merge laws,
    mirror chi-squared."""
    t0 = time.perf_counter()
    checks = []

    # parities, bitwise by construction
    pts = [Vec2(x, y) for x in (-7.0, -2.0, 1.5, 8.0) for y in (-6.0, -1.0, 0.5, 7.5)]
    parity = all(
        force_closed_form(Vec2(p.x, -p.y), FIELD) ==
        (force_closed_form(p, FIELD).x, -force_closed_form(p, FIELD).y)
        and force_closed_form(Vec2(-p.x, p.y), FIELD) ==
        (-force_closed_form(p, FIELD).x, force_closed_form(p, FIELD).y)
        for p in pts)
    checks.append(("parity", parity))

    # curl-free via central differences
    h = 1e-4
    curl_ok = True
    for p in pts:
        dfx = (force_closed_form(Vec2(p.x, p.y + h), FIELD).x
               - force_closed_form(Vec2(p.x, p.y - h), FIELD).x) / (2 * h)
        dfy = (force_closed_form(Vec2(p.x + h, p.y), FIELD).y
               - force_closed_form(Vec2(p.x - h, p.y), FIELD).y) / (2 * h)
        fmag = math.hypot(*force_closed_form(p, FIELD))
        curl_ok &= abs(dfx - dfy) <= 1e-5 * max(fmag, 1.0)
    checks.append(("curl-free", curl_ok))

    # far-field plane limit at |x| = 1000 R
    plane = 2 * math.pi
    far_ok = all(
        abs(abs(force_closed_form(Vec2(x, y), FIELD).x) - plane) <= 1e-3 * plane
        for x in (5000.0, -5000.0) for y in (0.0, 4.0))
    checks.append(("far-field", far_ok))

    # conservation + mirror chi-squared on one arrival-rich ensemble
    e = EmissionSpec(v0=15.0, alpha_min=ALPHA_MIN, alpha_max=ALPHA_MAX,
                     n=100_000, seed=2)
    hist = run_ensemble(e, GEOMETRY, FIELD, StepParams(tau=0.05), HSPEC, workers=2)
    conserve = (hist.n_emitted == hist.n_detected + hist.n_blocked
                + hist.n_escaped + hist.n_steplimit
                and int(hist.counts.sum()) + hist.underflow + hist.overflow
                == hist.n_detected)
    checks.append(("conservation", conserve))

    from scipy.stats import chi2
    stat, dof = 0.0, 0
    K = HSPEC.n_bins
    for k in range(K // 2):
        c, m = int(hist.counts[k]), int(hist.counts[K - 1 - k])
        if c + m > 0:
            stat += (c - m) ** 2 / (c + m)
            dof += 1
    checks.append(("mirror-chi2", stat < chi2.ppf(0.99, dof)))

    # merge monoid laws on concrete histograms
    rng = np.random.default_rng(0)
    hs = []
    for _ in range(3):
        counts = rng.integers(0, 50, HSPEC.n_bins).astype(np.int64)
        hs.append(Histogram(spec=HSPEC, counts=counts,
                            n_emitted=int(counts.sum()),
                            n_detected=int(counts.sum())))
    a, b, c = hs
    monoid = (
        np.array_equal(merge(a, Histogram.zero(HSPEC)).counts, a.counts)
        and np.array_equal(merge(a, b).counts, merge(b, a).counts)
        and np.array_equal(merge(merge(a, b), c).counts,
                           merge(a, merge(b, c)).counts))
    checks.append(("merge-monoid", monoid))

    wall = time.perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    ok = not failed and wall < 60.0
    report(6, ok, f"{len(checks)} property groups, failed: {failed or 'none'}, "
                  f"wall {wall:.1f}s (<60s)")
    assert not failed
    assert wall < 60.0


def test_criterion_7_trace_reproduction(tmp_path):
    """250 swept angles at tau in {0.05, 0.01}: SVG with 250 paths and a
    nonempty detected subset.

    The SVG and path-count clauses hold; the detected subset is empty at
    v0 = 12 (energetically closed detector). Fails honestly.
    """
    t0 = time.perf_counter()
    results = {}
    for tau in (0.05, 0.01):
        cfg = ExperimentConfig(tau=tau, seed=SEED, n=250,
                               output_dir=str(tmp_path / f"tau{tau:g}"))
        out = cmd_trace(cfg)
        svg = (out / "trajectories.svg").read_text()
        n_paths = svg.count("<polyline")
        detected = 0
        for line in (out / "report.txt").read_text().splitlines():
            if line.startswith("detected ="):
                detected = int(line.split("=")[1])
        results[tau] = (n_paths, detected)
    wall = time.perf_counter() - t0
    paths_ok = all(n == 250 for n, _ in results.values())
    detected_ok = all(d > 0 for _, d in results.values())
    ok = paths_ok and detected_ok and wall < 30.0
    report(7, ok, f"paths per SVG {[n for n, _ in results.values()]} (need 250), "
                  f"detected {[d for _, d in results.values()]} (need >0), "
                  f"wall {wall:.1f}s (<30s)")
    assert paths_ok
    assert wall < 30.0
    assert detected_ok, (
        f"no detected trajectories among 250 swept angles: {results} "
        f"(detector unreachable at v0=12; see README.md \"Physics notes\")")
