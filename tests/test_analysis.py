"""Extrema detection and profile-comparison metrics on synthetic inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slitsim import HistogramSpec, find_extrema, oscillation_index, total_variation
from slitsim.analysis import _local_maxima, _prominence, smooth


def spec_for(n_bins: int, width: float = 1.0) -> HistogramSpec:
    half = n_bins * width / 2.0
    return HistogramSpec(bin_width=width, y_min=-half, y_max=half)


def freqs_from_counts(counts):
    counts = np.asarray(counts, dtype=float)
    return counts / counts.sum(), int(counts.sum())


def loop_local_maxima(v):
    """Index-walking reference for `_local_maxima`."""
    out, i = [], 1
    while i < v.size - 1:
        if v[i] > v[i - 1]:
            j = i
            while j + 1 < v.size and v[j + 1] == v[i]:
                j += 1
            if j < v.size - 1 and v[j + 1] < v[i]:
                out.append((i + j) // 2)
            i = j + 1
        else:
            i += 1
    return out


def loop_prominence(v, peak):
    """Index-walking reference for `_prominence`."""
    left = right = v[peak]
    i = peak - 1
    while i >= 0 and v[i] <= v[peak]:
        left, i = min(left, v[i]), i - 1
    i = peak + 1
    while i < v.size and v[i] <= v[peak]:
        right, i = min(right, v[i]), i + 1
    return v[peak] - max(left, right)


# short profiles of few levels, so plateaus and ties are common
profiles = st.lists(st.integers(0, 3) | st.floats(0.0, 4.0), min_size=1,
                    max_size=13).map(lambda v: np.array(v, dtype=float))


class TestSmoothing:
    def test_window_one_is_identity(self):
        v = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(smooth(v, 1), v)

    def test_preserves_mean_of_constant(self):
        assert np.allclose(smooth(np.full(9, 2.5), 5), 2.5)

    def test_edges_use_shrunk_windows(self):
        v = np.arange(7.0)
        s = smooth(v, 5)
        assert s[0] == pytest.approx(np.mean(v[:3]))
        assert s[-1] == pytest.approx(np.mean(v[-3:]))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            smooth(np.zeros(10), 4)
        with pytest.raises(ValueError):
            smooth(np.zeros(3), 5)
        with pytest.raises(ValueError, match="1-d"):
            smooth(np.zeros((3, 3)), 1)


class TestFindExtrema:
    def test_single_triangular_peak(self):
        counts = [0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0]
        freqs, n = freqs_from_counts(np.array(counts) * 100)
        report = find_extrema(freqs, spec_for(11).bin_centers(), n, window=3, k_sigma=5.0)
        assert len(report.maxima) == 1
        assert report.minima == []
        assert report.maxima[0][0] == pytest.approx(0.0)

    def test_two_peaks_and_alternation(self):
        counts = np.array([0, 2, 8, 2, 0, 0, 2, 8, 2, 0]) * 400
        freqs, n = freqs_from_counts(counts)
        report = find_extrema(freqs, spec_for(10).bin_centers(), n, window=3, k_sigma=3.0)
        assert len(report.maxima) == 2
        assert len(report.minima) == 1
        positions = sorted([(c, "max") for c, _, _ in report.maxima]
                           + [(c, "min") for c, _, _ in report.minima])
        assert [kind for _, kind in positions] == ["max", "min", "max"]

    def test_symmetric_input_symmetric_extrema(self):
        base = np.array([0, 1, 5, 1, 0, 3, 0, 1, 5, 1, 0]) * 300
        freqs, n = freqs_from_counts(base)
        report = find_extrema(freqs, spec_for(11).bin_centers(), n, window=3, k_sigma=3.0)
        centers = sorted(c for c, _, _ in report.maxima)
        assert centers == pytest.approx([-c for c in reversed(centers)])

    def test_reversed_input_mirrors_extrema(self):
        rng = np.random.default_rng(0)
        counts = (1000 * (1.5 + np.sin(np.linspace(0, 9, 40)))
                  + rng.integers(0, 5, 40)).astype(int)
        freqs, n = freqs_from_counts(counts)
        centers = spec_for(40).bin_centers()
        fwd = find_extrema(freqs, centers, n, window=3, k_sigma=3.0)
        rev = find_extrema(freqs[::-1], centers, n, window=3, k_sigma=3.0)
        fwd_pos = sorted(c for c, _, _ in fwd.maxima)
        rev_pos = sorted(-c for c, _, _ in rev.maxima)
        assert fwd_pos == pytest.approx(rev_pos)

    def test_noise_is_not_significant(self):
        """Poisson wiggle on a flat profile stays below the 5-sigma floor."""
        rng = np.random.default_rng(1)
        counts = rng.poisson(50, 60)
        freqs, n = freqs_from_counts(counts)
        report = find_extrema(freqs, spec_for(60).bin_centers(), n, window=5, k_sigma=5.0)
        assert report.maxima == []

    def test_zero_detected_reports_nothing(self):
        report = find_extrema(np.zeros(20), spec_for(20).bin_centers(), 0)
        assert report.maxima == [] and report.minima == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            find_extrema(np.zeros(10), spec_for(20).bin_centers(), 100)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            find_extrema(np.zeros(20), spec_for(20).bin_centers(), 10, window=4)
        with pytest.raises(ValueError):
            find_extrema(np.zeros(20), spec_for(20).bin_centers(), 10, k_sigma=0.0)
        for k_sigma in (np.inf, np.nan):
            with pytest.raises(ValueError, match="k_sigma"):
                find_extrema(np.zeros(20), spec_for(20).bin_centers(), 10,
                             k_sigma=k_sigma)
        with pytest.raises(ValueError):
            find_extrema(np.zeros(3), spec_for(3).bin_centers(), 10, window=5)
        with pytest.raises(ValueError, match="n_detected"):
            find_extrema(np.zeros(20), spec_for(20).bin_centers(), -1)

    @pytest.mark.parametrize("values, peaks", [
        ([0, 5, 5, 0], [1]),
        ([0, 5, 5, 5, 0], [2]),
        ([5, 5, 0, 3, 0], [3]),
        ([0, 3, 0, 5, 5], [1]),
        ([0, 2, 2, 4, 0], [3]),
        ([1, 1, 1], []),
    ], ids=["even-plateau", "odd-plateau", "left-edge-run", "right-edge-run",
            "shoulder", "flat"])
    def test_plateau_rules(self, values, peaks):
        """A plateau reports its centre (rounded down); a run touching an end
        is never a maximum."""
        found = _local_maxima(np.array(values, dtype=float))
        assert found == peaks
        assert all(type(i) is int for i in found)

    def test_prominence_to_nearest_higher_point(self):
        v = np.array([0, 3, 1, 5, 0], dtype=float)
        assert _prominence(v, 1) == 2.0
        assert _prominence(v, 3) == 5.0
        assert _prominence(-v, 2) == 2.0

    @given(v=profiles)
    @settings(max_examples=300, deadline=None)
    def test_helpers_match_the_loops(self, v):
        """The array helpers give the loops' maxima and the same prominence
        bits at every index, of v and of -v (the minima's profile)."""
        for w in (v, -v):
            assert _local_maxima(w) == loop_local_maxima(w)
            for i in range(w.size):
                assert _prominence(w, i) == loop_prominence(w, i)


sub_prob = st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8).map(
    lambda v: np.array(v) / max(sum(v), 1.0))


class TestTotalVariation:
    def test_identical_profiles(self):
        f = np.array([0.25, 0.5, 0.25])
        assert total_variation(f, f) == 0.0

    def test_disjoint_single_bins(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 1.0])
        assert total_variation(a, b) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            total_variation(np.zeros(3), np.zeros(4))

    @given(a=sub_prob, b=sub_prob)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_range(self, a, b):
        tv = total_variation(a, b)
        assert tv == total_variation(b, a)
        assert 0.0 <= tv <= 1.0 + 1e-12

    @given(a=sub_prob, b=sub_prob, c=sub_prob)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert (total_variation(a, c)
                <= total_variation(a, b) + total_variation(b, c) + 1e-12)


class TestOscillationIndex:
    def test_monotone_profile(self):
        f = np.linspace(0.0, 0.2, 30)
        assert oscillation_index(f, window=5) == pytest.approx(1.0, abs=1e-9)

    def test_flat_profile(self):
        assert oscillation_index(np.full(30, 0.1), window=5) == 0.0
        # not flat, but its moving average rounds to exactly flat
        assert oscillation_index(np.array([1.0, 1.0 + 2**-52, 1.0]), window=3) == 0.0

    def test_oscillating_beats_monotone(self):
        x = np.linspace(0, 6 * np.pi, 120)
        wavy = 0.1 * (1.2 + np.sin(x))
        ramp = np.linspace(0.0, 0.3, 120)
        assert oscillation_index(wavy, 5) > oscillation_index(ramp, 5)

    @given(scale=st.floats(0.1, 50.0), offset=st.floats(0.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, scale, offset):
        x = np.linspace(0, 4 * np.pi, 80)
        f = 1.5 + np.cos(x) + 0.2 * np.sin(3 * x)
        base = oscillation_index(f, 5)
        assert oscillation_index(scale * f + offset, 5) == pytest.approx(
            base, rel=1e-9)
