"""Fringe metrics on detector frequency profiles.

`find_extrema` locates statistically significant local maxima in a
binned frequency profile.  Significance is measured by topographic
prominence against the Poisson noise floor of the underlying counts: a
peak must rise more than k_sigma standard deviations of its local count
above its surrounding saddles.  Minima are the separating troughs
between accepted maxima, so maxima and minima always alternate.

`oscillation_index` and `total_variation` compare whole profiles, e.g.
across values of the time step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExtremaReport:
    """Significant maxima and the troughs between them.

    Each entry is (bin_center, smoothed_height, prominence); maxima and
    minima alternate along the axis.
    """

    maxima: list[tuple[float, float, float]]
    minima: list[tuple[float, float, float]]


def smooth(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average; the window shrinks symmetrically at the edges."""
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and >= 1")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-d array")
    if v.size < window:
        raise ValueError(f"window {window} exceeds the {v.size} bins")
    if window == 1:
        return v.copy()
    half = window // 2
    csum = np.concatenate(([0.0], np.cumsum(v)))
    idx = np.arange(v.size)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, v.size)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _local_maxima(v: np.ndarray) -> list[int]:
    """Runs of equal values higher than the runs on both sides; each reports
    its center index, so a run that touches either end is never a maximum."""
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    ends = np.r_[starts[1:], v.size] - 1
    r = v[starts]
    run = np.flatnonzero((r[1:-1] > r[:-2]) & (r[1:-1] > r[2:])) + 1
    return ((starts[run] + ends[run]) // 2).tolist()


def _prominence(v: np.ndarray, peak: int) -> float:
    """Height of v[peak] above the higher of its two key saddles: the lowest
    points between it and the nearest strictly higher point on each side."""
    higher = np.r_[-1, np.flatnonzero(v > v[peak]), v.size]
    k = np.searchsorted(higher, peak)
    left = v[higher[k - 1] + 1:peak + 1].min()
    right = v[peak:higher[k]].min()
    return v[peak] - max(left, right)


def find_extrema(freqs: np.ndarray, centers: np.ndarray, n_detected: int,
                 window: int = 5, k_sigma: float = 5.0) -> ExtremaReport:
    """Report significant maxima and the troughs separating them.

    freqs are bin counts divided by n_detected, one per entry of centers
    (quoted as given); n_detected sets the Poisson noise floor.  A maximum
    is kept when its prominence exceeds k_sigma * sqrt(local mean count) / n_detected.
    """
    if not (0 < k_sigma < np.inf):
        raise ValueError("k_sigma must be > 0 and finite")
    if n_detected < 0:
        raise ValueError("n_detected must be >= 0")
    f = smooth(freqs, window)
    if len(centers) != f.size:
        raise ValueError("freqs length does not match the bin centres")

    maxima: list[tuple[int, float, float]] = []
    if n_detected > 0:
        for i in _local_maxima(f):
            prom = _prominence(f, i)
            local_count = max(f[i] * n_detected, 0.0)
            if prom > k_sigma * np.sqrt(local_count) / n_detected:
                maxima.append((i, f[i], prom))

    minima: list[tuple[int, float, float]] = []
    for (i0, _, _), (i1, _, _) in zip(maxima, maxima[1:]):
        j = i0 + 1 + int(np.argmin(f[i0 + 1:i1]))
        minima.append((j, f[j], _prominence(-f, j)))

    return ExtremaReport(
        maxima=[(float(centers[i]), float(h), float(p)) for i, h, p in maxima],
        minima=[(float(centers[i]), float(h), float(p)) for i, h, p in minima],
    )


def total_variation(f1: np.ndarray, f2: np.ndarray) -> float:
    """Total variation distance between two (sub-)probability vectors."""
    a = np.asarray(f1, dtype=float)
    b = np.asarray(f2, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return 0.5 * float(np.abs(a - b).sum())


def oscillation_index(freqs: np.ndarray, window: int = 5) -> float:
    """Arc-length of the smoothed profile relative to its range.

    1 for any monotone profile, larger the more the profile oscillates;
    defined as 0 for a flat profile.
    """
    raw = np.asarray(freqs, dtype=float)
    if raw.size and raw.max() == raw.min():
        return 0.0
    f = smooth(raw, window)
    rng = float(f.max() - f.min())
    if rng == 0.0:
        return 0.0
    return float(np.abs(np.diff(f)).sum()) / rng
