"""Trajectory ensembles: reproducible emission, fast stepping, histograms.

Determinism contract: the histogram produced by `run_ensemble` is a pure
function of (emission spec, geometry, field, step params, histogram spec).
Worker count and scheduling never change a single bit of the result.  Two
mechanisms guarantee this:

  * each trajectory's launch angle comes from a counter-based generator
    keyed by (seed, trajectory index), not from a shared stream;
  * trajectories are processed in fixed-size index chunks; workers only
    decide *where* a chunk is computed, and the integer merge of chunk
    histograms is order-independent.

The stepping kernel (`simulate_batch`) is elementwise over lanes, so a
trajectory's result does not depend on which batch it ran in, where in
the arrays it sat, which other lanes were flagged beside it, or when
finished lanes were retired.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import StepParams
from .errors import ConfigurationError
from .field import FieldParams, force_batch
from .scattering import Geometry, check_consistent

CHUNK_SIZE = 16384
_EXACT_BLOCK = 1024
_RETIRE_EVERY = 32
_MAX_BINS = 2 ** 20

_BLOCKED, _DETECTED, _ESCAPED, _STEPLIMIT = 1, 2, 3, 4

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class EmissionSpec:
    """Launch speed, angle range (radians) and draw mode.

    mode "random": angle of trajectory i is uniform in [alpha_min,
    alpha_max), drawn from the substream keyed by (seed, i).
    mode "sweep": n angles evenly spaced over the closed range; a
    single-trajectory sweep uses the midpoint.
    """

    v0: float
    alpha_min: float
    alpha_max: float
    n: int
    mode: str = "random"
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.v0 < math.inf):
            raise ValueError("v0 must be finite and > 0")
        if not (-math.inf < self.alpha_min < self.alpha_max < math.inf):
            raise ValueError("alpha_min must be < alpha_max, both finite")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.mode not in ("random", "sweep"):
            raise ValueError(f"unknown emission mode {self.mode!r}")
        if not (0 <= self.seed <= _MASK):
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class HistogramSpec:
    """Detector binning: equal-width cells over [y_min, y_max).

    bin_width must tile the range: the cell count (y_max - y_min) /
    bin_width must be a whole number to a relative 1e-9, at least 2 (what
    `analyze` reads back) and at most 2**20 (8 MiB of counts).  Hits at or
    beyond y_max are overflow.
    """

    bin_width: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.bin_width > 0):
            raise ValueError("bin_width must be > 0")
        if not (self.y_min < self.y_max):
            raise ValueError("y_min must be < y_max")
        ratio = (self.y_max - self.y_min) / self.bin_width
        if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * ratio):
            raise ValueError(f"bin_width {self.bin_width!r} does not tile "
                             f"[{self.y_min!r}, {self.y_max!r})")
        if self.n_bins < 2:
            raise ValueError(f"{self.n_bins} bin is too few: at least 2 are needed")
        if self.n_bins > _MAX_BINS:
            raise ValueError(f"{ratio:.15g} bins exceed the limit of {_MAX_BINS}")

    @property
    def n_bins(self) -> int:
        return round((self.y_max - self.y_min) / self.bin_width)

    def bin_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.n_bins) + 0.5) * self.bin_width


@dataclass
class Histogram:
    """Binned detector hits plus emission bookkeeping.

    counts holds in-range detections only; hits outside [y_min, y_max)
    land in the underflow/overflow tallies, so
    counts.sum() + underflow + overflow == n_detected and the four
    outcome tallies sum to n_emitted.
    """

    spec: HistogramSpec
    counts: np.ndarray
    n_emitted: int = 0
    n_detected: int = 0
    n_blocked: int = 0
    n_escaped: int = 0
    n_steplimit: int = 0
    underflow: int = 0
    overflow: int = 0

    @classmethod
    def zero(cls, spec: HistogramSpec) -> "Histogram":
        return cls(spec=spec, counts=np.zeros(spec.n_bins, dtype=np.int64))

    def check_conservation(self) -> None:
        if self.n_emitted != (self.n_detected + self.n_blocked
                              + self.n_escaped + self.n_steplimit):
            raise AssertionError("outcome tallies do not sum to n_emitted")
        if int(self.counts.sum()) + self.underflow + self.overflow != self.n_detected:
            raise AssertionError("bin counts do not sum to n_detected")


def merge(a: Histogram, b: Histogram) -> Histogram:
    """Elementwise sum; commutative and associative, identity Histogram.zero."""
    if a.spec != b.spec:
        raise ConfigurationError(f"histogram specs differ: {a.spec} vs {b.spec}")
    sums = {fd.name: getattr(a, fd.name) + getattr(b, fd.name)
            for fd in fields(Histogram) if fd.name != "spec"}
    return Histogram(spec=a.spec, **sums)


def normalize(h: Histogram) -> np.ndarray:
    """Frequencies counts / n_detected; sums to 1 minus the out-of-range share.

    A histogram with nothing detected gives all zeros, one per bin.
    """
    if h.n_detected <= 0:
        return np.zeros(h.counts.size)
    return h.counts / float(h.n_detected)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform01(seed: int, lo: int, hi: int) -> np.ndarray:
    """Uniform [0, 1) draws for trajectory indices lo..hi-1.

    Counter-based: draw i depends only on (seed, i), so any slicing of
    the index range yields identical values.
    """
    idx = np.arange(lo, hi, dtype=np.uint64)
    z = _mix64(np.uint64(seed) + idx * np.uint64(_GAMMA))
    return (z >> np.uint64(11)) * (2.0 ** -53)


def emission_angles(e: EmissionSpec, lo: int, hi: int) -> np.ndarray:
    """Launch angles (radians) for trajectory indices lo..hi-1."""
    if not (0 <= lo <= hi <= e.n):
        raise ValueError("index range out of bounds")
    span = e.alpha_max - e.alpha_min
    if e.mode == "random":
        return e.alpha_min + uniform01(e.seed, lo, hi) * span
    if e.n == 1:
        return np.full(hi - lo, e.alpha_min + 0.5 * span)
    idx = np.arange(lo, hi, dtype=np.float64)
    return e.alpha_min + idx * (span / (e.n - 1))


def _aligned_pair(n: int) -> np.ndarray:
    """An uninitialised (2, n) float array whose rows start on 64-byte lines.

    The row stride is n rounded up to a whole number of 8-float lines, at
    least one, so every [:, :m] view of it is aligned too.
    """
    stride = max(8, (n + 7) // 8 * 8)
    buf = np.empty(2 * stride + 8)
    lo = -buf.ctypes.data % 64 // 8
    return buf[lo:lo + 2 * stride].reshape(2, stride)[:, :n]


def simulate_batch(alphas: np.ndarray, v0: float, g: Geometry, f: FieldParams,
                   sp: StepParams, *, steps: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Advance one batch of trajectories to termination.

    Returns (codes, y_final): outcome code per trajectory and the impact
    or hit y for blocked/detected ones (NaN otherwise).  Lanes still
    running after max_steps keep their initial step-limit code.  steps,
    if given, is an int array of alphas' size that receives the step in
    which each lane ended, max_steps for a step-limited one; one whose
    dtype cannot hold max_steps raises ValueError.  A g and f
    that disagree on the slit half-height raise ConfigurationError; a v0
    that is not finite and > 0, or a non-finite angle, raises ValueError.

    The state is the pairs (x, y) and u = tau * v, each a (2, n) array.  A
    step is u += (tau^2 / m) F(x, y), then x' = x + u: the map of
    `dynamics.step_discrete` in two passes over the pairs.  (x, y) and
    (x', y') swap names after each step instead of being copied.  Every
    row of the four pairs (the force pair too) starts on a 64-byte line:
    numpy aligns its buffers to 16 bytes only, and on AVX-512 a binary
    ufunc that writes to a row off a 64-byte line runs at about half
    speed.  Where a row starts in memory moves no bit of a result.

    Each step tests every lane for x*x' <= 0, x' >= d, x' < x_escape or
    |y'| > y_bound; no other lane can end in that step.  Each flagged
    lane's place, segment (x, y) -> (x', y') and step join a pending
    buffer of _EXACT_BLOCK entries.  The exact rule runs on it at one
    site: when it fills, and on a due step (every _RETIRE_EVERY steps, the
    last, or one in which it filled) once all of the step's lanes are in.
    The finished lanes then leave the working arrays: each leaves a hole
    below r, the running count after the retire, and a running lane from
    places r and up moves into it with its index, so retiring costs time
    in proportion to the lanes retired.  The running count changes only
    in this swap-out, where the working views are cut to it, and the batch
    stops there when it reaches 0.  Places do not change between
    retires, so the buffer can hold them.  A finished lane steps on until
    it is retired and may be flagged again, but its first end stands.
    Every operation is elementwise, so neither the reordering nor the
    cadence of the passes moves a bit of a result.
    """
    if not (0 < v0 < math.inf and np.isfinite(alphas).all()):
        raise ValueError("v0 must be finite and > 0, and every alpha finite")
    check_consistent(g, f)
    n = alphas.size
    if steps is not None:
        if (steps.shape != (n,) or steps.dtype.kind not in "iu"
                or np.iinfo(steps.dtype).max < g.max_steps):
            raise ValueError(f"steps must be an int array of shape ({n},) "
                             f"that holds {g.max_steps}")
        steps[:] = g.max_steps
    codes = np.full(n, _STEPLIMIT, dtype=np.uint8)
    y_final = np.full(n, np.nan)
    if not n:
        return codes, y_final

    d = g.screen_gap
    y_bound = g.y_bound
    x_escape = g.x_escape
    tau = sp.tau
    # F(r) scaled by tau * tau / m is the change of u = tau * v in one step
    fu = FieldParams(f.charge_product * (tau * (tau / sp.mass)), f.slit_half_height)

    idx = np.arange(n, dtype=np.int32)
    P = _aligned_pair(n)                        # (x, y)
    P1 = _aligned_pair(n)                       # (x', y')
    U = _aligned_pair(n)
    P[0] = -g.emitter_distance
    P[1] = 0.0
    # (v0 cos a) tau: the runner's velocity times tau, the same bits
    np.multiply(v0 * np.cos(alphas), tau, out=U[0])
    np.multiply(v0 * np.sin(alphas), tau, out=U[1])

    F = _aligned_pair(n)                        # once the launch temporaries are freed
    flags = np.empty((2, n), dtype=bool)        # the superset test's rows
    block = _EXACT_BLOCK
    seg = np.empty((4, block))                  # pending (x, y, x', y')
    place = np.empty(block, dtype=np.intp)
    when = np.empty(block, dtype=np.int64)
    sx, sy, sx1, sy1 = seg
    pending = 0

    with np.errstate(invalid="ignore", divide="ignore"):
        for step in range(1, g.max_steps + 1):
            # Rows by index: `x, y = P` iterates P, which costs 4x as much.
            x, y, x1, y1 = P[0], P[1], P1[0], P1[1]
            s0, s1, near, t = F[0], F[1], flags[0], flags[1]
            # The force's two temporaries live in the rows of (x', y'),
            # which are dead until the update writes them.
            force_batch(x, y, fu, out=(s0, s1, x1, y1))

            # u first, then the position from the new u
            np.add(U, F, out=U)
            np.add(P, U, out=P1)

            # Every lane: a superset of the lanes that end this step.
            np.multiply(x, x1, out=s0)                  # F is dead after the update
            np.less_equal(s0, 0.0, out=near)            # on or across x = 0
            near |= np.greater_equal(x1, d, out=t)
            near |= np.less(x1, x_escape, out=t)
            near |= np.greater(np.abs(y1, out=s0), y_bound, out=t)
            ev = np.flatnonzero(near)

            due = step % _RETIRE_EVERY == 0 or step == g.max_steps
            ended = []
            lo = 0
            while lo < ev.size or due and pending:
                e = ev[lo:lo + block - pending]
                lo += e.size
                hi = pending + e.size
                place[pending:hi] = e
                when[pending:hi] = step
                # row by row: numpy's P[:, e] costs 3-5x as much as x[e], y[e]
                sx[pending:hi] = x[e]
                sy[pending:hi] = y[e]
                sx1[pending:hi] = x1[e]
                sy1[pending:hi] = y1[e]
                pending = hi
                if pending < block and not due:     # every lane is in, no pass due
                    break
                due = True                          # a full buffer forces a retire
                # The exact rule, the float operations of `scattering._segment_event`:
                # a segment that crosses x = 0 at |y| >= aperture is blocked
                # there; only one that is not can be detected at x = d, so the
                # precedence (screen, detector, escape) is the write order.
                xe, ye, x1e, y1e = seg[:, :pending]
                # Fractions at x = 0 and x = d.  Row 1 negates the reference's
                # (d - xe) / (x1e - xe) above and below, exactly in IEEE except
                # where xe == x1e or xe == d; it is read only where xe < d <= x1e.
                lam = (xe - [[0.0], [d]]) / (xe - x1e)
                y0, yd = ye + lam * (y1e - ye)      # y at x = 0 and x = d
                crosses = ((xe < 0.0) & (x1e >= 0.0)) | ((xe > 0.0) & (x1e <= 0.0))
                det = x1e >= d
                blocked = crosses & (np.abs(y0) >= g.aperture)
                esc = (x1e < x_escape) | (np.abs(y1e) > y_bound)
                places = place[:pending]
                lanes = idx[places]
                # A finished lane steps on until it is retired: skip lanes an
                # earlier pass ended, and keep each place's first ending entry
                # (the lowest index: the buffer is in step order), marked on
                # s1, the dead F_y row.  np.unique would do, but its first
                # call touches 0.4 MB of numpy's sort code: peak RSS.
                k = np.flatnonzero((blocked | det | esc) & (codes[lanes] == _STEPLIMIT))
                pk = places[k]
                s1[pk] = pending
                np.minimum.at(s1, pk, k)
                k = k[s1[pk] == k]
                lanes, esc, det, blocked = lanes[k], esc[k], det[k], blocked[k]
                codes[lanes[esc]] = _ESCAPED
                codes[lanes[det]] = _DETECTED
                y_final[lanes[det]] = yd[k[det]]
                codes[lanes[blocked]] = _BLOCKED
                y_final[lanes[blocked]] = y0[k[blocked]]
                if steps is not None:
                    steps[lanes] = when[k]
                ended.append(places[k])
                pending = 0
                # the pass's temporaries would live into the next step's force
                del lam, y0, yd, crosses, det, blocked, esc, lanes, k, pk
            if ended:                               # a pass ran this step
                # Swap-out: running lanes from places r and up fill the
                # holes finished lanes leave below r, the new running count.
                gone = np.concatenate(ended)
                r = idx.size - gone.size
                low = gone < r
                holes = gone[low]
                keep = np.ones(gone.size, dtype=bool)   # places r and up
                keep[gone[~low] - r] = False
                movers = r + np.flatnonzero(keep)
                for row in (x1, y1, *U, idx):           # row by row, as the gather
                    row[holes] = row[movers]
                if not r:
                    break
                P, P1, U, F = P[:, :r], P1[:, :r], U[:, :r], F[:, :r]
                flags, idx = flags[:, :r], idx[:r]
            P, P1 = P1, P

    return codes, y_final


def _simulate_chunk(args) -> Histogram:
    e, g, f, sp, h, lo, hi = args
    codes, y_final = simulate_batch(emission_angles(e, lo, hi), e.v0, g, f, sp)
    ys = y_final[codes == _DETECTED]
    # Cell 0 is underflow and cell n_bins + 1 overflow; rounding may put
    # y_max in the last bin, so a hit at or past it is moved to overflow.
    cell = np.clip(np.floor((ys - h.y_min) / h.bin_width) + 1, 0, h.n_bins + 1)
    cell[ys >= h.y_max] = h.n_bins + 1
    cells = np.bincount(cell.astype(np.int64), minlength=h.n_bins + 2)
    tally = np.bincount(codes, minlength=_STEPLIMIT + 1)
    return Histogram(
        spec=h,
        counts=cells[1:-1],
        n_emitted=hi - lo,
        n_detected=int(tally[_DETECTED]),
        n_blocked=int(tally[_BLOCKED]),
        n_escaped=int(tally[_ESCAPED]),
        n_steplimit=int(tally[_STEPLIMIT]),
        underflow=int(cells[0]),
        overflow=int(cells[-1]),
    )


def run_ensemble(e: EmissionSpec, g: Geometry, f: FieldParams, sp: StepParams,
                 h: HistogramSpec, workers: int = 1) -> Histogram:
    """Run the full ensemble and accumulate the detector histogram.

    The result is bit-identical for every workers value.  No more worker
    processes start than there are CPUs or chunks.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    chunks = [(e, g, f, sp, h, lo, min(lo + CHUNK_SIZE, e.n))
              for lo in range(0, e.n, CHUNK_SIZE)]
    workers = min(workers, os.cpu_count() or 1, len(chunks))
    total = Histogram.zero(h)
    if workers == 1:
        for chunk in chunks:
            total = merge(total, _simulate_chunk(chunk))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        others = set(multiprocessing.active_children())
        # Workers ignore SIGINT, so Ctrl-C interrupts only this process.
        with ProcessPoolExecutor(max_workers=workers, initializer=signal.signal,
                                 initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            try:
                pending = [pool.submit(_simulate_chunk, c) for c in chunks]
                pending.reverse()
                while pending:  # merge in chunk order, dropping each result
                    total = merge(total, pending.pop().result())
            except KeyboardInterrupt:
                # Stop the running chunks, so leaving the pool need not wait
                # for them.  Cancel no future: the pool then fails each one
                # as broken, which raises on a cancelled one (Python 3.11).
                for proc in set(multiprocessing.active_children()) - others:
                    proc.terminate()
                raise
    total.check_conservation()
    return total
