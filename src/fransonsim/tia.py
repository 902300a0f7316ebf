"""Start-stop coincidence analysis: delay histograms, windowed counts,
fringe fitting, visibility.

Conventions:

* delay = stop - start (idler minus signal), integer picoseconds;
* a histogram covers the half-open interval [-range_ps, +range_ps)
  with bins of integer width, so bin assignment is exact integer
  arithmetic and no pair is ever split or double counted;
* a windowed count sums the whole bins of the half-open window
  [center - w/2, center + w/2), the interval the closed form integrates,
  so its edges must lie on the bin grid inside the range (window_bins);
* counts are Poisson-weighted in fits, with sigma = sqrt(max(n, 1));
* the fringe fit is one weighted linear solve at the scan's known
  fringe frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .errors import FitDegenerate, ValidationError

_PAIR_CHUNK = 1 << 16   # starts, pairs or neighbours handled at once
# Fewest scan points fit_fringe takes: its three parameters plus one
# degree of freedom, so chi^2 can check the fringe period.
MIN_FIT_POINTS = 4
# Least ratio of the smallest to the largest singular value of the fit
# design [1, cos f x, sin f x], unweighted and with centred cosine and
# sine columns, that a scan may have.  The fit's own design has half to
# all of that ratio, and its covariance (D^T W D)^-1 loses eps / ratio^2
# (~1e-7 here).  Three phase groups d apart (ratio ~d^2 / 4) keep no digit
# of sigma near d = 3e-4 rad; two phases leave the ratio at rounding.
DESIGN_RTOL = 1e-4
# Largest delay histogram, in bins (8 MiB of counts): ~10^4 times the 40
# bins the presets need and the 60 of `fransonsim histogram`'s defaults,
# yet it refuses a 1e9 ps range at 1 ps bins, which would take 16 GB.
_MAX_BINS = 1 << 20


# ---------------------------------------------------------------------------
# Histogram container
# ---------------------------------------------------------------------------

@dataclass
class DelayHistogram:
    """Binned start-stop delays.  counts[i] covers [-range_ps + i*bin_ps,
    -range_ps + (i+1)*bin_ps); a window counts whole bins (window_bins)."""

    bin_ps: int
    range_ps: int
    counts: np.ndarray            # int64, length 2*range_ps/bin_ps
    n_starts: int = 0
    n_stops: int = 0

    @property
    def total_pairs(self) -> int:
        return int(self.counts.sum())

    def centers(self) -> np.ndarray:
        """Bin centers in ps (exact halves when bin_ps is odd)."""
        edges = -self.range_ps + self.bin_ps * np.arange(self.counts.size)
        return edges + self.bin_ps / 2.0


def check_ascending(t: np.ndarray, name: str, strict: bool = False) -> None:
    """ValidationError unless t ascends (strictly, if strict), checked
    _PAIR_CHUNK neighbours at a time: no temporary grows with t."""
    behind = np.less_equal if strict else np.less
    for lo in range(0, t.size - 1, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, t.size - 1)
        if behind(t[lo + 1:hi + 1], t[lo:hi]).any():
            raise ValidationError(f"{name} must be " + (
                "strictly increasing" if strict else "sorted ascending"))


def _normalize_binning(bin_ps, range_ps) -> Tuple[int, int]:
    if not (math.isfinite(bin_ps) and math.isfinite(range_ps)):
        raise ValidationError(
            f"bin_ps and range_ps must be finite, got {bin_ps!r}, "
            f"{range_ps!r}")
    b = int(bin_ps)
    if b != bin_ps or b < 1:
        raise ValidationError(
            f"bin_ps must be a positive integer, got {bin_ps!r}")
    r = int(math.ceil(range_ps))
    if r < b:
        raise ValidationError(
            f"range_ps must be at least one bin, got {range_ps!r}")
    if r % b:
        r += b - r % b   # round up so the bin grid tiles the range
    if 2 * r // b > _MAX_BINS:
        raise ValidationError(
            f"range_ps={range_ps!r} at bin_ps={bin_ps!r} needs "
            f"{2 * r // b} bins, more than the {_MAX_BINS} allowed")
    if r >= 2 ** 62:   # with clicks below 2**62, click + range fits int64
        raise ValidationError(
            f"range_ps must be below 2**62 ps, got {range_ps!r}")
    return b, r


def _pair_deltas(starts: np.ndarray, stops: np.ndarray,
                 range_ps: int) -> Iterator[np.ndarray]:
    """stop - start for every pair within [-range, +range), in start
    then stop order, as arrays of at most _PAIR_CHUNK pairs.

    Starts are searched _PAIR_CHUNK at a time.  The lower bound is
    searched only for the starts whose last stop before start + range
    lies in range; for all others it equals the upper bound, so sparse
    streams pay about one binary search.  Pairs are expanded in runs
    of starts whose windows hold at most _PAIR_CHUNK stops together; a
    start whose window alone holds more is expanded piece by piece.
    """
    step = _PAIR_CHUNK
    for a in range(0, starts.size, step):
        s = starts[a:a + step]
        hi = np.searchsorted(stops, s + range_ps, side="left")
        live = np.flatnonzero(hi)
        live = live[stops[hi[live] - 1] >= s[live] - range_ps]
        s, hi = s[live], hi[live]
        lo = np.searchsorted(stops, s - range_ps, side="left")
        lengths = hi - lo                  # >= 1 for every live start
        ends = np.cumsum(lengths)
        i = 0
        while i < s.size:
            base = int(ends[i]) - int(lengths[i])
            j = int(np.searchsorted(ends, base + step, side="right"))
            if j == i:                     # one start, > step pairs
                for q in range(int(lo[i]), int(hi[i]), step):
                    yield stops[q:min(q + step, int(hi[i]))] - s[i]
                j = i + 1
            else:
                n = lengths[i:j]
                first = np.repeat(lo[i:j] - (ends[i:j] - n - base), n)
                first += np.arange(int(ends[j - 1]) - base)
                yield stops[first] - np.repeat(s[i:j], n)
            i = j


def build_histogram(starts, stops, bin_ps, range_ps) -> DelayHistogram:
    """Histogram every stop within +-range_ps of every start.

    All starts and stops participate (no first-match pairing), which
    keeps the estimator linear in rates.  For a three-peak delay
    structure choose range_ps of at least twice the analyzer delay so
    both side peaks are visible.  The one bucket's edge is 2**62 ps: a
    click at or past it is a ValidationError.
    """
    acc = HistogramAccumulator(bin_ps, range_ps)
    acc.add_bucket(starts, stops, 2 ** 62)   # an edge past every click
    return acc.finalize()


class HistogramAccumulator:
    """Delay histogram over time-ordered click buckets.

    Feed buckets in order with their upper time edge; the result does
    not depend on where the bucket edges fall.  Each pair is binned
    when its later click arrives, so bucket boundaries never split or
    duplicate pairs, and finalize() is a read: more buckets may follow.
    """

    def __init__(self, bin_ps, range_ps):
        self.bin_ps, self.range_ps = _normalize_binning(bin_ps, range_ps)
        self._counts = np.zeros(2 * self.range_ps // self.bin_ps, np.int64)
        self._start_tail = self._stop_tail = np.empty(0, dtype=np.int64)
        self._n_starts = self._n_stops = 0
        self._last_hi = -2 ** 63   # no bucket yet: no click precedes it

    def _bin_into(self, starts: np.ndarray, stops: np.ndarray) -> None:
        for deltas in _pair_deltas(starts, stops, self.range_ps):
            deltas += self.range_ps
            deltas //= self.bin_ps
            self._counts += np.bincount(deltas, minlength=self._counts.size)

    def add_bucket(self, starts, stops, bucket_hi_ps: int) -> None:
        """Add one bucket of clicks.  Raises ValidationError naming the
        breach, before any state changes, unless starts and stops are
        integer picoseconds, each sorted ascending; buckets arrive in
        time order; and every click lies in [previous edge, bucket_hi_ps)."""
        hi, last = int(bucket_hi_ps), self._last_hi
        if hi <= last:
            raise ValidationError("buckets must arrive in time order")
        starts, stops = np.asarray(starts), np.asarray(stops)
        for name, t in (("starts", starts), ("stops", stops)):
            if not np.issubdtype(t.dtype, np.integer):
                raise ValidationError(f"{name} must be integer picoseconds")
            check_ascending(t, name)
            if t.size and t[-1] >= hi:
                raise ValidationError(f"{name} must lie below the bucket "
                                      f"edge {hi} ps, got {t[-1]} ps")
            if t.size and t[0] < last:
                raise ValidationError(f"{name} must not precede the previous "
                                      f"bucket edge {last} ps, got {t[0]} ps")
        starts, stops = (t.astype(np.int64, copy=False)
                         for t in (starts, stops))
        self._last_hi = hi
        self._n_starts += int(starts.size)
        self._n_stops += int(stops.size)
        # the earlier starts in range meet the bucket's stops; the
        # bucket's starts meet its stops and the earlier stops in range
        self._bin_into(self._start_tail, stops)
        if self._stop_tail.size:
            stops = np.concatenate([self._stop_tail, stops])
        self._bin_into(starts, stops)
        if self._start_tail.size:
            starts = np.concatenate([self._start_tail, starts])
        # keep the clicks a later bucket's clicks can still pair with,
        # as copies: the bucket's arrays must not outlive it
        edge = hi - self.range_ps
        self._start_tail = starts[int(starts.searchsorted(edge)):].copy()
        self._stop_tail = stops[int(stops.searchsorted(edge)):].copy()

    def finalize(self) -> DelayHistogram:
        return DelayHistogram(bin_ps=self.bin_ps, range_ps=self.range_ps,
                              counts=self._counts.copy(),
                              n_starts=self._n_starts,
                              n_stops=self._n_stops)


def window_bins(bin_ps: int, range_ps: int, center_ps: float,
                window_ps: float) -> slice:
    """The bins of the delay window [center - w/2, center + w/2).
    ValidationError unless it is finite, at least one bin wide, starts
    and ends on the bin grid and lies inside [-range_ps, +range_ps]."""
    for name, v in (("center_ps", center_ps), ("window_ps", window_ps)):
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v!r}")
    if window_ps < bin_ps:
        raise ValidationError(
            f"window_ps={window_ps!r} is narrower than one {bin_ps} ps bin")
    lo, hi = center_ps - window_ps / 2.0, center_ps + window_ps / 2.0
    if math.fmod(lo, bin_ps) or math.fmod(hi, bin_ps) \
            or lo < -range_ps or hi > range_ps:
        raise ValidationError(
            f"window_ps={window_ps:g} centred at {center_ps:g} ps must start "
            f"and end on the {bin_ps} ps histogram bin grid within "
            f"+-{range_ps} ps")
    return slice(int(lo + range_ps) // bin_ps, int(hi + range_ps) // bin_ps)


def count_in_window(hist: DelayHistogram, center_ps: float,
                    window_ps: float) -> int:
    """Total counts of the bins of window_bins' window."""
    return int(hist.counts[window_bins(hist.bin_ps, hist.range_ps,
                                       center_ps, window_ps)].sum())


# ---------------------------------------------------------------------------
# Fringe containers
# ---------------------------------------------------------------------------

@dataclass
class FringeScan:
    """Coincidence counts versus analyzer setting.  frequency is the
    radians of summed phase per setting unit: 1 for settings in rad."""

    settings: np.ndarray
    counts: np.ndarray
    acquisition_s: float
    frequency: float = 1.0

    def __post_init__(self):
        self.settings = np.asarray(self.settings, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if self.settings.ndim != 1 or self.settings.size == 0:
            raise ValidationError("settings must be a non-empty 1-d array")
        if self.counts.shape != self.settings.shape:
            raise ValidationError("counts must match settings in shape")
        for name, v in (("settings", self.settings), ("counts", self.counts)):
            if not np.isfinite(v).all():
                raise ValidationError(f"{name} must be finite")
        if np.any(self.counts < 0):
            raise ValidationError("counts must be non-negative")
        for name in ("acquisition_s", "frequency"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be finite and > 0, "
                                      f"got {v!r}")


@dataclass
class VisibilityEstimate:
    """Fringe visibility with its 1-sigma statistical uncertainty."""

    visibility: float
    sigma_visibility: float
    amplitude_hz: float = math.nan
    mean_level_hz: float = math.nan
    phase_offset_rad: Optional[float] = None
    frequency: Optional[float] = None   # rad per setting unit
    chi2: Optional[float] = None
    dof: Optional[int] = None


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def check_fringe_phases(settings: np.ndarray, frequency: float) -> None:
    """ValidationError unless settings x give three fringe phases f x mod
    2 pi (f: frequency) apart enough to identify a fringe (DESIGN_RTOL)."""
    phase = np.asarray(settings, dtype=np.float64) * frequency
    c, s = (v - v.mean() for v in (np.cos(phase), np.sin(phase)))
    # the centred design's singular values are sqrt(n) and sqrt(n * the
    # eigenvalues of the covariance of (c, s)), which never exceed 1
    a, b, d = np.mean(c * c), np.mean(c * s), np.mean(s * s)
    ratio = math.sqrt(max((a + d) / 2.0 - math.hypot((a - d) / 2.0, b), 0.0))
    if not ratio > DESIGN_RTOL:
        # the phases as shown, 2 pi folded onto 0
        shown = np.unique(np.round(np.remainder(phase, 2.0 * math.pi), 4)
                          % round(2.0 * math.pi, 4))
        raise ValidationError(
            "settings give no three distinct fringe phases far enough apart"
            " to identify the fringe (phase mod 2pi: " + ", ".join(
                f"{p:.4f}" for p in shown) + " rad; design singular value "
            f"ratio {ratio:.3g}, not above DESIGN_RTOL {DESIGN_RTOL:g})")


def fit_fringe(scan: FringeScan) -> VisibilityEstimate:
    """Weighted sinusoid fit at the scan's frequency f:
    rate = a0 + a1 cos(f x) + a2 sin(f x), one linear least-squares
    solve.  Visibility is hypot(a1, a2)/a0, clamped to [0, 1]; its
    sigma comes from the covariance (D^T W D)^-1 through the delta
    method.

    ValidationError for fewer than MIN_FIT_POINTS points or settings
    that leave (a0, a1, a2) unidentified (check_fringe_phases);
    FitDegenerate (estimate attached) when no significant modulation
    exists.
    """
    x, freq = scan.settings, scan.frequency
    if x.size < MIN_FIT_POINTS:
        raise ValidationError(f"need at least {MIN_FIT_POINTS} scan points "
                              f"to fit, got {x.size}")
    check_fringe_phases(x, freq)
    rates = scan.counts / scan.acquisition_s
    weights = scan.acquisition_s / np.sqrt(np.maximum(scan.counts, 1.0))
    design = np.column_stack([np.ones_like(x),
                              np.cos(freq * x), np.sin(freq * x)])
    wd = design * weights[:, None]
    coef = np.linalg.lstsq(wd, rates * weights, rcond=None)[0]
    a0, a1, a2 = (float(v) for v in coef)
    resid = (design @ coef - rates) * weights
    cov = np.linalg.inv(wd.T @ wd)
    amp = math.hypot(a1, a2)

    if amp > 0.0:
        g_amp = np.array([a1 / amp, a2 / amp])
        sigma_amp = float(np.sqrt(g_amp @ cov[1:, 1:] @ g_amp))
    else:
        sigma_amp = float(np.sqrt(max(cov[1, 1], cov[2, 2])))

    def build(v, sv):
        return VisibilityEstimate(
            visibility=v, sigma_visibility=sv, amplitude_hz=amp,
            mean_level_hz=a0,
            phase_offset_rad=math.atan2(-a2, a1) % (2.0 * math.pi),
            frequency=freq, chi2=float(resid @ resid), dof=x.size - 3)

    if a0 <= 0.0 or amp < 2.0 * sigma_amp:
        raise FitDegenerate(
            "no statistically significant fringe modulation "
            f"(amplitude {amp:.3g} +- {sigma_amp:.3g})",
            estimate=build(0.0, math.inf))

    g = np.array([-amp / a0 ** 2, a1 / (amp * a0), a2 / (amp * a0)])
    var_v = float(g @ cov @ g)
    return build(min(amp / a0, 1.0), math.sqrt(max(var_v, 0.0)))
