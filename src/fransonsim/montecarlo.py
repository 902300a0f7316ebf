"""Seeded event-level Monte Carlo of the full entanglement link.

The chain being simulated, per arm:

    pair source -> lumped pre-fiber loss -> fiber (loss + dispersion)
    -> unbalanced MZI (insertion loss, short/long split, phase)
    -> detector (efficiency, Gaussian jitter, darks, dead time)

Interference enters through the coincident pairs alone: how many
signal clicks have an idler partner, and whether a partner sits in
the central or a side delay peak, follow the per-pair peak weights
of ``SimulationConfig.link``.  Partner-less clicks are drawn as
plain Poisson processes whose rates keep the singles phase-free (see
*Sampling law*).  Per-photon independent path choices cannot
reproduce two-photon fringes without also creating single-photon
fringes, so they are never used.

Reproducibility model
---------------------
The acquisition span is cut into generation slices of one width per
config, slice_ps: the widest 10 s / 2**k whose expected clicks (the
singles of SimulationConfig.link, darks included) stay within 2**19.
The width reads the link's rates alone, never the host, so it is part
of the sampling definition.  Every (stage, slice) pair owns an independent
child RNG stream, derived from the master seed, so

* identical configs give bit-identical click streams,
* slices are drawn in order, and only a drift walk carries over (slice
  k's walk starts from slice k-1's last value), and
* the signal stream never consumes idler-stage randomness: changing
  idler-side parameters cannot perturb signal clicks.

Sampling law
------------
Almost every click has no partner in the other channel (~10^4
clicks per coincidence back-to-back, ~10^5 at 100 km), so a slice
draws clicks, not pairs.  Pairs are emitted as a Poisson process of
rate R, and each photon survives its arm with probability
q = (arm transmission) x (quantum efficiency).  By Poisson thinning
(Lewis & Shedler, Nav. Res. Log. Q. 26 (1979) 403) the photon
clicks at the monitored ports split into independent Poisson
processes, and a homogeneous Poisson process shifted by i.i.d.
offsets (branch delay, intrinsic, dispersion and jitter spreads) is
the same process.  Per slice the engine therefore draws:

* signal photon clicks: Poisson at R*q_s/2, as uniform times;
* idler partners, thinned from the signal clicks: a
  Binomial(n_sig, 2*q_i*w) count of signal clicks, picked without
  replacement, w the sum of the per-pair central, early and late
  peak weights w_c, w_e, w_l.  Each partner sits at a relative delay
  of 0, -tau or +tau in the ratio w_c : w_e : w_l, plus one
  Normal(0, sigma) draw, sigma^2 the summed arrival spreads
  (dispersed photon and jitter) of both arms;
* partner-less idler photon clicks: Poisson at R*q_i*(1/2 - q_s*w),
  as uniform times;

then drift and dark counts per channel.  This is the joint law of
the literal per-pair link (its oracle lives in the tests), phase-free
singles included, up to picosecond-scale edge effects at the ends of
the span.  Signal clicks read no idler or phase parameter.  The
pairs that no click shows are drawn as counts alone, for
SimDiagnostics.  q, R, the peak weights and every timing width come
from SimulationConfig.link, the derivation the closed forms share,
read once per run.  Its memo lives in budget (LinkModel.of): a config
stores nothing derived, so copies and pickles carry no link.

Timestamps are integer picoseconds end to end (exact sorting and
bit-stable merges); sub-ps structure is rounded at click assembly.
Until then a slice holds float64 offsets from its own start (at most
10 s: an ulp of at most 0.002 ps), so a span, spill included, need
only stay below CLICK_LIMIT_PS (2**62 ps).  Each slice packs its
clicks per channel into int64 keys ((start + t) << 1) | is_dark and
sorts them once, when it is generated.  No click may land more than a
quarter of the slice width outside its slice (ValidationError
otherwise), so a streaming bucket is a searchsorted cut of at most
three slices, its own and its two neighbours, merged by a stable sort
in linear time when more than one contributes.

Memory model
------------
A run's working set is a small multiple of one slice's clicks, and one
bound keeps those within _SLICE_CLICKS (2**19, ~0.52 M) expected clicks,
darks included, and a drift walk's table within as many steps
(_MIN_WALK_PS): slice_ps picks the widest width within it, and
iter_click_buckets refuses, before drawing, a run whose one slice still
expects more (only a config above 2**19 clicks per 78.125 ms, ~6.7e6
clicks/s, that runs longer than 2**19 / rate).  The working set grows
neither with the acquisition time nor with the click rate:

* a slice builds each channel's clicks in one float64 buffer that
  becomes its int64 key array in place (8 bytes per click): uniform
  times are drawn into it, the partners' delays and spreads and the
  drift are added chunk by chunk (temporaries of _DRAW_CHUNK
  elements), dark counts fill its tail, and it is rounded and sorted
  where it lies.  Picking the partners takes ~25 bytes per partner,
  or, where partners are more than a few percent of the signal
  clicks (a near-lossless link), 8 bytes per signal click;
* once a bucket is cut, only the unconsumed part of each slice is
  kept: the newest slice as a view, an older slice's spill tail as a
  copy.  A bucket's key range is its own, so it is unpacked and
  filtered (the detector's dead time, at least the digitizer's 1 ps)
  in place, _DRAW_CHUNK clicks at a time, its darks counted as it
  goes: no temporary grows with the bucket;
* a consumer that drops each bucket before asking for the next (as
  scenarios.measure_point does, dumping clicks or not) holds about two
  slices of clicks: the one being drawn and the rest of the one before.
  Measured with tracemalloc: 9.6-10.3 MB for a back-to-back point of
  7 s or of 60 s (0.46 M clicks per 1.25 s slice), 8.1 MB for a 100 km
  point of 30 s or of 300 s (0.37 M clicks per 10 s slice), 12.3 MB
  for a lossless 6.5e6 clicks/s point of 0.5 s (0.51 M clicks per
  78 ms slice): ~10-25 bytes per click.

A click file is a fixed _HEADER_BYTES-byte text header over a body of
little-endian int64 picoseconds, one per click.  click_writer appends
the buckets as they pass and writes the header last; the reader checks
that the body holds the header's true_count + dark_count clicks before
it allocates the result (8 bytes per click), then reads it at once.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .budget import LinkModel
from .errors import ValidationError
from .physics import (AnalyzerSpec, ChannelSpec, CoincidenceWindowSpec,
                      DetectorSpec, SourceSpec)
from .tia import CLICK_LIMIT_PS, check_ascending

# Widest generation slice.  A run's slices are SLICE_PS / 2**k wide,
# the widest that keeps its expected clicks within _SLICE_CLICKS (see
# slice_ps).  The rule reads only the singles of config.link and is
# part of the sampling definition: changing SLICE_PS, _SLICE_CLICKS or
# _MIN_SLICE_PS would change the drawn numbers of every run longer than
# one slice, so they are constants, not knobs.
SLICE_PS = 10_000_000_000_000  # 10 s

# Expected clicks per slice, darks included, that a slice may hold: the
# engine's one load bound (memory model: ~10-25 bytes per click, ~two
# slices held at a time).  A drift walk on an interval of at least
# _MIN_WALK_PS steps at most as many times per slice.
_SLICE_CLICKS = 2 ** 19
_MIN_WALK_PS = -(-SLICE_PS // _SLICE_CLICKS)    # ~19.07 us

# Narrowest slice, 78.125 ms: a config above _SLICE_CLICKS in it
# (~6.7e6 clicks/s) runs only while its one slice stays within.
_MIN_SLICE_PS = SLICE_PS >> 7

# Clicks may leave their generation slice by analyzer delay + timing
# spreads + drift, by at most a quarter of the slice width, so that a
# bucket draws on its own slice and its two neighbours only.  Anything
# further is a config error.  This is the widest slice's quarter, the
# most any run may spill.
_MAX_SPILL_PS = SLICE_PS // 4

# Elements per step of the in-place passes over a slice (draws added
# to arrivals, rounding into keys, the click filter): bounds every
# temporary.  Chunked Generator draws reproduce the one-shot stream,
# so it is not part of the sampling definition.
_DRAW_CHUNK = 1 << 16

# (upper_edge_ps, sig_times, sig_darks, idl_times, idl_darks): each
# channel's kept clicks and how many of them are darks
Bucket = Tuple[int, np.ndarray, int, np.ndarray, int]

# Stage ids for per-(stage, slice) RNG streams.
_ST_SIGNAL = 0        # signal photon clicks
_ST_IDLER_COND = 1    # idler partners of signal clicks
_ST_IDLER_ONLY = 2    # partner-less idler photon clicks
_ST_SIGNAL_DARKS = 5
_ST_IDLER_DARKS = 6
_ST_DRIFT = 7
_ST_REMAINDER = 8


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimingDriftSpec:
    """Slow arrival-time drift of one channel's photons.

    ``offset_ps`` is a constant displacement (delay accumulated since
    the coincidence window was last centered); the optional random
    walk adds Normal(0, walk_step_ps) to the displacement every
    ``walk_interval_ps``.  The walk is evaluated at the photon's
    undrifted arrival time — it models fiber-delay drift on
    millisecond and slower scales, static over a photon's flight.
    Dark counts are detector-local and are not displaced.
    ``walk_interval_ps`` is an integer >= _MIN_WALK_PS, SLICE_PS / 2**19
    rounded up (~19.07 us): a slice takes at most 2**19 walk steps.
    """

    enabled: bool = False
    channel: str = "idler"
    offset_ps: float = 0.0
    walk_step_ps: float = 0.0
    walk_interval_ps: float = 1.0e9  # 1 ms

    def __post_init__(self):
        if self.channel not in ("signal", "idler"):
            raise ValidationError(
                f"drift channel must be 'signal' or 'idler', "
                f"got {self.channel!r}")
        if not math.isfinite(self.offset_ps):
            raise ValidationError("offset_ps must be finite")
        if not (0.0 <= self.walk_step_ps < math.inf):
            raise ValidationError("walk_step_ps must be finite and >= 0")
        itv = self.walk_interval_ps
        if not (_MIN_WALK_PS <= itv < math.inf and itv == int(itv)):
            raise ValidationError(
                f"walk_interval_ps must be an integer >= {_MIN_WALK_PS} ps "
                "(~19.07 us): a slice takes at most 2**19 walk steps")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one Monte Carlo run needs, plus the master seed."""

    source: SourceSpec = field(default_factory=SourceSpec)
    channel_signal: ChannelSpec = field(default_factory=ChannelSpec)
    channel_idler: ChannelSpec = field(default_factory=ChannelSpec)
    analyzer_signal: AnalyzerSpec = field(default_factory=AnalyzerSpec)
    analyzer_idler: AnalyzerSpec = field(default_factory=AnalyzerSpec)
    detector_signal: DetectorSpec = field(
        default_factory=lambda: DetectorSpec(quantum_efficiency=0.007))
    detector_idler: DetectorSpec = field(
        default_factory=lambda: DetectorSpec(quantum_efficiency=0.021))
    tia: CoincidenceWindowSpec = field(default_factory=CoincidenceWindowSpec)
    drift: TimingDriftSpec = field(default_factory=TimingDriftSpec)
    acquisition_time_s: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.acquisition_time_s < math.inf):
            raise ValidationError("acquisition_time_s must be finite and > 0")
        # span_ps() + spill >= limit, exact near 2**62 (ulp 512), inf-safe
        if self.acquisition_time_s * 1e12 + _MAX_SPILL_PS >= CLICK_LIMIT_PS:
            raise ValidationError(
                f"acquisition_time_s={self.acquisition_time_s!r} is too long: "
                "clicks, spill included, must lie below 2**62 ps (~53 days), "
                "where a packed click key still fits int64")
        if not isinstance(self.master_seed, int) \
                or isinstance(self.master_seed, bool) or self.master_seed < 0:
            raise ValidationError("master_seed must be a non-negative int")
        tau1 = self.source.pump_coherence_fwhm_ps
        tau2 = self.source.photon_fwhm_ps
        tau4 = self.analyzer_signal.delay_ps
        if self.analyzer_idler.delay_ps != tau4:
            raise ValidationError(
                "analyzer delays must match: unequal delays make the "
                "short-short and long-long paths distinguishable and "
                "the interference model does not apply "
                f"(got {tau4} vs {self.analyzer_idler.delay_ps})")
        # Franson timescale hierarchy: tau1 >> tau4 > tau2, tau3
        if not tau1 > 100.0 * tau4:
            raise ValidationError(
                "Franson condition violated: need pump coherence >> "
                f"analyzer delay (pump_coherence_fwhm_ps={tau1}, "
                f"delay_ps={tau4})")
        if not tau4 > tau2:
            raise ValidationError(
                "Franson condition violated: analyzer delay must exceed "
                f"the photon duration (delay_ps={tau4}, "
                f"photon_fwhm_ps={tau2})")
        for label, det in (("signal", self.detector_signal),
                           ("idler", self.detector_idler)):
            if not tau4 > det.jitter_fwhm_ps:
                raise ValidationError(
                    "Franson condition violated: analyzer delay must "
                    f"exceed the {label} detector jitter "
                    f"(delay_ps={tau4}, "
                    f"jitter_fwhm_ps={det.jitter_fwhm_ps})")

    def span_ps(self) -> int:
        return int(round(self.acquisition_time_s * 1e12))

    @property
    def link(self) -> LinkModel:
        """budget.LinkModel.of(self): not a field, and not stored here."""
        return LinkModel.of(self)


@dataclass
class ClickStream:
    """Sorted detector clicks for one channel, dark_count of them darks."""

    channel: str
    times_ps: np.ndarray          # int64, strictly increasing
    span_ps: int
    dark_count: int = 0

    @property
    def true_count(self) -> int:      # the photon clicks
        return self.times_ps.size - self.dark_count

    def assert_valid(self) -> None:
        t = self.times_ps
        if t.dtype != np.int64:
            raise ValidationError("click timestamps must be int64 ps")
        if not 0 <= self.span_ps < CLICK_LIMIT_PS:
            raise ValidationError(f"span_ps {self.span_ps} lies outside [0, "
                                  "2**62) ps, a delay histogram's clicks")
        if not 0 <= self.dark_count <= t.size:
            raise ValidationError(f"dark_count {self.dark_count} lies "
                                  f"outside [0, {t.size}], the clicks")
        if t.size:
            if t[0] < 0 or t[-1] > self.span_ps:
                raise ValidationError(
                    f"clicks outside [0, span]: {t[0]}..{t[-1]} "
                    f"span={self.span_ps}")
            check_ascending(t, "click timestamps", strict=True)


@dataclass
class SimDiagnostics:
    """Per-run bookkeeping that no bucket shows: generated pairs,
    per-stage survivors and the clicks drawn outside [0, span] (the
    kept clicks and darks are the buckets' sizes and dark counts)."""

    pairs_generated: int = 0
    pairs_signal_detectable: int = 0
    pairs_idler_only_detectable: int = 0
    pairs_both_detectable: int = 0
    clicks_dropped_out_of_span: int = 0


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def _stream(master_seed: int, stage: int, slice_idx: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(stage, slice_idx))
    return np.random.Generator(np.random.PCG64DXSM(ss))


def derive_seed(master_seed: int, index: int) -> int:
    """A decorrelated 64-bit child seed (per fringe point etc.)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(2, np.uint64)[0])


def _chunks(n: int) -> Iterator[slice]:
    """[0, n) in consecutive slices of at most _DRAW_CHUNK elements."""
    step = _DRAW_CHUNK
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


# ---------------------------------------------------------------------------
# Click filter: the detector's dead time, at least the digitizer's 1 ps
# ---------------------------------------------------------------------------

def _filter_clicks(key: np.ndarray, dead_ps: int, carry: int
                   ) -> Tuple[np.ndarray, int, int]:
    """Unpack one channel's sorted packed keys (t << 1) | is_dark and
    apply the detector's non-paralyzable dead time: returns (times,
    dark clicks kept, last kept time).  carry is the last kept click of
    an earlier bucket (or a start value), so it lies strictly below the
    first click.

    The dead time is at least 1 ps: the digitizer stamps integer
    picoseconds, so of two clicks in one picosecond only the first is
    kept, the photon when a photon and a dark share it (its key sorts
    first).  The last kept click is never later than a click's
    predecessor, so a click dead time or more after its predecessor is
    always kept; only the closer ones take the sequential rule, each
    run of them starting from the kept click just before it.

    Works in place, _DRAW_CHUNK clicks at a time: key's storage becomes
    the times, kept clicks move down over dropped ones and only their
    dark count is kept, so no temporary grows with the bucket."""
    # clicks lie in [0, CLICK_LIMIT_PS): a longer dead time acts the same
    dead = min(max(dead_ps, 1), CLICK_LIMIT_PS)
    t = key
    # n: clicks kept so far; before: the click before this chunk;
    # prev: the index of the last close click
    n, n_dark, last, before, prev = 0, 0, carry, carry, -2
    for c in _chunks(t.size):
        tc = t[c]
        dark = (tc & 1).astype(bool)
        tc >>= 1
        keep = np.empty(tc.size, dtype=bool)
        keep[0] = int(tc[0]) - before >= dead
        if dead == 1:   # no close click is kept: drop repeats alone
            np.not_equal(tc[1:], tc[:-1], out=keep[1:])
        else:
            np.greater_equal(np.diff(tc), dead, out=keep[1:])
            for j in np.flatnonzero(~keep).tolist():
                i = c.start + j
                if i != prev + 1:               # its predecessor was kept
                    last = int(tc[j - 1]) if j else before
                if int(tc[j]) - last >= dead:
                    keep[j] = True
                    last = int(tc[j])
                prev = i
        before = int(tc[-1])
        n_dark += int(np.count_nonzero(dark & keep))
        k = int(np.count_nonzero(keep))
        if n < c.start or k < keep.size:      # else it stays where it is
            t[n:n + k] = tc[keep]
        n += k
    return t[:n], n_dark, int(t[n - 1]) if n else carry


# ---------------------------------------------------------------------------
# Fast engine: per-slice generation
# ---------------------------------------------------------------------------

class _DriftWalk:
    """config.drift read at arrival times.  ``walk`` holds the walk
    over the current slice: its value before the slice's first step
    (the previous slice's last value), then after each step; ``first``
    is the interval t // walk_interval_ps that walk[0] covers.  Each
    slice draws its steps from its own stream."""

    def __init__(self, config: SimulationConfig):
        self.drift = config.drift
        self.seed = config.master_seed
        self.walk = np.zeros(1)
        self.first = 0

    def advance(self, slice_idx: int, lo: int, hi: int) -> None:
        d = self.drift
        if d.enabled and d.walk_step_ps > 0.0:
            itv = int(d.walk_interval_ps)
            self.first = lo // itv
            steps = _stream(self.seed, _ST_DRIFT, slice_idx).normal(
                0.0, d.walk_step_ps, max(0, (hi - 1) // itv - self.first))
            start, self.walk = self.walk[-1], None   # free the old table
            self.walk = walk = np.full(steps.size + 1, start)
            np.cumsum(steps, out=walk[1:])
            walk[1:] += start

    def apply(self, channel: str, arrivals: np.ndarray, lo: int) -> None:
        """Shift a channel's arrivals t, offsets from the slice start
        lo, in place: by the walk at lo + t (outside the slice, at the
        walk's nearer end), then by the offset."""
        d = self.drift
        if not d.enabled or channel != d.channel:
            return
        if d.walk_step_ps > 0.0:
            itv, last = int(d.walk_interval_ps), self.walk.size - 1
            for c in _chunks(arrivals.size):
                k = (arrivals[c].astype(np.int64) + lo) // itv - self.first
                arrivals[c] += self.walk[np.clip(k, 0, last)]
        arrivals += d.offset_ps


def _slice_width(rate_hz: float) -> int:
    """The widest SLICE_PS / 2**k, down to _MIN_SLICE_PS, whose expected
    clicks at rate_hz stay within _SLICE_CLICKS (where even _MIN_SLICE_PS
    does not, only a run short enough to stay within runs)."""
    width = SLICE_PS
    while width > _MIN_SLICE_PS and rate_hz * 1e-12 * width > _SLICE_CLICKS:
        width //= 2
    return width


def slice_ps(config: SimulationConfig) -> int:
    """Generation-slice width of config's runs: _slice_width of the
    singles of config.link alone, photons and darks of both arms, so
    every point of a scan (phase, window and seed aside) shares it."""
    link = config.link
    return _slice_width(link.signal.singles_hz + link.idler.singles_hz)


def _pack_keys(label: str, times: np.ndarray, n_photons: int,
               lo: int, hi: int, spill: int) -> np.ndarray:
    """Round times, offsets from lo (photons, then darks), in place into
    sorted int64 packed keys ((lo + t) << 1) | is_dark, in the same
    storage; refuse a click more than spill ps outside [lo, hi)."""
    key = times.view(np.int64)
    for c in _chunks(times.size):
        key[c] = np.rint(times[c])
    key += lo
    key <<= 1
    key[n_photons:] |= 1
    key.sort()
    if key.size and (int(key[0] >> 1) < lo - spill
                     or int(key[-1] >> 1) >= hi + spill):
        raise ValidationError(
            f"{label} clicks spilled more than {spill} ps, a quarter of "
            f"the {4 * spill} ps generation slice, out of it (drift too "
            "large?)")
    return key


def _gen_slice(config: SimulationConfig, link: LinkModel, slice_idx: int,
               lo: int, hi: int, width: int, drift: _DriftWalk,
               diag: SimDiagnostics) -> Tuple[np.ndarray, np.ndarray]:
    """All click candidates whose generating process lives in
    [lo, hi), per channel as one sorted int64 array of packed keys
    (t << 1) | is_dark: returns (sig_keys, idl_keys).  Rates, survival,
    peak weights and timing widths are link's, the run's config.link;
    no click may spill more than a quarter of width, the run's
    slice_ps(config), out of [lo, hi).

    Each channel's clicks are built in one float buffer of offsets
    from lo that ends as its key array: idler partners first, then the
    channel's partner-less photon clicks, then its darks."""
    dt_s = (hi - lo) * 1e-12
    rate = link.pair_rate_hz
    q_s, q_i, (w_c, w_e, w_l) = link.signal.q, link.idler.q, link.weights
    w_pair = w_c + (w_e + w_l)
    tau = config.analyzer_signal.delay_ps
    seed = config.master_seed
    drift.advance(slice_idx, lo, hi)

    def channel(stage: int, photon_hz: float, dark_stage: int,
                dark_hz: float, head: int) -> Tuple[np.ndarray, int]:
        # Poisson photon clicks and darks, uniform on [0, hi - lo), after
        # `head` slots left for partners; returns (buffer, n_photons)
        rng = _stream(seed, stage, slice_idx)
        n_ph = head + int(rng.poisson(photon_hz * dt_s))
        dark = _stream(seed, dark_stage, slice_idx) if dark_hz > 0.0 \
            else None
        n_dark = int(dark.poisson(dark_hz * dt_s)) if dark else 0
        buf = np.empty(n_ph + n_dark)
        rng.random(out=buf[head:n_ph])
        if dark:
            dark.random(out=buf[n_ph:])
        buf[head:] *= hi - lo
        return buf, n_ph

    sig, n_sig = channel(_ST_SIGNAL, link.signal.photon_hz, _ST_SIGNAL_DARKS,
                         link.signal.dark_hz, 0)

    # idler partners, thinned from the signal photon clicks: given a
    # signal click, a surviving idler clicks with probability 2*w_pair,
    # in the central, early or late peak in the ratio w_c : w_e : w_l
    rng = _stream(seed, _ST_IDLER_COND, slice_idx)
    p_b = q_i * 2.0 * w_pair
    n_b = int(rng.binomial(n_sig, p_b))
    idl, n_idl = channel(_ST_IDLER_ONLY,
                         rate * q_i * (0.5 - q_s * w_pair),
                         _ST_IDLER_DARKS, link.idler.dark_hz, n_b)
    pair = idl[:n_b]
    pair[:] = sig[rng.choice(n_sig, n_b, replace=False, shuffle=False)]
    p_same, p_early = w_c / w_pair, (w_c + w_e) / w_pair
    for c in _chunks(n_b):
        u = rng.random(c.stop - c.start)
        pair[c] += np.where(u < p_same, 0.0,
                            np.where(u < p_early, -tau, tau))
    sigma = math.hypot(link.signal.sigma_arrival_ps,
                       link.idler.sigma_arrival_ps)
    for c in _chunks(n_b):
        pair[c] += rng.normal(0.0, sigma, c.stop - c.start)

    drift.apply("signal", sig[:n_sig], lo)
    drift.apply("idler", idl[:n_idl], lo)
    spill = width // 4
    sig_keys = _pack_keys("signal", sig, n_sig, lo, hi, spill)
    idl_keys = _pack_keys("idler", idl, n_idl, lo, hi, spill)

    # diagnostics: the pairs no click shows, as counts alone
    rng = _stream(seed, _ST_REMAINDER, slice_idx)
    n_su = int(rng.poisson(link.signal.photon_hz * dt_s))  # unmonitored port
    n_both = (n_b + int(rng.binomial(n_sig - n_b, (q_i - p_b) / (1.0 - p_b)))
              + int(rng.binomial(n_su, q_i)))
    n_io = int(rng.poisson(rate * q_i * (1.0 - q_s) * dt_s))
    n_rem = int(rng.poisson(rate * (1.0 - q_s) * (1.0 - q_i) * dt_s))
    diag.pairs_generated += n_sig + n_su + n_io + n_rem
    diag.pairs_signal_detectable += n_sig + n_su
    diag.pairs_idler_only_detectable += n_io
    diag.pairs_both_detectable += n_both
    return sig_keys, idl_keys


def iter_click_buckets(config: SimulationConfig,
                       diag: Optional[SimDiagnostics] = None,
                       ) -> Iterator[Bucket]:
    """Yield (upper_edge_ps, sig_times, sig_darks, idl_times, idl_darks)
    per time bucket, in time order, dead-time filtered (one click per
    picosecond at least); sig_darks and idl_darks count the dark clicks
    among each channel's times.  Every click of the bucket satisfies
    t < upper_edge_ps, and later buckets hold no earlier clicks — ready
    for streaming consumers.

    Buckets partition the acquisition on the boundaries of its
    generation slices, slice_ps(config) wide (the last one keeps its
    closed upper edge at the span).  Each slice is sorted once, when
    generated; a bucket is the searchsorted cut of the slices whose
    clicks can reach it (its own and the two neighbours: no click may
    spill more than a quarter of the width out of its slice), merged
    when more than one contributes.  Each channel's dead time carries
    its last kept click from bucket to bucket, so the buckets together
    hold the clicks that one pass of the per-click dead-time rule over
    the whole run keeps.  A detector starts ready: its first click at
    t >= 0 is kept, however long its dead time.

    Only the unconsumed part of each slice is kept once a bucket is
    cut: the newest slice as a view, an older slice's spill tail as a
    copy.  A bucket's arrays may share storage with the slice it came
    from; a consumer that drops each bucket before asking for the
    next holds about two slices of clicks at a time.  Before any
    slice is drawn, a run whose one slice (all of a run shorter than
    slice_ps) expects more than _SLICE_CLICKS clicks, darks included,
    is refused with ValidationError.
    """
    diag = SimDiagnostics() if diag is None else diag
    span, link = config.span_ps(), config.link
    rate = link.signal.singles_hz + link.idler.singles_hz
    width = _slice_width(rate)
    clicks = rate * min(span, width) * 1e-12
    if clicks > _SLICE_CLICKS:
        raise ValidationError(
            f"~{clicks:.3g} expected clicks, darks included, in one "
            f"generation slice ({rate:.3g}/s over "
            f"{min(span, width) * 1e-12:g} s) exceed the engine's bound "
            "of 2**19 per slice; lower mu or the dark rates, add loss, "
            f"or shorten the acquisition below {_SLICE_CLICKS / rate:.3g} s")
    n_slices = max(1, -(-span // width))
    drift = _DriftWalk(config)
    pools: List[List[np.ndarray]] = []   # unconsumed [sig, idl] keys
    dead_s = int(round(config.detector_signal.dead_time_ps))
    dead_i = int(round(config.detector_idler.dead_time_ps))
    # a detector starts ready: any first click at t >= 0 is kept
    carry = [-max(dead_s, 1), -max(dead_i, 1)]
    empty = np.empty(0, np.int64)

    def cut(b: int) -> Bucket:
        # last bucket takes a closed upper edge so t == span survives
        last = b == n_slices - 1
        bhi = span + 1 if last else (b + 1) * width
        cuts = (max(b * width, 0) << 1, bhi << 1)
        out: list = []
        for ch, dead in enumerate((dead_s, dead_i)):
            pieces = []
            for n, pool in enumerate(pools, 1):
                key = pool[ch]
                i, j = (int(c) for c in key.searchsorted(cuts))
                if b == 0:                      # t < 0
                    diag.clicks_dropped_out_of_span += i
                if last:                        # t > span
                    diag.clicks_dropped_out_of_span += key.size - j
                if j > i:
                    pieces.append(key[i:j])
                # keep what later buckets need: the newest slice as a
                # view, an older one's spill tail as a copy so that its
                # storage can go
                if last:
                    pool[ch] = empty
                elif n == len(pools):
                    pool[ch] = key[j:]
                else:
                    pool[ch] = key[j:].copy()
            if len(pieces) > 1:
                key = np.concatenate(pieces)
                key.sort(kind="stable")         # merges the sorted runs
            else:
                key = pieces[0] if pieces else empty
            del pieces   # a merged bucket needs its slices no more
            # the bucket's key range is its own: filter it in place
            tt, n_dark, carry[ch] = _filter_clicks(key, dead, carry[ch])
            out.extend((tt, n_dark))
        pools[:] = [p for p in pools if p[0].size or p[1].size]
        return (bhi, *out)

    for k in range(n_slices):
        lo, hi = k * width, min(span, (k + 1) * width)
        pools.append(list(_gen_slice(config, link, k, lo, hi, width,
                                     drift, diag)))
        if k > 0:
            yield cut(k - 1)
    yield cut(n_slices - 1)


def run_simulation(config: SimulationConfig,
                   ) -> Tuple[ClickStream, ClickStream, SimDiagnostics]:
    """Materialize both click streams for the whole acquisition."""
    diag = SimDiagnostics()
    buckets = list(iter_click_buckets(config, diag))
    streams = [ClickStream(channel, np.concatenate([b[col] for b in buckets]),
                           config.span_ps(), sum(b[col + 1] for b in buckets))
               for channel, col in (("signal", 1), ("idler", 3))]
    for stream in streams:
        stream.assert_valid()
    return streams[0], streams[1], diag


# ---------------------------------------------------------------------------
# Click files
# ---------------------------------------------------------------------------

_EXPORT_MAGIC = "# fransonsim clicks v2"
# the header's keys, in the order they are written
_HEADER_KEYS = ("channel", "span_ps", "seed", "config_hash", "true_count",
                "dark_count")
_HEADER_BYTES = 256     # the text header's size: the body starts here


@contextlib.contextmanager
def _named(path) -> Iterator[None]:
    """A ValidationError or OSError raised inside names the file."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from None


@contextlib.contextmanager
def click_writer(path, channel: str, span_ps: int, seed: Optional[int] = None,
                 config_hash: str = "") -> Iterator[Callable[..., None]]:
    """Write one channel's clicks as a click file (v2) as a run yields
    them: a _HEADER_BYTES ASCII header, ``# fransonsim clicks v2`` and a
    ``# key: value`` line per _HEADER_KEYS padded with spaces to a last
    ``\\n``, over the clicks (strictly ascending ps) as little-endian
    int64s.  Yields append(times, dark_count), which checks a chunk
    against the clicks before it and writes it.  The header is blank, so
    refused, until a clean exit writes it; an exception removes the file.
    A header too long for 19-digit counts is refused before the open."""
    clicks, darks, last = 0, 0, -1

    def header(true_count: int, dark_count: int) -> bytes:
        values = (channel, span_ps, "" if seed is None else seed,
                  config_hash, true_count, dark_count)
        return (f"{_EXPORT_MAGIC}\n" + "".join(
            f"# {key}: {value}\n" for key, value in
            zip(_HEADER_KEYS, values))).encode("ascii")

    widest = len(header(10 ** 19 - 1, 10 ** 19 - 1))
    if widest >= _HEADER_BYTES:     # the padding ends in a newline
        raise ValidationError(f"{path}: the header takes up to {widest} "
                              f"bytes, more than its {_HEADER_BYTES - 1}")

    def append(times: np.ndarray, dark_count: int = 0) -> None:
        nonlocal clicks, darks, last
        with _named(path):
            ClickStream(channel, times, span_ps, dark_count).assert_valid()
            if times.size and times[0] <= last:
                raise ValidationError("click timestamps must be strictly "
                                      "increasing across appends")
            times.astype("<i8", copy=False).tofile(fh)
        clicks, darks = clicks + times.size, darks + dark_count
        last = int(times[-1]) if times.size else last

    with open(path, "wb") as fh:
        try:
            fh.write(b" " * (_HEADER_BYTES - 1) + b"\n")
            yield append
            fh.seek(0)
            fh.write(header(clicks - darks, darks).ljust(_HEADER_BYTES - 1)
                     + b"\n")
        except BaseException:       # an unfinished file: remove it
            with contextlib.suppress(OSError):
                os.remove(path)
            raise


def write_click_stream(stream: ClickStream, path, seed: Optional[int] = None,
                       config_hash: str = "") -> None:
    """click_writer's one-append case: stream as a click file."""
    with click_writer(path, stream.channel, stream.span_ps, seed,
                      config_hash) as append:
        append(stream.times_ps, stream.dark_count)


def _header_int(meta: Dict[str, str], key: str) -> int:
    text = meta.get(key)
    if text is None:
        raise ValidationError(f"no '# {key}:' header line")
    if not (text.isdigit() and len(text) <= 19 and int(text) < 2 ** 63):
        raise ValidationError(f"header {key}: {text[:40]!r} is not a "
                              f"non-negative int64")
    return int(text)


def read_click_stream(path) -> Tuple[ClickStream, Dict[str, str]]:
    """Read a file written by click_writer: the stream and the header as
    a dict of strings.  A fault raises ValidationError naming the file:
    a v1 or an unfinished file, a pipe (its body cannot be sized before
    it is read), a body not 8 bytes per click of the header's count,
    before the result is allocated, or a stream assert_valid refuses."""
    with open(path, "rb") as fh, _named(path):
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise ValidationError("not a regular file; a click file cannot "
                                  "be read from a pipe")
        raw = fh.read(_HEADER_BYTES)
        first = raw.partition(b"\n")[0]
        if first != _EXPORT_MAGIC.encode():
            prefix = b"# fransonsim clicks "
            version = first[len(prefix):][:20].decode("ascii", "replace")
            raise ValidationError(
                f"click file version {version!r}; only v2 is read"
                if first.startswith(prefix) else "not a fransonsim click file")
        if len(raw) < _HEADER_BYTES or raw[-1:] != b"\n":
            raise ValidationError(f"the header is not {_HEADER_BYTES} bytes "
                                  f"ending in \\n")
        try:
            _, *lines, padding, _ = raw.decode("ascii").split("\n")
        except UnicodeDecodeError:
            raise ValidationError("header is not ASCII") from None
        meta: Dict[str, str] = {}
        if padding.strip(" "):          # text in the padding: refused
            lines.append(padding)
        for line in lines:
            key, colon, value = line[1:].partition(":")
            if (line[:1] != "#" or not colon or key.strip() in meta
                    or key.strip() not in _HEADER_KEYS):
                raise ValidationError(
                    f"{line.strip()[:40]!r} is not a header line "
                    f"('# key: value', each key of {_HEADER_KEYS} once)")
            meta[key.strip()] = value.strip()
        span_ps = _header_int(meta, "span_ps")
        dark_count = _header_int(meta, "dark_count")
        rows = _header_int(meta, "true_count") + dark_count
        size = info.st_size - _HEADER_BYTES
        if size != 8 * rows:
            raise ValidationError(
                f"the header counts {rows} clicks (true_count + dark_count), "
                f"{8 * rows} bytes, but the body has {size}")
        times = np.empty(rows, "<i8")
        if fh.readinto(times) != size:
            raise ValidationError("the body changed while read")
        stream = ClickStream(meta.get("channel", "?"),
                             times.astype(np.int64, copy=False), span_ps,
                             dark_count)
        stream.assert_valid()
    return stream, meta
