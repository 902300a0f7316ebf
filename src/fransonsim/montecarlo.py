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
The acquisition span is cut into fixed 10-second generation slices.
Every (stage, slice) pair owns an independent child RNG stream,
derived from the master seed, so

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
from SimulationConfig.link, the derivation the closed forms share.

Timestamps are integer picoseconds end to end (exact sorting and
bit-stable merges); sub-ps structure is rounded at click assembly.
Each slice packs its clicks per channel into int64 keys
(t << 1) | is_dark and sorts them once, when it is generated.  A
streaming bucket is then a searchsorted cut of the (at most three)
slices whose clicks can reach it; when more than one contributes, a
stable sort merges the sorted pieces in linear time.

Memory model
------------
A run's working set is a small multiple of one slice's clicks, and
does not grow with the acquisition time:

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
  in place, _DRAW_CHUNK clicks at a time: past its dark labels (1 byte
  per click), no temporary grows with the bucket;
* a consumer that drops each bucket before asking for the next (as
  scenarios.measure_point does) therefore holds about two slices of
  clicks: the one being drawn and the rest of the one before it.
  Measured with tracemalloc: 25 MB for a back-to-back point of 7 s
  (2.6 M clicks in its one slice), with or without a 50 ns dead time,
  8.5 MB for a 100 km point of 30 s or of 300 s (0.37 M clicks per
  slice): ~10-24 bytes per click.  Before drawing, a run refuses more
  expected clicks per slice (slice_clicks: the closed form's singles,
  darks included) than _MAX_CLICKS_PER_SLICE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .budget import LinkModel, predict_rates
from .errors import ValidationError
from .physics import (AnalyzerSpec, ChannelSpec, CoincidenceWindowSpec,
                      DetectorSpec, SourceSpec)
from .tia import check_ascending

# Fixed generation-slice width.  Part of the sampling definition:
# changing it would change every drawn number, so it is a constant,
# not a knob.
SLICE_PS = 10_000_000_000_000  # 10 s

# Clicks may leave their generation slice by analyzer delay + timing
# spreads + drift.  Anything further than this is a config error.
_MAX_SPILL_PS = SLICE_PS // 4

# Per-slice click budget, darks included (memory guard): ~0.6-1.4 GB
# at the ~10-24 bytes per click of *Memory model*.
_MAX_CLICKS_PER_SLICE = 6.0e7

# Elements per step of the in-place passes over a slice (draws added
# to arrivals, rounding into keys, the click filter): bounds every
# temporary.  Chunked Generator draws reproduce the one-shot stream,
# so it is not part of the sampling definition.
_DRAW_CHUNK = 1 << 16

# (upper_edge_ps, sig_times, sig_dark, idl_times, idl_dark)
Bucket = Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_LAST_LINK: list = [((), (), None)]     # see SimulationConfig.link

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
        if not (1.0e6 <= self.walk_interval_ps < math.inf):
            # the walk is a *slow* drift; tiny intervals would also
            # blow up the per-slice step count
            raise ValidationError(
                "walk_interval_ps must be finite and >= 1e6 (1 us)")
        if float(self.walk_interval_ps) != int(self.walk_interval_ps):
            raise ValidationError("walk_interval_ps must be integer-valued")


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
        if self.span_ps() + _MAX_SPILL_PS >= 2 ** 62:
            raise ValidationError(
                f"acquisition_time_s={self.acquisition_time_s!r} is too long: "
                "its clicks packed as (t << 1) | is_dark would overflow int64")
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

    @cached_property
    def link(self) -> LinkModel:
        """budget.LinkModel of this config, derived on first read unless
        the last one derived read these very specs and acquisition time,
        as configs replaced in tia or master_seed alone do.  _LAST_LINK
        holds it as (key, specs, link), the specs keeping the key's ids
        live, and is replaced whole, so threads share it.  Not a field:
        asdict, hashing and config files never see it."""
        specs = (self.source, self.channel_signal, self.channel_idler,
                 self.analyzer_signal, self.analyzer_idler,
                 self.detector_signal, self.detector_idler, self.drift)
        key = (*map(id, specs), self.acquisition_time_s)
        last = _LAST_LINK[0]
        if last[0] != key:
            last = _LAST_LINK[0] = (key, specs, LinkModel.from_config(self))
        return last[2]


@dataclass
class ClickStream:
    """Sorted detector clicks for one channel over the acquisition."""

    channel: str
    times_ps: np.ndarray          # int64, strictly increasing
    span_ps: int
    true_count: int = 0
    dark_count: int = 0

    def assert_valid(self) -> None:
        t = self.times_ps
        if t.dtype != np.int64:
            raise ValidationError("click timestamps must be int64 ps")
        if t.size:
            if t[0] < 0 or t[-1] > self.span_ps:
                raise ValidationError(
                    f"clicks outside [0, span]: {t[0]}..{t[-1]} "
                    f"span={self.span_ps}")
            check_ascending(t, "click timestamps", strict=True)


@dataclass
class SimDiagnostics:
    """Per-run bookkeeping: generated pairs, per-stage survivors,
    click provenance."""

    pairs_generated: int = 0
    pairs_signal_detectable: int = 0
    pairs_idler_only_detectable: int = 0
    pairs_both_detectable: int = 0
    photon_clicks_signal: int = 0
    photon_clicks_idler: int = 0
    dark_clicks_signal: int = 0
    dark_clicks_idler: int = 0
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


def _add_normal(rng: np.random.Generator, sigma: float,
                arr: np.ndarray) -> None:
    """arr += Normal(0, sigma) draws, one per element, chunk by chunk."""
    if sigma > 0.0:
        for c in _chunks(arr.size):
            arr[c] += rng.normal(0.0, sigma, c.stop - c.start)


# ---------------------------------------------------------------------------
# Click filter: the detector's dead time, at least the digitizer's 1 ps
# ---------------------------------------------------------------------------

def _filter_clicks(key: np.ndarray, dead_ps: int, carry: int
                   ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Unpack one channel's sorted packed keys (t << 1) | is_dark and
    apply the detector's non-paralyzable dead time: returns (times,
    is_dark, last kept time).  carry is the last kept click of an
    earlier bucket (or a start value), so it lies strictly below the
    first click.

    The dead time is at least 1 ps: the digitizer stamps integer
    picoseconds, so of two clicks in one picosecond only the first is
    kept, the photon when a photon and a dark share it (its key sorts
    first).  The last kept click is never later than a click's
    predecessor, so a click dead time or more after its predecessor is
    always kept; only the closer ones take the sequential rule, each
    run of them starting from the kept click just before it.

    Works in place, _DRAW_CHUNK clicks at a time: key's storage becomes
    the times and kept clicks move down over dropped ones, so no
    temporary grows with the bucket."""
    # clicks lie in [0, 2**62): a longer dead time acts the same
    dead = min(max(dead_ps, 1), 2 ** 62)
    d = np.empty(key.size, dtype=bool)
    np.bitwise_and(key, 1, out=d, casting="unsafe")
    t = key
    t >>= 1
    # n: clicks kept so far; before: the click before this chunk;
    # prev: the index of the last close click
    n, last, before, prev = 0, carry, carry, -2
    for c in _chunks(t.size):
        keep = np.empty(c.stop - c.start, dtype=bool)
        keep[0] = int(t[c.start]) - before >= dead
        if dead == 1:   # no close click is kept: drop repeats alone
            np.not_equal(t[c][1:], t[c][:-1], out=keep[1:])
        else:
            np.greater_equal(np.diff(t[c]), dead, out=keep[1:])
            for j in np.flatnonzero(~keep).tolist():
                i = c.start + j
                if i != prev + 1:               # its predecessor was kept
                    last = int(t[i - 1]) if j else before
                if int(t[i]) - last >= dead:
                    keep[j] = True
                    last = int(t[i])
                prev = i
        before = int(t[c.stop - 1])
        k = int(np.count_nonzero(keep))
        if n < c.start or k < keep.size:      # else it stays where it is
            t[n:n + k] = t[c][keep]
            d[n:n + k] = d[c][keep]
        n += k
    return t[:n], d[:n], int(t[n - 1]) if n else carry


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
            start = self.walk[-1]
            self.walk = np.concatenate(([start], start + np.cumsum(steps)))

    def apply(self, channel: str, arrivals: np.ndarray) -> None:
        """Shift a channel's photon arrivals in place: the walk is
        read at each arrival before it is shifted (an arrival outside
        the slice reads the walk's nearer end), then the offset."""
        d = self.drift
        if not d.enabled or channel != d.channel:
            return
        if d.walk_step_ps > 0.0:
            itv, last = int(d.walk_interval_ps), self.walk.size - 1
            for c in _chunks(arrivals.size):
                k = arrivals[c].astype(np.int64) // itv - self.first
                arrivals[c] += self.walk[np.clip(k, 0, last)]
        arrivals += d.offset_ps


def slice_clicks(config: SimulationConfig) -> float:
    """Expected clicks, photons and darks of both channels, in one
    generation slice of config's run (a run shorter than a slice is
    its only slice): predict_rates' singles, which a slice draws."""
    rates = predict_rates(config)
    dt_s = min(config.span_ps(), SLICE_PS) * 1e-12
    return (rates.singles_signal_hz + rates.singles_idler_hz) * dt_s


def _pack_keys(label: str, times: np.ndarray, n_photons: int,
               lo: int, hi: int) -> np.ndarray:
    """Round times (photons, then darks) in place into sorted int64
    packed keys (t << 1) | is_dark, in the same storage."""
    key = times.view(np.int64)
    for c in _chunks(times.size):
        key[c] = np.rint(times[c])
    key <<= 1
    key[n_photons:] |= 1
    key.sort()
    if key.size and (int(key[0] >> 1) < lo - _MAX_SPILL_PS
                     or int(key[-1] >> 1) >= hi + _MAX_SPILL_PS):
        raise ValidationError(
            f"{label} clicks spilled more than {_MAX_SPILL_PS} ps "
            "out of their generation slice (drift too large?)")
    return key


def _gen_slice(config: SimulationConfig, slice_idx: int, lo: int, hi: int,
               drift: _DriftWalk, diag: SimDiagnostics,
               ) -> Tuple[np.ndarray, np.ndarray]:
    """All click candidates whose generating process lives in
    [lo, hi), per channel as one sorted int64 array of packed keys
    (t << 1) | is_dark: returns (sig_keys, idl_keys).  Rates, survival,
    peak weights and timing widths are config.link's.

    Each channel's clicks are built in one float buffer that ends as
    its key array: idler partners first, then the channel's
    partner-less photon clicks, then its darks."""
    link = config.link
    dt_s = (hi - lo) * 1e-12
    rate = link.pair_rate_hz
    q_s, q_i, (w_c, w_e, w_l) = link.signal.q, link.idler.q, link.weights
    w_pair = w_c + (w_e + w_l)
    tau = config.analyzer_signal.delay_ps
    seed = config.master_seed
    drift.advance(slice_idx, lo, hi)

    def uniform_times(rng: np.random.Generator, out: np.ndarray) -> None:
        rng.random(out=out)
        out *= hi - lo
        out += lo

    def channel(stage: int, photon_hz: float, dark_stage: int,
                dark_hz: float, head: int) -> Tuple[np.ndarray, int]:
        # Poisson photon clicks and darks, uniform on [lo, hi), after
        # `head` slots left for partners; returns (buffer, n_photons)
        rng = _stream(seed, stage, slice_idx)
        n_ph = head + int(rng.poisson(photon_hz * dt_s))
        dark = _stream(seed, dark_stage, slice_idx) if dark_hz > 0.0 \
            else None
        n_dark = int(dark.poisson(dark_hz * dt_s)) if dark else 0
        buf = np.empty(n_ph + n_dark)
        uniform_times(rng, buf[head:n_ph])
        if dark:
            uniform_times(dark, buf[n_ph:])
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
    _add_normal(rng, math.hypot(link.signal.sigma_arrival_ps,
                                link.idler.sigma_arrival_ps), pair)

    drift.apply("signal", sig[:n_sig])
    drift.apply("idler", idl[:n_idl])
    sig_keys = _pack_keys("signal", sig, n_sig, lo, hi)
    idl_keys = _pack_keys("idler", idl, n_idl, lo, hi)

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
    """Yield (upper_edge_ps, sig_times, sig_dark, idl_times, idl_dark)
    per time bucket, in time order, dead-time filtered (one click per
    picosecond at least).  Every click of the bucket satisfies
    t < upper_edge_ps, and later buckets hold no earlier clicks — ready
    for streaming consumers.

    Buckets partition the acquisition on SLICE_PS boundaries (the
    last one keeps its closed upper edge at the span).  Each slice is
    sorted once, when generated; a bucket is the searchsorted cut of
    the slices whose clicks can reach it (its own and the two
    neighbours), merged when more than one contributes.  Each
    channel's dead time carries its last kept click from bucket to
    bucket, so the buckets together hold the clicks that one pass of
    the per-click dead-time rule over the whole run keeps.  A detector
    starts ready: its first click at t >= 0 is kept, however long its
    dead time.

    Only the unconsumed part of each slice is kept once a bucket is
    cut: the newest slice as a view, an older slice's spill tail as a
    copy.  A bucket's arrays may share storage with the slice it came
    from; a consumer that drops each bucket before asking for the
    next holds about two slices of clicks at a time.
    """
    if diag is None:
        diag = SimDiagnostics()
    span = config.span_ps()
    expected = slice_clicks(config)
    if expected > _MAX_CLICKS_PER_SLICE:
        raise ValidationError(
            f"~{expected:.3g} clicks per generation slice, darks included,"
            " exceed the engine budget; lower mu or the dark rates, add "
            "loss, or shorten the acquisition")
    n_slices = max(1, -(-span // SLICE_PS))
    drift = _DriftWalk(config)
    pools: List[List[np.ndarray]] = []   # unconsumed [sig, idl] keys
    dead_s = int(round(config.detector_signal.dead_time_ps))
    dead_i = int(round(config.detector_idler.dead_time_ps))
    # a detector starts ready: any first click at t >= 0 is kept
    carry = {"signal": -max(dead_s, 1), "idler": -max(dead_i, 1)}
    empty = np.empty(0, np.int64)

    def cut(b: int) -> Bucket:
        # last bucket takes a closed upper edge so t == span survives
        last = b == n_slices - 1
        bhi = span + 1 if last else (b + 1) * SLICE_PS
        cuts = (max(b * SLICE_PS, 0) << 1, bhi << 1)
        out: List[np.ndarray] = []
        for ch, channel, dead in ((0, "signal", dead_s),
                                  (1, "idler", dead_i)):
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
            tt, dd, carry[channel] = _filter_clicks(key, dead,
                                                    carry[channel])
            n_dark = int(np.count_nonzero(dd))
            if channel == "signal":
                diag.photon_clicks_signal += dd.size - n_dark
                diag.dark_clicks_signal += n_dark
            else:
                diag.photon_clicks_idler += dd.size - n_dark
                diag.dark_clicks_idler += n_dark
            out.extend((tt, dd))
        pools[:] = [p for p in pools if p[0].size or p[1].size]
        return (bhi, out[0], out[1], out[2], out[3])

    for k in range(n_slices):
        lo, hi = k * SLICE_PS, min(span, (k + 1) * SLICE_PS)
        pools.append(list(_gen_slice(config, k, lo, hi, drift, diag)))
        if k > 0:
            yield cut(k - 1)
    yield cut(n_slices - 1)


def streams_from_buckets(config: SimulationConfig,
                         buckets: Sequence[Bucket],
                         ) -> Tuple[ClickStream, ClickStream]:
    """Both channels' click streams from every bucket that
    iter_click_buckets yielded for config, in order."""
    span = config.span_ps()

    def assemble(channel, col):
        t = np.concatenate([b[col] for b in buckets])
        d = np.concatenate([b[col + 1] for b in buckets])
        stream = ClickStream(channel=channel, times_ps=t, span_ps=span,
                             true_count=int((~d).sum()),
                             dark_count=int(d.sum()))
        stream.assert_valid()
        return stream

    return assemble("signal", 1), assemble("idler", 3)


def run_simulation(config: SimulationConfig,
                   ) -> Tuple[ClickStream, ClickStream, SimDiagnostics]:
    """Materialize both click streams for the whole acquisition."""
    diag = SimDiagnostics()
    buckets = list(iter_click_buckets(config, diag))
    sig, idl = streams_from_buckets(config, buckets)
    return sig, idl, diag


# ---------------------------------------------------------------------------
# Click-stream text export
# ---------------------------------------------------------------------------

_EXPORT_MAGIC = "# fransonsim clicks v1"
_INT64_MAX = np.iinfo(np.int64).max
# rows formatted per write: bounds the writer's scratch (44 B per row)
_WRITE_CHUNK_ROWS = 65_536
# body bytes parsed per step of the reader: bounds its temporaries
_READ_BLOCK_BYTES = 1 << 18
# 10**1 .. 10**18: in an ascending chunk, the rows below each power end
# one run of equal digit counts
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
# "0000" .. "9999" as four-byte units, copied whole into the text, so
# no byte order is assumed
_DIGITS4 = np.stack(
    np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4,
                indexing="ij"), axis=-1).reshape(-1, 4).view(np.uint32).ravel()


def _format_rows(values: np.ndarray, digits: int, scratch,
                 text: np.ndarray) -> np.ndarray:
    """Decimal text of non-negative values that all have `digits`
    digits, one per line, as a view of text: four digits per pass via
    _DIGITS4 from the right, then one at a time."""
    m, width = values.size, digits + 1
    out = text[:m * width]

    def column(offset: int, dtype) -> np.ndarray:
        return np.ndarray((m,), dtype, buffer=out, offset=offset,
                          strides=(width,))

    column(digits, np.uint8)[...] = ord("\n")
    q, quotient, rem = (a[:m] for a in scratch)
    q[...] = values
    end = digits
    while end:
        base, step = (10_000, 4) if end >= 4 else (10, 1)
        np.floor_divide(q, base, out=quotient)
        np.multiply(quotient, base, out=rem)
        np.subtract(q, rem, out=rem)
        end -= step
        if step == 4:
            np.take(_DIGITS4, rem, out=column(end, np.uint32))
        else:
            np.add(rem, ord("0"), out=column(end, np.uint8),
                   casting="unsafe")
        q, quotient = quotient, q
    return out


def write_click_stream(stream: ClickStream, path, seed: Optional[int] = None,
                       config_hash: str = "") -> None:
    """Write one channel's clicks as a text file.

    Format (ASCII, every line ends in ``\\n``): the line
    ``# fransonsim clicks v1``, then ``# key: value`` header lines for
    channel, span_ps, seed, config_hash, true_count and dark_count,
    then the body: one timestamp in integer picoseconds per line, in
    plain decimal (digits only, no sign, no leading zero), strictly
    ascending.  The body is formatted _WRITE_CHUNK_ROWS rows at a
    time, so the writer's memory does not grow with the stream.
    """
    stream.assert_valid()
    header = (f"{_EXPORT_MAGIC}\n"
              f"# channel: {stream.channel}\n"
              f"# span_ps: {stream.span_ps}\n"
              f"# seed: {'' if seed is None else seed}\n"
              f"# config_hash: {config_hash}\n"
              f"# true_count: {stream.true_count}\n"
              f"# dark_count: {stream.dark_count}\n").encode("ascii")
    times = stream.times_ps
    rows = min(times.size, _WRITE_CHUNK_ROWS)
    scratch = [np.empty(rows, np.int64) for _ in range(3)]
    text = np.empty(rows * 20, np.uint8)   # 19 digits + newline at most
    with open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, times.size, _WRITE_CHUNK_ROWS):
            chunk = times[lo:lo + _WRITE_CHUNK_ROWS]
            # ascending, so each digit count is one run of rows
            ends = np.searchsorted(chunk, _POW10).tolist() + [chunk.size]
            start = 0
            for digits, end in enumerate(ends, 1):
                if end > start:
                    fh.write(_format_rows(chunk[start:end], digits,
                                          scratch, text))
                    start = end


def _line_error(path, lines: bytes, first_line: int
                ) -> Optional[ValidationError]:
    """The error for the first malformed line of `lines` (each ending
    in a newline, the first being line `first_line` of the file), or
    None when every line holds a plain decimal int64."""
    for k, line in enumerate(lines.split(b"\n")[:-1]):
        if not line:
            problem = "empty line"
        elif not line.isdigit():
            text = repr(line[:40])[1:]          # b'...' without the b
            problem = f"{text} is not a non-negative decimal integer"
        elif line[0] == ord("0") and len(line) > 1:
            problem = f"{line[:40].decode()!r} has a leading zero"
        elif len(line) > 19 or int(line) > _INT64_MAX:
            problem = f"{line[:40].decode()} is beyond int64"
        else:
            continue
        return ValidationError(f"{path}: line {first_line + k}: {problem}")
    return None


def _parse_lines(path, lines: bytes, first_line: int) -> np.ndarray:
    """int64 values of newline-terminated body lines, parsed in C by
    np.fromstring.  Cheap byte tests pass every well-formed block; a
    block that fails one, or whose parse comes out short or holds the
    int64 maximum (where fromstring saturates), goes to _line_error
    for the exact line and reason."""
    b = np.frombuffer(lines, np.uint8)
    newline = b == ord("\n")
    n = int(np.count_nonzero(newline))
    suspect = (int(b.max()) > ord("9")
               or np.count_nonzero(b < ord("0")) != n
               # empty line or leading zero ("0" alone is only valid
               # as the first line, so any such line is checked)
               or b[0] <= ord("0")
               or bool(np.any(newline[:-1] & (b[1:] <= ord("0")))))
    del newline
    if suspect:
        err = _line_error(path, lines, first_line)
        if err is not None:
            raise err
    values = np.fromstring(lines, np.int64, sep="\n")
    if values.size != n or np.any(values == _INT64_MAX):
        err = _line_error(path, lines, first_line)
        if err is not None:
            raise err
        if values.size != n:
            raise ValidationError(f"{path}: unreadable body near line "
                                  f"{first_line}")
    return values


def _header_int(path, meta: Dict[str, str], key: str,
                default: Optional[int] = None) -> int:
    text = meta.get(key)
    if text is None:
        if default is None:
            raise ValidationError(f"{path}: no '# {key}:' header line")
        return default
    if not (text.isdigit() and len(text) <= 19 and int(text) <= _INT64_MAX):
        raise ValidationError(f"{path}: header {key}: {text[:40]!r} is "
                              f"not a non-negative int64")
    return int(text)


def read_click_stream(path) -> Tuple[ClickStream, Dict[str, str]]:
    """Read a file written by write_click_stream; returns the stream
    and the header as a dict of strings.

    The first line must be ``# fransonsim clicks v1``; the ``#`` lines
    after it are the header, of which ``span_ps`` is required and
    ``span_ps``, ``true_count`` and ``dark_count`` must be plain
    decimal non-negative int64s.  Every later line is body: one non-negative int64 in
    plain decimal (ASCII digits, no sign, no leading zero) per
    ``\\n``-terminated line, strictly ascending and within
    [0, span_ps]; the last line may lack its ``\\n``.  Anything else
    (blank, whitespace, ``#`` or CRLF lines in the body, non-ASCII
    bytes, values beyond int64) raises ValidationError naming the file
    and, in the body, the line.  The body is read in blocks of
    _READ_BLOCK_BYTES: past the returned array (8 B per row) the
    reader holds a few blocks at a time.
    """
    meta: Dict[str, str] = {}
    with open(path, "rb") as fh:
        first = fh.readline(len(_EXPORT_MAGIC) + 1)
        if first.rstrip(b"\n") != _EXPORT_MAGIC.encode():
            raise ValidationError(f"{path}: not a fransonsim click file")
        line_no = 1
        while fh.peek(1)[:1] == b"#":
            line_no += 1
            try:
                line = fh.readline().decode("ascii")
            except UnicodeDecodeError:
                raise ValidationError(f"{path}: line {line_no}: header "
                                      f"is not ASCII") from None
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        span_ps = _header_int(path, meta, "span_ps")
        true_count = _header_int(path, meta, "true_count", 0)
        dark_count = _header_int(path, meta, "dark_count", 0)

        # first pass: count the rows, so the result is allocated once
        body = fh.tell()
        rows, last = 0, b"\n"
        for block in iter(lambda: fh.read(_READ_BLOCK_BYTES), b""):
            rows += int(np.count_nonzero(
                np.frombuffer(block, np.uint8) == ord("\n")))
            last = block[-1:]
        rows += last != b"\n"           # a last line without its \n
        times = np.empty(rows, np.int64)

        # second pass: parse whole lines, carrying a cut one over
        fh.seek(body)
        filled, carry = 0, b""
        line_no += 1                    # the next line to parse
        while True:
            data = fh.read(_READ_BLOCK_BYTES)
            block = carry + data
            if not data:                # the last line may lack its \n
                if not block:
                    break
                block += b"\n"
            cut = block.rfind(b"\n") + 1
            block, carry = block[:cut], block[cut:]
            if block:
                values = _parse_lines(path, block, line_no)
                if filled + values.size <= rows:
                    times[filled:filled + values.size] = values
                filled += values.size
                line_no += values.size
            if len(carry) > 19:         # no int64 needs 20 digits
                raise _line_error(path, carry + b"\n", line_no)
            if not data:
                break
    if filled != rows:
        raise ValidationError(f"{path}: file changed while being read")
    stream = ClickStream(channel=meta.get("channel", "?"), times_ps=times,
                         span_ps=span_ps, true_count=true_count,
                         dark_count=dark_count)
    try:
        stream.assert_valid()
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return stream, meta
