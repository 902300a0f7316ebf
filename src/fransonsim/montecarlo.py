"""Seeded event-level Monte Carlo of the full entanglement link.

The chain being simulated, per arm:

    pair source -> lumped pre-fiber loss -> fiber (loss + dispersion)
    -> unbalanced MZI (insertion loss, short/long split, phase)
    -> detector (efficiency, Gaussian jitter, darks, dead time)

Interference is handled by *joint-outcome sampling*: the analytic
four-outcome law of ``franson_bin_probabilities`` fixes the joint
(port, short/long) distribution of a coincident pair, and single
surviving photons follow its phase-free marginal (uniform port and
branch).  Per-photon independent path choices cannot reproduce
two-photon fringes without also creating single-photon fringes, so
they are never used.

Reproducibility model
---------------------
The acquisition span is cut into fixed 10-second generation slices.
Every (stage, slice) pair owns an independent child RNG stream,
derived from the master seed, so

* identical configs give bit-identical click streams,
* slices can be generated in any order (results are order-free), and
* the signal stream never consumes idler-stage randomness: changing
  idler-side parameters cannot perturb signal clicks.

To keep the per-event cost sane at ~1e9 pairs/s, pairs are generated
directly in three exact Poisson classes instead of literally thinning
every emission: signal-detectable pairs at R*q_s (each one also
idler-detectable with probability q_i, decided on the idler stream),
idler-only-detectable pairs at R*q_i*(1-q_s), and an undetectable
remainder that is only counted.  Here q = (arm transmission) x
(quantum efficiency).  This decomposition is distribution-exact for
independent thinning, and efficiency folding commutes with the MZI
because port selection is independent of survival.  q, R and every
timing width come from budget.LinkModel, the derivation the closed
forms share.

Timestamps are integer picoseconds end to end (exact sorting and
bit-stable merges); sub-ps structure is rounded at click assembly.
Each slice packs its clicks per channel into int64 keys
(t << 1) | is_dark and sorts them once, when it is generated.  A
streaming bucket is then a searchsorted cut of the (at most three)
slices whose clicks can reach it; when more than one contributes, a
stable sort merges the sorted pieces in linear time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .budget import LinkModel
from .errors import ValidationError
from .physics import (AnalyzerSpec, ChannelSpec, CoincidenceWindowSpec,
                      DetectorSpec, SourceSpec)

# Fixed generation-slice width.  Part of the sampling definition:
# changing it would change every drawn number, so it is a constant,
# not a knob.
SLICE_PS = 10_000_000_000_000  # 10 s

# Clicks may leave their generation slice by analyzer delay + timing
# spreads + drift.  Anything further than this is a config error.
_MAX_SPILL_PS = SLICE_PS // 4

# Per-slice event budget (memory guard, ~GB scale if exceeded).
_MAX_EVENTS_PER_SLICE = 1.2e8

# (upper_edge_ps, sig_times, sig_dark, idl_times, idl_dark)
Bucket = Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

# Stage ids for per-(stage, slice) RNG streams.
_ST_SIGNAL = 0        # signal-class count, outcomes, times, spreads
_ST_IDLER_COND = 1    # idler-detectable thinning + conditional outcome
_ST_IDLER_ONLY = 2    # idler-only class
_ST_SIGNAL_JITTER = 3
_ST_IDLER_JITTER = 4
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
    ``walk_interval_ps``.  The walk is evaluated at the pair's
    emission time — it models fiber-delay drift on millisecond and
    slower scales, static over a photon's flight.  Dark counts are
    detector-local and are not displaced.
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
            if np.any(np.diff(t) <= 0):
                raise ValidationError("click timestamps must be strictly "
                                      "increasing")


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


# ---------------------------------------------------------------------------
# Click merge: dedupe and dead time
# ---------------------------------------------------------------------------

def _unpack_dedupe(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unpack sorted packed keys (t << 1) | is_dark into (times,
    is_dark), keeping the first click of each picosecond: the photon,
    when a photon and a dark share one (digitizer resolution)."""
    t = key >> 1
    d = (key & 1).astype(bool)
    if t.size > 1:
        keep = np.empty(t.size, dtype=bool)
        keep[0] = True
        np.not_equal(t[1:], t[:-1], out=keep[1:])
        if not keep.all():
            t, d = t[keep], d[keep]
    return t, d


def _dead_time_filter(times: np.ndarray, is_dark: np.ndarray,
                      dead_ps: int, carry_last: int
                      ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Non-paralyzable dead time: drop clicks within dead_ps after an
    accepted click.  times is sorted and carry_last (the previous
    accepted timestamp, or a large negative sentinel) is <= times[0].

    The last accepted click is then never later than a click's
    predecessor, so a click dead_ps or more after its predecessor is
    always kept.  Only the clicks closer than that to their
    predecessor take the sequential rule, each run of them starting
    from the kept click just before it (or from carry_last).
    """
    if dead_ps <= 0 or times.size == 0:
        last = int(times[-1]) if times.size else carry_last
        return times, is_dark, last
    keep = np.empty(times.size, dtype=bool)
    keep[0] = int(times[0]) - carry_last >= dead_ps
    np.greater_equal(np.diff(times), dead_ps, out=keep[1:])
    close = np.flatnonzero(~keep)
    accepted = []
    last = carry_last
    prev = -2
    for i, t in zip(close.tolist(), times[close].tolist()):
        if i != prev + 1 and i > 0:
            last = int(times[i - 1])
        if t - last >= dead_ps:
            accepted.append(i)
            last = t
        prev = i
    keep[accepted] = True
    kept = times[keep]
    last = int(kept[-1]) if kept.size else carry_last
    return kept, is_dark[keep], last


# ---------------------------------------------------------------------------
# Fast engine: per-slice generation
# ---------------------------------------------------------------------------

class _DriftWalk:
    """Evaluates offset + random walk at emission times, slice by
    slice, with deterministic per-slice increments."""

    def __init__(self, config: SimulationConfig):
        d = config.drift
        self.active = d.enabled
        self.channel = d.channel
        self.offset = d.offset_ps
        self.step = d.walk_step_ps
        self.itv = int(d.walk_interval_ps)
        self.seed = config.master_seed
        self._carry = 0.0            # walk value before this slice's steps
        self._values = np.empty(0)   # cumulative values of slice steps
        self._m_start = 0

    def advance(self, slice_idx: int, lo: int, hi: int) -> None:
        if not (self.active and self.step > 0.0):
            return
        m_start = lo // self.itv + 1
        m_end = (hi - 1) // self.itv  # inclusive
        n = max(0, m_end - m_start + 1)
        rng = _stream(self.seed, _ST_DRIFT, slice_idx)
        inc = rng.normal(0.0, self.step, n)
        if self._values.size:
            self._carry = float(self._values[-1])
        self._values = self._carry + np.cumsum(inc)
        self._m_start = m_start

    def apply(self, channel: str, arrivals: np.ndarray,
              *emission_parts: np.ndarray) -> None:
        """Shift arrivals in place; the emission_parts, concatenated,
        are the arrivals' emission times."""
        if not self.active or channel != self.channel:
            return
        arrivals += self.offset
        if self.step > 0.0 and arrivals.size:
            emission_ps = np.concatenate(emission_parts)
            pos = (emission_ps.astype(np.int64) // self.itv) - self._m_start
            vals = np.where(pos < 0, self._carry,
                            self._values[np.clip(pos, 0, None)]
                            if self._values.size else self._carry)
            arrivals += vals


def _require_slice_budget(link: LinkModel, dt_s: float) -> None:
    q_s, q_i = link.signal.q, link.idler.q
    expected = link.pair_rate_hz * dt_s * (q_s + q_i * (1.0 - q_s))
    if expected > _MAX_EVENTS_PER_SLICE:
        raise ValidationError(
            f"~{expected:.3g} detectable pairs per generation slice "
            "exceeds the engine budget; lower mu, add loss, or shorten "
            "the acquisition")


def _gen_slice(config: SimulationConfig, link: LinkModel, slice_idx: int,
               lo: int, hi: int, drift: _DriftWalk, diag: SimDiagnostics,
               ) -> Tuple[np.ndarray, np.ndarray]:
    """All click candidates whose generating process lives in
    [lo, hi), per channel as one sorted int64 array of packed keys
    (t << 1) | is_dark: returns (sig_keys, idl_keys)."""
    width = hi - lo
    dt_s = width * 1e-12
    rate = link.pair_rate_hz
    q_s, q_i = link.signal.q, link.idler.q
    x = link.x
    # float: uint8 branch codes times an int delay would stay uint8
    tau4 = float(config.analyzer_signal.delay_ps)
    sig_int = link.signal.sigma_intrinsic_ps
    exc_s, exc_i = link.signal.sigma_excess_ps, link.idler.sigma_excess_ps
    drift.advance(slice_idx, lo, hi)

    def uniform_times(rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        u *= width
        u += lo
        return u

    def add_spread(rng: np.random.Generator, exc: float,
                   arr: np.ndarray) -> None:
        # arr += (intrinsic + dispersion), the spreads summed first:
        # this float order is part of the drawn numbers
        n = arr.size
        if sig_int > 0.0:
            eps = rng.normal(0.0, sig_int, n)
            if exc > 0.0:
                eps += rng.normal(0.0, exc, n)
            arr += eps
        elif exc > 0.0:
            arr += rng.normal(0.0, exc, n)

    # --- stage: signal-detectable class ---------------------------------
    # Random-mask selections go through index lists (flatnonzero, then
    # a gather): numpy compacts by a boolean mask several times slower.
    rng = _stream(config.master_seed, _ST_SIGNAL, slice_idx)
    n_s = int(rng.poisson(rate * q_s * dt_s))
    pb_s = rng.integers(0, 4, size=n_s, dtype=np.uint8)
    port_m_s = (pb_s & 1) == 0
    branch_s = pb_s >> 1                          # 0 short, 1 long
    i_m = np.flatnonzero(port_m_s)
    # emission times only where a signal click can exist; the
    # idler-conditional stage draws times for its own orphans
    t0_m = uniform_times(rng, i_m.size)
    arr_sig = branch_s[i_m] * tau4
    arr_sig += t0_m
    add_spread(rng, exc_s, arr_sig)

    # --- stage: idler side of signal-class pairs ------------------------
    rng_ic = _stream(config.master_seed, _ST_IDLER_COND, slice_idx)
    both = rng_ic.random(n_s) < q_i
    i_b = np.flatnonzero(both)
    n_b = i_b.size
    b_monitored = port_m_s[i_b]
    i_bm = np.flatnonzero(b_monitored)
    i_bo = np.flatnonzero(~b_monitored)
    # emission times for both-pairs whose signal went to the
    # unmonitored port (no signal click exists to anchor them)
    t0_orphan = uniform_times(rng_ic, i_bo.size)
    # conditional idler outcome given the signal's (port, branch):
    # same branch with prob 1/2; if same, idler takes the monitored
    # port with prob (1 +/- x)/2 (+ iff signal was monitored); if
    # opposite, ports are uncorrelated.
    same = rng_ic.random(n_b) < 0.5
    pm = np.where(b_monitored, (1.0 + x) / 2.0, (1.0 - x) / 2.0)
    u_port = rng_ic.random(n_b)
    i_k = np.flatnonzero(np.where(same, u_port < pm, u_port < 0.5))
    sig_branch_b = branch_s[i_b]
    idl_branch = np.where(same, sig_branch_b, 1 - sig_branch_b)
    # emission times of both-pairs: monitored-signal ones were drawn
    # in the signal stage (in signal-index order), orphans here
    t0_b = np.empty(n_b)
    t0_b[i_bm] = t0_m[np.flatnonzero(both[i_m])]
    t0_b[i_bo] = t0_orphan
    t0_idl_pair = t0_b[i_k]
    n_ib = i_k.size

    # --- stage: idler-only class ----------------------------------------
    rng_io = _stream(config.master_seed, _ST_IDLER_ONLY, slice_idx)
    n_io = int(rng_io.poisson(rate * q_i * (1.0 - q_s) * dt_s))
    pb_io = rng_io.integers(0, 4, size=n_io, dtype=np.uint8)
    i_iom = np.flatnonzero((pb_io & 1) == 0)

    # idler arrivals, pair class then idler-only class, in one array;
    # each class draws its spreads from its own stream
    arr_idl = np.empty(n_ib + i_iom.size)
    arr_pair, arr_only = arr_idl[:n_ib], arr_idl[n_ib:]
    np.multiply(idl_branch[i_k], tau4, out=arr_pair)
    arr_pair += t0_idl_pair
    add_spread(rng_ic, exc_i, arr_pair)
    t0_io = uniform_times(rng_io, i_iom.size)
    np.multiply(pb_io[i_iom] >> 1, tau4, out=arr_only)
    arr_only += t0_io
    add_spread(rng_io, exc_i, arr_only)

    # --- drift (photon arrivals of one channel, darks untouched) --------
    drift.apply("signal", arr_sig, t0_m)
    drift.apply("idler", arr_idl, t0_idl_pair, t0_io)

    # --- detector jitter --------------------------------------------------
    jit_s = link.signal.sigma_jitter_ps
    if jit_s > 0.0 and arr_sig.size:
        rng = _stream(config.master_seed, _ST_SIGNAL_JITTER, slice_idx)
        arr_sig += rng.normal(0.0, jit_s, arr_sig.size)
    jit_i = link.idler.sigma_jitter_ps
    if jit_i > 0.0 and arr_idl.size:
        rng = _stream(config.master_seed, _ST_IDLER_JITTER, slice_idx)
        arr_idl += rng.normal(0.0, jit_i, arr_idl.size)

    # --- dark counts -------------------------------------------------------
    def darks(stage: int, rate_hz: float) -> np.ndarray:
        if rate_hz <= 0.0:
            return np.empty(0)
        rng = _stream(config.master_seed, stage, slice_idx)
        return uniform_times(rng, rng.poisson(rate_hz * dt_s))

    dk_s = darks(_ST_SIGNAL_DARKS, config.detector_signal.dark_rate_hz)
    dk_i = darks(_ST_IDLER_DARKS, config.detector_idler.dark_rate_hz)

    # --- diagnostics ---------------------------------------------------------
    rng = _stream(config.master_seed, _ST_REMAINDER, slice_idx)
    n_rem = int(rng.poisson(rate * (1.0 - q_s) * (1.0 - q_i) * dt_s))
    diag.pairs_generated += n_s + n_io + n_rem
    diag.pairs_signal_detectable += n_s
    diag.pairs_idler_only_detectable += n_io
    diag.pairs_both_detectable += n_b

    def packed_keys(label: str, photons: np.ndarray,
                    dark: np.ndarray) -> np.ndarray:
        key = np.empty(photons.size + dark.size, dtype=np.int64)
        np.rint(photons, out=key[:photons.size], casting="unsafe")
        np.rint(dark, out=key[photons.size:], casting="unsafe")
        key <<= 1
        key[photons.size:] |= 1
        key.sort()
        if key.size and (int(key[0] >> 1) < lo - _MAX_SPILL_PS
                         or int(key[-1] >> 1) >= hi + _MAX_SPILL_PS):
            raise ValidationError(
                f"{label} clicks spilled more than {_MAX_SPILL_PS} ps "
                "out of their generation slice (drift too large?)")
        return key

    return (packed_keys("signal", arr_sig, dk_s),
            packed_keys("idler", arr_idl, dk_i))


def iter_click_buckets(config: SimulationConfig,
                       diag: Optional[SimDiagnostics] = None,
                       ) -> Iterator[Bucket]:
    """Yield (upper_edge_ps, sig_times, sig_dark, idl_times, idl_dark)
    per time bucket, in time order, deduped and dead-time filtered.
    Every click of the bucket satisfies t < upper_edge_ps, and later
    buckets hold no earlier clicks — ready for streaming consumers.

    Buckets partition the acquisition on SLICE_PS boundaries (the
    last one keeps its closed upper edge at the span); concatenating
    them reproduces run_simulation's streams bit for bit.  Each slice
    is sorted once, when generated; a bucket is the searchsorted cut
    of the slices whose clicks can reach it (its own and the two
    neighbours), merged when more than one contributes.
    """
    if diag is None:
        diag = SimDiagnostics()
    span = config.span_ps()
    link = LinkModel.from_config(config)
    _require_slice_budget(link, min(span, SLICE_PS) * 1e-12)
    n_slices = max(1, -(-span // SLICE_PS))
    drift = _DriftWalk(config)
    pools: List[Tuple[np.ndarray, np.ndarray]] = []
    dead_s = int(round(config.detector_signal.dead_time_ps))
    dead_i = int(round(config.detector_idler.dead_time_ps))
    carry = {"signal": -2 ** 62, "idler": -2 ** 62}
    empty = np.empty(0, np.int64)

    for k in range(n_slices + 1):
        if k < n_slices:
            lo, hi = k * SLICE_PS, min(span, (k + 1) * SLICE_PS)
            pools.append(_gen_slice(config, link, k, lo, hi, drift,
                                    diag))
        else:
            pools.append((empty, empty))
        if len(pools) > 3:
            pools.pop(0)
        b = k - 1
        if b < 0:
            continue
        # last bucket takes a closed upper edge so t == span survives
        bhi = (b + 1) * SLICE_PS if b < n_slices - 1 else span + 1
        cuts = (max(b * SLICE_PS, 0) << 1, bhi << 1)
        out: List[np.ndarray] = []
        for ch, channel, dead in ((0, "signal", dead_s),
                                  (1, "idler", dead_i)):
            pieces = []
            for pool in pools:
                key = pool[ch]
                i, j = (int(c) for c in key.searchsorted(cuts))
                if b == 0:                      # t < 0
                    diag.clicks_dropped_out_of_span += i
                if b == n_slices - 1:           # t > span
                    diag.clicks_dropped_out_of_span += key.size - j
                if j > i:
                    pieces.append(key[i:j])
            if len(pieces) > 1:
                key = np.concatenate(pieces)
                key.sort(kind="stable")         # merges the sorted runs
            else:
                key = pieces[0] if pieces else empty
            tt, dd = _unpack_dedupe(key)
            tt, dd, carry[channel] = _dead_time_filter(tt, dd, dead,
                                                       carry[channel])
            n_dark = int(np.count_nonzero(dd))
            if channel == "signal":
                diag.photon_clicks_signal += dd.size - n_dark
                diag.dark_clicks_signal += n_dark
            else:
                diag.photon_clicks_idler += dd.size - n_dark
                diag.dark_clicks_idler += n_dark
            out.extend((tt, dd))
        yield (bhi, out[0], out[1], out[2], out[3])


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
# rows formatted per write: bounds the text held in memory at once
_WRITE_CHUNK_ROWS = 65_536


def write_click_stream(stream: ClickStream, path, seed: Optional[int] = None,
                       config_hash: str = "") -> None:
    """One channel per file: commented header, then ascending integer
    picosecond timestamps, one per line."""
    stream.assert_valid()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_EXPORT_MAGIC}\n")
        fh.write(f"# channel: {stream.channel}\n")
        fh.write(f"# span_ps: {stream.span_ps}\n")
        fh.write(f"# seed: {'' if seed is None else seed}\n")
        fh.write(f"# config_hash: {config_hash}\n")
        fh.write(f"# true_count: {stream.true_count}\n")
        fh.write(f"# dark_count: {stream.dark_count}\n")
        times = stream.times_ps
        for lo in range(0, times.size, _WRITE_CHUNK_ROWS):
            rows = times[lo:lo + _WRITE_CHUNK_ROWS].tolist()
            fh.write("\n".join(map(str, rows)))
            fh.write("\n")


def read_click_stream(path) -> Tuple[ClickStream, Dict[str, str]]:
    meta: Dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline().rstrip("\n")
        if first != _EXPORT_MAGIC:
            raise ValidationError(f"{path}: not a fransonsim click file")
        pos = fh.tell()
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
            pos = fh.tell()
            line = fh.readline()
        fh.seek(pos)
        times = np.loadtxt(fh, dtype=np.int64, ndmin=1)
    stream = ClickStream(channel=meta.get("channel", "?"), times_ps=times,
                         span_ps=int(meta["span_ps"]),
                         true_count=int(meta.get("true_count", 0)),
                         dark_count=int(meta.get("dark_count", 0)))
    stream.assert_valid()
    return stream, meta
