"""Closed-form link budget: losses, rates, coincidence-peak shape,
predicted visibility and Bell margin, and coincidence-window choice.

Every quantity here has a Monte Carlo counterpart.  Both read the
link (rates, survival, timing widths, peak weights) from one
LinkModel, SimulationConfig.link; tests keep the two consistent, so
the budget can be trusted for fast what-if scans and the simulation
for everything the closed forms cannot capture.  Each link quantity
is derived once per link (configs differing only in window or seed
share it): an arm's loss is LinkModel's loss_db, a delay peak's share
of a window one CoincidencePeakModel.mass integral, and the closed
form at a window, its rates, visibilities and Bell verdict, one
derivation per (link, window) kept in a bounded cache (_at_window).
Both memos, that and LinkModel.of's, live here; a config keeps none.

Counting conventions used throughout:

* a "detectable" photon survived its arm's optical losses *and* the
  detector efficiency: q = 10**(-dB/10) * eta;
* only the monitored analyzer port is instrumented, so singles carry
  a factor 1/2 (the phase-free marginal), while the both-detectable
  pair rate R*q_s*q_i carries no port factor of its own — the port
  bookkeeping of joint outcomes lives in the per-pair peak weights
  that LinkModel carries from physics.franson_bin_probabilities;
* accidental coincidences follow the flat-background product
  singles_a * singles_b * window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

from .errors import ValidationError
from .physics import (AnalyzerSpec, ChannelSpec, accidental_rate,
                      chsh_from_visibility, db_to_linear, dispersion_broaden,
                      franson_bin_probabilities, sigma_from_fwhm)

if TYPE_CHECKING:   # montecarlo imports LinkModel from here
    from .montecarlo import SimulationConfig

_SQRT2 = math.sqrt(2.0)

# (link, window) closed forms kept, least recently read dropped first
# (_at_window): several times the 8-9 windows a design grid's
# (length, mu) cell reads; a 10^4-window grid stays bounded.
WINDOWS_KEPT = 64


# ---------------------------------------------------------------------------
# Loss ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerEntry:
    label: str
    loss_db: float


def _arm_ledger(channel: ChannelSpec,
                analyzer: AnalyzerSpec) -> Tuple[LedgerEntry, ...]:
    entries = []
    if channel.pre_fiber_loss_db > 0.0:
        entries.append(LedgerEntry("source coupling + filters",
                                   channel.pre_fiber_loss_db))
    if channel.fiber_length_km > 0.0:
        entries.append(LedgerEntry(
            f"fiber ({channel.fiber_length_km:g} km @ "
            f"{channel.fiber_loss_db_per_km:g} dB/km)",
            channel.fiber_loss_db))
    if analyzer.insertion_loss_db > 0.0:
        entries.append(LedgerEntry("analyzer insertion",
                                   analyzer.insertion_loss_db))
    return tuple(entries)


def build_ledger(config: SimulationConfig
                 ) -> Dict[str, Tuple[LedgerEntry, ...]]:
    """Per-arm labelled optical loss entries, for display only: an
    arm's total is its LinkModel loss_db, the sum the rates and the
    engine use (detector efficiency is not a dB entry; LinkModel
    multiplies it in as q = T * eta)."""
    return {
        "signal": _arm_ledger(config.channel_signal,
                              config.analyzer_signal),
        "idler": _arm_ledger(config.channel_idler, config.analyzer_idler),
    }


# ---------------------------------------------------------------------------
# Coincidence-peak shape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoincidencePeakModel:
    """Gaussian model of the three start-stop delay peaks.

    Each photon's arrival spreads by its broadened duration plus the
    detector jitter; the delay (stop - start) adds both channels in
    quadrature, plus the time-averaged variance of any slow random
    walk.  The central peak sits at center_ps, the early and late side
    peaks at center_ps -/+ analyzer_delay_ps, all with that one
    width.  A constant drift offset displaces all three peaks
    together: +offset when the idler (stop) channel drifts, -offset
    for the signal.
    """

    sigma_delta_ps: float
    center_ps: float
    analyzer_delay_ps: float

    def mass(self, peak: int, window_center_ps: float,
             window_ps: float) -> float:
        """Mass of the central (peak=0), early (-1) or late (+1) peak
        inside the window of width window_ps centred at
        window_center_ps."""
        if not (math.isfinite(window_ps) and window_ps > 0.0):
            raise ValidationError(
                f"window_ps must be finite and > 0, got {window_ps!r}")
        center = self.center_ps + peak * self.analyzer_delay_ps
        lo = window_center_ps - window_ps / 2.0
        hi = window_center_ps + window_ps / 2.0
        a = (lo - center) / (self.sigma_delta_ps * _SQRT2)
        b = (hi - center) / (self.sigma_delta_ps * _SQRT2)
        return 0.5 * (math.erf(b) - math.erf(a))


# ---------------------------------------------------------------------------
# Link model: the one derivation the closed forms and the engine share
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArmLink:
    """One arm's survival and timing spread (a standard deviation)."""

    loss_db: float                  # optics: pre-fiber, fiber, analyzer
    transmission: float             # 10 ** (-loss_db / 10)
    q: float                        # transmission * quantum efficiency
    photon_hz: float                # pair rate * q / 2: monitored port
    dark_hz: float                  # detector dark counts
    sigma_arrival_ps: float         # a click about its emission time:
                                    # dispersed photon and detector
                                    # jitter in quadrature


@dataclass(frozen=True, eq=False)
class LinkModel:
    """Every link quantity the rates, the peak shape and the Monte
    Carlo engine read, derived once per link by LinkModel.of, never
    stored in the config.  == and hash are identity, which the window
    cache keys on: hashing the records by value costs more than a read."""

    pair_rate_hz: float             # generated at the source output
    both_hz: float                  # pair rate * q_s * q_i (any port)
    signal: ArmLink
    idler: ArmLink
    contrast_total: float           # product of the analyzer contrasts
    weights: Tuple[float, float, float]  # per pair: central, early, late
    central_max_weight: float       # central weight at the fringe maximum
    peak: CoincidencePeakModel
    loss_note: str                  # how to read a quoted link loss

    @classmethod
    def of(cls, config: SimulationConfig) -> "LinkModel":
        """config's link: _LAST_LINK's (config, key, link) when config is
        its config or holds its very specs and acquisition time (as when
        only tia or master_seed differ), else a new one.  The held config
        keeps the key's ids live; the slot is replaced whole for threads."""
        last = _LAST_LINK[0]
        if last[0] is config:
            return last[2]
        key = (id(config.source), id(config.channel_signal),
               id(config.channel_idler), id(config.analyzer_signal),
               id(config.analyzer_idler), id(config.detector_signal),
               id(config.detector_idler), id(config.drift),
               config.acquisition_time_s)
        link = last[2] if last[1] == key else cls.from_config(config)
        _LAST_LINK[0] = (config, key, link)
        return link

    @classmethod
    def from_config(cls, config: SimulationConfig) -> "LinkModel":
        src = config.source
        rate = src.mean_pairs_per_window / (src.window_base_ps * 1e-12)
        if src.mu_measured_after_losses:
            # mu was quoted downstream of the pre-fiber losses
            rate /= (db_to_linear(config.channel_signal.pre_fiber_loss_db)
                     * db_to_linear(config.channel_idler.pre_fiber_loss_db))
        if not math.isfinite(rate):
            raise ValidationError(
                f"source.mean_pairs_per_window {src.mean_pairs_per_window:g}"
                f" gives a pair rate beyond float range ({rate} Hz)")

        def arm(channel, analyzer, detector):
            loss_db = (channel.pre_fiber_loss_db + channel.fiber_loss_db
                       + analyzer.insertion_loss_db)
            t = db_to_linear(loss_db)
            q = t * detector.quantum_efficiency
            fwhm = dispersion_broaden(src.photon_fwhm_ps,
                                      channel.beta2_ps2_per_km,
                                      channel.fiber_length_km)
            return ArmLink(loss_db=loss_db, transmission=t, q=q,
                           photon_hz=rate * q / 2.0,
                           dark_hz=detector.dark_rate_hz,
                           sigma_arrival_ps=math.hypot(
                               sigma_from_fwhm(fwhm),
                               sigma_from_fwhm(detector.jitter_fwhm_ps)))

        signal = arm(config.channel_signal, config.analyzer_signal,
                     config.detector_signal)
        idler = arm(config.channel_idler, config.analyzer_idler,
                    config.detector_idler)

        c_tot = (config.analyzer_signal.contrast
                 * config.analyzer_idler.contrast)
        weights = franson_bin_probabilities(
            config.analyzer_signal.effective_phase_rad(),
            config.analyzer_idler.effective_phase_rad(),
            src.pump_phase_offset_rad, c_tot)

        var = signal.sigma_arrival_ps ** 2 + idler.sigma_arrival_ps ** 2
        center = 0.0
        drift = config.drift
        if drift.enabled:
            center = (+1.0 if drift.channel == "idler" else -1.0) \
                * drift.offset_ps
            if drift.walk_step_ps > 0.0:
                # variance of the walk at a uniformly random time in
                # the acquisition: step^2 * (T / interval) / 2
                steps = config.acquisition_time_s * 1e12 \
                    / drift.walk_interval_ps
                try:
                    var += drift.walk_step_ps ** 2 * steps / 2.0
                except OverflowError:   # float ** raises past 1.8e308
                    var = math.inf
        sigmas = (signal.sigma_arrival_ps, idler.sigma_arrival_ps,
                  math.sqrt(var))
        if not all(0.0 < v < math.inf for v in sigmas):
            raise ValidationError("timing spreads must be finite and > 0, got "
                                  f"signal, idler, pair sigmas {sigmas} ps")
        peak = CoincidencePeakModel(
            sigma_delta_ps=sigmas[2], center_ps=center,
            analyzer_delay_ps=config.analyzer_signal.delay_ps)
        s, i = signal.loss_db, idler.loss_db
        return cls(pair_rate_hz=rate, both_hz=rate * signal.q * idler.q,
                   signal=signal, idler=idler,
                   contrast_total=c_tot, weights=weights,
                   central_max_weight=franson_bin_probabilities(
                       0.0, 0.0, 0.0, c_tot)[0],
                   peak=peak, loss_note=(
                       f"per-arm optical losses: signal {s:g} dB, idler "
                       f"{i:g} dB; two-photon (summed) loss {s + i:g} dB. "
                       "A single quoted link figure must be read as the "
                       "summed two-photon loss and split across the arms "
                       "before building specs; reading it as per-arm "
                       "double-counts it."))


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatePrediction:
    """Closed-form rate summary of one link at one window."""

    generated_pair_rate_hz: float
    transmission_signal: float
    transmission_idler: float
    q_signal: float
    q_idler: float
    singles_signal_hz: float        # monitored port + darks
    singles_idler_hz: float
    both_rate_hz: float             # both photons detectable (any port)
    window_ps: float
    capture_fraction: float
    central_max_in_window_hz: float     # fringe maximum, central window
    central_at_config_phase_hz: float   # at the configured phases
    accidental_in_window_hz: float
    accidental_parts_hz: Dict[str, float]
    side_leak_in_window_hz: float
    loss_note: str

    @property
    def total_central_window_hz(self) -> float:
        """Everything a counter on the central window sees at the
        configured phases."""
        return (self.central_at_config_phase_hz
                + self.side_leak_in_window_hz
                + self.accidental_in_window_hz)


class _ReadOnlyDict(dict):
    """accidental_parts_hz: every reader of a link shares its entries."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a RatePrediction's accidental parts are read-only")
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = \
        setdefault = update = _refuse
    __reduce__ = lambda self: (type(self), (dict(self),))  # copy, pickle


def _derive_window(link: LinkModel, w: float) -> tuple:
    """(RatePrediction, VisibilityPrediction without and with the side
    leak, BellVerdict) of link at window w."""
    sig, idl, peak = link.signal, link.idler, link.peak
    (w_c, w_e, w_l), both = link.weights, link.both_hz
    capture = peak.mass(0, 0.0, w)
    parts = _ReadOnlyDict({
        "photon-photon": accidental_rate(sig.photon_hz, idl.photon_hz, w),
        "photon-dark": accidental_rate(sig.photon_hz, idl.dark_hz, w),
        "dark-photon": accidental_rate(sig.dark_hz, idl.photon_hz, w),
        "dark-dark": accidental_rate(sig.dark_hz, idl.dark_hz, w),
    })
    accidental = math.fsum(parts.values())
    leak = both * (w_e * peak.mass(-1, 0.0, w) + w_l * peak.mass(+1, 0.0, w))
    rates = RatePrediction(
        generated_pair_rate_hz=link.pair_rate_hz,
        transmission_signal=sig.transmission,
        transmission_idler=idl.transmission,
        q_signal=sig.q, q_idler=idl.q,
        singles_signal_hz=sig.photon_hz + sig.dark_hz,
        singles_idler_hz=idl.photon_hz + idl.dark_hz,
        both_rate_hz=both, window_ps=w, capture_fraction=capture,
        central_max_in_window_hz=both * link.central_max_weight * capture,
        central_at_config_phase_hz=both * w_c * capture,
        accidental_in_window_hz=accidental, accidental_parts_hz=parts,
        side_leak_in_window_hz=leak, loss_note=link.loss_note)
    mean_central = both * capture * (w_e + w_l)  # w_c's phase mean

    def fringe(background):
        total = mean_central + background
        return VisibilityPrediction(
            link.contrast_total * mean_central / total if total > 0.0
            else 0.0, link.contrast_total, mean_central, background, capture)
    corrected = fringe(accidental)
    s, violates = chsh_from_visibility(corrected.visibility)
    return rates, corrected, fringe(accidental + leak), BellVerdict(
        corrected.visibility, s, violates, s - 2.0)


_LAST_LINK: list = [(None, (), None)]   # LinkModel.of's last read


@functools.lru_cache(maxsize=WINDOWS_KEPT, typed=True)
def _at_window(link: LinkModel, window_ps: float) -> tuple:
    """_derive_window, kept for the WINDOWS_KEPT (link, window) pairs read
    last.  Typed, so 100 never answers for 100.0; entries are immutable."""
    return _derive_window(link, window_ps)


def predict_rates(config: SimulationConfig) -> RatePrediction:
    """The closed form at the config's window."""
    return _at_window(config.link, config.tia.window_ps)[0]


# ---------------------------------------------------------------------------
# Visibility and Bell margin
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VisibilityPrediction:
    visibility: float
    contrast_total: float
    mean_central_hz: float      # phase-averaged windowed central rate
    background_hz: float        # phase-flat dilution folded into the fit
    capture_fraction: float


def predict_visibility(config: SimulationConfig, *,
                       include_side_leak: bool = False
                       ) -> VisibilityPrediction:
    """Fitted-fringe visibility a scan of this link would measure.

    The windowed rate vs summed phase is
    mean*(1 + c*cos) + leak + accidentals, mean its phase average;
    the phase-flat accidental background always dilutes the fringe.

    Side-peak leakage is just as phase-flat, but an analysis that
    references the side windows subtracts it, so by default it is
    excluded here (and it is a percent-level effect at sane windows).
    Pass include_side_leak=True to model a *raw* windowed fringe fit
    with no side correction — that is what fitting this package's own
    simulated histograms yields.
    """
    return _at_window(config.link, config.tia.window_ps)[
        2 if include_side_leak else 1]


@dataclass(frozen=True)
class BellVerdict:
    visibility: float
    s_value: float
    violates: bool
    margin: float  # s_value - 2


def bell_verdict(config: SimulationConfig) -> BellVerdict:
    """CHSH S of predict_visibility's (side-corrected) V."""
    return _at_window(config.link, config.tia.window_ps)[3]


# ---------------------------------------------------------------------------
# Window optimization
# ---------------------------------------------------------------------------

# the scores optimize_window can rank a window grid by
WINDOW_OBJECTIVES = ("s_value", "rate_weighted")


@dataclass(frozen=True)
class WindowScore:
    window_ps: float
    visibility: float
    s_value: float
    central_max_in_window_hz: float
    score: float


@dataclass(frozen=True)
class WindowOptimization:
    objective: str
    best_window_ps: float
    entries: Tuple[WindowScore, ...]


def check_window_grid(config: SimulationConfig,
                      window_grid_ps: Sequence[float]) -> Tuple[float, ...]:
    """window_grid_ps as floats, in its order: refused unless it is
    non-empty and every window is positive and below twice config's
    analyzer delay (a wider window swallows the side peaks)."""
    grid = tuple(float(w) for w in window_grid_ps)
    if not grid:
        raise ValidationError("window_grid_ps must not be empty")
    tau4 = config.analyzer_signal.delay_ps
    for w in grid:
        if not (0.0 < w < 2.0 * tau4):
            raise ValidationError(
                f"window_grid_ps holds {w} ps: a window must be positive "
                f"and below twice the analyzer delay ({2.0 * tau4:g} ps) "
                "to keep the side peaks out")
    return grid


def optimize_window(config: SimulationConfig,
                    window_grid_ps: Sequence[float],
                    objective: str = "s_value") -> WindowOptimization:
    """Pick the coincidence window from a candidate grid.

    ``s_value`` maximizes the predicted CHSH S (statistics-blind:
    with negligible darks it degenerates to a tie and the smallest
    window wins).  ``rate_weighted`` maximizes V^2 * central rate,
    the figure of merit of the Bell margin per unit acquisition
    time — with no dark counts it grows with capture, so the widest
    candidate wins.  Ties go to the smallest window.  Windows of at
    least twice the analyzer delay would swallow the side peaks and
    are rejected.
    """
    if objective not in WINDOW_OBJECTIVES:
        raise ValidationError(
            f"unknown objective {objective!r}; use one of {WINDOW_OBJECTIVES}")
    grid = sorted(check_window_grid(config, window_grid_ps))
    link, entries = config.link, []
    for w in grid:
        rates, _, _, verdict = _at_window(link, w)
        rate, v, s = (rates.central_max_in_window_hz, verdict.visibility,
                      verdict.s_value)
        entries.append(WindowScore(
            window_ps=w, visibility=v, s_value=s,
            central_max_in_window_hz=rate,
            score=s if objective == "s_value" else v ** 2 * rate))
    best = max(entries, key=lambda e: e.score)   # the first of a tie
    return WindowOptimization(objective=objective,
                              best_window_ps=best.window_ps,
                              entries=tuple(entries))
