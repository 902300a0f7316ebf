"""Closed-form physics for time-energy entanglement over fiber.

Domain types (source, channel, analyzer, detector, coincidence window)
plus the handful of formulas everything else is built on: two-photon
path-interference probabilities, Gaussian dispersion broadening, dB
arithmetic, visibility / CHSH conversions and accidental-coincidence
rates.

Conventions used throughout the package
---------------------------------------
* Times are picoseconds, distances km, rates Hz, phases radians.
* Gaussian widths are quoted as FWHM.  The 1/e half-width is
  T0 = FWHM / (2*sqrt(ln 2)) and the standard deviation is
  sigma = FWHM / (2*sqrt(2 ln 2)).
* Each unbalanced MZI is monitored at a single output port (one
  detector per channel), so the per-path amplitude to the monitored
  port is 1/2: one 1/sqrt(2) per coupler.  The complementary port
  carries (1/2, -e^{i theta}/2) so that the four port branches sum
  to unit probability.
* Phases are wrapped to [0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ValidationError

# FWHM = FWHM_TO_INV_E * T0 (Gaussian 1/e half-width convention)
FWHM_TO_INV_E = 2.0 * math.sqrt(math.log(2.0))          # ~1.6651
# FWHM = FWHM_TO_SIGMA * sigma (standard deviation convention)
FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))    # ~2.3548

TWO_PI = 2.0 * math.pi

# Bell/CHSH with two unbalanced-MZI analyzers: S = 2*sqrt(2)*V,
# violation requires V strictly above 1/sqrt(2).
CHSH_SLOPE = 2.0 * math.sqrt(2.0)


def wrap_phase(phi: float) -> float:
    """Wrap a phase to [0, 2*pi)."""
    out = math.fmod(phi, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    if out >= TWO_PI:  # tiny negatives round up to exactly 2*pi
        out = 0.0
    return out


def sigma_from_fwhm(fwhm: float) -> float:
    return fwhm / FWHM_TO_SIGMA


# ---------------------------------------------------------------------------
# dB arithmetic
# ---------------------------------------------------------------------------

def db_to_linear(loss_db: float) -> float:
    """Convert an attenuation in dB to a linear power transmission.

    Negative dB means gain (> 1), which is permitted.
    """
    if not math.isfinite(loss_db):
        raise ValidationError(f"loss_db must be finite, got {loss_db!r}")
    return 10.0 ** (-loss_db / 10.0)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _require_finite(spec) -> None:
    """Every float field of a spec must be finite: inf and nan pass
    the one-sided bound checks and surface later as inf or nan rates."""
    for name, value in vars(spec).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SourceSpec:
    """Pair-source parameters.

    The pump coherence time tau1 must dwarf the single-photon
    duration tau2; two-photon interference rides on that hierarchy,
    so construction rejects tau1 <= 100*tau2.

    ``pump_phase_offset_rad`` houses the constant phase the pump
    contributes to the long-long path (only the sum
    theta_s + theta_i + offset is observable, so the offset is one
    knob rather than a frequency and a delay separately).

    ``mean_pairs_per_window`` (mu) is quoted per ``window_base_ps``
    and refers to pairs generated at the source output, before any
    loss.  Set ``mu_measured_after_losses`` if the figure was
    instead measured downstream of the per-arm pre-fiber losses; the
    generated rate (budget.LinkModel.pair_rate_hz) is then scaled back
    up by those transmissions.
    """

    pump_coherence_fwhm_ps: float = 4.0e6     # tau1, 4 us
    photon_fwhm_ps: float = 4.0               # tau2
    mean_pairs_per_window: float = 0.05       # mu
    window_base_ps: float = 60.0
    pump_phase_offset_rad: float = 0.0
    mu_measured_after_losses: bool = False

    def __post_init__(self):
        if not (self.pump_coherence_fwhm_ps > 0.0):
            raise ValidationError("pump_coherence_fwhm_ps must be > 0")
        if not (self.photon_fwhm_ps > 0.0):
            raise ValidationError("photon_fwhm_ps must be > 0")
        if not (self.mean_pairs_per_window >= 0.0):
            raise ValidationError("mean_pairs_per_window must be >= 0")
        if not (self.window_base_ps > 0.0):
            raise ValidationError("window_base_ps must be > 0")
        _require_finite(self)
        if not self.pump_coherence_fwhm_ps > 100.0 * self.photon_fwhm_ps:
            raise ValidationError(
                "pump coherence must dwarf the photon duration "
                f"(need pump_coherence_fwhm_ps > 100*photon_fwhm_ps, got "
                f"{self.pump_coherence_fwhm_ps} vs {self.photon_fwhm_ps})")


@dataclass(frozen=True)
class ChannelSpec:
    """One arm's fiber plus lumped pre-fiber losses (source pigtail,
    filters) in dB.  Dispersion is the group-velocity beta2 in
    ps^2/km; the package default is back-solved from the 4 ps ->
    25 ps broadening over 50 km (see DEFAULT_BETA2)."""

    fiber_length_km: float = 50.0
    fiber_loss_db_per_km: float = 0.2
    beta2_ps2_per_km: Optional[float] = None
    pre_fiber_loss_db: float = 0.0

    def __post_init__(self):
        if self.beta2_ps2_per_km is None:
            object.__setattr__(self, "beta2_ps2_per_km", DEFAULT_BETA2)
        if not (self.fiber_length_km >= 0.0):
            raise ValidationError("fiber_length_km must be >= 0")
        if not (self.fiber_loss_db_per_km >= 0.0):
            raise ValidationError("fiber_loss_db_per_km must be >= 0")
        if not (self.pre_fiber_loss_db >= 0.0):
            raise ValidationError("pre_fiber_loss_db must be >= 0")
        _require_finite(self)

    @property
    def fiber_loss_db(self) -> float:
        return self.fiber_length_km * self.fiber_loss_db_per_km


@dataclass(frozen=True)
class AnalyzerSpec:
    """One unbalanced MZI.

    Exactly one of ``phase_rad`` / ``temperature_c`` drives the
    effective analyzer phase; a temperature setting requires the
    linear calibration (``phase_per_kelvin_rad`` against
    ``reference_temp_c``), which is hardware-specific and never
    assumed.  ``contrast`` aggregates device imperfection as a
    multiplicative fringe-contrast factor in [0, 1].
    """

    delay_ps: float = 100.0                   # tau4
    insertion_loss_db: float = 5.0
    phase_rad: Optional[float] = 0.0
    temperature_c: Optional[float] = None
    phase_per_kelvin_rad: Optional[float] = None
    reference_temp_c: float = 22.5
    contrast: float = 1.0

    def __post_init__(self):
        if not (self.delay_ps > 0.0):
            raise ValidationError("delay_ps must be > 0")
        if not (self.insertion_loss_db >= 0.0):
            raise ValidationError("insertion_loss_db must be >= 0")
        if not (0.0 <= self.contrast <= 1.0):
            raise ValidationError("contrast must lie in [0, 1]")
        drives = (self.phase_rad is not None) + (self.temperature_c is not None)
        if drives != 1:
            raise ValidationError(
                "exactly one of phase_rad / temperature_c must be set "
                f"(got phase_rad={self.phase_rad!r}, "
                f"temperature_c={self.temperature_c!r})")
        if self.temperature_c is not None and \
                self.phase_per_kelvin_rad is None:
            raise ValidationError(
                "temperature drive requires a finite phase_per_kelvin_rad")
        _require_finite(self)

    def effective_phase_rad(self) -> float:
        """Analyzer phase in [0, 2*pi), from whichever knob is set."""
        if self.phase_rad is not None:
            return wrap_phase(self.phase_rad)
        return temp_to_phase(self.temperature_c, self)


@dataclass(frozen=True)
class DetectorSpec:
    """Single-photon detector: efficiency, dark rate, Gaussian timing
    jitter (FWHM) and an optional non-paralyzable dead time.

    The engine rounds the dead time to whole picoseconds and applies
    at least 1 ps: the time-interval analyzer stamps integer
    picoseconds, so two clicks in one picosecond are one.  A dead time
    of 0, 0.4 or 1 ps therefore gives the same clicks."""

    quantum_efficiency: float = 0.007
    dark_rate_hz: float = 100.0
    jitter_fwhm_ps: float = 65.0              # tau3
    dead_time_ps: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.quantum_efficiency <= 1.0):
            raise ValidationError("quantum_efficiency must lie in [0, 1]")
        if not (self.dark_rate_hz >= 0.0):
            raise ValidationError("dark_rate_hz must be >= 0")
        if not (self.jitter_fwhm_ps >= 0.0):
            raise ValidationError("jitter_fwhm_ps must be >= 0")
        if not (self.dead_time_ps >= 0.0):
            raise ValidationError("dead_time_ps must be >= 0")
        _require_finite(self)


@dataclass(frozen=True)
class CoincidenceWindowSpec:
    """Coincidence window and histogram binning for the TIA stage."""

    window_ps: float = 100.0
    histogram_bin_ps: float = 10.0

    def __post_init__(self):
        if not (self.window_ps > 0.0):
            raise ValidationError("window_ps must be > 0")
        if not (self.histogram_bin_ps > 0.0):
            raise ValidationError("histogram_bin_ps must be > 0")
        _require_finite(self)
        if self.histogram_bin_ps > self.window_ps:
            raise ValidationError("histogram_bin_ps must not exceed window_ps")


# ---------------------------------------------------------------------------
# Two-photon interference
# ---------------------------------------------------------------------------

def franson_bin_probabilities(theta_s: float, theta_i: float,
                              pump_phase: float = 0.0,
                              contrast: float = 1.0,
                              ) -> Tuple[float, float, float]:
    """Per-pair probabilities of the three start-stop peaks.

    For a pair reaching both monitored MZI ports with unit upstream
    transmission, the short-short and long-long paths land in the
    central peak and interfere (their amplitudes are 1/4 and
    (1/4)e^{i Theta} with Theta = theta_s + theta_i + pump_phase),
    while the mixed short-long / long-short paths are distinguishable
    and contribute 1/16 each to the side peaks:

        p_central    = (1/8) (1 + contrast * cos Theta)
        p_side_early = p_side_late = 1/16

    Returns (p_central, p_side_early, p_side_late).
    """
    for name, val in (("theta_s", theta_s), ("theta_i", theta_i),
                      ("pump_phase", pump_phase)):
        if not math.isfinite(val):
            raise ValidationError(f"{name} must be finite, got {val!r}")
    if not (0.0 <= contrast <= 1.0):
        raise ValidationError(f"contrast must lie in [0, 1], got {contrast!r}")
    theta = theta_s + theta_i + pump_phase
    p_central = (1.0 + contrast * math.cos(theta)) / 8.0
    # cos can overshoot past +/-1 by an ulp; keep probabilities legal
    p_central = min(max(p_central, 0.0), 0.25)
    return p_central, 1.0 / 16.0, 1.0 / 16.0


# ---------------------------------------------------------------------------
# Dispersion
# ---------------------------------------------------------------------------

def dispersion_broaden(fwhm_in_ps: float, beta2_ps2_per_km: float,
                       length_km: float) -> float:
    """Gaussian-pulse broadening after propagating a dispersive fiber.

    With T0 the 1/e half-width of the input, the output FWHM is

        fwhm_in * sqrt(1 + (beta2 * L / T0^2)^2)

    Monotone non-decreasing in |beta2| and length, and invariant
    under a sign flip of beta2.
    """
    if not (fwhm_in_ps > 0.0):
        raise ValidationError(f"fwhm_in_ps must be > 0, got {fwhm_in_ps!r}")
    if not (length_km >= 0.0):
        raise ValidationError(f"length_km must be >= 0, got {length_km!r}")
    t0 = fwhm_in_ps / FWHM_TO_INV_E
    x = beta2_ps2_per_km * length_km / (t0 * t0)
    return fwhm_in_ps * math.sqrt(1.0 + x * x)


def solve_beta2(fwhm_in_ps: float, fwhm_out_ps: float,
                length_km: float) -> float:
    """Back-solve |beta2| from an observed in/out broadening.

    Inverts :func:`dispersion_broaden`:
        beta2 = (T0^2 / L) * sqrt((out/in)^2 - 1)
    """
    if not (fwhm_out_ps >= fwhm_in_ps > 0.0):
        raise ValidationError("need fwhm_out_ps >= fwhm_in_ps > 0")
    if not (length_km > 0.0):
        raise ValidationError("length_km must be > 0")
    t0 = fwhm_in_ps / FWHM_TO_INV_E
    ratio = fwhm_out_ps / fwhm_in_ps
    return (t0 * t0 / length_km) * math.sqrt(ratio * ratio - 1.0)


# Dispersion parameter pinned so that a 4 ps photon broadens to 25 ps
# over 50 km of fiber (~0.7120544 ps^2/km).
DEFAULT_BETA2 = solve_beta2(4.0, 25.0, 50.0)


# ---------------------------------------------------------------------------
# Visibility, Bell, accidentals
# ---------------------------------------------------------------------------

def chsh_from_visibility(v: float) -> Tuple[float, bool]:
    """CHSH S-value 2*sqrt(2)*V and the (strict) violation verdict.

    A violation needs S > 2, i.e. V > 1/sqrt(2) ~ 0.7071.
    """
    if not (0.0 <= v <= 1.0):
        raise ValidationError(f"v must lie in [0, 1], got {v!r}")
    s_value = CHSH_SLOPE * v
    return s_value, s_value > 2.0


def accidental_rate(singles_a_hz: float, singles_b_hz: float,
                    window_ps: float) -> float:
    """Uncorrelated-coincidence rate of two click streams in Hz.

    Two independent streams pair up inside a window of width w at
    rate  r_a * r_b * w.  The division by 1e12 (ps -> s) is done last
    so integer-valued inputs stay exact.
    """
    if singles_a_hz < 0.0 or singles_b_hz < 0.0 or window_ps < 0.0:
        raise ValidationError("accidental_rate inputs must be >= 0")
    return (singles_a_hz * singles_b_hz * window_ps) / 1e12


def dark_prob(rate_hz: float, window_ps: float) -> float:
    """Per-window click probability of a Poissonian background:
    rate * window (e.g. 100 Hz over 100 ps -> 1e-8)."""
    if rate_hz < 0.0 or window_ps < 0.0:
        raise ValidationError("dark_prob inputs must be >= 0")
    return (rate_hz * window_ps) / 1e12


def temp_to_phase(temp_c: float, spec: AnalyzerSpec) -> float:
    """Map an interferometer temperature to its phase via the linear
    calibration, wrapped to [0, 2*pi).  A zero coefficient maps all
    temperatures to phase zero (degenerate but legal calibration)."""
    coeff = spec.phase_per_kelvin_rad
    if coeff is None or not math.isfinite(coeff):
        raise ValidationError("phase_per_kelvin_rad must be set and finite")
    return wrap_phase((temp_c - spec.reference_temp_c) * coeff)
