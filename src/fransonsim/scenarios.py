"""Scenario presets and the simulate -> histogram -> fit -> verdict pipeline.

A Scenario bundles a full SimulationConfig with exactly one plan: a
fringe scan (a list of analyzer settings, each simulated with its own
derived seed), a coincidence-window sweep, or a pump-rate sweep (the
last two are closed-form, no Monte Carlo).  run_scenario executes it
and returns a RunReport, as point_report does for one measure_point
run and budget_report for the closed form at a config's own window;
emit_outputs writes the report and its delimited-text companions with
deterministic bytes, so identical scenario + seed reproduce identical
files.  Wall-clock time is kept on the report object but never written
into output files.

Config files are strict JSON mirroring the dataclass fields (units in
the key names); unknown keys, missing required keys and non-finite
numbers are rejected with the offending path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import time
import typing
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .budget import (WINDOW_OBJECTIVES, RatePrediction, WindowOptimization,
                     WindowScore, bell_verdict, build_ledger,
                     check_window_grid, predict_rates, predict_visibility,
                     optimize_window)
from .errors import FitDegenerate, ParseError, ValidationError
from .montecarlo import (SimDiagnostics, SimulationConfig,
                         TimingDriftSpec, derive_seed, iter_click_buckets)
from .physics import (AnalyzerSpec, ChannelSpec, CoincidenceWindowSpec,
                      DetectorSpec, SourceSpec, chsh_from_visibility)
from .tia import (MIN_FIT_POINTS, DelayHistogram, FringeScan,
                  HistogramAccumulator, VisibilityEstimate,
                  check_fringe_phases, count_in_window, fit_fringe,
                  window_bins)

# Stock link parameters shared by the shipped presets: 50 km of 0.2 dB/km
# fiber per arm behind 10 dB of pre-fiber coupling loss, 5 dB analyzers,
# asymmetric detector efficiencies, 100 Hz dark rates, and a 65 ps FWHM
# coincidence-peak jitter budget split evenly between the two detectors
# (each contributes 65/sqrt(2) since the pair delay adds them in
# quadrature).
_STOCK_PRE_FIBER_DB = 10.0
_STOCK_FIBER_KM = 50.0
_STOCK_QE = {"signal": 0.007, "idler": 0.021}
_STOCK_DARK_HZ = 100.0
_PER_DETECTOR_JITTER_FWHM_PS = 65.0 / math.sqrt(2.0)

#: Back-to-back fringe visibility the analyzer contrast is calibrated to.
CALIBRATION_TARGET_VISIBILITY = 0.8358

PRESET_NAMES = ("paper-100km", "back-to-back", "ideal", "window-sweep",
                "mu-sweep")

#: Coincidence windows (ps) of the window-sweep preset, and the grid of
#: ``fransonsim optimize-window`` when neither --grid nor the scenario
#: gives one.
DEFAULT_WINDOW_GRID_PS = tuple(float(w) for w in range(60, 150, 10))

# A run name becomes a file name; _sanitize_name turns any file stem
# into a name of this form.
_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9._-]*")


def _sanitize_name(stem: str) -> str:
    name = re.sub(r"[^A-Za-z0-9._-]+", "-", stem).strip("-.")
    return name if name else "run"


def phase_grid(n_points: int) -> Tuple[float, ...]:
    """n_points phases evenly covering [0, 2*pi)."""
    if not isinstance(n_points, int) or isinstance(n_points, bool) \
            or n_points < 1:
        raise ValidationError("n_points must be a positive integer")
    return tuple(2.0 * math.pi * k / n_points for k in range(n_points))


@dataclass(frozen=True)
class ScanPlan:
    """Fringe-scan plan: which analyzer is swept, through which
    settings, and for how long per point.

    ``abscissa`` is "phase" (settings in radians) or "temperature"
    (settings in deg C; the swept analyzer must then carry a
    phase_per_kelvin_rad calibration)."""

    settings: Tuple[float, ...]
    acquisition_s_per_point: float
    abscissa: str = "phase"
    scanned: str = "signal"

    def __post_init__(self):
        if self.abscissa not in ("phase", "temperature"):
            raise ValidationError(
                f"abscissa must be 'phase' or 'temperature', "
                f"got {self.abscissa!r}")
        if self.scanned not in ("signal", "idler"):
            raise ValidationError(
                f"scanned must be 'signal' or 'idler', got {self.scanned!r}")
        settings = tuple(float(s) for s in self.settings)
        if not settings:
            raise ValidationError("a fringe scan needs at least one point")
        if not all(math.isfinite(s) for s in settings):
            raise ValidationError("scan settings must be finite")
        object.__setattr__(self, "settings", settings)
        if not (self.acquisition_s_per_point > 0.0
                and math.isfinite(self.acquisition_s_per_point)):
            raise ValidationError("acquisition_s_per_point must be > 0")


@dataclass(frozen=True)
class Scenario:
    """One named run: a config plus exactly one measurement plan
    (fringe scan, window sweep, or pump-rate sweep)."""

    name: str
    config: SimulationConfig
    plan: Optional[ScanPlan] = None
    window_grid_ps: Optional[Tuple[float, ...]] = None
    mu_grid: Optional[Tuple[float, ...]] = None
    window_objective: str = "s_value"
    emit_histograms: bool = False

    def __post_init__(self):
        if not isinstance(self.name, str) or not _NAME_RE.fullmatch(self.name):
            raise ValidationError(
                f"scenario name {self.name!r} must match "
                f"{_NAME_RE.pattern} (it becomes a file name)")
        if sum(x is not None for x in (self.plan, self.window_grid_ps,
                                       self.mu_grid)) != 1:
            raise ValidationError(
                "exactly one of plan / window_grid_ps / mu_grid must be "
                "set (fransonsim budget reads a file that sets none)")
        if self.window_grid_ps is not None:
            object.__setattr__(self, "window_grid_ps", check_window_grid(
                self.config, self.window_grid_ps))
        if self.mu_grid is not None:
            grid = tuple(float(g) for g in self.mu_grid)
            if not grid or not all(math.isfinite(g) and g > 0 for g in grid):
                raise ValidationError(
                    "mu_grid must be a non-empty tuple of positive values")
            object.__setattr__(self, "mu_grid", grid)
        if self.emit_histograms and self.plan is None:
            raise ValidationError("emit_histograms needs a fringe scan plan")
        if self.window_objective not in WINDOW_OBJECTIVES:
            raise ValidationError(
                f"window_objective must be one of {WINDOW_OBJECTIVES}, "
                f"got {self.window_objective!r}")
        if self.plan is not None:
            analyzer = getattr(self.config, f"analyzer_{self.plan.scanned}")
            if self.plan.abscissa == "phase" \
                    and analyzer.phase_rad is None:
                raise ValidationError(
                    f"phase scan over analyzer_{self.plan.scanned} needs a "
                    f"phase-driven analyzer (phase_rad set)")
            if self.plan.abscissa == "temperature" \
                    and not analyzer.phase_per_kelvin_rad:
                raise ValidationError(
                    f"temperature scan over analyzer_{self.plan.scanned} "
                    f"needs a non-zero phase_per_kelvin_rad on that analyzer")
            if len(self.plan.settings) >= MIN_FIT_POINTS:   # else not fitted
                check_fringe_phases(self.plan.settings, self.fringe_frequency)

    @property
    def fringe_frequency(self) -> Optional[float]:
        """Radians of summed phase per setting unit of the fringe scan:
        1 for a phase scan, the scanned analyzer's |phase_per_kelvin_rad|
        for a temperature scan (a phase that falls with temperature fits
        as the mirrored fringe: the same V, the phase offset negated);
        None without a scan."""
        if self.plan is None:
            return None
        if self.plan.abscissa == "phase":
            return 1.0
        analyzer = getattr(self.config, f"analyzer_{self.plan.scanned}")
        return abs(float(analyzer.phase_per_kelvin_rad))

    @property
    def mode(self) -> str:
        if self.plan is not None:
            return "fringe"
        return "window-sweep" if self.window_grid_ps is not None \
            else "mu-sweep"


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _stock_config(fiber_km: float, window_ps: float, contrast: float,
                  drift: Optional[TimingDriftSpec] = None,
                  master_seed: int = 0) -> SimulationConfig:
    analyzer = AnalyzerSpec(delay_ps=100.0, insertion_loss_db=5.0,
                            phase_rad=0.0, contrast=contrast)
    return SimulationConfig(
        source=SourceSpec(),
        channel_signal=ChannelSpec(fiber_length_km=fiber_km,
                                   pre_fiber_loss_db=_STOCK_PRE_FIBER_DB),
        channel_idler=ChannelSpec(fiber_length_km=fiber_km,
                                  pre_fiber_loss_db=_STOCK_PRE_FIBER_DB),
        analyzer_signal=analyzer,
        analyzer_idler=analyzer,
        detector_signal=DetectorSpec(
            quantum_efficiency=_STOCK_QE["signal"],
            dark_rate_hz=_STOCK_DARK_HZ,
            jitter_fwhm_ps=_PER_DETECTOR_JITTER_FWHM_PS),
        detector_idler=DetectorSpec(
            quantum_efficiency=_STOCK_QE["idler"],
            dark_rate_hz=_STOCK_DARK_HZ,
            jitter_fwhm_ps=_PER_DETECTOR_JITTER_FWHM_PS),
        tia=CoincidenceWindowSpec(window_ps=window_ps, histogram_bin_ps=10.0),
        drift=TimingDriftSpec() if drift is None else drift,
        acquisition_time_s=1.0,
        master_seed=master_seed,
    )


def calibrate_contrast() -> float:
    """Per-analyzer contrast that brings the predicted back-to-back
    fringe visibility (side-peak-corrected) to the calibration target.

    The single overall-contrast factor c enters the fringe as
    V = c * V(c=1), so c = target / V(c=1); each of the two analyzers
    carries sqrt(c)."""
    base = _stock_config(fiber_km=0.0, window_ps=60.0, contrast=1.0)
    v_unit = predict_visibility(base).visibility
    c_total = CALIBRATION_TARGET_VISIBILITY / v_unit
    if not (0.0 < c_total <= 1.0):
        raise ValidationError(
            f"calibration target {CALIBRATION_TARGET_VISIBILITY} is not "
            f"reachable: needs overall contrast {c_total:.4f}")
    return math.sqrt(c_total)


def preset(name: str, master_seed: int = 0) -> Scenario:
    """Built-in scenarios.  See PRESET_NAMES."""
    if name == "ideal":
        cfg = SimulationConfig(
            source=SourceSpec(mean_pairs_per_window=1e-4),
            channel_signal=ChannelSpec(fiber_length_km=0.0),
            channel_idler=ChannelSpec(fiber_length_km=0.0),
            analyzer_signal=AnalyzerSpec(insertion_loss_db=0.0),
            analyzer_idler=AnalyzerSpec(insertion_loss_db=0.0),
            detector_signal=DetectorSpec(quantum_efficiency=1.0,
                                         dark_rate_hz=0.0,
                                         jitter_fwhm_ps=0.0),
            detector_idler=DetectorSpec(quantum_efficiency=1.0,
                                        dark_rate_hz=0.0,
                                        jitter_fwhm_ps=0.0),
            tia=CoincidenceWindowSpec(window_ps=60.0, histogram_bin_ps=10.0),
            master_seed=master_seed,
        )
        return Scenario(name="ideal", config=cfg,
                        plan=ScanPlan(settings=phase_grid(16),
                                      acquisition_s_per_point=0.1))

    contrast = calibrate_contrast()
    if name == "paper-100km":
        cfg = _stock_config(_STOCK_FIBER_KM, 100.0, contrast, master_seed=master_seed)
        return Scenario(name="paper-100km", config=cfg,
                        plan=ScanPlan(settings=phase_grid(16),
                                      acquisition_s_per_point=2400.0))
    if name == "back-to-back":
        cfg = _stock_config(0.0, 60.0, contrast, master_seed=master_seed)
        return Scenario(name="back-to-back", config=cfg,
                        plan=ScanPlan(settings=phase_grid(16),
                                      acquisition_s_per_point=120.0))
    if name == "window-sweep":
        drift = TimingDriftSpec(enabled=True, channel="idler",
                                offset_ps=40.0)
        cfg = _stock_config(_STOCK_FIBER_KM, 100.0, contrast, drift=drift,
                            master_seed=master_seed)
        return Scenario(name="window-sweep", config=cfg,
                        window_grid_ps=DEFAULT_WINDOW_GRID_PS)
    if name == "mu-sweep":
        cfg = _stock_config(0.0, 60.0, contrast, master_seed=master_seed)
        return Scenario(name="mu-sweep", config=cfg,
                        mu_grid=(0.001, 0.002, 0.005, 0.01, 0.02,
                                 0.05, 0.1, 0.2))
    raise ValidationError(
        f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


# ---------------------------------------------------------------------------
# Config files (strict JSON, units in key names)
# ---------------------------------------------------------------------------

_KIND_NAMES = {bool: "true/false", int: "an integer", float: "a number",
               str: "a string"}


def _coerce_scalar(value, kind: type, path: str):
    if kind is float and type(value) in (int, float):
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond float range
            value = math.inf
        if math.isfinite(value):
            return value
        raise ValidationError(
            f"{path}: expected a finite number, got {value!r}")
    if type(value) is kind:
        return value
    raise ValidationError(
        f"{path}: expected {_KIND_NAMES[kind]}, got {value!r}")


def _build(cls, data, path: str):
    """The value of type ``cls`` read from its JSON form ``data``.

    A dataclass is an object with one key per field, each read by its
    resolved annotation; Optional[X] is X or null; Tuple[X, ...] is an
    array; bool, int, float and str are JSON scalars (floats finite)."""
    args = typing.get_args(cls)
    if type(None) in args:
        if data is None:
            return None
        (cls,) = [a for a in args if a is not type(None)]
    elif data is None:
        raise ValidationError(f"{path}: null is not a valid value")
    if typing.get_origin(cls) is tuple:
        if not isinstance(data, list):
            raise ValidationError(f"{path}: expected an array")
        item = typing.get_args(cls)[0]
        return tuple(_build(item, v, f"{path}[{i}]")
                     for i, v in enumerate(data))
    if not dataclasses.is_dataclass(cls):
        return _coerce_scalar(data, cls, path)
    kwargs = _fields(cls, data, path)
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _fields(cls, data, path: str) -> Dict[str, object]:
    """The keyword arguments of dataclass cls read from its JSON object
    data: one per key, every key known, every required key present."""
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected an object")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValidationError(f"{path}.{unknown[0]}: unknown key "
                              f"(valid keys: {', '.join(sorted(hints))})")
    kwargs = {key: _build(hints[key], value, f"{path}.{key}")
              for key, value in data.items()}
    for f in dataclasses.fields(cls):
        if f.name not in data and f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ValidationError(f"{path}.{f.name}: required key missing")
    return kwargs


def load_config(path, config_only=False) -> Union[SimulationConfig, Scenario]:
    """Parse a strict-JSON config or scenario file.

    A top-level "config" key marks a scenario document; anything else
    is read as a bare simulation config.  Unknown keys anywhere are
    rejected with their dotted path; syntax errors carry line:column.
    config_only reads a scenario document's config alone, its other keys
    checked but not made a Scenario, so it may set no plan (a budget)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be an object")
    if "config" not in data:
        return _build(SimulationConfig, data, "config")
    if config_only:
        return _fields(Scenario, data, "scenario")["config"]
    return _build(Scenario, data, "scenario")


def save_config(obj: Union[SimulationConfig, Scenario], path) -> None:
    """Write a config or scenario as strict JSON; load_config round-trips
    it to an equal object."""
    if not isinstance(obj, (SimulationConfig, Scenario)):
        raise ValidationError(
            f"can only save SimulationConfig or Scenario, got {type(obj)}")
    write_json(dataclasses.asdict(obj), path)


def _native(obj):
    """obj with tuples as lists and each non-finite float as the string
    "inf", "-inf" or "nan", which strict JSON can hold."""
    if isinstance(obj, dict):
        return {k: _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def write_json(doc, path) -> None:
    """The one JSON layout of every file written: indented, keys
    sorted, trailing newline, non-finite floats as strings (_native)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_native(doc), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value))      # bool and integer cells


def write_csv(path, stamp: str, columns, rows) -> None:
    """The one CSV layout of every table written: a ``# stamp`` line,
    the column names, then one line per row, each ending in \\n.  A
    cell is empty for None, repr(float) for a float and the integer
    for a bool or an int."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# {stamp}\n{','.join(columns)}\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def config_hash(config: SimulationConfig) -> str:
    """12-hex-digit digest of the full parameter set (seed included)."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass
class FringePointResult:
    """One fringe point: windowed coincidences plus bookkeeping."""

    setting: float
    point_seed: int
    counts_central: int
    counts_side_early: int
    counts_side_late: int
    singles_signal: int
    singles_idler: int
    pairs_generated: int
    histogram: Optional[DelayHistogram] = None


@dataclass(frozen=True)
class MuScanRow:
    mean_pairs_per_window: float
    visibility: float
    s_value: float
    violates: bool
    central_max_in_window_hz: float
    accidental_in_window_hz: float


@dataclass
class RunReport:
    """Everything one run produced.  config is the config its predicted
    block describes (the scenario's at the plan's acquisition time, or a
    one-point report's or a budget's own), and every closed-form value
    is read from it; config_hash is the scenario config's.
    fit_degenerate is None where no fit was attempted (a sweep, a
    budget, a one-point report).  wall_clock_s is diagnostic only and
    never written to files."""

    scenario_name: str
    config_hash: str
    mode: str
    config: SimulationConfig
    abscissa: Optional[str] = None
    points: Optional[List[FringePointResult]] = None
    estimate: Optional[VisibilityEstimate] = None
    fit_degenerate: Optional[bool] = None
    window_table: Optional[WindowOptimization] = None
    mu_table: Optional[List[MuScanRow]] = None
    wall_clock_s: float = 0.0

    @property
    def acquisition_s_per_point(self) -> float:
        return self.config.acquisition_time_s

    @property
    def events_generated(self) -> int:
        return sum(p.pairs_generated for p in self.points or ())

    @property
    def predicted_rates(self) -> RatePrediction:
        return predict_rates(self.config)

    @property
    def predicted_visibility(self) -> float:
        """Side-corrected."""
        return predict_visibility(self.config).visibility

    @property
    def predicted_visibility_raw(self) -> float:
        return predict_visibility(self.config,
                                  include_side_leak=True).visibility

    @property
    def s_value(self) -> Optional[float]:
        return self._chsh()[0]

    @property
    def violates(self) -> Optional[bool]:
        return self._chsh()[1]

    def _chsh(self) -> Tuple[Optional[float], Optional[bool]]:
        """CHSH (S, violates) of the fit's V or a budget's predicted V."""
        if self.estimate is not None:
            return chsh_from_visibility(self.estimate.visibility)
        if self.mode == "budget":
            verdict = bell_verdict(self.config)
            return verdict.s_value, verdict.violates
        return None, None


def measure_point(config: SimulationConfig, setting: float,
                  writers: Sequence[Callable[[np.ndarray, int], None]] = (),
                  ) -> FringePointResult:
    """One acquisition of config, streamed through the delay histogram
    and reduced to its central and side-peak window counts and its
    singles, the sizes of the buckets the histogram took.  The point
    seed is config.master_seed.  writers, if given, are the (signal,
    idler) appends of two montecarlo.click_writer files: each bucket
    goes to them as it passes, so a caller records this run's clicks."""
    diag = SimDiagnostics()
    # side peaks sit at +/- the analyzer delay: a full window of margin
    # beyond them keeps their windows inside the histogram's range
    delay, w = config.analyzer_signal.delay_ps, config.tia.window_ps
    acc = HistogramAccumulator(config.tia.histogram_bin_ps, delay + w)
    for c in (0.0, -delay, delay):   # refuse a window before any click
        window_bins(acc.bin_ps, acc.range_ps, c, w)
    for bucket in iter_click_buckets(config, diag):
        acc.add_bucket(bucket[1], bucket[3], bucket[0])
        for append, col in zip(writers, (1, 3)):
            append(bucket[col], bucket[col + 1])
        del bucket   # its clicks go before the next slice is drawn
    hist = acc.finalize()
    return FringePointResult(
        setting=setting,
        point_seed=config.master_seed,
        counts_central=count_in_window(hist, 0.0, w),
        counts_side_early=count_in_window(hist, -delay, w),
        counts_side_late=count_in_window(hist, +delay, w),
        singles_signal=hist.n_starts,
        singles_idler=hist.n_stops,
        pairs_generated=diag.pairs_generated,
        histogram=hist,
    )


def _run_fringe_point(config: SimulationConfig, plan: ScanPlan,
                      index: int) -> FringePointResult:
    setting = plan.settings[index]
    analyzer = getattr(config, f"analyzer_{plan.scanned}")
    if plan.abscissa == "phase":
        analyzer = replace(analyzer, phase_rad=setting, temperature_c=None)
    else:
        analyzer = replace(analyzer, phase_rad=None, temperature_c=setting)
    cfg = replace(config, **{f"analyzer_{plan.scanned}": analyzer},
                  master_seed=derive_seed(config.master_seed, index))
    return measure_point(cfg, setting)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # not on every platform
        return os.cpu_count() or 1


def _pool_workers(n_points: int) -> int:
    """Fringe points run at once: the usable CPUs, capped at n_points.
    No config sets a cap: iter_click_buckets refuses a run of more than
    montecarlo._SLICE_CLICKS expected clicks per slice, so every running
    point holds about two bounded slices."""
    return max(1, min(_usable_cpus(), n_points))


def _run_fringe_points(config: SimulationConfig, plan: ScanPlan,
                       progress: Optional[Callable[[int, int], None]],
                       ) -> List[FringePointResult]:
    """Every point of plan, in point order: config (the scenario's at
    plan.acquisition_s_per_point) with the point's setting and seed.
    The points run on a thread pool of _pool_workers threads (numpy
    releases the GIL in the draws, sorts and searches that dominate a
    point); progress counts points as they complete.  An exception in
    a point is raised here, and points not yet started are cancelled."""
    # imported here: the pool's import costs start-up of every process
    from concurrent.futures import ThreadPoolExecutor, as_completed
    n = len(plan.settings)
    workers = _pool_workers(n)
    results: List[Optional[FringePointResult]] = [None] * n
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_run_fringe_point, config, plan, k): k
                   for k in range(n)}
        try:
            for done, future in enumerate(as_completed(futures), 1):
                results[futures[future]] = future.result()
                if progress is not None:
                    progress(done, n)
        finally:
            pool.shutdown(cancel_futures=True)
    return results


def point_report(name: str, config: SimulationConfig,
                 point: FringePointResult) -> RunReport:
    """The report of point, measured on config at its own phase setting
    (fransonsim simulate), as a one-point phase scan with no fit
    attempted.  No Scenario validates it, so any config a point runs on
    reports, a temperature-driven analyzer included."""
    return RunReport(scenario_name=name, config_hash=config_hash(config),
                     mode="fringe", config=config, abscissa="phase",
                     points=[point])


def budget_report(name: str, config: SimulationConfig) -> RunReport:
    """The budget of config (fransonsim budget): the closed form at its
    own window, with the loss ledger and the predicted Bell verdict."""
    return RunReport(scenario_name=name, config_hash=config_hash(config),
                     mode="budget", config=config)


def run_scenario(scenario: Scenario,
                 progress: Optional[Callable[[int, int], None]] = None,
                 ) -> RunReport:
    """Execute a scenario and assemble its report.

    Fringe points are simulated with independently derived seeds
    (derive_seed(master, point_index)), so each point's result is the
    same whether points run alone, in order, or in parallel; results
    are always assembled in point order.  The points run on a thread
    pool (see _pool_workers); each running point holds about two
    generation slices of clicks."""
    t_start = time.perf_counter()
    plan, cfg = scenario.plan, scenario.config
    if plan is not None:    # a fringe point runs cfg at its setting and seed
        cfg = replace(cfg, acquisition_time_s=plan.acquisition_s_per_point)
    report = RunReport(scenario_name=scenario.name,
                       config_hash=config_hash(scenario.config),
                       mode=scenario.mode, config=cfg)

    if plan is not None:
        points = _run_fringe_points(cfg, plan, progress)
        if not scenario.emit_histograms:
            for p in points:
                p.histogram = None
        report.abscissa, report.points = plan.abscissa, points
        report.fit_degenerate = len(points) < MIN_FIT_POINTS
        if not report.fit_degenerate:
            scan = FringeScan(
                settings=np.array([p.setting for p in points]),
                counts=np.array([p.counts_central for p in points]),
                acquisition_s=plan.acquisition_s_per_point,
                frequency=scenario.fringe_frequency)
            try:
                report.estimate = fit_fringe(scan)
            except FitDegenerate as exc:
                report.fit_degenerate = True
                report.estimate = getattr(exc, "estimate", None)
    elif scenario.mode == "window-sweep":
        report.window_table = optimize_window(
            cfg, scenario.window_grid_ps, scenario.window_objective)
    else:
        report.mu_table = []
        for mu in scenario.mu_grid:
            cfg_mu = replace(cfg, source=replace(
                cfg.source, mean_pairs_per_window=mu))
            verdict, r = bell_verdict(cfg_mu), predict_rates(cfg_mu)
            report.mu_table.append(MuScanRow(
                mean_pairs_per_window=mu, visibility=verdict.visibility,
                s_value=verdict.s_value, violates=verdict.violates,
                central_max_in_window_hz=r.central_max_in_window_hz,
                accidental_in_window_hz=r.accidental_in_window_hz))

    report.wall_clock_s = time.perf_counter() - t_start
    return report


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------

def _report_document(report: RunReport) -> Dict[str, object]:
    doc: Dict[str, object] = {
        "scenario_name": report.scenario_name,
        "config_hash": report.config_hash,
        "master_seed": report.config.master_seed,
        "mode": report.mode,
        "events_generated": report.events_generated,
        "predicted": {
            "rates": dataclasses.asdict(report.predicted_rates),
            "visibility": report.predicted_visibility,
            "visibility_raw_windowed": report.predicted_visibility_raw,
        },
    }
    if report.mode == "fringe":
        doc["abscissa"] = report.abscissa
        doc["acquisition_s_per_point"] = report.acquisition_s_per_point
        keys = [f.name for f in dataclasses.fields(FringePointResult)
                if f.name != "histogram"]
        doc["points"] = [{k: getattr(p, k) for k in keys}
                         for p in (report.points or [])]
        doc["fit_degenerate"] = report.fit_degenerate
        if report.estimate is not None:
            doc["fit"] = dataclasses.asdict(report.estimate)
    elif report.mode == "window-sweep":
        table = report.window_table
        assert table is not None
        doc["window_sweep"] = {
            "objective": table.objective,
            "best_window_ps": table.best_window_ps,
            "entries": [dataclasses.asdict(e) for e in table.entries],
        }
    elif report.mode == "mu-sweep":
        doc["mu_sweep"] = [dataclasses.asdict(r)
                           for r in (report.mu_table or [])]
    else:
        doc["ledger"] = {arm: [dataclasses.asdict(e) for e in entries]
                         for arm, entries in build_ledger(
                             report.config).items()}
        # the prediction's V, background (the accidentals) and capture
        # fraction are in predicted already
        vis = predict_visibility(report.config)
        doc["visibility_terms"] = {"contrast_total": vis.contrast_total,
                                   "mean_central_hz": vis.mean_central_hz}
    if report.s_value is not None:      # a fitted fringe or a budget
        doc["bell"] = {"s_value": report.s_value,
                       "violates": report.violates,
                       "margin": report.s_value - 2.0}
    return doc


def write_histograms(out_dir, name: str, config_hash: str,
                     histograms: Sequence[tuple]) -> str:
    """Write {name}_hist.csv into out_dir and return its path: a line
    (point, setting, center_ps, counts) per bin of each (setting,
    histogram), the point its index; a None histogram writes no line."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}_hist.csv")
    write_csv(path, f"config_hash={config_hash}",
              ("point", "setting", "center_ps", "counts"),
              ((k, setting, c, n)
               for k, (setting, hist) in enumerate(histograms)
               if hist is not None
               for c, n in zip(hist.centers().tolist(),
                               hist.counts.tolist())))
    return path


def emit_outputs(report: RunReport, out_dir) -> List[str]:
    """Write the report files into out_dir and return their paths:
    {name}_report.json first, then its CSV companions (scan / window /
    mu table, plus the histograms when retained; a budget has none).
    Bytes are a pure function of the report content — wall-clock time
    never enters any file."""
    os.makedirs(out_dir, exist_ok=True)
    base = report.scenario_name
    written: List[str] = []

    def target(suffix: str) -> str:
        return os.path.join(out_dir, f"{base}{suffix}")

    path = target("_report.json")
    write_json(_report_document(report), path)
    written.append(path)

    stamp = f"config_hash={report.config_hash}"
    if report.mode == "fringe":
        points = report.points or []
        path = target("_scan.csv")
        write_csv(path, stamp, ("setting", "counts", "acquisition_s",
                                "singles_a", "singles_b"),
                  ((p.setting, p.counts_central,
                    report.acquisition_s_per_point, p.singles_signal,
                    p.singles_idler) for p in points))
        written.append(path)
        if any(p.histogram is not None for p in points):
            written.append(write_histograms(
                out_dir, base, report.config_hash,
                [(p.setting, p.histogram) for p in points]))
    elif report.mode == "window-sweep":
        path = target("_windows.csv")
        write_csv(path, stamp,
                  [f.name for f in dataclasses.fields(WindowScore)],
                  map(dataclasses.astuple, report.window_table.entries))
        written.append(path)
    elif report.mode == "mu-sweep":
        path = target("_mu.csv")
        write_csv(path, stamp, [f.name for f in dataclasses.fields(MuScanRow)],
                  map(dataclasses.astuple, report.mu_table))
        written.append(path)
    return written
