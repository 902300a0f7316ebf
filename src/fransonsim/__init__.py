"""fransonsim: simulate and analyze time-energy entanglement links.

Pair generation, lossy dispersive channels, phase-scanned unbalanced
MZI analyzers, jittery dark-count-prone detectors, start-stop
coincidence histograms, fringe visibility and Bell-violation
verdicts — closed-form where possible, seeded Monte Carlo where not.
"""

from .errors import (FitDegenerate, FitNotConverged, FransonError,
                     ParseError, ValidationError)
from .physics import (AnalyzerSpec, ChannelSpec, CoincidenceWindowSpec,
                      DEFAULT_BETA2, DetectorSpec, SourceSpec,
                      accidental_rate, chsh_from_visibility, dark_prob,
                      db_to_linear, dispersion_broaden,
                      franson_bin_probabilities, linear_to_db, solve_beta2,
                      temp_to_phase, visibility, wrap_phase)
from .montecarlo import (ClickStream, SLICE_PS, SimDiagnostics,
                         SimulationConfig, TimingDriftSpec, derive_seed,
                         iter_click_buckets, read_click_stream,
                         run_simulation, write_click_stream)
from .tia import (DelayHistogram, FringeScan, HistogramAccumulator,
                  VisibilityEstimate, build_histogram, count_in_window,
                  fit_fringe, read_scan_csv, visibility_from_extrema,
                  write_scan_csv)
from .budget import (BellVerdict, CoincidencePeakModel, LedgerEntry,
                     LossLedger, RatePrediction, VisibilityPrediction,
                     WindowOptimization, WindowScore, bell_verdict,
                     build_arm_ledger, build_ledger, loss_reading_note,
                     optimize_window, predict_rates, predict_visibility)
from .scenarios import (CALIBRATION_TARGET_VISIBILITY, FringePointResult,
                        MuScanRow, PRESET_NAMES, RunReport, ScanPlan,
                        Scenario, calibrate_contrast, config_hash,
                        emit_outputs, load_config, phase_grid, preset,
                        run_scenario, run_scenarios, save_config)

__version__ = "0.1.0"

__all__ = [
    "AnalyzerSpec", "BellVerdict", "CALIBRATION_TARGET_VISIBILITY",
    "ChannelSpec", "ClickStream", "CoincidencePeakModel",
    "CoincidenceWindowSpec", "DEFAULT_BETA2", "DelayHistogram",
    "DetectorSpec", "FitDegenerate", "FitNotConverged", "FransonError",
    "FringePointResult", "FringeScan", "HistogramAccumulator", "LedgerEntry",
    "LossLedger", "MuScanRow", "PRESET_NAMES", "ParseError", "RatePrediction",
    "RunReport", "SLICE_PS", "ScanPlan", "Scenario", "SimDiagnostics",
    "SimulationConfig", "SourceSpec", "TimingDriftSpec", "ValidationError",
    "VisibilityEstimate", "VisibilityPrediction", "WindowOptimization",
    "WindowScore", "accidental_rate", "bell_verdict", "build_arm_ledger",
    "build_histogram", "build_ledger", "calibrate_contrast",
    "chsh_from_visibility", "config_hash", "count_in_window", "dark_prob",
    "db_to_linear", "derive_seed", "dispersion_broaden", "emit_outputs",
    "fit_fringe", "franson_bin_probabilities", "iter_click_buckets",
    "linear_to_db", "load_config", "loss_reading_note", "optimize_window",
    "phase_grid", "predict_rates", "predict_visibility", "preset",
    "read_click_stream", "read_scan_csv", "run_scenario", "run_scenarios",
    "run_simulation", "save_config", "solve_beta2", "temp_to_phase",
    "visibility", "visibility_from_extrema", "wrap_phase",
    "write_click_stream", "write_scan_csv",
]
