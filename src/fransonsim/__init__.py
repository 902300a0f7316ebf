"""fransonsim: simulate and analyze time-energy entanglement links.

Pair generation, lossy dispersive channels, phase-scanned unbalanced
MZI analyzers, jittery dark-count-prone detectors, start-stop
coincidence histograms, fringe visibility and Bell-violation
verdicts — closed-form where possible, seeded Monte Carlo where not.

The package namespace holds the names README.md documents; everything
else is imported from its module.
"""

from .errors import (FitDegenerate, FransonError, ParseError,
                     ValidationError)
from .physics import (chsh_from_visibility, dispersion_broaden,
                      franson_bin_probabilities, solve_beta2)
from .montecarlo import (SimulationConfig, iter_click_buckets,
                         read_click_stream, run_simulation,
                         write_click_stream)
from .tia import HistogramAccumulator, build_histogram, fit_fringe
from .budget import (LinkModel, optimize_window, predict_rates,
                     predict_visibility)
from .scenarios import (ScanPlan, Scenario, load_config, measure_point,
                        preset, run_scenario, save_config)

__version__ = "0.1.0"

__all__ = [
    "FitDegenerate", "FransonError", "HistogramAccumulator",
    "LinkModel", "ParseError", "ScanPlan",
    "Scenario", "SimulationConfig", "ValidationError", "build_histogram",
    "chsh_from_visibility", "dispersion_broaden", "fit_fringe",
    "franson_bin_probabilities", "iter_click_buckets", "load_config",
    "measure_point", "optimize_window", "predict_rates",
    "predict_visibility", "preset", "read_click_stream", "run_scenario",
    "run_simulation", "save_config", "solve_beta2", "write_click_stream",
]
