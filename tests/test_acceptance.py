"""End-to-end release gates for the simulator and analysis toolkit.

Ten numbered checks, each printing one ``ACCEPTANCE <n> PASS|FAIL``
line (run with ``pytest -s tests/test_acceptance.py`` to watch them
stream).  Check 2's engine width measurement also pins the
detector-jitter width (``test_engine_jitter_width``).  The two long fringe simulations are shared through
module-scoped fixtures so each runs exactly once; everything here is
seeded, so every number below is bit-reproducible.

Checks 6 and 7 exercise full Monte Carlo fringe scans at realistic
link statistics and dominate the runtime (~15 s together on two
cores).  Their master seeds are frozen alongside the measured values:

* 100 km preset, 600 s/point, master seed 2
      -> fitted V = 0.80330 +/- 0.02479
* back-to-back preset, 60 s/point, master seed 1
      -> fitted V = 0.82449 +/- 0.00852

Both are fitted at the fringe frequency the plan implies (1 rad per
rad of phase setting).  The back-to-back value was 0.82445 until each
slice came to draw its arrival times as offsets from its own start:
the later slices' clicks moved by float rounding alone, and one more
coincidence (12 050 over the scan) fell in the central windows.  The
100 km value did not move.

The 20-trial visibility-ordering batch in check 7 runs on lossless
variants (all attenuation and detector-efficiency factors removed;
dispersion, jitter, dark counts, and windows kept).  Fringe
visibility is invariant under uniform transmission scaling while dark
counts are negligible — the coincidence peak and the photon-photon
accidental floor scale with the same efficiency product, so their
ratio, and hence V, does not move.  Dropping the ~56 dB of real loss
buys a ~10^5 speedup at matched statistical power.
"""

import math
import time
from dataclasses import replace
from typing import Optional, Tuple

import numpy as np
import pytest

from fransonsim.budget import (
    optimize_window,
    predict_rates,
    predict_visibility,
)
from fransonsim.montecarlo import (
    AnalyzerSpec,
    ChannelSpec,
    CoincidenceWindowSpec,
    DetectorSpec,
    SimDiagnostics,
    SimulationConfig,
    SourceSpec,
    TimingDriftSpec,
    derive_seed,
    iter_click_buckets,
    run_simulation,
)
from fransonsim.physics import (
    accidental_rate,
    chsh_from_visibility,
    dispersion_broaden,
    franson_bin_probabilities,
    solve_beta2,
)
from fransonsim.scenarios import (
    ScanPlan,
    Scenario,
    calibrate_contrast,
    phase_grid,
    preset,
    run_scenario,
)
from fransonsim.tia import (
    FringeScan,
    HistogramAccumulator,
    build_histogram,
    count_in_window,
    fit_fringe,
)

_GAUSS_FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))

#: Back-to-back visibility the analyzer contrast is calibrated to.
CAL_TARGET = 0.8358
#: Acceptance band for the 100 km fringe: 0.805 +/- 0.07.
BAND_LO, BAND_HI = 0.735, 0.875

#: Frozen master seeds for the two heavyweight runs (see module doc).
HUNDRED_KM_SEED = 2
B2B_SEED = 1
#: Per-point acquisition for those runs.  600 s/point over 16 points
#: is 2.7 h of simulated beam time — the several-hour curve the
#: 100 km link needs at its ~0.2 Hz windowed coincidence rate — and
#: yields O(100) coincidences per point, at or above the per-point
#: statistics of the measurement the acceptance band comes from.
HUNDRED_KM_ACQ_S = 600.0
B2B_ACQ_S = 60.0


def _verdict(num: int, ok: bool, desc: str) -> bool:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} — {desc}")
    return ok


def _with_acquisition(scenario: Scenario, seconds: float) -> Scenario:
    return replace(scenario,
                   plan=replace(scenario.plan,
                                acquisition_s_per_point=seconds))


# ---------------------------------------------------------------------------
# Shared heavyweight runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hundred_km_report():
    scenario = preset("paper-100km", master_seed=HUNDRED_KM_SEED)
    return run_scenario(_with_acquisition(scenario, HUNDRED_KM_ACQ_S))


@pytest.fixture(scope="module")
def b2b_report():
    scenario = preset("back-to-back", master_seed=B2B_SEED)
    return run_scenario(_with_acquisition(scenario, B2B_ACQ_S))


# ---------------------------------------------------------------------------
# 1. Dark-count probability per coincidence window
# ---------------------------------------------------------------------------

def test_acceptance_01_dark_window_probability():
    # per-window click probability = rate * window: the accidental
    # rate of the dark stream against a 1 Hz stream
    p = accidental_rate(100.0, 1.0, 100.0)
    ok = p == 1.0e-8
    assert _verdict(1, ok,
                    "100 Hz dark rate x 100 ps window -> 1.0e-8 per "
                    "window, exact"), p


# ---------------------------------------------------------------------------
# 2. Dispersion self-consistency (closed form and Monte Carlo)
# ---------------------------------------------------------------------------

def _timing_config(fiber_km: float, beta2: Optional[float],
                   jitter_fwhm_ps: float) -> SimulationConfig:
    """Lossless, dark-free link of two equal arms; the 1000 ps analyzer
    delay parks the side peaks far from the central one."""
    channel = ChannelSpec(fiber_length_km=fiber_km, fiber_loss_db_per_km=0.0,
                          beta2_ps2_per_km=beta2)
    analyzer = AnalyzerSpec(delay_ps=1000.0, insertion_loss_db=0.0,
                            phase_rad=0.0)
    detector = DetectorSpec(quantum_efficiency=1.0, dark_rate_hz=0.0,
                            jitter_fwhm_ps=jitter_fwhm_ps)
    return SimulationConfig(
        source=SourceSpec(mean_pairs_per_window=1.0e-4),
        channel_signal=channel, channel_idler=channel,
        analyzer_signal=analyzer, analyzer_idler=analyzer,
        detector_signal=detector, detector_idler=detector,
        acquisition_time_s=0.3, master_seed=12345)


def _per_arm_fwhm(config: SimulationConfig,
                  half_window_ps: int) -> Tuple[float, int]:
    """Per-arm timing FWHM the engine produces: the Gaussian FWHM of
    the central start-stop delay peak over sqrt(2), from the delays
    within +/- half_window_ps (wider windows let the flat accidental
    floor inflate the width).  Returns (FWHM, number of delays)."""
    sig, idl, _ = run_simulation(config)
    hist = build_histogram(sig.times_ps, idl.times_ps, 1, half_window_ps)
    n = hist.counts
    centers = hist.centers()
    mean = float((centers * n).sum() / n.sum())
    var = float(((centers - mean) ** 2 * n).sum() / n.sum())
    return _GAUSS_FWHM * math.sqrt(var / 2.0), int(n.sum())


def test_acceptance_02_dispersion_self_consistency():
    beta2 = solve_beta2(4.0, 25.0, 50.0)
    analytic = dispersion_broaden(4.0, beta2, 50.0)
    analytic_err = abs(analytic - 25.0) / 25.0

    mc_fwhm, n_delays = _per_arm_fwhm(_timing_config(50.0, beta2, 0.0), 100)
    mc_err = abs(mc_fwhm - 25.0) / 25.0

    ok = analytic_err <= 1.0e-3 and mc_err <= 0.05 and n_delays >= 100_000
    assert _verdict(2, ok,
                    f"beta2 pinned from 4 ps -> 25 ps @ 50 km: closed "
                    f"form off by {analytic_err:.2e}, engine per-arm "
                    f"FWHM {mc_fwhm:.2f} ps from {n_delays} central-peak "
                    f"delays over 2 x 50 km (off by {mc_err:.1%})")


def test_engine_jitter_width():
    # no fiber: per-arm width is the 4 ps photon and 65 ps jitter in
    # quadrature; +/-200 ps is 5 sigma of the central peak
    fwhm, n_delays = _per_arm_fwhm(_timing_config(0.0, None, 65.0), 200)
    want = math.hypot(65.0, 4.0)
    assert n_delays >= 100_000
    assert abs(fwhm - want) < 0.05 * want, fwhm


# ---------------------------------------------------------------------------
# 3. Bell arithmetic
# ---------------------------------------------------------------------------

def test_acceptance_03_bell_arithmetic():
    s_high, violates_high = chsh_from_visibility(0.805)
    s_low, violates_low = chsh_from_visibility(0.7071)
    ok = (abs(s_high - 2.277) <= 1.0e-3 and violates_high
          and not violates_low)
    assert _verdict(3, ok,
                    f"V=0.805 -> S={s_high:.4f} (violation), "
                    f"V=0.7071 -> S={s_low:.4f} (no violation)")


# ---------------------------------------------------------------------------
# 4. Ideal-limit fringe
# ---------------------------------------------------------------------------

def test_acceptance_04_ideal_limit_fringe():
    t0 = time.perf_counter()
    report = run_scenario(preset("ideal"))
    elapsed = time.perf_counter() - t0

    worst_point = min(p.counts_central + p.counts_side_early
                      + p.counts_side_late for p in report.points)
    est = report.estimate
    pull = abs(est.visibility - 1.0) / est.sigma_visibility
    ok = (not report.fit_degenerate
          and worst_point >= 10_000
          and pull <= 3.0
          and elapsed < 60.0)
    assert _verdict(4, ok,
                    f"lossless/noiseless 16-point fringe: V = "
                    f"{est.visibility:.6f} +/- {est.sigma_visibility:.6f} "
                    f"({pull:.1f} sigma from 1), >= {worst_point} "
                    f"pairs/point, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 5. Analytic vs Monte Carlo bin fractions
# ---------------------------------------------------------------------------

def _sharp_point_config(theta_s: float, seed: int) -> SimulationConfig:
    """Narrow-photon, lossless, noiseless single fringe point.

    0.5 ps photons inside 20 ps windows park essentially all of each
    peak's mass inside its window, so the three windowed counts
    follow the three-bin interference law directly.
    """
    return SimulationConfig(
        source=SourceSpec(photon_fwhm_ps=0.5, mean_pairs_per_window=1.0e-4),
        channel_signal=ChannelSpec(fiber_length_km=0.0),
        channel_idler=ChannelSpec(fiber_length_km=0.0),
        analyzer_signal=AnalyzerSpec(insertion_loss_db=0.0,
                                     phase_rad=theta_s),
        analyzer_idler=AnalyzerSpec(insertion_loss_db=0.0, phase_rad=0.0),
        detector_signal=DetectorSpec(quantum_efficiency=1.0,
                                     dark_rate_hz=0.0, jitter_fwhm_ps=0.0),
        detector_idler=DetectorSpec(quantum_efficiency=1.0,
                                    dark_rate_hz=0.0, jitter_fwhm_ps=0.0),
        tia=CoincidenceWindowSpec(window_ps=20.0, histogram_bin_ps=10.0),
        acquisition_time_s=0.4,
        master_seed=seed,
    )


def test_acceptance_05_analytic_mc_equivalence():
    master = 2026
    delay = 100.0  # analyzer delay -> side-peak positions
    total = 0.0
    worst_z = 0.0
    # Eight phases uniformly spanning 2*pi, offset half a step so no
    # point sits exactly on the fringe null, where the central-bin
    # probability is 0 and the multinomial error bar collapses to
    # zero width (any physical accidental coincidence would then
    # read as infinitely significant).
    for k in range(8):
        theta = (2 * k + 1) * math.pi / 8.0
        config = _sharp_point_config(theta, derive_seed(master, k))
        acc = HistogramAccumulator(10.0, delay + 20.0)
        for hi, sig_t, _, idl_t, _ in iter_click_buckets(config,
                                                         SimDiagnostics()):
            acc.add_bucket(sig_t, idl_t, hi)
        hist = acc.finalize()
        observed = np.array(
            [count_in_window(hist, c, 20.0) for c in (0.0, -delay, delay)],
            dtype=float)
        n = observed.sum()
        total += n
        probs = np.array(franson_bin_probabilities(theta, 0.0))
        probs = probs / probs.sum()
        z = np.abs(observed - n * probs) / np.sqrt(n * probs * (1.0 - probs))
        worst_z = max(worst_z, float(z.max()))
    ok = total >= 1.0e6 and worst_z <= 4.0
    assert _verdict(5, ok,
                    f"{int(total)} detected pairs over 8 phases: worst "
                    f"bin deviation {worst_z:.2f} sigma (multinomial)")


# ---------------------------------------------------------------------------
# 6. 100 km visibility band
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_06_hundred_km_band(hundred_km_report):
    report = hundred_km_report
    scenario = preset("paper-100km", master_seed=HUNDRED_KM_SEED)
    assert not scenario.config.drift.enabled
    assert scenario.config.analyzer_signal.contrast == calibrate_contrast()

    est = report.estimate
    counts = [p.counts_central for p in report.points]
    ok = (not report.fit_degenerate
          and BAND_LO <= est.visibility <= BAND_HI
          and est.sigma_visibility <= 0.05
          and sum(counts) >= 1000
          and sum(counts) / len(counts) >= 50
          and min(counts) >= 5
          and report.acquisition_s_per_point * len(counts) >= 2 * 3600)
    assert _verdict(6, ok,
                    f"100 km fringe at {HUNDRED_KM_ACQ_S:.0f} s/point: "
                    f"V = {est.visibility:.4f} +/- "
                    f"{est.sigma_visibility:.4f} in [{BAND_LO}, {BAND_HI}], "
                    f"{sum(counts)} coincidences over {len(counts)} points "
                    f"(min {min(counts)}/point)")


# ---------------------------------------------------------------------------
# 7. Back-to-back calibration and visibility ordering
# ---------------------------------------------------------------------------

def _lossless_variant(config: SimulationConfig,
                      seed: int) -> SimulationConfig:
    """Strip every flat efficiency factor; keep the physics that
    shapes V (dispersion, jitter, darks, windows, contrast)."""
    return replace(
        config,
        channel_signal=replace(config.channel_signal,
                               fiber_loss_db_per_km=0.0,
                               pre_fiber_loss_db=0.0),
        channel_idler=replace(config.channel_idler,
                              fiber_loss_db_per_km=0.0,
                              pre_fiber_loss_db=0.0),
        analyzer_signal=replace(config.analyzer_signal,
                                insertion_loss_db=0.0),
        analyzer_idler=replace(config.analyzer_idler,
                               insertion_loss_db=0.0),
        detector_signal=replace(config.detector_signal,
                                quantum_efficiency=1.0),
        detector_idler=replace(config.detector_idler,
                               quantum_efficiency=1.0),
        master_seed=seed,
    )


def _lossless_visibility(base: Scenario, name: str, seed: int) -> float:
    plan = ScanPlan(settings=phase_grid(16),
                    acquisition_s_per_point=1.0e-4)
    scenario = Scenario(name=name,
                        config=_lossless_variant(base.config, seed),
                        plan=plan)
    report = run_scenario(scenario)
    assert not report.fit_degenerate
    return report.estimate.visibility


@pytest.mark.slow
def test_acceptance_07_back_to_back_calibration_and_ordering(b2b_report):
    predicted = predict_visibility(preset("back-to-back").config).visibility
    est = b2b_report.estimate
    calibration_ok = (abs(predicted - CAL_TARGET) <= 1.0e-12
                      and abs(est.visibility - CAL_TARGET) <= 0.03)

    b2b_base = preset("back-to-back")
    km_base = preset("paper-100km")
    flips = []
    for trial in range(20):
        v_b2b = _lossless_visibility(b2b_base, f"b2b-t{trial}", trial)
        v_km = _lossless_visibility(km_base, f"km-t{trial}", trial)
        if not v_b2b > v_km:
            flips.append((trial, v_b2b, v_km))

    ok = calibration_ok and not flips
    assert _verdict(7, ok,
                    f"calibrated link: predicted V = {predicted:.10f}, "
                    f"simulated V = {est.visibility:.4f} +/- "
                    f"{est.sigma_visibility:.4f} (target {CAL_TARGET} "
                    f"+/- 0.03); back-to-back > 100 km on 20/20 matched "
                    f"seeds"), flips


# ---------------------------------------------------------------------------
# 8. Rate prediction vs the 2 Hz observation
# ---------------------------------------------------------------------------

def test_acceptance_08_rate_prediction():
    rates = predict_rates(preset("paper-100km").config)
    ratio = rates.both_rate_hz / 2.0
    ok = (1.0 / 3.0 <= ratio <= 3.0
          and "summed" in rates.loss_note
          and "split" in rates.loss_note)
    assert _verdict(8, ok,
                    f"100 km coincidence rate predicted at "
                    f"{rates.both_rate_hz:.3f} Hz — within a factor "
                    f"{max(ratio, 1.0 / ratio):.2f} of 2 Hz; loss "
                    f"reading documented in the report"), rates.loss_note


# ---------------------------------------------------------------------------
# 9. Window optimization direction under drift
# ---------------------------------------------------------------------------

def test_acceptance_09_window_optimization_direction():
    grid = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0]
    drift_config = preset("window-sweep").config
    assert drift_config.drift.enabled

    chosen = optimize_window(drift_config, grid, "s_value")
    s_by_window = {e.window_ps: e.s_value for e in chosen.entries}

    still_config = replace(drift_config, drift=TimingDriftSpec())
    control = optimize_window(still_config, grid, "s_value")

    ok = (chosen.best_window_ps == 100.0
          and s_by_window[100.0] > s_by_window[60.0]
          and control.best_window_ps == 60.0)
    assert _verdict(9, ok,
                    f"with timing drift the optimizer widens the "
                    f"window to {chosen.best_window_ps:.0f} ps "
                    f"(S = {s_by_window[100.0]:.4f} vs "
                    f"{s_by_window[60.0]:.4f} at 60 ps); without drift "
                    f"it keeps {control.best_window_ps:.0f} ps")


# ---------------------------------------------------------------------------
# 10. Module invariants, re-checked end to end
# ---------------------------------------------------------------------------

def test_acceptance_10_property_suites():
    # Determinism: identical configs -> bit-identical click streams.
    config = _sharp_point_config(0.7, seed=99)
    config = replace(config, acquisition_time_s=0.01)
    sig_a, idl_a, diag = run_simulation(config)
    sig_b, idl_b, _ = run_simulation(config)
    deterministic = (np.array_equal(sig_a.times_ps, sig_b.times_ps)
                     and np.array_equal(idl_a.times_ps, idl_b.times_ps))

    # Conservation: the diagnostic funnel only narrows.
    conserved = (diag.pairs_both_detectable
                 <= min(diag.pairs_signal_detectable,
                        diag.pairs_idler_only_detectable
                        + diag.pairs_both_detectable)
                 and diag.pairs_signal_detectable <= diag.pairs_generated
                 and sig_a.true_count <= diag.pairs_signal_detectable
                 and diag.pairs_generated > 0)

    # Monotonicity: raising the pair rate only dilutes visibility.
    base = preset("back-to-back").config
    vs = [predict_visibility(
              replace(base, source=replace(base.source,
                                           mean_pairs_per_window=mu))
          ).visibility
          for mu in (0.001, 0.01, 0.05, 0.1, 0.2)]
    monotone = all(a > b for a, b in zip(vs, vs[1:]))

    # Fit recovery: a clean synthetic fringe comes back unchanged.
    phases = np.array(phase_grid(16))
    expected = 40.0 * (1.0 + 0.62 * np.cos(phases + 0.3)) * 10.0
    fit = fit_fringe(FringeScan(settings=phases, counts=expected,
                                acquisition_s=10.0))
    recovered = abs(fit.visibility - 0.62) <= 0.01

    # Argmax invariance: the optimizer ignores grid order.
    cfg = preset("window-sweep").config
    grid = [60.0, 80.0, 100.0, 120.0, 140.0]
    best = optimize_window(cfg, grid, "s_value").best_window_ps
    permuted = optimize_window(cfg, grid[::-1], "s_value").best_window_ps
    stable = best == permuted

    ok = (deterministic and conserved and monotone and recovered
          and stable)
    assert _verdict(10, ok,
                    "re-checked end to end: determinism, conservation, "
                    "visibility monotonicity, fit recovery, argmax "
                    "invariance (full property suites live in the "
                    "module test files)")
