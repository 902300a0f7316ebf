"""Scenario presets, config I/O, pipeline, and output emission."""

import csv
import dataclasses
import importlib
import json
import math
import re
import threading
import time
import tracemalloc
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fransonsim.errors import ParseError, ValidationError
from fransonsim.physics import chsh_from_visibility
from fransonsim import montecarlo, scenarios
from fransonsim.montecarlo import (SimulationConfig, TimingDriftSpec,
                                   derive_seed)
from fransonsim.budget import (bell_verdict, optimize_window, predict_rates,
                              predict_visibility)
from fransonsim.scenarios import (CALIBRATION_TARGET_VISIBILITY,
                                  PRESET_NAMES, ScanPlan, Scenario,
                                  calibrate_contrast, config_hash,
                                  budget_report, emit_outputs,
                                  load_config, measure_point, phase_grid,
                                  point_report, preset, run_scenario,
                                  save_config)
from fransonsim.tia import (FringeScan, build_histogram, count_in_window,
                            fit_fringe)

PERFBENCH = Path(__file__).parents[1] / "perfbench"

# back-to-back target divided by the unit-contrast prediction, square
# root shared between the two analyzers (frozen; matches test_budget)
CAL_CONTRAST = 0.9756419240289781


def tiny_ideal(n_points=6, acq=0.02, seed=0, **scenario_kw):
    s = preset("ideal", master_seed=seed)
    return replace(s, plan=ScanPlan(settings=phase_grid(n_points),
                                    acquisition_s_per_point=acq),
                   **scenario_kw)


# ---------------------------------------------------------------------------
# calibration and grids
# ---------------------------------------------------------------------------

def test_calibrated_contrast_frozen_value():
    assert calibrate_contrast() == pytest.approx(CAL_CONTRAST, abs=1e-12)


def test_calibration_closes_on_target():
    cfg = preset("back-to-back").config
    v = predict_visibility(cfg).visibility
    assert v == pytest.approx(CALIBRATION_TARGET_VISIBILITY, abs=1e-12)


def test_phase_grid():
    g = phase_grid(16)
    assert len(g) == 16 and g[0] == 0.0
    steps = np.diff(g)
    assert np.allclose(steps, 2 * math.pi / 16)
    assert g[-1] < 2 * math.pi
    with pytest.raises(ValidationError):
        phase_grid(0)
    with pytest.raises(ValidationError):
        phase_grid(2.5)


# ---------------------------------------------------------------------------
# plan / scenario validation
# ---------------------------------------------------------------------------

def test_scan_plan_validation():
    ok = ScanPlan(settings=(0.0, 1.0), acquisition_s_per_point=1.0)
    assert ok.abscissa == "phase" and ok.scanned == "signal"
    with pytest.raises(ValidationError):
        ScanPlan(settings=(), acquisition_s_per_point=1.0)
    with pytest.raises(ValidationError):
        ScanPlan(settings=(0.0,), acquisition_s_per_point=0.0)
    with pytest.raises(ValidationError):
        ScanPlan(settings=(math.inf,), acquisition_s_per_point=1.0)
    with pytest.raises(ValidationError):
        ScanPlan(settings=(0.0,), acquisition_s_per_point=1.0,
                 abscissa="voltage")
    with pytest.raises(ValidationError):
        ScanPlan(settings=(0.0,), acquisition_s_per_point=1.0,
                 scanned="pump")


def test_scenario_needs_exactly_one_mode():
    cfg = preset("ideal").config
    plan = ScanPlan(settings=(0.0,), acquisition_s_per_point=1.0)
    with pytest.raises(ValidationError, match="exactly one"):
        Scenario(name="x", config=cfg)
    with pytest.raises(ValidationError, match="exactly one"):
        Scenario(name="x", config=cfg, plan=plan, mu_grid=(0.1,))
    assert Scenario(name="x", config=cfg, plan=plan).mode == "fringe"
    assert Scenario(name="x", config=cfg,
                    window_grid_ps=(60.0,)).mode == "window-sweep"
    assert Scenario(name="x", config=cfg, mu_grid=(0.1,)).mode == "mu-sweep"


def test_scenario_and_optimize_window_share_one_window_grid_rule():
    # a 250 ps window on the 100 ps analyzer delay swallows the side
    # peaks: refused at construction, as optimize_window refuses it
    cfg = preset("window-sweep").config
    assert cfg.analyzer_signal.delay_ps == 100.0
    for grid in ((60.0, 250.0), (), (0.0, 60.0), (60.0, math.nan)):
        with pytest.raises(ValidationError, match="window_grid_ps"):
            Scenario(name="x", config=cfg, window_grid_ps=grid)
        with pytest.raises(ValidationError, match="window_grid_ps"):
            optimize_window(cfg, grid)


def test_scenario_name_is_filename_safe():
    cfg = preset("ideal").config
    plan = ScanPlan(settings=(0.0,), acquisition_s_per_point=1.0)
    for bad in ("", "a/b", "a b", ".hidden", "-lead"):
        with pytest.raises(ValidationError):
            Scenario(name=bad, config=cfg, plan=plan)


def test_temperature_scan_needs_coefficient():
    cfg = preset("ideal").config
    plan = ScanPlan(settings=(20.0, 21.0), acquisition_s_per_point=1.0,
                    abscissa="temperature")
    with pytest.raises(ValidationError, match="phase_per_kelvin"):
        Scenario(name="t", config=cfg, plan=plan)
    an = replace(cfg.analyzer_signal, phase_rad=None, temperature_c=20.0,
                 phase_per_kelvin_rad=0.4)
    cfg2 = replace(cfg, analyzer_signal=an, analyzer_idler=an)
    Scenario(name="t", config=cfg2, plan=plan)  # valid now
    # a zero coefficient holds every point at one phase: nothing to fit
    flat = replace(an, phase_per_kelvin_rad=0.0)
    with pytest.raises(ValidationError, match="non-zero phase_per_kelvin"):
        Scenario(name="t", config=replace(cfg, analyzer_signal=flat),
                 plan=plan)
    # and a phase scan needs a phase-driven analyzer
    with pytest.raises(ValidationError, match="phase-driven analyzer"):
        Scenario(name="t", config=cfg2, plan=replace(plan, abscissa="phase"))


@pytest.mark.parametrize("fields, message", [
    (dict(mu_grid=(0.1, 0.0)), "mu_grid must be a non-empty"),
    (dict(mu_grid=(-0.1,)), "mu_grid must be a non-empty"),
    (dict(mu_grid=(math.nan,)), "mu_grid must be a non-empty"),
    (dict(mu_grid=()), "mu_grid must be a non-empty"),
    (dict(window_grid_ps=(60.0,), window_objective="visibility"),
     "window_objective must be one of"),
])
def test_scenario_refuses_a_bad_sweep(fields, message):
    with pytest.raises(ValidationError, match=message):
        Scenario(name="x", config=preset("ideal").config, **fields)


def test_scenario_refuses_an_unfittable_plan():
    s = preset("ideal")
    # phases 0 and pi only: refused when built, before any point runs
    two = ScanPlan(settings=(0.0, math.pi, 2.0 * math.pi, 3.0 * math.pi,
                             0.0, math.pi), acquisition_s_per_point=0.05)
    with pytest.raises(ValidationError, match="three distinct"):
        replace(s, plan=two)
    # the same phases as temperatures at pi rad per kelvin
    an = replace(s.config.analyzer_signal, phase_rad=None,
                 temperature_c=20.0, phase_per_kelvin_rad=math.pi)
    warm = ScanPlan(settings=tuple(20.0 + k for k in range(6)),
                    acquisition_s_per_point=0.05, abscissa="temperature")
    with pytest.raises(ValidationError, match="three distinct"):
        replace(s, config=replace(s.config, analyzer_signal=an), plan=warm)
    # fewer than MIN_FIT_POINTS settings are not fitted: accepted
    replace(s, plan=replace(two, settings=(0.0, math.pi, 2.0 * math.pi)))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_preset_catalog():
    seen = set()
    for name in PRESET_NAMES:
        s = preset(name)
        assert s.name == name
        seen.add(name)
    assert len(seen) == 5
    with pytest.raises(ValidationError, match="unknown preset"):
        preset("warp-drive")


def test_preset_stock_link_parameters():
    s = preset("paper-100km")
    cfg = s.config
    assert cfg.channel_signal.fiber_length_km == 50.0
    assert cfg.channel_signal.pre_fiber_loss_db == 10.0
    assert cfg.analyzer_signal.insertion_loss_db == 5.0
    assert cfg.analyzer_signal.delay_ps == 100.0
    assert cfg.detector_signal.quantum_efficiency == 0.007
    assert cfg.detector_idler.quantum_efficiency == 0.021
    assert cfg.detector_signal.dark_rate_hz == 100.0
    # per-detector jitter adds in quadrature to the 65 ps pair budget
    j = cfg.detector_signal.jitter_fwhm_ps
    assert math.hypot(j, j) == pytest.approx(65.0, rel=1e-12)
    assert cfg.tia.window_ps == 100.0
    assert cfg.source.mean_pairs_per_window == 0.05
    assert cfg.analyzer_signal.contrast == pytest.approx(CAL_CONTRAST)
    assert s.plan.acquisition_s_per_point == 2400.0
    assert len(s.plan.settings) == 16


def test_preset_back_to_back_drops_fiber_only():
    b2b = preset("back-to-back").config
    paper = preset("paper-100km").config
    assert b2b.channel_signal.fiber_length_km == 0.0
    assert b2b.channel_signal.pre_fiber_loss_db == \
        paper.channel_signal.pre_fiber_loss_db
    assert b2b.tia.window_ps == 60.0


def test_preset_ideal_is_noise_free():
    cfg = preset("ideal").config
    assert cfg.channel_signal.fiber_length_km == 0.0
    assert cfg.detector_signal.quantum_efficiency == 1.0
    assert cfg.detector_signal.dark_rate_hz == 0.0
    assert cfg.detector_signal.jitter_fwhm_ps == 0.0
    assert cfg.analyzer_signal.contrast == 1.0
    assert cfg.analyzer_signal.insertion_loss_db == 0.0


def test_preset_window_sweep_has_drift_and_grid():
    s = preset("window-sweep")
    assert s.config.drift.enabled
    assert s.config.drift.channel == "idler"
    assert s.config.drift.offset_ps == 40.0
    assert s.window_grid_ps == tuple(float(w) for w in range(60, 150, 10))


def test_preset_seeding():
    assert preset("ideal", master_seed=9).config.master_seed == 9


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = preset("paper-100km").config
    p = tmp_path / "cfg.json"
    save_config(cfg, p)
    loaded = load_config(p)
    assert isinstance(loaded, SimulationConfig)
    assert loaded == cfg


def temperature_scan():
    """back-to-back scanned by the signal analyzer's temperature."""
    s = preset("back-to-back")
    an = replace(s.config.analyzer_signal, phase_rad=None,
                 temperature_c=22.5, phase_per_kelvin_rad=0.8)
    return replace(s, name="temperature-scan",
                   config=replace(s.config, analyzer_signal=an),
                   plan=ScanPlan(settings=(21.0, 22.25, 23.5),
                                 acquisition_s_per_point=1.0,
                                 abscissa="temperature"))


@pytest.mark.parametrize("coeff", [0.8, -0.8])
def test_temperature_scan_fits_at_its_calibration(coeff):
    s = temperature_scan()
    an = replace(s.config.analyzer_signal, phase_per_kelvin_rad=coeff)
    s = replace(s, config=replace(s.config, analyzer_signal=an),
                plan=replace(s.plan, acquisition_s_per_point=2.0,
                             settings=tuple(19.0 + k for k in range(8))))
    report = run_scenario(s)
    est = report.estimate
    assert not report.fit_degenerate
    assert est.frequency == 0.8
    # the same counts as a phase scan, at 1 rad per rad, give the same V
    settings = np.array([p.setting for p in report.points])
    phases = coeff * (settings - an.reference_temp_c)
    at_phase = fit_fringe(FringeScan(
        settings=phases, counts=np.array([p.counts_central
                                          for p in report.points]),
        acquisition_s=report.acquisition_s_per_point))
    assert at_phase.frequency == 1.0
    assert est.visibility == pytest.approx(at_phase.visibility,
                                           rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", PRESET_NAMES + ("temperature-scan",))
def test_scenario_round_trip(tmp_path, name):
    s = temperature_scan() if name == "temperature-scan" else preset(name)
    p = tmp_path / "scn.json"
    save_config(s, p)
    loaded = load_config(p)
    assert isinstance(loaded, Scenario)
    assert loaded == s


def test_config_only_reads_a_planless_scenario_file(tmp_path):
    # the budget's reading: the config alone, the other keys checked
    cfg = preset("ideal").config
    doc = {"name": "x", "config": dataclasses.asdict(cfg)}
    p = tmp_path / "planless.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="exactly one"):
        load_config(p)
    assert load_config(p, config_only=True) == cfg
    p.write_text(json.dumps(dict(doc, plna=None)))
    with pytest.raises(ValidationError, match=r"scenario\.plna: unknown"):
        load_config(p, config_only=True)


def test_round_trip_preserves_floats_exactly(tmp_path):
    cfg = replace(preset("ideal").config,
                  source=replace(preset("ideal").config.source,
                                 pump_phase_offset_rad=math.pi / 7))
    p = tmp_path / "cfg.json"
    save_config(cfg, p)
    assert load_config(p).source.pump_phase_offset_rad == math.pi / 7


def test_empty_file_is_parse_error_with_position(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    with pytest.raises(ParseError, match=r":1:1"):
        load_config(p)


def test_unknown_key_names_dotted_path(tmp_path):
    doc = json.loads(json.dumps({"tia": {"window_pz": 100}}))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"config\.tia\.window_pz"):
        load_config(p)


def test_franson_hierarchy_rejected_at_load(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "analyzer_signal": {"delay_ps": 2.0},
        "analyzer_idler": {"delay_ps": 2.0},
    }))
    with pytest.raises(ValidationError, match="^config: Franson"):
        load_config(p)
    p.write_text(json.dumps({"source": {"photon_fwhm_ps": -1}}))
    with pytest.raises(ValidationError,
                       match=r"^config\.source: photon_fwhm_ps must be > 0"):
        load_config(p)


def test_scalar_type_checks(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"master_seed": "five"}))
    with pytest.raises(ValidationError, match="master_seed"):
        load_config(p)
    p.write_text(json.dumps({"master_seed": 1.5}))
    with pytest.raises(ValidationError, match="integer"):
        load_config(p)
    p.write_text(json.dumps({"drift": {"enabled": 1}}))
    with pytest.raises(ValidationError, match="true/false"):
        load_config(p)
    p.write_text(json.dumps({"source": {"photon_fwhm_ps": None}}))
    with pytest.raises(ValidationError, match="null"):
        load_config(p)
    # strict JSON numbers: Python's json module would accept these
    for text, path in (('{"source": {"mean_pairs_per_window": Infinity}}',
                        r"config\.source\.mean_pairs_per_window"),
                       ('{"drift": {"walk_interval_ps": Infinity}}',
                        r"config\.drift\.walk_interval_ps"),
                       ('{"acquisition_time_s": -Infinity}',
                        r"config\.acquisition_time_s"),
                       ('{"acquisition_time_s": NaN}',
                        r"config\.acquisition_time_s"),
                       ('{"acquisition_time_s": 1e400}',
                        r"config\.acquisition_time_s"),
                       ('{"acquisition_time_s": 1%s}' % ("0" * 400),
                        r"config\.acquisition_time_s")):
        p.write_text(text)
        with pytest.raises(ValidationError,
                           match=rf"^{path}: expected a finite number"):
            load_config(p)
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(ValidationError, match="top level"):
        load_config(p)


def _kind_cases(obj, path):
    """(dotted path, keys, wrong-kind JSON value) for each field of the
    dataclass ``obj`` and of the dataclasses nested in it, after
    checking each field's annotation against the type of its value."""
    hints = typing.get_type_hints(type(obj))
    assert set(hints) == {f.name for f in dataclasses.fields(obj)}
    wrong = {bool: 1, int: 1.5, float: "1", str: 5}
    for name, hint in hints.items():
        sub, value = f"{path}.{name}", getattr(obj, name)
        args = typing.get_args(hint)
        if type(None) in args:
            (hint,) = [a for a in args if a is not type(None)]
        else:
            assert value is not None, sub
        if dataclasses.is_dataclass(hint):
            assert value is None or type(value) is hint, sub
            yield sub, [name], 5
            if value is not None:
                for deeper, keys, bad in _kind_cases(value, sub):
                    yield deeper, [name] + keys, bad
        elif typing.get_origin(hint) is tuple:
            item = typing.get_args(hint)[0]
            assert value is None or all(type(v) is item for v in value), sub
            yield sub, [name], 5
        else:
            assert value is None or type(value) is hint, sub
            yield sub, [name], wrong[hint]


def test_field_kinds_match_defaults(tmp_path):
    p = tmp_path / "bad.json"
    for root, obj in (("config", SimulationConfig()),
                      ("scenario", preset("paper-100km"))):
        for path, keys, bad in _kind_cases(obj, root):
            doc = dataclasses.asdict(obj)
            parent = doc
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = bad
            p.write_text(json.dumps(doc))
            with pytest.raises(ValidationError,
                               match=rf"^{re.escape(path)}: "):
                load_config(p)


def test_temperature_driven_analyzer_loads(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "analyzer_signal": {"phase_rad": None, "temperature_c": 21.0,
                            "phase_per_kelvin_rad": 0.5},
    }))
    cfg = load_config(p)
    assert cfg.analyzer_signal.phase_rad is None
    assert cfg.analyzer_signal.temperature_c == 21.0


def test_scenario_file_requires_name(tmp_path):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"config": {}}))
    with pytest.raises(ValidationError, match="name"):
        load_config(p)
    doc = dataclasses.asdict(preset("back-to-back"))
    del doc["plan"]["settings"]
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"^scenario\.plan\.settings: "
                       r"required key missing"):
        load_config(p)
    doc = dataclasses.asdict(preset("back-to-back"))
    doc["plan"]["abscissa"] = None
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError,
                       match=r"^scenario\.plan\.abscissa: null is not"):
        load_config(p)
    doc = dataclasses.asdict(preset("back-to-back"))
    p.write_text(json.dumps(doc).replace('"settings": [0.0',
                                         '"settings": [NaN'))
    with pytest.raises(ValidationError, match=r"^scenario\.plan\.settings"
                       r"\[0\]: expected a finite number, got nan"):
        load_config(p)


def test_partial_config_fills_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"acquisition_time_s": 2.5}))
    cfg = load_config(p)
    assert cfg.acquisition_time_s == 2.5
    assert cfg.source.mean_pairs_per_window == 0.05


def test_config_hash_is_stable_and_distinguishing():
    a = preset("paper-100km").config
    b = preset("back-to-back").config
    ha, hb = config_hash(a), config_hash(b)
    assert ha != hb
    assert len(ha) == 12 and all(c in "0123456789abcdef" for c in ha)
    assert config_hash(preset("paper-100km").config) == ha
    assert config_hash(replace(a, master_seed=1)) != ha


# ---------------------------------------------------------------------------
# fringe pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ideal_report():
    return run_scenario(tiny_ideal(n_points=8, acq=0.02, seed=3))


def test_ideal_fringe_recovers_unit_visibility(ideal_report):
    est = ideal_report.estimate
    assert not ideal_report.fit_degenerate
    assert est.visibility == pytest.approx(
        1.0, abs=max(4 * est.sigma_visibility, 1e-3))
    assert est.frequency == 1.0


def test_report_verdict_matches_bell_arithmetic(ideal_report):
    s, violates = chsh_from_visibility(ideal_report.estimate.visibility)
    assert ideal_report.s_value == pytest.approx(float(s), abs=1e-12)
    assert ideal_report.violates == bool(violates)


def test_per_point_seeds_are_derived(ideal_report):
    master = ideal_report.config.master_seed
    for k, p in enumerate(ideal_report.points):
        assert p.point_seed == derive_seed(master, k)
    seeds = [p.point_seed for p in ideal_report.points]
    assert len(set(seeds)) == len(seeds)


def test_report_carries_rates_and_diagnostics(ideal_report):
    assert ideal_report.events_generated > 0
    assert all(p.singles_signal > 0 and p.singles_idler > 0
               for p in ideal_report.points)
    assert ideal_report.mode == "fringe"
    assert ideal_report.acquisition_s_per_point == 0.02
    assert ideal_report.config_hash == config_hash(
        tiny_ideal(n_points=8, acq=0.02, seed=3).config)


def test_points_do_not_depend_on_later_points(ideal_report):
    # a truncated plan reproduces the shared prefix exactly: each point
    # depends only on (master seed, point index)
    short = tiny_ideal(n_points=8, acq=0.02, seed=3)
    short = replace(short, plan=replace(short.plan,
                                        settings=short.plan.settings[:3]))
    rep = run_scenario(short)
    for p_full, p_short in zip(ideal_report.points[:3], rep.points):
        assert p_full.counts_central == p_short.counts_central
        assert p_full.singles_signal == p_short.singles_signal


def test_fringe_run_is_deterministic():
    s = tiny_ideal(n_points=5, acq=0.01, seed=12)
    r1, r2 = run_scenario(s), run_scenario(s)
    assert [p.counts_central for p in r1.points] == \
        [p.counts_central for p in r2.points]
    assert r1.estimate.visibility == r2.estimate.visibility


def test_short_scan_collects_data_without_fit():
    rep = run_scenario(tiny_ideal(n_points=3, acq=0.005))
    assert rep.fit_degenerate
    assert rep.estimate is None
    assert len(rep.points) == 3


def test_starved_scan_reports_degenerate_fit():
    rep = run_scenario(tiny_ideal(n_points=5, acq=2e-7))
    assert rep.fit_degenerate
    assert rep.estimate is not None
    assert rep.estimate.visibility == 0.0
    assert not rep.violates


def test_scanned_idler_moves_the_fringe():
    base = tiny_ideal(n_points=6, acq=0.01, seed=4)
    swapped = replace(base, plan=replace(base.plan, scanned="idler"))
    r_sig, r_idl = run_scenario(base), run_scenario(swapped)
    # same physics either way: the fringe depends on the phase sum
    assert r_idl.estimate.visibility == pytest.approx(
        r_sig.estimate.visibility, abs=0.01)


def closed_form(config):
    return (predict_rates(config), predict_visibility(config).visibility,
            predict_visibility(config, include_side_leak=True).visibility)


def test_fringe_prediction_is_the_closed_form_of_the_points_config():
    # a drift walk spreads with the acquisition time, so the predicted
    # block reads the time the points run, not the config's own 1 s
    still = tiny_ideal(n_points=5, acq=0.01, seed=5)
    walk = TimingDriftSpec(enabled=True, channel="idler", walk_step_ps=1.0,
                           walk_interval_ps=2.0e7)
    walked = replace(still, config=replace(still.config, drift=walk))
    for scenario in (still, walked):
        report = run_scenario(scenario)
        point = replace(scenario.config, acquisition_time_s=0.01)
        assert (report.predicted_rates, report.predicted_visibility,
                report.predicted_visibility_raw) == closed_form(point)
        assert report.config_hash == config_hash(scenario.config)
    assert closed_form(still.config) == closed_form(
        replace(still.config, acquisition_time_s=0.01))
    assert closed_form(walked.config)[1] < closed_form(point)[1]


def _five_reports():
    """One report of each kind: a fringe scan, simulate's one-point
    report, a budget, a window sweep and a mu sweep."""
    scan = tiny_ideal(n_points=4, acq=0.01, seed=5)
    point = replace(scan.config, acquisition_time_s=0.01)
    link = preset("paper-100km", master_seed=6).config
    return {
        "fringe": (lambda: run_scenario(scan), point),
        "one-point": (lambda: point_report("one", point, measure_point(
            point, point.analyzer_signal.effective_phase_rad())), point),
        "budget": (lambda: budget_report("link", link), link),
        "window-sweep": (lambda: run_scenario(preset("window-sweep", 7)),
                         preset("window-sweep", 7).config),
        "mu-sweep": (lambda: run_scenario(preset("mu-sweep", 8)),
                     preset("mu-sweep", 8).config),
    }


@pytest.mark.parametrize("kind", ["fringe", "one-point", "budget",
                                  "window-sweep", "mu-sweep"])
def test_every_report_reads_its_closed_form_from_its_config(kind, tmp_path):
    run, config = _five_reports()[kind]
    report = run()
    assert report.config == config
    assert (report.predicted_rates, report.predicted_visibility,
            report.predicted_visibility_raw) == closed_form(report.config)
    doc = json.loads(Path(emit_outputs(report, tmp_path)[0]).read_text())
    assert doc["master_seed"] == config.master_seed
    assert doc["predicted"] == {
        "rates": dataclasses.asdict(predict_rates(config)),
        "visibility": predict_visibility(config).visibility,
        "visibility_raw_windowed": predict_visibility(
            config, include_side_leak=True).visibility}
    assert report.acquisition_s_per_point == config.acquisition_time_s
    if report.mode == "fringe":
        assert doc["acquisition_s_per_point"] == config.acquisition_time_s
    else:
        assert "acquisition_s_per_point" not in doc
    # none of the values the config fixes is stored on the report
    stored = {f.name for f in dataclasses.fields(scenarios.RunReport)}
    assert not stored & {"master_seed", "predicted_rates",
                         "visibility_prediction", "predicted_visibility_raw",
                         "ledger", "acquisition_s_per_point", "scan",
                         "events_generated", "s_value", "violates"}


def _drawn_walk(config):
    """config's drift walk as the engine draws it, one value (ps) per
    walk interval of the acquisition."""
    walk, width, span = montecarlo._DriftWalk(config), \
        montecarlo.slice_ps(config), config.span_ps()
    values = []
    for k in range(-(-span // width)):
        walk.advance(k, k * width, min(span, (k + 1) * width))
        values.append(walk.walk)
    return np.concatenate(values)


def _central_counts_given_walk(config, walk_ps):
    """Expected central-window counts of config when its drift walk
    takes the values walk_ps, one per walk interval: the closed form at
    each value as a constant offset (on a 1 ps grid, interpolated),
    averaged over the intervals."""
    grid = np.arange(math.floor(walk_ps.min()), math.ceil(walk_ps.max()) + 1)
    rates = [predict_rates(replace(config, drift=replace(
        config.drift, offset_ps=float(g), walk_step_ps=0.0)))
        .total_central_window_hz for g in grid]
    return config.acquisition_time_s \
        * float(np.interp(walk_ps, grid, rates).mean())


def test_walked_scan_fit_agrees_with_its_prediction():
    # back-to-back, 8 points of 7 s, a 1 ps per ms idler walk: over the
    # points' 7 s the walk spreads the peak by ~59 ps and takes the raw
    # visibility from 0.830 to 0.588; over the config's 1 s, to 0.788.
    # Each point draws its own walk, and a scan of 8 walks is far from
    # their mean spread: over master seeds 11-40 the fitted V has SD
    # 0.09-0.11 against a fit sigma of 0.05.  So the prediction a scan
    # must meet is the closed form under the walks its points drew:
    # each point's expected central counts average the closed form at
    # every millisecond's walk value, taken as a constant offset.
    # Over master seeds 11-40, on 10 s slices and on this engine's
    # 1.25 s slices, the Pearson chi^2 of the 8 counts against those
    # stayed <= 16.2 and <= 15.6 (bound: chi^2_8's 0.999 quantile), and
    # the fit's pull against their fit <= 2.91 and <= 2.36 in size: 0 of
    # 60 scans failed either.  Averaged over the first 1 s of each walk
    # (the config's own time) instead, chi^2 read 39.2 here and
    # exceeded the bound on 29 and 28 of the 30 seeds.
    scenario = preset("back-to-back", master_seed=11)
    walk = TimingDriftSpec(enabled=True, channel="idler", walk_step_ps=1.0,
                           walk_interval_ps=1e9)
    scenario = replace(scenario,
                       config=replace(scenario.config, drift=walk),
                       plan=ScanPlan(settings=phase_grid(8),
                                     acquisition_s_per_point=7.0))
    report = run_scenario(scenario)
    base = replace(scenario.config, acquisition_time_s=7.0)
    # the report's prediction reads the points' 7 s: its Gaussian walk
    # spread is the mean of the walks, not the spread of these eight
    assert report.predicted_visibility_raw == predict_visibility(
        base, include_side_leak=True).visibility
    expected, counts = [], []
    for p in report.points:
        point = replace(base, master_seed=p.point_seed,
                        analyzer_signal=replace(base.analyzer_signal,
                                                phase_rad=p.setting,
                                                temperature_c=None))
        expected.append(_central_counts_given_walk(point, _drawn_walk(point)))
        counts.append(p.counts_central)
    expected, counts = np.array(expected), np.array(counts)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 26.12
    given_walks = fit_fringe(FringeScan(
        np.array([p.setting for p in report.points]), expected, 7.0))
    est = report.estimate
    pull = (est.visibility - given_walks.visibility) / est.sigma_visibility
    assert abs(pull) < 3.0


# ---------------------------------------------------------------------------
# point pool and per-point memory
# ---------------------------------------------------------------------------

def pool_scenario():
    """Short multi-slice scan: darks, 50 ns dead time, idler drift walk."""
    cfg = preset("back-to-back", master_seed=21).config
    detectors = {arm: replace(getattr(cfg, arm), dead_time_ps=5.0e4,
                              dark_rate_hz=2000.0)
                 for arm in ("detector_signal", "detector_idler")}
    cfg = replace(cfg, source=replace(cfg.source, mean_pairs_per_window=(
        cfg.source.mean_pairs_per_window / 30.0)),
        drift=TimingDriftSpec(enabled=True, channel="idler", offset_ps=20.0,
                              walk_step_ps=3.0), **detectors)
    return Scenario(name="pool", config=cfg, emit_histograms=True,
                    plan=ScanPlan(settings=phase_grid(6),
                                  acquisition_s_per_point=12.0))


def test_pool_writes_the_serial_bytes(tmp_path, monkeypatch):
    run_point = scenarios._run_fringe_point
    threads = set()

    def spy(config, plan, index):
        threads.add(threading.get_ident())
        return run_point(config, plan, index)

    scenario = pool_scenario()
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 1)
    serial = run_scenario(scenario)
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(scenarios, "_run_fringe_point", spy)
    seen = []
    pooled = run_scenario(scenario,
                          progress=lambda done, n: seen.append((done, n)))
    assert len(threads) == 2 and threading.get_ident() not in threads
    assert seen == [(k, 6) for k in range(1, 7)]
    monkeypatch.undo()
    default = run_scenario(scenario)
    files = {}
    for label, report in (("serial", serial), ("pooled", pooled),
                          ("default", default)):
        written = emit_outputs(report, tmp_path / label)
        files[label] = [(Path(p).name, Path(p).read_bytes())
                        for p in written]
    assert [name for name, _ in files["serial"]] == [
        "pool_report.json", "pool_scan.csv", "pool_hist.csv"]
    assert files["pooled"] == files["serial"] == files["default"]
    assert sum(p.singles_idler for p in serial.points) > 6 * 10_000


class PointFailed(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 2])
def test_point_error_propagates_from_the_pool(cpus, monkeypatch):
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: cpus)
    started = []

    def point(config, plan, index):
        started.append(index)
        if index == 0:
            raise PointFailed(index)
        time.sleep(0.2)

    monkeypatch.setattr(scenarios, "_run_fringe_point", point)
    with pytest.raises(PointFailed):
        run_scenario(tiny_ideal(n_points=8))
    assert len(started) < 8          # points not yet started are cancelled


def test_pool_workers_are_capped_at_cpus_and_points(monkeypatch):
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 64)
    assert scenarios._pool_workers(16) == 16
    assert scenarios._pool_workers(3) == 3
    assert scenarios._pool_workers(64) == 64
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 1)
    assert scenarios._pool_workers(16) == 1
    assert scenarios._pool_workers(1) == 1


@pytest.mark.parametrize("name, tiny, workers", [
    ("b2b-scan", False, 8), ("b2b-scan", True, 8),
    ("km100-deadtime-scan", False, 8), ("km100-deadtime-scan", True, 8),
])
def test_benchmark_pool_sizes_on_a_large_host(monkeypatch, name, tiny,
                                              workers):
    # the benchmark's peak_rss_mb follows the pool size: pin it at 64
    # usable CPUs for each Monte Carlo workload's scan
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 64)
    scenario = workloads.WORKLOADS[name].build(seed=1, tiny=tiny)
    assert scenarios._pool_workers(len(scenario.plan.settings)) == workers


@pytest.mark.parametrize("name", ["b2b-scan", "km100-deadtime-scan",
                                  "clicks-roundtrip", "closed-form-map"])
def test_benchmark_tiny_operations_pass_their_checks(monkeypatch, tmp_path,
                                                     name):
    # a change the benchmark would report as a failed or irreproducible
    # operation fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    state = workload.build(seed=1, tiny=True)
    digests = []
    for k in range(2):
        out_dir = tmp_path / f"op{k}"
        out_dir.mkdir()
        failures, _, digest = workload.check(
            state, workload.run(state, str(out_dir)))
        assert failures == []
        digests.append(digest)
    assert digests[0] == digests[1]


def km100_link_point():
    """30 s of the 100 km preset with 50 ns dead time, detector
    efficiency raised and mu lowered 30-fold: the preset's singles,
    more coincidences."""
    cfg = preset("paper-100km", master_seed=3).config
    detectors = {arm: replace(getattr(cfg, arm), dead_time_ps=5.0e4,
                              quantum_efficiency=30.0 * getattr(
                                  cfg, arm).quantum_efficiency)
                 for arm in ("detector_signal", "detector_idler")}
    source = replace(cfg.source, mean_pairs_per_window=(
        cfg.source.mean_pairs_per_window / 30.0))
    return replace(cfg, source=source, acquisition_time_s=30.0,
                   **detectors)


@pytest.mark.parametrize("config, cap_mb", [
    # three slices, merged buckets, dead time: ~1.1 M clicks; back-to-back
    # points: test_back_to_back_point_memory_does_not_grow_with_time
    (km100_link_point(), 16.0),
    # an idler walk at the floor adds a 2**19-step table per slice: 13.0
    # MB measured, where a 1 us walk, which is refused, takes 323 MB
    (replace(km100_link_point(), drift=TimingDriftSpec(
        enabled=True, channel="idler", walk_step_ps=1.0,
        walk_interval_ps=montecarlo._MIN_WALK_PS)), 16.0),
], ids=["km100-link-30s", "km100-link-30s-walk-at-floor"])
def test_one_point_holds_about_two_slices(config, cap_mb):
    tracemalloc.start()
    try:
        point = measure_point(config, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert point.singles_signal + point.singles_idler > 1_000_000
    assert peak <= cap_mb * 1e6


@pytest.mark.parametrize("seconds", [7.0, 60.0])
def test_back_to_back_point_memory_does_not_grow_with_time(seconds):
    # 1.25 s slices of ~0.46 M clicks: ~10 MB at 7 s and at 60 s, where
    # fixed 10 s slices took 25.4 and 65.0 MB
    config = replace(preset("back-to-back", master_seed=3).config,
                     acquisition_time_s=seconds)
    tracemalloc.start()
    try:
        point = measure_point(config, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert point.singles_signal + point.singles_idler > 3.5e5 * seconds
    assert peak <= 13.0e6


def test_point_window_must_lie_on_the_bin_grid():
    # with 10 ps bins, the bin centres inside a 50 ps window span 60 ps
    # of delay, while the closed form integrates 50 ps
    cfg = replace(preset("back-to-back", master_seed=3).config,
                  acquisition_time_s=0.01)
    narrow = replace(cfg, tia=replace(cfg.tia, window_ps=50.0))
    with pytest.raises(ValidationError, match="bin grid"):
        measure_point(narrow, 0.0)
    off_delay = replace(cfg, **{arm: replace(getattr(cfg, arm),
                                             delay_ps=105.0)
                                for arm in ("analyzer_signal",
                                            "analyzer_idler")})
    with pytest.raises(ValidationError, match="bin grid"):
        measure_point(off_delay, 0.0)
    # 5 ps bins bound it: the point counts the delays in [-25, 25) ps,
    # as 1 ps bins of the same clicks do
    ideal = replace(preset("ideal", master_seed=3).config,
                    acquisition_time_s=0.02,
                    tia=replace(narrow.tia, histogram_bin_ps=5.0))
    point = measure_point(ideal, 0.0)
    sig, idl, _ = montecarlo.run_simulation(ideal)   # the same clicks
    assert (sig.times_ps.size, idl.times_ps.size) == (point.singles_signal,
                                                      point.singles_idler)
    fine = build_histogram(sig.times_ps, idl.times_ps, 1, 150)
    assert point.counts_central == count_in_window(fine, 0.0, 50.0) > 0


def test_report_document_holds_plain_json_values(tmp_path):
    # every written report is RFC 8259 JSON: json.dump refuses values
    # that are not plain, and a non-finite float is written as a string
    def refuse(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    starved = run_scenario(tiny_ideal(n_points=5, acq=2e-7))
    assert starved.fit_degenerate
    assert starved.estimate.sigma_visibility == math.inf
    docs = []
    for k, report in enumerate((
            run_scenario(tiny_ideal(n_points=6, acq=0.01)), starved,
            run_scenario(preset("window-sweep")),
            run_scenario(preset("mu-sweep")))):
        path = emit_outputs(report, tmp_path / str(k))[0]
        assert path.endswith("_report.json")
        docs.append(json.loads(Path(path).read_text(),
                               parse_constant=refuse))
    assert docs[1]["fit"]["sigma_visibility"] == "inf"


# ---------------------------------------------------------------------------
# sweep pipelines
# ---------------------------------------------------------------------------

def test_window_sweep_report():
    rep = run_scenario(preset("window-sweep"))
    assert rep.mode == "window-sweep"
    table = rep.window_table
    assert table.best_window_ps == 100.0
    assert len(table.entries) == 9
    by_window = {e.window_ps: e for e in table.entries}
    assert by_window[100.0].s_value == pytest.approx(2.11742, abs=2e-5)
    assert all(e.s_value > 2.0 for e in table.entries)


def test_mu_sweep_report():
    rep = run_scenario(preset("mu-sweep"))
    assert rep.mode == "mu-sweep"
    rows = rep.mu_table
    mus = [r.mean_pairs_per_window for r in rows]
    assert mus == sorted(mus)
    vis = [r.visibility for r in rows]
    assert all(a > b for a, b in zip(vis, vis[1:])), \
        "visibility must fall as the pump rate rises"
    at_base = {r.mean_pairs_per_window: r for r in rows}[0.05]
    assert at_base.visibility == pytest.approx(
        CALIBRATION_TARGET_VISIBILITY, abs=1e-12)
    rates = [r.central_max_in_window_hz for r in rows]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_mu_sweep_rows_are_the_closed_form_at_each_mu():
    scenario = preset("mu-sweep")
    rows = run_scenario(scenario).mu_table
    assert [r.mean_pairs_per_window for r in rows] == list(scenario.mu_grid)
    for row in rows:
        cfg = replace(scenario.config, source=replace(
            scenario.config.source,
            mean_pairs_per_window=row.mean_pairs_per_window))
        verdict, rates = bell_verdict(cfg), predict_rates(cfg)
        assert repr((row.visibility, row.s_value, row.violates,
                     row.central_max_in_window_hz,
                     row.accidental_in_window_hz)) \
            == repr((verdict.visibility, verdict.s_value, verdict.violates,
                     rates.central_max_in_window_hz,
                     rates.accidental_in_window_hz))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emitted_bytes_are_deterministic(tmp_path):
    s = tiny_ideal(n_points=5, acq=0.01, seed=6, emit_histograms=True)
    r1, r2 = run_scenario(s), run_scenario(s)
    assert r1.wall_clock_s != r2.wall_clock_s or True  # timing may differ
    d1, d2 = tmp_path / "a", tmp_path / "b"
    f1 = emit_outputs(r1, d1)
    f2 = emit_outputs(r2, d2)
    names = [str(p).rsplit("/", 1)[-1] for p in f1]
    assert names == ["ideal_report.json", "ideal_scan.csv",
                     "ideal_hist.csv"]
    for a, b in zip(f1, f2):
        ba = Path(a).read_bytes()
        assert ba == Path(b).read_bytes()
        assert r1.config_hash.encode() in ba


def test_report_json_excludes_wall_clock(tmp_path):
    rep = run_scenario(tiny_ideal(n_points=5, acq=0.005))
    path = emit_outputs(rep, tmp_path)[0]
    assert path.endswith("_report.json")
    text = Path(path).read_text()
    assert "wall_clock" not in text
    doc = json.loads(text)
    assert doc["config_hash"] == rep.config_hash
    assert len(doc["points"]) == 5
    assert isinstance(doc["bell"]["violates"], bool)
    assert doc["fit"]["visibility"] == rep.estimate.visibility


def test_report_point_and_fit_keys(ideal_report, tmp_path):
    # the report writes every field of FringePointResult but its
    # histogram, and every field of VisibilityEstimate
    path = emit_outputs(ideal_report, tmp_path)[0]
    assert path.endswith("_report.json")
    doc = json.loads(Path(path).read_text())
    assert set(doc["points"][0]) == {
        "setting", "point_seed", "counts_central", "counts_side_early",
        "counts_side_late", "singles_signal", "singles_idler",
        "pairs_generated"}
    assert set(doc["fit"]) == {
        "visibility", "sigma_visibility", "amplitude_hz", "mean_level_hz",
        "phase_offset_rad", "frequency", "chi2", "dof"}


def test_emitted_scan_reads_back(tmp_path):
    rep = run_scenario(tiny_ideal(n_points=4, acq=0.01))
    paths = emit_outputs(rep, tmp_path)
    scan_path = [p for p in paths if p.endswith("_scan.csv")][0]
    lines = Path(scan_path).read_text().splitlines()
    assert lines[0] == f"# config_hash={rep.config_hash}"
    assert lines[1] == "setting,counts,acquisition_s,singles_a,singles_b"
    rows = list(csv.DictReader(lines[1:]))
    assert [float(r["counts"]) for r in rows] == \
        [p.counts_central for p in rep.points]
    assert [float(r["setting"]) for r in rows] == \
        [p.setting for p in rep.points]
    assert all(float(r["acquisition_s"]) == 0.01 for r in rows)
    assert [int(r["singles_a"]) for r in rows] == \
        [p.singles_signal for p in rep.points]
    assert [int(r["singles_b"]) for r in rows] == \
        [p.singles_idler for p in rep.points]


def test_sweep_emissions(tmp_path):
    rep_w = run_scenario(preset("window-sweep"))
    paths = emit_outputs(rep_w, tmp_path)
    assert any(p.endswith("_windows.csv") for p in paths)
    rep_m = run_scenario(preset("mu-sweep"))
    paths = emit_outputs(rep_m, tmp_path)
    csv_path = [p for p in paths if p.endswith("_mu.csv")][0]
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert len(lines) == 2 + len(rep_m.mu_table)
