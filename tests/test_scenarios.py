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
from fransonsim import scenarios
from fransonsim.montecarlo import (SimulationConfig, TimingDriftSpec,
                                   derive_seed)
from fransonsim.budget import predict_rates, predict_visibility
from fransonsim.scenarios import (CALIBRATION_TARGET_VISIBILITY,
                                  PRESET_NAMES, ScanPlan, Scenario,
                                  calibrate_contrast, config_hash,
                                  emit_outputs, load_config,
                                  measure_point, phase_grid, preset,
                                  run_scenario, save_config)
from fransonsim.tia import build_histogram, count_in_window

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


@pytest.mark.parametrize("name", PRESET_NAMES + ("temperature-scan",))
def test_scenario_round_trip(tmp_path, name):
    s = temperature_scan() if name == "temperature-scan" else preset(name)
    p = tmp_path / "scn.json"
    save_config(s, p)
    loaded = load_config(p)
    assert isinstance(loaded, Scenario)
    assert loaded == s


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
    assert est.frequency == pytest.approx(1.0, rel=0.05)


def test_report_verdict_matches_bell_arithmetic(ideal_report):
    s, violates = chsh_from_visibility(ideal_report.estimate.visibility)
    assert ideal_report.s_value == pytest.approx(float(s), abs=1e-12)
    assert ideal_report.violates == bool(violates)


def test_per_point_seeds_are_derived(ideal_report):
    master = ideal_report.master_seed
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
    assert rep.scan is not None and rep.scan.counts.size == 3


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
                           walk_interval_ps=1e6)
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


def test_walked_scan_fit_agrees_with_its_prediction():
    # back-to-back, 8 points of 7 s, a 1 ps per ms idler walk: over the
    # points' 7 s the walk spreads the peak by ~59 ps and takes the raw
    # visibility from 0.830 to 0.588; over the config's 1 s, to 0.788
    scenario = preset("back-to-back", master_seed=11)
    walk = TimingDriftSpec(enabled=True, channel="idler", walk_step_ps=1.0,
                           walk_interval_ps=1e9)
    scenario = replace(scenario,
                       config=replace(scenario.config, drift=walk),
                       plan=ScanPlan(settings=phase_grid(8),
                                     acquisition_s_per_point=7.0))
    report = run_scenario(scenario)
    est = report.estimate
    pull = (est.visibility - report.predicted_visibility_raw) \
        / est.sigma_visibility
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


def test_pool_workers_are_capped_at_cpus_points_and_memory(monkeypatch):
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 64)
    cfg = preset("back-to-back").config
    b2b = replace(cfg, acquisition_time_s=30.0)   # ~3.7e6 clicks per slice
    small = replace(cfg, acquisition_time_s=0.1)  # ~3.7e4
    assert scenarios._pool_workers(small, 16) == 16
    assert scenarios._pool_workers(small, 3) == 3
    assert scenarios._pool_workers(b2b, 16) == 2
    # past two points, the pool's clicks per slice stay in the budget
    monkeypatch.setattr(scenarios, "_POOL_CLICKS_PER_SLICE", 1.5e5)
    assert scenarios._pool_workers(small, 16) == 4
    monkeypatch.setattr(scenarios, "_POOL_CLICKS_PER_SLICE", 0.5e5)
    assert scenarios._pool_workers(small, 16) == 2
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 1)
    assert scenarios._pool_workers(small, 16) == 1
    assert scenarios._pool_workers(b2b, 1) == 1


def test_pool_workers_count_dark_clicks(monkeypatch):
    # 1 MHz of signal darks: ~1.0e6 clicks per 1 s slice against the
    # link's ~3.7e4, which bounds the pool at 9 points
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 64)
    cfg = replace(preset("paper-100km").config, acquisition_time_s=1.0)
    dark = replace(cfg, detector_signal=replace(cfg.detector_signal,
                                                dark_rate_hz=1.0e6))
    assert scenarios._pool_workers(cfg, 16) == 16
    assert scenarios._pool_workers(dark, 16) == 9


@pytest.mark.parametrize("name, tiny, workers", [
    ("b2b-scan", False, 3), ("b2b-scan", True, 8),
    ("km100-deadtime-scan", False, 8), ("km100-deadtime-scan", True, 8),
])
def test_benchmark_pool_sizes_on_a_large_host(monkeypatch, name, tiny,
                                              workers):
    # the benchmark's peak_rss_mb follows the pool size: pin it at 64
    # usable CPUs for each Monte Carlo workload's point config
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 64)
    scenario = workloads.WORKLOADS[name].build(seed=1, tiny=tiny)
    plan = scenario.plan
    point = replace(scenario.config,
                    acquisition_time_s=plan.acquisition_s_per_point)
    assert scenarios._pool_workers(point, len(plan.settings)) == workers


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
    # one 10 s slice: ~2.6 M clicks, 21 MB of packed keys
    (replace(preset("back-to-back", master_seed=3).config,
             acquisition_time_s=7.0), 40.0),
    # three slices, merged buckets, dead time: ~1.1 M clicks
    (km100_link_point(), 16.0),
], ids=["back-to-back-7s", "km100-link-30s"])
def test_one_point_holds_about_two_slices(config, cap_mb):
    tracemalloc.start()
    try:
        point = measure_point(config, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert point.singles_signal + point.singles_idler > 1_000_000
    assert peak <= cap_mb * 1e6


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
    buckets = []
    point = measure_point(ideal, 0.0, buckets)
    fine = build_histogram(np.concatenate([b[1] for b in buckets]),
                           np.concatenate([b[3] for b in buckets]), 1, 150)
    assert point.counts_central == count_in_window(fine, 0.0, 50.0) > 0


def test_report_document_holds_plain_json_values():
    plain = (dict, list, str, int, float, bool, type(None))

    def walk(node, path):
        assert type(node) in plain, (path, type(node))
        if isinstance(node, dict):
            for k, v in node.items():
                assert type(k) is str, path
                walk(v, f"{path}.{k}")
        elif isinstance(node, list):
            for k, v in enumerate(node):
                walk(v, f"{path}[{k}]")

    starved = run_scenario(tiny_ideal(n_points=5, acq=2e-7))
    assert starved.fit_degenerate
    assert starved.estimate.sigma_visibility == math.inf
    for report in (run_scenario(tiny_ideal(n_points=6, acq=0.01)), starved,
                   run_scenario(preset("window-sweep")),
                   run_scenario(preset("mu-sweep"))):
        doc = scenarios._report_document(report)
        walk(doc, report.mode)
        json.dumps(doc, allow_nan=False)


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
    (path,) = emit_outputs(rep, tmp_path, fmt="json")
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
    (path,) = emit_outputs(ideal_report, tmp_path, fmt="json")
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
    assert np.array_equal([float(r["counts"]) for r in rows],
                          rep.scan.counts)
    assert np.array_equal([float(r["setting"]) for r in rows],
                          rep.scan.settings)
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


def test_emit_refuses_json_for_retained_histograms(tmp_path):
    rep = run_scenario(tiny_ideal(n_points=4, acq=0.005,
                                  emit_histograms=True))
    out = tmp_path / "out"
    with pytest.raises(ValidationError, match="histograms"):
        emit_outputs(rep, out, fmt="json")
    assert not out.exists()


def test_emit_rejects_unknown_format(tmp_path):
    rep = run_scenario(preset("mu-sweep"))
    with pytest.raises(ValidationError, match="fmt"):
        emit_outputs(rep, tmp_path, fmt="xml")
