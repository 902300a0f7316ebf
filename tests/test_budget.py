"""Link-budget tests.

Reference values for the two canonical links (attenuated back-to-back
and 2 x 50 km) were derived by hand from the closed forms and are
frozen here as oracles; the budget-vs-simulation consistency test
closes the loop against the event-level engine.
"""

import copy
import dataclasses
import json
import math
import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fransonsim.errors import ValidationError
from fransonsim.physics import (AnalyzerSpec, ChannelSpec,
                                CoincidenceWindowSpec, DetectorSpec,
                                SourceSpec, accidental_rate,
                                chsh_from_visibility,
                                franson_bin_probabilities)
from fransonsim.montecarlo import (SimulationConfig, TimingDriftSpec,
                                   run_simulation)
from fransonsim.tia import build_histogram, count_in_window
from fransonsim import scenarios
from fransonsim import budget, montecarlo
from fransonsim.budget import (BellVerdict, LinkModel, WindowScore,
                               bell_verdict, build_ledger, optimize_window,
                               predict_rates, predict_visibility)
from fransonsim.cli import main
from fransonsim.scenarios import (PRESET_NAMES, ScanPlan, config_hash,
                                  emit_outputs, load_config, phase_grid,
                                  preset, run_scenario, save_config)

PAIR_JITTER = 65.0 / math.sqrt(2.0)   # per detector; 65 ps at pair level
CAL_CONTRAST = 0.9756419240289781     # per analyzer; 0.9518772 total


def paper_link(fiber_km, window_ps, contrast=1.0, **kw):
    defaults = dict(
        source=SourceSpec(),
        channel_signal=ChannelSpec(fiber_length_km=fiber_km,
                                   pre_fiber_loss_db=10.0),
        channel_idler=ChannelSpec(fiber_length_km=fiber_km,
                                  pre_fiber_loss_db=10.0),
        analyzer_signal=AnalyzerSpec(contrast=contrast),
        analyzer_idler=AnalyzerSpec(contrast=contrast),
        detector_signal=DetectorSpec(quantum_efficiency=0.007,
                                     jitter_fwhm_ps=PAIR_JITTER),
        detector_idler=DetectorSpec(quantum_efficiency=0.021,
                                    jitter_fwhm_ps=PAIR_JITTER),
        tia=CoincidenceWindowSpec(window_ps=window_ps),
        acquisition_time_s=1.0,
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def test_ledger_totals_are_exact_sums(tmp_path, capsys):
    cfg = paper_link(50.0, 100.0)
    led = build_ledger(cfg)
    link = LinkModel.from_config(cfg)
    for arm in ("signal", "idler"):
        entries = led[arm]
        assert [e.label.split(" ")[0] for e in entries] == \
            ["source", "fiber", "analyzer"]
        assert sum(e.loss_db for e in entries) == getattr(link, arm).loss_db
        assert abs(getattr(link, arm).loss_db - 25.0) < 1e-12
        assert abs(getattr(link, arm).transmission - 10.0 ** -2.5) < 1e-15
    b2b = paper_link(0.0, 60.0)
    assert abs(LinkModel.from_config(b2b).signal.loss_db - 15.0) < 1e-12
    assert len(build_ledger(b2b)["signal"]) == 2   # no fiber line at 0 km

    # at 5.005 km an exact (fsum) total of the entries would differ
    # from the plain sum in the last bit; budget prints the link's
    base = preset("paper-100km").config
    short = replace(base, channel_signal=replace(base.channel_signal,
                                                 fiber_length_km=5.005))
    loss = LinkModel.from_config(short).signal.loss_db
    assert sum(e.loss_db for e in build_ledger(short)["signal"]) == loss
    save_config(short, tmp_path / "short.json")
    assert main(["budget", str(tmp_path / "short.json")]) == 0
    assert f"\n  signal: total {loss:g} dB\n" in capsys.readouterr().out


def test_rates_and_engine_share_one_transmission():
    # at 5.005 km the fsum of the ledger's dB entries and the plain
    # sum pre + fiber + insertion differ in the last bit; the rates
    # must report the transmission the engine draws with
    base = preset("paper-100km").config
    cfg = replace(base, channel_signal=replace(base.channel_signal,
                                               fiber_length_km=5.005))
    rates = predict_rates(cfg)
    link = LinkModel.from_config(cfg)
    eta = cfg.detector_signal.quantum_efficiency
    assert rates.q_signal == rates.transmission_signal * eta
    assert rates.transmission_signal == link.signal.transmission
    assert rates.q_signal == link.signal.q
    assert (rates.q_idler, rates.transmission_idler) == \
        (link.idler.q, link.idler.transmission)


# ---------------------------------------------------------------------------
# frozen rate oracles
# ---------------------------------------------------------------------------

def test_back_to_back_rate_oracles():
    rates = predict_rates(paper_link(0.0, 60.0))
    assert abs(rates.generated_pair_rate_hz - 8.333333333e8) < 1e0
    assert abs(rates.both_rate_hz - 122.5) < 1e-6
    assert abs(rates.singles_signal_hz - 92333.1) < 0.05
    assert abs(rates.singles_idler_hz - 276799.3) < 0.05
    assert abs(rates.capture_fraction - 0.721079) < 1e-6
    assert abs(rates.central_max_in_window_hz - 22.083058) < 1e-5
    assert abs(rates.accidental_in_window_hz - 1.533464) < 1e-5
    assert "per-arm" in rates.loss_note


def test_hundred_km_rate_oracles():
    rates = predict_rates(paper_link(50.0, 100.0))
    assert abs(rates.both_rate_hz - 1.225) < 1e-8
    assert abs(rates.singles_signal_hz - 9323.3) < 0.05
    assert abs(rates.singles_idler_hz - 27769.9) < 0.05
    assert abs(rates.capture_fraction - 0.888444) < 1e-6
    assert abs(rates.central_max_in_window_hz - 0.272086) < 1e-6
    assert abs(rates.accidental_in_window_hz - 0.025891) < 1e-6


def test_accidental_breakdown_sums_to_product():
    rates = predict_rates(paper_link(0.0, 60.0))
    total = accidental_rate(rates.singles_signal_hz,
                            rates.singles_idler_hz, rates.window_ps)
    parts = math.fsum(rates.accidental_parts_hz.values())
    assert abs(parts - total) < 1e-12 * total
    assert set(rates.accidental_parts_hz) == {
        "photon-photon", "photon-dark", "dark-photon", "dark-dark"}


# ---------------------------------------------------------------------------
# peak model
# ---------------------------------------------------------------------------

def test_peak_widths():
    b2b = LinkModel.from_config(paper_link(0.0, 60.0)).peak
    assert abs(b2b.sigma_delta_ps - 27.7073) < 1e-3
    km = LinkModel.from_config(paper_link(50.0, 100.0)).peak
    assert abs(km.sigma_delta_ps - 31.4220) < 1e-3
    assert b2b.center_ps == 0.0


def test_capture_is_monotone_and_bounded():
    peak = LinkModel.from_config(paper_link(0.0, 60.0)).peak
    widths = np.arange(10.0, 200.0, 10.0)
    caps = [peak.mass(0, 0.0, w) for w in widths]
    assert all(0.0 < c <= 1.0 for c in caps)
    assert all(b > a for a, b in zip(caps, caps[1:]))
    # centered peaks: side windows capture exactly like the central one
    tau = peak.analyzer_delay_ps
    side_l, side_r = peak.mass(-1, -tau, 60.0), peak.mass(+1, tau, 60.0)
    assert abs(side_l - peak.mass(0, 0.0, 60.0)) < 1e-15
    assert abs(side_r - side_l) < 1e-15


def test_peak_mass_is_one_gaussian_integral():
    base = paper_link(50.0, 100.0)
    peak = LinkModel.from_config(base).peak
    tau = peak.analyzer_delay_ps
    # each peak integrates to ~1 over a wide window on its center
    for k in (-1, 0, +1):
        assert abs(peak.mass(k, k * tau, 1.0e4) - 1.0) < 1e-12
    # a centred peak is symmetric about its center
    assert abs(peak.mass(0, -20.0, 30.0) - peak.mass(0, 20.0, 30.0)) < 1e-15
    assert abs(peak.mass(+1, tau - 20.0, 30.0)
               - peak.mass(-1, -tau + 20.0, 30.0)) < 1e-15
    # a drift offset moves all three peaks by it
    drifted = LinkModel.from_config(replace(
        base, drift=TimingDriftSpec(enabled=True, channel="idler",
                                    offset_ps=40.0))).peak
    for k in (-1, 0, +1):
        assert abs(drifted.mass(k, k * tau + 40.0, 60.0)
                   - peak.mass(k, k * tau, 60.0)) < 1e-15
    assert drifted.mass(0, 0.0, 60.0) < peak.mass(0, 0.0, 60.0)


@pytest.mark.parametrize("window", [math.inf, math.nan, 0.0, -1.0],
                         ids=["inf", "nan", "zero", "negative"])
def test_closed_form_refuses_bad_windows(window):
    # an infinite window used to give an infinite accidental rate and
    # then V = 0, S = 0 with no error.  The closed-form readers read the
    # config's window, which the spec refuses; a link asked directly
    # refuses it too
    with pytest.raises(ValidationError, match="finite and > 0"):
        budget._at_window(paper_link(50.0, 100.0).link, window)
    with pytest.raises(ValidationError):
        CoincidenceWindowSpec(window_ps=window)


def test_drift_offset_and_walk_reduce_capture():
    base = paper_link(50.0, 100.0)
    centered = LinkModel.from_config(base).peak
    offset = LinkModel.from_config(replace(
        base, drift=TimingDriftSpec(enabled=True, channel="idler",
                                    offset_ps=40.0))).peak
    assert offset.center_ps == 40.0
    assert offset.mass(0, 0.0, 100.0) < centered.mass(0, 0.0, 100.0)
    signal_side = LinkModel.from_config(replace(
        base, drift=TimingDriftSpec(enabled=True, channel="signal",
                                    offset_ps=40.0))).peak
    assert signal_side.center_ps == -40.0
    walked = LinkModel.from_config(replace(
        base, drift=TimingDriftSpec(enabled=True, channel="idler",
                                    walk_step_ps=10.0,
                                    walk_interval_ps=1e9),
        acquisition_time_s=100.0)).peak
    assert walked.sigma_delta_ps > centered.sigma_delta_ps
    assert walked.mass(0, 0.0, 100.0) < centered.mass(0, 0.0, 100.0)


def test_side_leakage_stays_below_three_percent_of_central():
    # 65 ps coincidence jitter, peaks 100 ps apart, 100 ps window:
    # leaked side mass relative to fringe-max central counts
    cfg = paper_link(0.0, 100.0)
    rates = predict_rates(cfg)
    ratio = rates.side_leak_in_window_hz / rates.central_max_in_window_hz
    assert abs(ratio - 0.0192) < 2e-3
    assert ratio < 0.03


# ---------------------------------------------------------------------------
# visibility predictions
# ---------------------------------------------------------------------------

def test_visibility_oracles_at_unit_contrast():
    assert abs(predict_visibility(paper_link(0.0, 60.0)).visibility
               - 0.878054) < 1e-6
    assert abs(predict_visibility(paper_link(50.0, 100.0)).visibility
               - 0.840115) < 1e-6


def test_visibility_oracles_at_calibrated_contrast():
    b2b = paper_link(0.0, 60.0, contrast=CAL_CONTRAST)
    km = paper_link(50.0, 100.0, contrast=CAL_CONTRAST)
    assert abs(predict_visibility(b2b).visibility - 0.8358) < 1e-9
    assert abs(predict_visibility(km).visibility - 0.799686) < 1e-6
    # raw windowed fits also see the flat side-peak leakage
    assert abs(predict_visibility(b2b, include_side_leak=True).visibility
               - 0.8299782) < 1e-6
    assert abs(predict_visibility(km, include_side_leak=True).visibility
               - 0.7596219) < 1e-6


def test_visibility_decreases_with_mu_while_rate_grows():
    base = paper_link(0.0, 60.0)
    vs, rates = [], []
    for mu in np.geomspace(1e-3, 0.2, 10):
        cfg = replace(base, source=SourceSpec(
            mean_pairs_per_window=float(mu)))
        vs.append(predict_visibility(cfg).visibility)
        rates.append(predict_rates(cfg).central_max_in_window_hz)
    assert all(b < a for a, b in zip(vs, vs[1:]))
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_mu_quoted_after_losses_scales_generation():
    plain = paper_link(0.0, 60.0)
    scaled = replace(plain, source=SourceSpec(
        mu_measured_after_losses=True))
    ratio = LinkModel.from_config(scaled).pair_rate_hz \
        / LinkModel.from_config(plain).pair_rate_hz
    assert abs(ratio - 100.0) < 1e-9   # two 10 dB pre-fiber sections


def test_bell_verdict_chain():
    km = paper_link(50.0, 100.0, contrast=CAL_CONTRAST)
    verdict = bell_verdict(km)
    assert verdict.violates and verdict.margin > 0.25
    assert abs(verdict.s_value - 2.0 * math.sqrt(2.0)
               * verdict.visibility) < 1e-12
    dull = paper_link(50.0, 100.0, contrast=0.8)
    assert not bell_verdict(dull).violates


_PRESET_CONFIGS = tuple(preset(name).config for name in PRESET_NAMES)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, len(_PRESET_CONFIGS) - 1),
       km=st.floats(0.0, 150.0), mu=st.floats(1e-4, 0.3),
       dark_hz=st.floats(0.0, 1e4),
       window=st.one_of(st.integers(10, 400), st.floats(10.0, 400.0)))
def test_bell_verdict_is_chsh_of_the_corrected_visibility(
        k, km, mu, dark_hz, window):
    # the verdict the window entry carries, against one rebuilt from
    # the public laws: every field, bit for bit
    base = _PRESET_CONFIGS[k]
    cfg = replace(
        base, source=replace(base.source, mean_pairs_per_window=mu),
        channel_signal=replace(base.channel_signal, fiber_length_km=km),
        channel_idler=replace(base.channel_idler, fiber_length_km=km),
        detector_idler=replace(base.detector_idler, dark_rate_hz=dark_hz),
        tia=replace(base.tia, window_ps=window))
    v = predict_visibility(cfg).visibility
    s, violates = chsh_from_visibility(v)
    assert _bits(bell_verdict(cfg)) == _bits(BellVerdict(
        visibility=v, s_value=s, violates=violates, margin=s - 2.0))


@settings(max_examples=100, deadline=None)
@given(phases=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
       contrasts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_link_weights_are_the_franson_law(phases, contrasts):
    phase_s, phase_i, pump = phases
    base = paper_link(50.0, 100.0)
    cfg = replace(
        base, source=replace(base.source, pump_phase_offset_rad=pump),
        analyzer_signal=AnalyzerSpec(phase_rad=phase_s,
                                     contrast=contrasts[0]),
        analyzer_idler=AnalyzerSpec(phase_rad=phase_i,
                                    contrast=contrasts[1]))
    link = cfg.link
    c = contrasts[0] * contrasts[1]
    assert link.contrast_total == c
    assert repr(link.weights) == repr(franson_bin_probabilities(
        cfg.analyzer_signal.effective_phase_rad(),
        cfg.analyzer_idler.effective_phase_rad(), pump, c))
    assert repr(link.central_max_weight) \
        == repr(franson_bin_probabilities(0.0, 0.0, 0.0, c)[0])
    assert link.weights[0] <= link.central_max_weight


# ---------------------------------------------------------------------------
# one link per link
# ---------------------------------------------------------------------------

def _count_links(monkeypatch):
    """Configs LinkModel.from_config is called on from now on."""
    calls = []
    original = LinkModel.from_config

    def counted(config):
        calls.append(config)
        return original(config)
    monkeypatch.setattr(LinkModel, "from_config", counted)
    return calls


def test_optimize_window_derives_the_link_once(monkeypatch):
    cfg = paper_link(50.0, 100.0, contrast=CAL_CONTRAST)
    calls = _count_links(monkeypatch)
    optimize_window(cfg, [60, 80, 100, 120, 140])
    assert calls == [cfg]


def test_closed_forms_share_one_link(monkeypatch):
    cfg = paper_link(50.0, 100.0, contrast=CAL_CONTRAST)
    calls = _count_links(monkeypatch)
    predict_rates(cfg)
    predict_visibility(cfg)
    predict_visibility(cfg, include_side_leak=True)
    bell_verdict(cfg)
    assert calls == [cfg]
    assert cfg.link is cfg.link


def test_replaced_config_derives_its_own_link():
    cfg = paper_link(50.0, 100.0)
    assert cfg.link.signal.loss_db == pytest.approx(25.0)
    longer = replace(cfg, channel_signal=replace(cfg.channel_signal,
                                                 fiber_length_km=60.0))
    assert longer.link.signal.loss_db == pytest.approx(27.0)
    assert longer.link.idler == cfg.link.idler


def test_a_design_grid_derives_one_link_per_length_and_mu(monkeypatch):
    # shaped like perfbench's closed-form-map: the windows of a
    # (length, mu) cell share the link optimize_window derived
    base = preset("paper-100km").config
    windows = [60.0, 100.0, 140.0]
    calls = _count_links(monkeypatch)
    for km in (10.0, 50.0):
        cfg_km = replace(
            base, channel_signal=replace(base.channel_signal,
                                         fiber_length_km=km),
            channel_idler=replace(base.channel_idler, fiber_length_km=km))
        for mu in (1e-3, 1e-2):
            cfg_mu = replace(cfg_km, source=replace(
                base.source, mean_pairs_per_window=mu))
            optimize_window(cfg_mu, windows, "rate_weighted")
            for w in windows:
                cfg = replace(cfg_mu, tia=replace(base.tia, window_ps=w))
                predict_rates(cfg)
                predict_visibility(cfg, include_side_leak=True)
                bell_verdict(cfg)
    assert len(calls) == 4


def test_window_and_seed_replacements_share_the_link():
    cfg = paper_link(50.0, 100.0, contrast=CAL_CONTRAST)
    link = cfg.link
    assert replace(cfg, tia=replace(cfg.tia, window_ps=60.0)).link is link
    assert replace(cfg, master_seed=7).link is link
    assert replace(cfg, acquisition_time_s=1.0).link is link
    assert replace(cfg, acquisition_time_s=2.0).link is not link


@pytest.mark.parametrize("name", [
    "source", "channel_signal", "channel_idler", "analyzer_signal",
    "analyzer_idler", "detector_signal", "detector_idler", "drift"])
def test_an_equal_new_spec_derives_its_own_link(monkeypatch, name):
    cfg = _WINDOW_CONFIGS[2]        # a drift walk: every spec is read
    link = cfg.link
    calls = _count_links(monkeypatch)
    other = replace(cfg, **{name: replace(getattr(cfg, name))})
    assert getattr(other, name) == getattr(cfg, name)
    assert other.link is not link
    assert calls == [other]
    assert _bits(other.link) == _bits(link) \
        == _bits(LinkModel.from_config(cfg))


def test_pooled_fringe_points_read_their_own_links(monkeypatch):
    points = []
    original = scenarios.measure_point

    def recorded(config, setting):
        points.append(config)
        return original(config, setting)
    monkeypatch.setattr(scenarios, "measure_point", recorded)
    monkeypatch.setattr(scenarios, "_pool_workers", lambda n: 3)
    run_scenario(replace(preset("ideal"), plan=ScanPlan(
        settings=phase_grid(6), acquisition_s_per_point=0.01)))
    assert len(points) == 6
    for cfg in points:
        assert _bits(cfg.link) == _bits(LinkModel.from_config(cfg))


def test_each_pooled_run_hands_its_slices_one_link(monkeypatch):
    # 100 km, 30 s a point: three 10 s slices each, two points at once
    seen = []
    gen = montecarlo._gen_slice

    def spy(config, link, *args):
        seen.append((config, link))
        return gen(config, link, *args)
    monkeypatch.setattr(montecarlo, "_gen_slice", spy)
    monkeypatch.setattr(scenarios, "_pool_workers", lambda n: 2)
    run_scenario(replace(preset("paper-100km"), plan=ScanPlan(
        settings=phase_grid(4), acquisition_s_per_point=30.0)))
    assert len(seen) == 4 * 3
    links = {}
    for config, link in seen:
        assert type(link) is LinkModel
        assert links.setdefault(id(config), link) is link
    assert len(links) == 4
    for config, link in seen:
        assert _bits(link) == _bits(LinkModel.from_config(config))


def test_threads_sharing_the_last_link_read_their_own_links():
    # more threads than cores, switching often: no config may take
    # another config's link
    bases = [paper_link(km, 100.0) for km in (0.0, 20.0, 50.0, 80.0)]
    want = [_bits(LinkModel.from_config(b)) for b in bases]
    wrong = []

    def work(k):
        for i in range(150):
            j = (k + i) % len(bases)
            cfg = replace(bases[j], tia=CoincidenceWindowSpec(
                window_ps=60.0 + i % 7))
            if _bits(cfg.link) != want[j]:
                wrong.append((k, i))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _count_windows(monkeypatch):
    """(link, window) pairs the closed form is derived at from now on."""
    calls = []
    original = budget._derive_window

    def counted(link, window_ps):
        calls.append((link, window_ps))
        return original(link, window_ps)
    monkeypatch.setattr(budget, "_derive_window", counted)
    return calls


def _distinct(calls):
    return {(id(link), type(w), w) for link, w in calls}


def _bits(rates):
    # repr round-trips a float exactly, so equal reprs are equal bits
    return repr(dataclasses.asdict(rates))


def test_closed_forms_share_one_rate_prediction(monkeypatch):
    # shaped like perfbench's closed-form-map: lengths x mu x windows,
    # and optimize_window over the same windows per (length, mu)
    base = preset("paper-100km").config
    windows = [60.0, 100.0, 140.0]
    calls = _count_windows(monkeypatch)
    links = []
    for km in (10.0, 50.0):
        cfg_km = replace(
            base, channel_signal=replace(base.channel_signal,
                                         fiber_length_km=km),
            channel_idler=replace(base.channel_idler, fiber_length_km=km))
        for mu in (1e-3, 1e-2):
            cfg_mu = replace(cfg_km, source=replace(
                base.source, mean_pairs_per_window=mu))
            optimize_window(cfg_mu, windows, "rate_weighted")
            for w in windows:
                cfg = replace(cfg_mu, tia=replace(base.tia, window_ps=w))
                assert predict_rates(cfg) is predict_rates(cfg) \
                    is budget._at_window(cfg_mu.link, w)[0]
                predict_visibility(cfg)
                predict_visibility(cfg, include_side_leak=True)
                bell_verdict(cfg)
                links.append(cfg.link)
    assert len({id(link) for link in links}) == 4
    assert len(calls) == len(_distinct(calls)) == 4 * len(windows)


def test_mu_sweep_derives_rates_once_per_mu(monkeypatch):
    scenario = preset("mu-sweep")
    calls = _count_windows(monkeypatch)
    run_scenario(scenario)
    # the report reads its own predicted block only when asked, so the
    # base config's window is not derived here
    assert len(calls) == len(_distinct(calls)) == len(scenario.mu_grid)
    assert {w for _, w in calls} == {scenario.config.tia.window_ps}
    config = scenario.config
    per_mu = LinkModel.from_config(config).pair_rate_hz \
        / config.source.mean_pairs_per_window
    assert [link.pair_rate_hz / per_mu for link, _ in calls] \
        == pytest.approx(list(scenario.mu_grid), rel=1e-12)


def test_budget_cli_derives_rates_once(monkeypatch, tmp_path, capsys):
    cfg = preset("paper-100km").config
    save_config(cfg, tmp_path / "link.json")
    calls = _count_windows(monkeypatch)
    assert main(["budget", str(tmp_path / "link.json"),
                 "--out-dir", str(tmp_path)]) == 0
    assert [(_bits(link), w) for link, w in calls] \
        == [(_bits(cfg.link), cfg.tia.window_ps)]


def test_no_reader_writes_the_shared_rates(monkeypatch, tmp_path, capsys):
    # every reader of a link's closed form: scenarios and their files,
    # the budget and simulate commands; afterwards each kept entry
    # still equals a fresh derivation
    original = budget._derive_window
    budget._at_window.cache_clear()
    calls = _count_windows(monkeypatch)
    fringe = replace(preset("ideal"), plan=ScanPlan(
        settings=phase_grid(6), acquisition_s_per_point=0.01))
    for scenario in (fringe, preset("mu-sweep"), preset("window-sweep")):
        emit_outputs(run_scenario(scenario), str(tmp_path))
    small = replace(preset("ideal").config, acquisition_time_s=0.01)
    save_config(small, tmp_path / "small.json")
    for command in ("budget", "simulate"):
        assert main([command, str(tmp_path / "small.json"),
                     "--out-dir", str(tmp_path)]) == 0
    assert 10 < len(calls) <= budget.WINDOWS_KEPT
    misses = budget._at_window.cache_info().misses
    for link, w in list(calls):
        kept, fresh = budget._at_window(link, w), original(link, w)
        assert list(map(_bits, kept)) == list(map(_bits, fresh))
    assert budget._at_window.cache_info().misses == misses
    parts = budget._at_window(calls[0][0], calls[0][1])[0].accidental_parts_hz
    for write in (lambda: parts.__setitem__("dark-dark", 0.0),
                  lambda: parts.__delitem__("dark-dark"), parts.clear,
                  lambda: parts.update({}), lambda: parts.pop("dark-dark"),
                  parts.popitem, lambda: parts.setdefault("x", 0.0),
                  lambda: parts.__ior__({})):
        with pytest.raises(TypeError, match="read-only"):
            write()
    assert copy.deepcopy(parts) == parts


def test_replaced_config_derives_its_own_rates():
    cfg = paper_link(50.0, 100.0)
    longer = replace(cfg, channel_signal=replace(cfg.channel_signal,
                                                 fiber_length_km=60.0))
    assert predict_rates(longer) is not predict_rates(cfg)
    assert predict_rates(longer).q_signal < predict_rates(cfg).q_signal
    assert predict_rates(longer).q_idler == predict_rates(cfg).q_idler
    # a window or seed replacement reads the link's own entry
    narrow = replace(cfg, tia=replace(cfg.tia, window_ps=60.0), master_seed=3)
    assert predict_rates(narrow) is budget._at_window(cfg.link, 60.0)[0]
    assert predict_visibility(narrow, include_side_leak=True) \
        is budget._at_window(cfg.link, 60.0)[2]


_WINDOW_CONFIGS = (
    paper_link(50.0, 100.0, contrast=CAL_CONTRAST),
    paper_link(0.0, 60.0, detector_idler=DetectorSpec(
        quantum_efficiency=0.2, dark_rate_hz=5e3)),
    paper_link(20.0, 140.0, drift=TimingDriftSpec(
        enabled=True, channel="signal", offset_ps=30.0, walk_step_ps=2.0)),
)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, len(_WINDOW_CONFIGS) - 1),
       window=st.one_of(st.sampled_from([60.0, 100.0, 140.0]),
                        st.floats(10.0, 1e6)))
def test_rates_at_a_window_are_a_config_at_that_window(k, window):
    cfg = _WINDOW_CONFIGS[k]
    assert predict_rates(cfg).window_ps == cfg.tia.window_ps
    at_window = replace(cfg, tia=replace(cfg.tia, window_ps=window))
    assert _bits(budget._at_window(cfg.link, window)[0]) \
        == _bits(predict_rates(at_window)) \
        == _bits(budget._derive_window(at_window.link, window)[0])
    assert budget._at_window(cfg.link, window)[0].window_ps == window


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, len(_WINDOW_CONFIGS) - 1),
       grid=st.lists(st.floats(10.0, 199.0), min_size=1, max_size=6),
       objective=st.sampled_from(["s_value", "rate_weighted"]))
def test_window_scores_are_the_rates_at_each_window(k, grid, objective):
    # the oracle: the full closed form of the config at each window
    cfg = _WINDOW_CONFIGS[k]
    want, verdicts = [], []
    for w in sorted(grid):
        at_window = replace(cfg, tia=replace(cfg.tia, window_ps=w))
        v = predict_visibility(at_window).visibility
        s, _ = chsh_from_visibility(v)
        rate = predict_rates(at_window).central_max_in_window_hz
        want.append(WindowScore(
            window_ps=w, visibility=v, s_value=s,
            central_max_in_window_hz=rate,
            score=s if objective == "s_value" else v ** 2 * rate))
        verdicts.append(bell_verdict(at_window))
    got = optimize_window(cfg, grid, objective).entries
    assert repr(got) == repr(tuple(want))
    assert [repr((e.visibility, e.s_value)) for e in got] \
        == [repr((b.visibility, b.s_value)) for b in verdicts]


def test_rates_is_not_a_config_field(tmp_path):
    # nor is a link's closed form a LinkModel field: using it leaves
    # the link's asdict, repr, == and hash as they were
    cfg = paper_link(50.0, 100.0)
    fresh = LinkModel.from_config(cfg)
    before = (dataclasses.asdict(fresh), repr(fresh), hash(fresh))
    budget._at_window.cache_clear()
    for w in (60.0, 100, 100.0, 140.0):
        budget._at_window(fresh, w)
    assert budget._at_window.cache_info().currsize == 4
    assert (dataclasses.asdict(fresh), repr(fresh), hash(fresh)) == before
    assert _bits(fresh) == _bits(LinkModel.from_config(cfg))
    # a link is == only to itself: the cache keys on its identity
    assert fresh == fresh != LinkModel.from_config(cfg)
    assert not hasattr(cfg, "rates")
    assert "rates" not in dataclasses.asdict(cfg)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    doc = json.loads(path.read_text())
    assert "rates" not in doc
    doc["rates"] = {}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"config\.rates: unknown key"):
        load_config(path)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, len(_WINDOW_CONFIGS) - 1),
       windows=st.lists(st.one_of(
           st.sampled_from([60, 60.0, 100, 100.0, 140, 140.0]),
           st.integers(10, 10 ** 6), st.floats(10.0, 1e6)),
           min_size=1, max_size=12))
@example(k=0, windows=[100, 100.0, True])
def test_every_kept_window_is_a_fresh_derivation(k, windows):
    # a fresh link per example; each window read twice in turn, so the
    # second read of one is a hit: 100 must never answer for 100.0
    link = LinkModel.from_config(_WINDOW_CONFIGS[k])
    for w in windows + windows:
        rates = budget._at_window(link, w)[0]
        fresh = budget._derive_window(link, w)
        assert type(rates.window_ps) is type(w)
        assert _bits(rates) == _bits(fresh[0])
        assert json.dumps(dataclasses.asdict(rates)) \
            == json.dumps(dataclasses.asdict(fresh[0]))
        assert repr(budget._at_window(link, w)[1:]) == repr(fresh[1:])


def test_the_window_cache_keeps_at_most_windows_kept(monkeypatch):
    cfg = paper_link(50.0, 100.0)
    link = LinkModel.from_config(cfg)
    original = budget._derive_window
    budget._at_window.cache_clear()
    calls = _count_windows(monkeypatch)
    n = budget.WINDOWS_KEPT
    assert budget._at_window.cache_info().maxsize == n
    windows = [10.0 + k for k in range(4 * n + 3)]
    for w in windows:
        assert budget._at_window(link, w)[0].window_ps == w
        assert 0 < budget._at_window.cache_info().currsize <= n
    assert len(calls) == len(windows)
    # the least recently read window is dropped first, so the n read
    # last stay kept, each still a fresh derivation: a long grid leaves
    # only its tail behind
    for w in windows[-n:]:
        assert list(map(_bits, budget._at_window(link, w))) \
            == list(map(_bits, original(link, w)))
    assert len(calls) == len(windows)
    for w in windows[:1] * 2:
        budget._at_window(link, w)
    assert len(calls) == len(windows) + 1
    # so does a grid as long as optimize-window --grid takes
    grid = np.linspace(1.0, 199.0, 10_000)
    optimize_window(cfg, grid)
    assert budget._at_window.cache_info().currsize == n
    misses = budget._at_window.cache_info().misses
    for w in map(float, grid[-n:]):
        assert list(map(_bits, budget._at_window(cfg.link, w))) \
            == list(map(_bits, original(cfg.link, w)))
    assert budget._at_window.cache_info().misses == misses


def test_threads_sharing_a_link_read_their_own_windows():
    # more threads than cores, switching often, reading the four base
    # configs' links at more windows than the cache keeps, in turn with
    # window-only replacements that go through the last-link slot:
    # each read must be the closed form of its own link and window,
    # and the cache may never keep more than the bound
    bases = [paper_link(km, 100.0) for km in (0.0, 20.0, 50.0, 80.0)]
    windows = [60.0 + k for k in range(budget.WINDOWS_KEPT + 16)]
    want = [{w: _bits(budget._derive_window(
        LinkModel.from_config(b), w)[0]) for w in windows} for b in bases]
    cache_info = budget._at_window.cache_info
    wrong = []

    def work(t):
        picks = np.random.default_rng(t).integers(len(windows), size=300)
        for i, pick in enumerate(picks):
            j, w = (t + i) % len(bases), windows[pick]
            if i % 2:
                rates = budget._at_window(bases[j].link, w)[0]
            else:
                rates = predict_rates(replace(
                    bases[j], tia=CoincidenceWindowSpec(window_ps=w)))
            if _bits(rates) != want[j][w] \
                    or cache_info().currsize > budget.WINDOWS_KEPT:
                wrong.append((t, i))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert 0 < cache_info().currsize <= budget.WINDOWS_KEPT


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["copy", "deepcopy", "pickle"])
def test_a_config_read_for_its_link_survives_copy_and_pickle(clone):
    cfg = paper_link(50.0, 100.0)
    assert cfg.link.pair_rate_hz > 0.0
    other = clone(cfg)
    assert other == cfg
    assert _bits(other.link) == _bits(LinkModel.from_config(cfg))
    assert _bits(predict_rates(other)) == _bits(predict_rates(cfg))


def test_reading_a_config_stores_nothing_in_it():
    cfg = replace(preset("paper-100km").config, acquisition_time_s=0.05)
    keys, pickled = set(vars(cfg)), pickle.dumps(cfg)
    assert cfg.link.pair_rate_hz > 0.0
    predict_rates(cfg)
    scenarios.measure_point(cfg, 0.0)
    assert set(vars(cfg)) == keys
    assert pickle.dumps(cfg) == pickled


def test_link_is_not_a_config_field(tmp_path):
    cfg = paper_link(50.0, 100.0)
    before = config_hash(cfg)
    assert cfg.link.pair_rate_hz > 0.0
    assert "link" not in dataclasses.asdict(cfg)
    assert config_hash(cfg) == before
    assert cfg == paper_link(50.0, 100.0)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    doc = json.loads(path.read_text())
    doc["link"] = {}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"config\.link: unknown key"):
        load_config(path)


# ---------------------------------------------------------------------------
# window optimization
# ---------------------------------------------------------------------------

def test_window_choice_with_displaced_peak():
    cfg = paper_link(50.0, 100.0, contrast=CAL_CONTRAST,
                     drift=TimingDriftSpec(enabled=True, channel="idler",
                                           offset_ps=40.0))
    opt = optimize_window(cfg, list(range(60, 150, 10)))
    assert opt.best_window_ps == 100.0
    by_w = {e.window_ps: e.s_value for e in opt.entries}
    assert abs(by_w[60.0] - 2.10322) < 1e-3
    assert abs(by_w[100.0] - 2.11742) < 1e-3
    assert abs(by_w[120.0] - 2.11114) < 1e-3
    assert abs(by_w[140.0] - 2.09481) < 1e-3
    assert all(e.s_value > 2.0 for e in opt.entries)


def test_window_choice_centered_prefers_smallest():
    cfg = paper_link(50.0, 100.0, contrast=CAL_CONTRAST)
    opt = optimize_window(cfg, [60, 80, 100, 120, 140])
    assert opt.best_window_ps == 60.0


def test_window_choice_rate_weighted_noise_free_prefers_largest():
    cfg = paper_link(0.0, 60.0,
                     source=SourceSpec(mean_pairs_per_window=1e-3),
                     detector_signal=DetectorSpec(quantum_efficiency=0.007,
                                                  dark_rate_hz=0.0,
                                                  jitter_fwhm_ps=PAIR_JITTER),
                     detector_idler=DetectorSpec(quantum_efficiency=0.021,
                                                 dark_rate_hz=0.0,
                                                 jitter_fwhm_ps=PAIR_JITTER))
    opt = optimize_window(cfg, [60, 80, 100, 120, 140],
                          objective="rate_weighted")
    assert opt.best_window_ps == 140.0
    scores = [e.score for e in opt.entries]
    assert all(b > a for a, b in zip(scores, scores[1:]))


def test_window_grid_validation():
    cfg = paper_link(0.0, 60.0)
    with pytest.raises(ValidationError):
        optimize_window(cfg, [])
    with pytest.raises(ValidationError):
        optimize_window(cfg, [60.0, 200.0])   # >= 2 * delay
    with pytest.raises(ValidationError):
        optimize_window(cfg, [0.0, 60.0])
    with pytest.raises(ValidationError):
        optimize_window(cfg, [60.0], objective="fastest")


# ---------------------------------------------------------------------------
# budget vs Monte Carlo
# ---------------------------------------------------------------------------

def test_predictions_match_simulation():
    cfg = SimulationConfig(
        source=SourceSpec(mean_pairs_per_window=3e-3),
        channel_signal=ChannelSpec(fiber_length_km=0.0,
                                   pre_fiber_loss_db=10.0),
        channel_idler=ChannelSpec(fiber_length_km=0.0,
                                  pre_fiber_loss_db=10.0),
        analyzer_signal=AnalyzerSpec(insertion_loss_db=0.0),
        analyzer_idler=AnalyzerSpec(insertion_loss_db=0.0),
        detector_signal=DetectorSpec(quantum_efficiency=0.02,
                                     jitter_fwhm_ps=PAIR_JITTER),
        detector_idler=DetectorSpec(quantum_efficiency=0.05,
                                    jitter_fwhm_ps=PAIR_JITTER),
        tia=CoincidenceWindowSpec(window_ps=60.0, histogram_bin_ps=10.0),
        acquisition_time_s=10.0,
        master_seed=2024,
    )
    rates = predict_rates(cfg)
    sig, idl, diag = run_simulation(cfg)
    t = cfg.acquisition_time_s

    want_both = rates.both_rate_hz * t
    assert abs(diag.pairs_both_detectable - want_both) \
        < 4.0 * math.sqrt(want_both)
    for stream, singles, dark in (
            (sig, rates.singles_signal_hz,
             cfg.detector_signal.dark_rate_hz),
            (idl, rates.singles_idler_hz,
             cfg.detector_idler.dark_rate_hz)):
        want_photon = (singles - dark) * t
        assert abs(stream.true_count - want_photon) \
            < 4.0 * math.sqrt(want_photon)
        assert abs(stream.dark_count - dark * t) \
            < 4.0 * math.sqrt(dark * t)

    hist = build_histogram(sig.times_ps, idl.times_ps, 10, 300)
    central = count_in_window(hist, 0.0, 60.0)
    want_central = rates.total_central_window_hz * t
    assert abs(central - want_central) < 5.0 * math.sqrt(want_central)

    for sign in (-1.0, +1.0):
        side = count_in_window(hist, sign * 100.0, 60.0)
        cap = LinkModel.from_config(cfg).peak.mass(int(sign),
                                                   sign * 100.0, 60.0)
        want_side = (rates.both_rate_hz / 16.0 * cap
                     + rates.accidental_in_window_hz) * t
        assert abs(side - want_side) < 5.0 * math.sqrt(want_side)


@pytest.mark.parametrize("fwhm_ps, fiber_km, walk_step_ps", [
    (1e-200, 0.0, 0.0),    # the pair spread underflows to 0
    (1e-150, 1.0, 0.0),    # dispersion makes both arm spreads infinite
    (4.0, 0.0, 1e154),     # a finite walk whose variance overflows
    (4.0, 0.0, 1e200),     # a walk whose squared step overflows
])
def test_link_refuses_a_timing_spread_that_is_zero_or_infinite(
        fwhm_ps, fiber_km, walk_step_ps):
    cfg = preset("ideal").config
    channels = {arm: replace(getattr(cfg, arm), fiber_length_km=fiber_km)
                for arm in ("channel_signal", "channel_idler")}
    cfg = replace(cfg, source=replace(cfg.source, photon_fwhm_ps=fwhm_ps),
                  drift=TimingDriftSpec(enabled=walk_step_ps > 0.0,
                                        walk_step_ps=walk_step_ps),
                  **channels)
    with pytest.raises(ValidationError, match="timing spreads must be"):
        LinkModel.from_config(cfg)
    with pytest.raises(ValidationError, match="timing spreads must be"):
        predict_rates(cfg)
    with pytest.raises(ValidationError, match="timing spreads must be"):
        run_simulation(cfg)


@pytest.mark.parametrize("mu, after_losses, pre_fiber_loss_db", [
    (1e300, False, 10.0),   # mu / window_base_ps overflows
    (1e200, True, 1000.0),  # the after-loss correction overflows
])
def test_link_refuses_a_pair_rate_that_overflows(mu, after_losses,
                                                 pre_fiber_loss_db):
    cfg = preset("paper-100km").config
    cfg = replace(cfg, source=replace(cfg.source, mean_pairs_per_window=mu,
                                      mu_measured_after_losses=after_losses),
                  **{arm: replace(getattr(cfg, arm),
                                  pre_fiber_loss_db=pre_fiber_loss_db)
                     for arm in ("channel_signal", "channel_idler")})
    match = "mean_pairs_per_window .* pair rate"
    with pytest.raises(ValidationError, match=match):
        predict_rates(cfg)
    with pytest.raises(ValidationError, match=match):
        run_simulation(cfg)
