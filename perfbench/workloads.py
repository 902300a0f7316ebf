"""The four benchmark workloads.

Each workload drives fransonsim through the public functions its CLI
uses, one closed-loop operation at a time:

* ``build(seed, tiny)`` makes the inputs from the seed (part of setup);
* ``run(state, out_dir)`` is one timed operation;
* ``check(state, output)`` verifies the output after the timer stops
  and returns (failures, info, digest).  The digest must repeat across
  operations of one run, because every operation of a run uses the
  same seed and fransonsim output is byte-deterministic.

Package functions are looked up on their modules at call time
(``scenarios.run_scenario``, not a name bound at import), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
from typing import Dict, List, Tuple

import numpy as np

from fransonsim import budget, montecarlo, physics, scenarios, tia

#: How many fit sigmas the fitted visibility may sit from the closed form.
VISIBILITY_PULL_LIMIT = 5.0

# The 100 km link: 50 ns non-paralyzable dead time on both detectors, and
# detector efficiency raised, mu lowered, by the same factor.  Singles
# (hence clicks and engine work per simulated second) stay those of the
# preset, while coincidences per click rise by the factor.  At the
# preset's own efficiencies an 8-point scan would need ~600 s per point
# before the fit stops degenerating; see README.md.
KM100_LINK = {"dead_time_ps": 50_000.0, "efficiency_gain": 30.0}


def rebuild(obj, **changes):
    """dataclasses.replace; a named helper so traced runs can attribute
    config construction to the module that validates it."""
    return dataclasses.replace(obj, **changes)


def _sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _pulls(measured, expected) -> List[float]:
    return [(m - e) / math.sqrt(e) for m, e in zip(measured, expected)]


# ---------------------------------------------------------------------------
# Fringe scans: b2b-scan and km100-deadtime-scan
# ---------------------------------------------------------------------------

class FringeScanWorkload:
    """preset -> run_scenario -> emit_outputs, as ``fransonsim fringe``."""

    # large-array numpy work: its speed does not follow the host-speed
    # reference, so scaling by it would add noise (README.md)
    host_scaled = False

    def __init__(self, name: str, preset_name: str, points: int,
                 seconds_per_point: float, tiny_seconds_per_point: float,
                 link=None):
        self.name = name
        self.preset_name = preset_name
        self.points = points
        self.seconds_per_point = seconds_per_point
        self.tiny_seconds_per_point = tiny_seconds_per_point
        self.link = link    # keyword arguments of _relink, or None

    def params(self, tiny: bool) -> Dict[str, object]:
        return {"preset": self.preset_name, "points": self.points,
                "acquisition_s_per_point": self.tiny_seconds_per_point
                if tiny else self.seconds_per_point, "link": self.link}

    def build(self, seed: int, tiny: bool):
        scenario = scenarios.preset(self.preset_name, master_seed=seed)
        if self.link is not None:
            scenario = rebuild(scenario,
                               config=_relink(scenario.config, **self.link))
        plan = rebuild(scenario.plan,
                       settings=scenarios.phase_grid(self.points),
                       acquisition_s_per_point=self.params(tiny)[
                           "acquisition_s_per_point"])
        return rebuild(scenario, plan=plan)

    def run(self, scenario, out_dir: str):
        report = scenarios.run_scenario(scenario)
        written = scenarios.emit_outputs(report, out_dir)
        return report, written

    def work(self, output) -> Dict[str, int]:
        report, _ = output
        return {"configs": len(report.points),
                "clicks": sum(p.singles_signal + p.singles_idler
                              for p in report.points)}

    def check(self, scenario, output) -> Tuple[List[str], Dict, str]:
        report, written = output
        failures: List[str] = []
        digest = _sha256_files(written[:1])   # the report JSON
        est = report.estimate
        info: Dict[str, object] = {
            "predicted_visibility_raw": report.predicted_visibility_raw}
        if report.fit_degenerate or est is None:
            failures.append("fringe fit degenerate")
        elif not (math.isfinite(est.sigma_visibility)
                  and est.sigma_visibility > 0.0):
            failures.append(f"fit sigma not usable: {est.sigma_visibility}")
        else:
            pull = (est.visibility - report.predicted_visibility_raw) \
                / est.sigma_visibility
            info.update(visibility=est.visibility,
                        sigma_visibility=est.sigma_visibility,
                        visibility_pull=pull)
            if not 0.0 <= est.visibility <= 1.0:
                failures.append(f"V = {est.visibility} outside [0, 1]")
            if abs(pull) > VISIBILITY_PULL_LIMIT:
                failures.append(
                    f"V = {est.visibility:.4f} +/- "
                    f"{est.sigma_visibility:.4f} is {pull:.1f} sigma from "
                    f"the closed form {report.predicted_visibility_raw:.4f}")
        # singles against the closed form: information, not a gate
        # (the closed form ignores dead time)
        t = report.acquisition_s_per_point
        rates = report.predicted_rates
        for label, attr, hz in (
                ("signal", "singles_signal", rates.singles_signal_hz),
                ("idler", "singles_idler", rates.singles_idler_hz)):
            pulls = _pulls([getattr(p, attr) for p in report.points],
                           [hz * t] * len(report.points))
            info[f"singles_{label}_pull_mean"] = sum(pulls) / len(pulls)
        return failures, info, digest


def _relink(config, dead_time_ps: float, efficiency_gain: float):
    detectors = {
        arm: rebuild(getattr(config, arm), dead_time_ps=dead_time_ps,
                     quantum_efficiency=getattr(
                         config, arm).quantum_efficiency * efficiency_gain)
        for arm in ("detector_signal", "detector_idler")}
    source = rebuild(config.source, mean_pairs_per_window=config.source
                     .mean_pairs_per_window / efficiency_gain)
    return rebuild(config, source=source, **detectors)


# ---------------------------------------------------------------------------
# clicks-roundtrip
# ---------------------------------------------------------------------------

class ClicksRoundtripWorkload:
    """``simulate --dump-clicks`` followed by ``histogram`` on its files."""

    name = "clicks-roundtrip"
    host_scaled = True     # interpreter-bound: text formatting and parsing

    def __init__(self, acquisition_s: float, tiny_acquisition_s: float):
        self.acquisition_s = acquisition_s
        self.tiny_acquisition_s = tiny_acquisition_s

    def params(self, tiny: bool) -> Dict[str, object]:
        return {"preset": "back-to-back",
                "acquisition_time_s": self.tiny_acquisition_s
                if tiny else self.acquisition_s}

    def build(self, seed: int, tiny: bool):
        config = scenarios.preset("back-to-back", master_seed=seed).config
        return rebuild(config,
                       acquisition_time_s=self.params(tiny)[
                           "acquisition_time_s"])

    def run(self, config, out_dir: str):
        delay, w = config.analyzer_signal.delay_ps, config.tia.window_ps
        # simulate --dump-clicks: materialise, histogram, write
        sig, idl, _ = montecarlo.run_simulation(config)
        acc = tia.HistogramAccumulator(config.tia.histogram_bin_ps, delay + w)
        acc.add_bucket(sig.times_ps, idl.times_ps, config.span_ps() + 1)
        hist_mem = acc.finalize()
        central_mem = [tia.count_in_window(hist_mem, c, w)
                       for c in (0.0, -delay, delay)]
        rates = budget.predict_rates(config)
        paths = [os.path.join(out_dir, f"{tag}_clicks.txt")
                 for tag in ("signal", "idler")]
        for stream, path in zip((sig, idl), paths):
            montecarlo.write_click_stream(stream, path,
                                          seed=config.master_seed)
        # histogram: read both files back and rebuild
        read = [montecarlo.read_click_stream(p)[0] for p in paths]
        hist_file = tia.build_histogram(read[0].times_ps, read[1].times_ps,
                                        config.tia.histogram_bin_ps,
                                        delay + w)
        central_file = tia.count_in_window(hist_file, 0.0, w)
        return {"written": (sig, idl), "read": read, "paths": paths,
                "hist_mem": hist_mem, "hist_file": hist_file,
                "central_mem": central_mem, "central_file": central_file,
                "rates": rates}

    def work(self, output) -> Dict[str, int]:
        return {"configs": 1,
                "clicks": sum(s.times_ps.size for s in output["written"])}

    def check(self, config, output) -> Tuple[List[str], Dict, str]:
        failures: List[str] = []
        for before, after in zip(output["written"], output["read"]):
            if not np.array_equal(before.times_ps, after.times_ps):
                failures.append(f"{before.channel}: read-back times differ "
                                "from written times")
            if (before.span_ps, before.true_count, before.dark_count) != \
                    (after.span_ps, after.true_count, after.dark_count):
                failures.append(f"{before.channel}: header fields differ")
        hm, hf = output["hist_mem"], output["hist_file"]
        if not (np.array_equal(hm.counts, hf.counts)
                and (hm.n_starts, hm.n_stops) == (hf.n_starts, hf.n_stops)):
            failures.append("histogram from files differs from the "
                            "in-memory histogram")
        if output["central_mem"][0] != output["central_file"]:
            failures.append("central-window counts differ")
        t = config.acquisition_time_s
        rates = output["rates"]
        sig, idl = output["written"]
        info = {"central_counts": output["central_mem"],
                "singles_signal_pull": _pulls(
                    [sig.times_ps.size], [rates.singles_signal_hz * t])[0],
                "singles_idler_pull": _pulls(
                    [idl.times_ps.size], [rates.singles_idler_hz * t])[0]}
        return failures, info, _sha256_files(output["paths"])


# ---------------------------------------------------------------------------
# closed-form-map
# ---------------------------------------------------------------------------

class ClosedFormMapWorkload:
    """A link-design grid over fiber length, mu and window, plus the
    window-sweep and mu-sweep presets; no Monte Carlo."""

    name = "closed-form-map"
    host_scaled = True     # interpreter-bound: many small Python calls

    def __init__(self, shape, tiny_shape):
        self.shape = shape              # (lengths, mus, windows)
        self.tiny_shape = tiny_shape

    def params(self, tiny: bool) -> Dict[str, object]:
        n_len, n_mu, n_win = self.tiny_shape if tiny else self.shape
        return {"base_preset": "paper-100km",
                "sweeps": ["window-sweep", "mu-sweep"],
                "fiber_km_per_arm": [0.0, 100.0, n_len],
                "log10_mu": [-3.0, -1.0, n_mu],
                "window_ps": [40, 190, n_win]}

    def build(self, seed: int, tiny: bool):
        """Grid values drawn uniformly from the parameter ranges."""
        p = self.params(tiny)
        rng = random.Random(seed)
        lo, hi, n = p["fiber_km_per_arm"]
        lengths = sorted(round(rng.uniform(lo, hi), 3) for _ in range(n))
        lo, hi, n = p["log10_mu"]
        mus = sorted(10.0 ** rng.uniform(lo, hi) for _ in range(n))
        lo, hi, n = p["window_ps"]
        windows = sorted(float(rng.randint(lo, hi)) for _ in range(n))
        sweeps = [scenarios.preset(name, master_seed=seed)
                  for name in p["sweeps"]]
        base = scenarios.preset(p["base_preset"], master_seed=seed).config
        return {"base": base, "lengths": lengths, "mus": mus,
                "windows": windows, "sweeps": sweeps}

    def run(self, state, out_dir: str):
        base = state["base"]
        rows, optimized = [], []
        for length in state["lengths"]:
            cfg_len = rebuild(
                base,
                channel_signal=rebuild(base.channel_signal,
                                       fiber_length_km=length),
                channel_idler=rebuild(base.channel_idler,
                                      fiber_length_km=length))
            for mu in state["mus"]:
                cfg_mu = rebuild(cfg_len, source=rebuild(
                    base.source, mean_pairs_per_window=mu))
                optimized.append(budget.optimize_window(
                    cfg_mu, state["windows"], "rate_weighted"))
                for window in state["windows"]:
                    cfg = rebuild(cfg_mu,
                                  tia=rebuild(base.tia, window_ps=window))
                    rows.append((budget.predict_rates(cfg),
                                 budget.predict_visibility(cfg),
                                 budget.predict_visibility(
                                     cfg, include_side_leak=True),
                                 budget.bell_verdict(cfg)))
        reports, written = [], []
        for scenario in state["sweeps"]:
            report = scenarios.run_scenario(scenario)
            reports.append(report)
            written += scenarios.emit_outputs(report, out_dir)
        return {"rows": rows, "optimized": optimized, "reports": reports,
                "written": written}

    def work(self, output) -> Dict[str, int]:
        reports = output["reports"]
        return {"configs": len(output["rows"])
                + sum(len(o.entries) for o in output["optimized"])
                + len(reports[0].window_table.entries)
                + len(reports[1].mu_table),
                "clicks": 0}

    def check(self, state, output) -> Tuple[List[str], Dict, str]:
        failures: List[str] = []

        def finite(label, *values):
            if not all(math.isfinite(v) for v in values):
                failures.append(f"{label}: non-finite output {values}")

        def bell(label, v, s):
            if not 0.0 <= v <= 1.0:
                failures.append(f"{label}: V = {v} outside [0, 1]")
            if s != physics.chsh_from_visibility(v)[0]:
                failures.append(f"{label}: S = {s} is not "
                                f"chsh_from_visibility({v})")

        canonical = []
        for k, (rates, vis, vis_raw, verdict) in enumerate(output["rows"]):
            label = f"grid[{k}]"
            numbers = [v for v in dataclasses.asdict(rates).values()
                       if isinstance(v, float)]
            numbers += list(rates.accidental_parts_hz.values())
            numbers += [vis.visibility, vis_raw.visibility,
                        verdict.s_value, verdict.margin]
            finite(label, *numbers)
            bell(label, vis.visibility, verdict.s_value)
            if not 0.0 <= vis_raw.visibility <= vis.visibility:
                failures.append(f"{label}: raw V = {vis_raw.visibility} "
                                f"outside [0, {vis.visibility}]")
            if verdict.visibility != vis.visibility:
                failures.append(f"{label}: bell_verdict V differs from "
                                "predict_visibility")
            canonical.append(numbers)
        for k, opt in enumerate(output["optimized"]):
            for e in opt.entries:
                finite(f"optimize[{k}]", e.visibility, e.s_value,
                       e.central_max_in_window_hz, e.score)
                bell(f"optimize[{k}]", e.visibility, e.s_value)
            canonical.append([opt.best_window_ps])
        window_report, mu_report = output["reports"]
        for e in window_report.window_table.entries:
            finite("window-sweep", e.visibility, e.s_value, e.score)
            bell("window-sweep", e.visibility, e.s_value)
        for r in mu_report.mu_table:
            finite("mu-sweep", r.visibility, r.s_value,
                   r.central_max_in_window_hz, r.accidental_in_window_hz)
            bell("mu-sweep", r.visibility, r.s_value)
        digest = hashlib.sha256(json.dumps(canonical).encode())
        digest.update(_sha256_files(output["written"]).encode())
        info = {"best_windows_ps": sorted(
            {o.best_window_ps for o in output["optimized"]})}
        return failures, info, digest.hexdigest()


# Sizes: b2b points get ~100 central counts each, which keeps the
# fringe fit out of its low-count failure modes on all but ~1 in 3000
# seeds; the 100 km points span three 10 s generation slices each.
WORKLOADS = {w.name: w for w in (
    FringeScanWorkload("b2b-scan", "back-to-back", points=8,
                       seconds_per_point=7.0, tiny_seconds_per_point=2.0),
    FringeScanWorkload("km100-deadtime-scan", "paper-100km", points=8,
                       seconds_per_point=30.0, tiny_seconds_per_point=12.0,
                       link=KM100_LINK),
    ClicksRoundtripWorkload(acquisition_s=1.0, tiny_acquisition_s=0.1),
    ClosedFormMapWorkload(shape=(12, 8, 8), tiny_shape=(2, 2, 3)),
)}
