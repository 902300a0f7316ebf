"""Command-line front end.

Subcommands
    simulate <config>          one acquisition at the configured phases:
                               click streams -> delay histogram -> rates,
                               compared against the closed-form prediction
    fringe <scenario>          run a scenario: a fringe scan (per-point
                               simulation, fringe fit, Bell verdict), or a
                               window or mu sweep
    budget <config>            loss ledger, rate and visibility prediction
                               (of a bare config or a scenario's config)
    histogram <clicks-a> <clicks-b>
                               rebuild a delay histogram from exported
                               click-stream files
    optimize-window <config>   score a coincidence-window grid

scenarios writes every file but the click files: a report with
emit_outputs (simulate's is a one-point report, budget's a
budget_report; optimize-window runs a window-sweep scenario),
histogram's table with write_histograms.  Here: argument parsing,
stdout and exit codes.

Common flags: --preset, --seed, --out-dir, --points, --acquisition-s.
Exit codes: 0 success, 2 validation/parse failure, 3 degenerate fringe fit,
1 any other failure (an unwritable output directory, another FransonError).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import textwrap
from dataclasses import replace
from typing import List, Union

from .budget import WINDOW_OBJECTIVES, WindowOptimization, build_ledger
from .errors import FransonError, ParseError, ValidationError
from .montecarlo import SimulationConfig, click_writer, read_click_stream
from .scenarios import (DEFAULT_WINDOW_GRID_PS, PRESET_NAMES, RunReport,
                        ScanPlan, Scenario, _sanitize_name, budget_report,
                        config_hash, emit_outputs, load_config, measure_point,
                        phase_grid, point_report, preset, run_scenario,
                        write_histograms)
from .tia import CLICK_LIMIT_PS, HistogramAccumulator, count_in_window, \
    window_bins

_EXIT_OK = 0
_EXIT_INVALID = 2
_EXIT_DEGENERATE = 3

# windows an optimize-window --grid start:step:stop may span
_MAX_GRID_WINDOWS = 10_000


def _resolve(args, kind: str, config_only: bool = False,
             ) -> Union[SimulationConfig, Scenario]:
    """Exactly one source, a positional file or --preset, with --seed
    applied; config_only gives its config alone, a scenario's too."""
    path = getattr(args, kind, None)
    if (path is None) == (args.preset is None):
        raise ValidationError(
            f"give either a {kind} file or --preset, not both/neither")
    obj = load_config(path, config_only) if args.preset is None \
        else preset(args.preset)
    if config_only and isinstance(obj, Scenario):
        obj = obj.config
    if args.seed is None:
        return obj
    if isinstance(obj, Scenario):
        return replace(obj, config=replace(obj.config, master_seed=args.seed))
    return replace(obj, master_seed=args.seed)


def _run_name(args, kind: str) -> str:
    if args.preset is not None:
        return args.preset
    stem = os.path.splitext(os.path.basename(getattr(args, kind)))[0]
    return _sanitize_name(stem)


def _emit(report: RunReport, out_dir) -> None:
    for path in emit_outputs(report, out_dir):
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cfg = _resolve(args, "config", config_only=True)
    if args.acquisition_s is not None:
        cfg = replace(cfg, acquisition_time_s=args.acquisition_s)
    os.makedirs(args.out_dir, exist_ok=True)    # before the point runs
    name = _run_name(args, "config")
    paths = {ch: os.path.join(args.out_dir, f"{name}_{ch}_clicks.bin")
             for ch in ("signal", "idler") if args.dump_clicks}
    with contextlib.ExitStack() as stack:   # closes or removes each file
        writers = [stack.enter_context(click_writer(
            path, ch, cfg.span_ps(), cfg.master_seed, config_hash(cfg)))
            for ch, path in paths.items()]
        point = measure_point(cfg, cfg.analyzer_signal.effective_phase_rad(),
                              writers)
    for path in paths.values():
        print(f"wrote {path}")
    report = point_report(name, cfg, point)
    _emit(report, args.out_dir)

    t, central = cfg.acquisition_time_s, point.counts_central
    print(f"singles  signal {point.singles_signal / t:.1f} Hz, "
          f"idler {point.singles_idler / t:.1f} Hz")
    print(f"central window: {central} counts in {t:g} s "
          f"({central / t:.4g} Hz; predicted "
          f"{report.predicted_rates.total_central_window_hz:.4g} Hz at "
          f"configured phases)")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# fringe
# ---------------------------------------------------------------------------

def _cmd_fringe(args) -> int:
    scenario = _resolve(args, "scenario")
    if isinstance(scenario, SimulationConfig):
        plan = ScanPlan(settings=phase_grid(16),
                        acquisition_s_per_point=scenario.acquisition_time_s)
        scenario = Scenario(name=_run_name(args, "scenario"),
                            config=scenario, plan=plan)
    if scenario.plan is None:
        for flag, value in (("--points", args.points),
                            ("--acquisition-s", args.acquisition_s),
                            ("--histograms", args.histograms or None)):
            if value is not None:
                raise ValidationError(
                    f"{flag} applies to a fringe scan; scenario "
                    f"{scenario.name!r} is a closed-form {scenario.mode}")
    else:
        plan = scenario.plan
        if args.points is not None:
            if plan.abscissa != "phase":
                raise ValidationError(
                    "--points regenerates a phase grid; this scenario "
                    "scans temperature")
            plan = replace(plan, settings=phase_grid(args.points))
        if args.acquisition_s is not None:
            plan = replace(plan, acquisition_s_per_point=args.acquisition_s)
        scenario = replace(scenario, plan=plan)
    if args.histograms:
        scenario = replace(scenario, emit_histograms=True)

    def progress(done: int, total: int) -> None:
        print(f"  point {done}/{total}", file=sys.stderr, flush=True)

    report = run_scenario(scenario, progress=progress)
    _emit(report, args.out_dir)
    print(f"scenario {report.scenario_name}  config {report.config_hash}  "
          f"seed {report.config.master_seed}")
    print(f"wall clock {report.wall_clock_s:.2f} s, "
          f"{report.events_generated} pairs generated")
    if report.mode == "fringe":
        if report.fit_degenerate or report.estimate is None:
            print("fringe fit DEGENERATE (too few points or no "
                  "resolvable modulation)")
            return _EXIT_DEGENERATE
        est = report.estimate
        print(f"V = {est.visibility:.4f} +/- {est.sigma_visibility:.4f}   "
              f"S = {report.s_value:.4f}   "
              f"{'VIOLATES' if report.violates else 'no violation'}")
        print(f"predicted V (raw windowed fit): "
              f"{report.predicted_visibility_raw:.4f}")
    elif report.mode == "window-sweep":
        _print_window_table(report.window_table)
    else:
        for row in report.mu_table:
            print(f"  mu={row.mean_pairs_per_window:g}  "
                  f"V={row.visibility:.4f}  S={row.s_value:.4f}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------

def _print_budget(report: RunReport) -> None:
    cfg, rates = report.config, report.predicted_rates
    print("loss ledger")
    for arm, entries in build_ledger(cfg).items():
        print(f"  {arm}: total {getattr(cfg.link, arm).loss_db:g} dB")
        for e in entries:
            print(f"    {e.label} {e.loss_db:g} dB")
    print(textwrap.indent(textwrap.fill(rates.loss_note, 98), "  "))
    print(f"generated pairs      {rates.generated_pair_rate_hz:.4g} Hz")
    print(f"singles              signal {rates.singles_signal_hz:.4g} Hz, "
          f"idler {rates.singles_idler_hz:.4g} Hz")
    print(f"both-detectable rate {rates.both_rate_hz:.4g} Hz")
    print(f"central window max   {rates.central_max_in_window_hz:.4g} Hz "
          f"(window {rates.window_ps:g} ps, "
          f"capture {rates.capture_fraction:.4f})")
    print(f"accidentals          {rates.accidental_in_window_hz:.4g} Hz")
    print(f"predicted V          {report.predicted_visibility:.4f}  "
          f"S = {report.s_value:.4f}  "
          f"{'VIOLATES' if report.violates else 'no violation'}")


def _cmd_budget(args) -> int:
    cfg = _resolve(args, "config", config_only=True)
    report = budget_report(_run_name(args, "config"), cfg)
    _print_budget(report)
    if args.out_dir is not None:
        _emit(report, args.out_dir)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

def _cmd_histogram(args) -> int:
    # flags first: a bad one must not cost a read of both click files
    acc = HistogramAccumulator(args.bin_ps, args.range_ps)
    if args.window_ps is not None:
        window_bins(acc.bin_ps, acc.range_ps, 0.0, args.window_ps)
    starts, meta_a = read_click_stream(args.clicks_a)
    stops, meta_b = read_click_stream(args.clicks_b)
    hash_a, hash_b = (m.get("config_hash", "") for m in (meta_a, meta_b))
    if hash_a and hash_b and hash_a != hash_b:
        print(f"warning: click files carry different config hashes "
              f"({hash_a} vs {hash_b})", file=sys.stderr)
    acc.add_bucket(starts.times_ps, stops.times_ps, CLICK_LIMIT_PS)
    hist = acc.finalize()
    print(f"{hist.total_pairs} pairs within +/-{hist.range_ps} ps "
          f"({hist.n_starts} starts, {hist.n_stops} stops)")
    if args.window_ps is not None:
        central = count_in_window(hist, 0.0, args.window_ps)
        print(f"window {args.window_ps:g} ps at 0: {central} counts")
    if args.out_dir is not None:
        path = write_histograms(args.out_dir, "histogram", hash_a or hash_b,
                                [(None, hist)])
        print(f"wrote {path}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# optimize-window
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> List[float]:
    """Windows of a start:step:stop range (stop included, at most
    _MAX_GRID_WINDOWS of them) or of a comma list; all finite."""
    text = text.strip()
    ranged = ":" in text
    parts = text.split(":") if ranged else \
        [p for p in text.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"grid {text!r} must be finite")
    if not ranged:
        return values
    if len(values) != 3:
        raise ValidationError(
            f"grid {text!r} must be start:step:stop or a comma list")
    start, step, stop = values
    if step <= 0 or stop < start:
        raise ValidationError(f"grid {text!r} is not increasing")
    span = (stop + 1e-9 - start) / step
    if not span < _MAX_GRID_WINDOWS:
        raise ValidationError(
            f"grid {text!r} spans more than {_MAX_GRID_WINDOWS} windows")
    return [round(start + k * step, 9) for k in range(int(span) + 1)]


def _print_window_table(table: WindowOptimization) -> None:
    print(f"{'window_ps':>10} {'V':>8} {'S':>8} {'rate_hz':>12} "
          f"{'score':>12}")
    for e in table.entries:
        mark = " <- best" if e.window_ps == table.best_window_ps else ""
        print(f"{e.window_ps:>10g} {e.visibility:>8.4f} {e.s_value:>8.4f} "
              f"{e.central_max_in_window_hz:>12.4g} {e.score:>12.6g}{mark}")
    print(f"best window by {table.objective}: {table.best_window_ps:g} ps")


def _cmd_optimize_window(args) -> int:
    scenario = _resolve(args, "config")
    cfg = scenario.config if isinstance(scenario, Scenario) else scenario
    grid = _parse_grid(args.grid) if args.grid is not None else \
        getattr(scenario, "window_grid_ps", None) or DEFAULT_WINDOW_GRID_PS
    objective = args.objective or \
        getattr(scenario, "window_objective", None) or "s_value"
    report = run_scenario(Scenario(
        name=_run_name(args, "config"), config=cfg, window_grid_ps=grid,
        window_objective=objective))
    _print_window_table(report.window_table)
    if args.out_dir is not None:
        _emit(report, args.out_dir)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--preset", choices=PRESET_NAMES,
                     help="use a built-in scenario instead of a file")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the master seed")
    sub.add_argument("--out-dir", default=None,
                     help="directory for output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fransonsim",
        description="Time-energy entanglement link simulator: "
                    "pair source, lossy dispersive fiber, interferometric "
                    "analyzers, noisy detectors, coincidence analysis.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate",
                        help="one acquisition at the configured phases")
    p.add_argument("config", nargs="?", help="config JSON file")
    _add_common(p)
    p.add_argument("--acquisition-s", type=float, default=None,
                   help="override acquisition time")
    p.add_argument("--dump-clicks", action="store_true",
                   help="also record both channels' clicks as binary "
                        "click files")
    p.set_defaults(func=_cmd_simulate, out_dir=".")

    p = subs.add_parser("fringe", help="run a fringe-scan scenario")
    p.add_argument("scenario", nargs="?",
                   help="scenario (or bare config) JSON file")
    _add_common(p)
    p.add_argument("--points", type=int, default=None,
                   help="rebuild the phase grid with this many points")
    p.add_argument("--acquisition-s", type=float, default=None,
                   help="override per-point acquisition time")
    p.add_argument("--histograms", action="store_true",
                   help="retain and emit per-point delay histograms")
    p.set_defaults(func=_cmd_fringe, out_dir=".")

    p = subs.add_parser("budget",
                        help="loss ledger and closed-form predictions")
    p.add_argument("config", nargs="?", help="config JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_budget)

    p = subs.add_parser("histogram",
                        help="delay histogram from exported click files")
    p.add_argument("clicks_a", help="start-channel click file")
    p.add_argument("clicks_b", help="stop-channel click file")
    p.add_argument("--bin-ps", type=float, default=10.0)
    p.add_argument("--range-ps", type=float, default=300.0)
    p.add_argument("--window-ps", type=float, default=None,
                   help="also count a centered coincidence window")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_histogram)

    p = subs.add_parser("optimize-window",
                        help="score a coincidence-window grid")
    p.add_argument("config", nargs="?", help="config JSON file")
    _add_common(p)
    p.add_argument("--grid", default=None,
                   help="start:step:stop or comma-separated windows (ps)")
    p.add_argument("--objective", choices=WINDOW_OBJECTIVES,
                   help="window score (default: the scenario's "
                        "window_objective, else s_value)")
    p.set_defaults(func=_cmd_optimize_window)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except FransonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
