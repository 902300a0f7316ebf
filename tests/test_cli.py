"""Command-line interface: subcommands, flags, exit codes, outputs."""

import ast
import gc
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import fransonsim
from fransonsim import cli, montecarlo, scenarios
from fransonsim.budget import bell_verdict, build_ledger, predict_visibility
from fransonsim.errors import ValidationError
from fransonsim.montecarlo import TimingDriftSpec, derive_seed
from fransonsim.scenarios import (ScanPlan, Scenario, emit_outputs,
                                  phase_grid, preset, run_scenario,
                                  save_config)
from fransonsim.cli import build_parser, main

from clickfiles import GOOD, REFUSALS


def run_cli(*argv):
    """Invoke the CLI in-process; argparse usage errors surface as
    SystemExit(2) just like real invocation."""
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse's own exits
        return exc.code


@pytest.fixture()
def small_config(tmp_path):
    cfg = replace(preset("ideal").config, acquisition_time_s=0.05,
                  master_seed=7)
    path = tmp_path / "small.json"
    save_config(cfg, path)
    return str(path)


@pytest.fixture()
def quick_scenario(tmp_path):
    s = preset("ideal")
    s = replace(s, name="quick",
                plan=ScanPlan(settings=phase_grid(6),
                              acquisition_s_per_point=0.02))
    path = tmp_path / "quick.json"
    save_config(s, path)
    return str(path)


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------

def test_budget_preset(capsys):
    assert run_cli("budget", "--preset", "back-to-back") == 0
    out = capsys.readouterr().out
    assert "0.8358" in out
    assert "VIOLATES" in out
    assert "loss ledger" in out
    assert "15 dB" in out


def test_budget_writes_report(tmp_path, capsys):
    assert run_cli("budget", "--preset", "ideal",
                   "--out-dir", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "ideal_report.json").read_text())
    assert doc["mode"] == "budget"
    assert doc["bell"]["violates"] is True
    assert len(doc["config_hash"]) == 12
    # the ledger, the whole side-corrected prediction and the verdict,
    # each value once: the prediction's V, background and capture
    # fraction are read from the predicted block
    cfg = preset("ideal").config
    verdict = bell_verdict(cfg)
    assert doc["ledger"] == {arm: [{"label": e.label, "loss_db": e.loss_db}
                                   for e in entries]
                             for arm, entries in build_ledger(cfg).items()}
    predicted, rates = doc["predicted"], doc["predicted"]["rates"]
    assert set(doc["visibility_terms"]) == {"contrast_total",
                                            "mean_central_hz"}
    assert asdict(predict_visibility(cfg)) == dict(
        doc["visibility_terms"], visibility=predicted["visibility"],
        background_hz=rates["accidental_in_window_hz"],
        capture_fraction=rates["capture_fraction"])
    assert predicted["visibility"] == verdict.visibility
    assert doc["bell"] == {"s_value": verdict.s_value,
                           "violates": verdict.violates,
                           "margin": verdict.margin}


def _mu_config(tmp_path, mu):
    cfg = preset("paper-100km").config
    path = tmp_path / "pumped.json"
    save_config(replace(cfg, source=replace(cfg.source,
                                            mean_pairs_per_window=mu)), path)
    return str(path)


def test_budget_writes_non_finite_values_as_strings(tmp_path):
    # a finite pair rate whose accidentals overflow: the file stays
    # strict JSON and holds the value as "inf"
    def refuse(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    path = _mu_config(tmp_path, 1e200)
    assert run_cli("budget", path, "--out-dir", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "pumped_report.json").read_text(),
                     parse_constant=refuse)
    assert doc["predicted"]["rates"]["accidental_in_window_hz"] == "inf"


def test_budget_prints_huge_singles_in_short_lines(tmp_path, capsys):
    # singles of ~1e205 Hz: every rate prints in 4 significant digits
    assert run_cli("budget", _mu_config(tmp_path, 1e200)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "loss ledger"
    assert max(len(line) for line in lines) <= 100
    # each arm's total with its ledger entries indented under it, then
    # the loss note
    k = next(k for k, line in enumerate(lines)
             if line.startswith("  per-arm optical losses"))
    totals = [line for line in lines[1:k] if not line.startswith("    ")]
    assert [t.split(": total ")[0] for t in totals] == ["  signal", "  idler"]
    assert len(lines[1:k]) > len(totals)
    assert all(line.endswith(" dB") for line in lines[1:k])
    assert any(line.endswith("double-counts it.") for line in lines[k:])
    assert any(line.startswith("singles ") and "e+205 Hz" in line
               for line in lines)


def test_budget_overflowing_pair_rate_exits_2(tmp_path, capsys):
    path = _mu_config(tmp_path, 1e300)
    assert run_cli("budget", path) == 2
    err = capsys.readouterr().err
    assert "mean_pairs_per_window" in err and "pair rate" in err
    assert "Traceback" not in err


def test_budget_overflowing_temperature_phase_exits_2(tmp_path, capsys):
    cfg = preset("paper-100km").config
    path = tmp_path / "hot.json"
    save_config(cfg, path)
    doc = json.loads(path.read_text())
    doc["analyzer_signal"].update(phase_rad=None, temperature_c=1e300,
                                  phase_per_kelvin_rad=1e10)
    path.write_text(json.dumps(doc))
    assert run_cli("budget", str(path)) == 2
    err = capsys.readouterr().err
    assert "non-finite phase" in err and "Traceback" not in err


def test_budget_requires_one_source(small_config, capsys):
    assert run_cli("budget") == 2
    assert run_cli("budget", small_config, "--preset", "ideal") == 2
    assert "not both" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_histogram_and_report(small_config, tmp_path,
                                              capsys):
    out = tmp_path / "out"
    assert run_cli("simulate", small_config, "--out-dir", str(out)) == 0
    doc = json.loads((out / "small_report.json").read_text())
    (point,) = doc["points"]
    assert point["counts_central"] > 0
    assert doc["master_seed"] == point["point_seed"] == 7
    # one point: no fit attempted, so neither a fit nor a degenerate one
    assert doc["mode"] == "fringe" and doc["fit_degenerate"] is None
    assert "fit" not in doc and "bell" not in doc
    # each value once: the loss note lives in the prediction only
    assert "loss_note" not in doc and "loss_note" in doc["predicted"]["rates"]
    hist_lines = (out / "small_hist.csv").read_text().splitlines()
    assert hist_lines[0] == f"# config_hash={doc['config_hash']}"
    assert hist_lines[1] == "point,setting,center_ps,counts"
    assert all(line.startswith("0,0.0,") for line in hist_lines[2:])
    # measured central rate should sit near the closed-form prediction
    measured = point["counts_central"] / doc["acquisition_s_per_point"]
    predicted = doc["predicted"]["rates"]["central_at_config_phase_hz"]
    assert measured == pytest.approx(predicted, rel=0.1)


def test_simulate_is_deterministic(small_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", small_config, "--out-dir", str(a)) == 0
    assert run_cli("simulate", small_config, "--out-dir", str(b)) == 0
    for name in ("small_report.json", "small_scan.csv", "small_hist.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_seed_changes_counts(small_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("simulate", small_config, "--out-dir", str(a))
    run_cli("simulate", small_config, "--seed", "8", "--out-dir", str(b))
    da = json.loads((a / "small_report.json").read_text())
    db = json.loads((b / "small_report.json").read_text())
    assert da["points"][0]["counts_central"] != \
        db["points"][0]["counts_central"]
    assert db["master_seed"] == 8


def test_dump_clicks_round_trip_through_histogram(small_config, tmp_path,
                                                  capsys):
    out = tmp_path / "out"
    assert run_cli("simulate", small_config, "--out-dir", str(out),
                   "--dump-clicks") == 0
    report = json.loads((out / "small_report.json").read_text())
    capsys.readouterr()
    assert run_cli("histogram", str(out / "small_signal_clicks.bin"),
                   str(out / "small_idler_clicks.bin"),
                   "--window-ps", "60", "--out-dir", str(out)) == 0
    text = capsys.readouterr().out
    central = report["points"][0]["counts_central"]
    assert f"window 60 ps at 0: {central} counts" in text
    # the fringe histogram table: point 0, no setting
    lines = (out / "histogram_hist.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={report['config_hash']}"
    assert lines[1] == "point,setting,center_ps,counts"
    assert len(lines) > 2 and all(line.startswith("0,,")
                                  for line in lines[2:])


def test_a_dump_that_fails_leaves_no_click_file_and_no_handle(
        small_config, tmp_path, monkeypatch, capsys):
    # the engine fails after its first bucket: each file is closed and,
    # unfinished, removed.  A file left open would be closed by the
    # collector, which reports it to sys.unraisablehook.
    real, unraisable = scenarios.iter_click_buckets, []

    def one_bucket_then_fail(config, diag=None):
        yield next(real(config, diag))
        raise ValidationError("the engine stopped")

    monkeypatch.setattr(scenarios, "iter_click_buckets",
                        one_bucket_then_fail)
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    out = tmp_path / "out"
    assert run_cli("simulate", small_config, "--out-dir", str(out),
                   "--dump-clicks") == 2
    gc.collect()
    assert "the engine stopped" in capsys.readouterr().err
    assert not list(out.glob("*_clicks.bin"))
    assert [u.exc_value for u in unraisable] == []


def test_a_dump_header_that_cannot_fit_is_refused_before_the_run(
        tmp_path, monkeypatch, capsys):
    # a 151-digit seed leaves no room in the 256-byte header for
    # 19-digit counts: refused when the file opens, before any slice
    drawn = []
    gen = montecarlo._gen_slice
    monkeypatch.setattr(montecarlo, "_gen_slice",
                        lambda *args: drawn.append(args) or gen(*args))
    out = tmp_path / "out"
    assert run_cli("simulate", "--preset", "back-to-back", "--acquisition-s",
                   "5", "--seed", str(10 ** 150), "--out-dir", str(out),
                   "--dump-clicks") == 2
    err = capsys.readouterr().err
    assert re.match(r"error: .*_clicks\.bin: the header takes up to \d+ "
                    r"bytes, more than its 255$", err), err
    assert not list(out.glob("*_clicks.bin"))
    assert drawn == []


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_FSIZE with SIGXFSZ ignored, as on Linux")
def test_a_failed_click_write_names_its_file(tmp_path):
    # under a 1 MB file-size limit the 1 s back-to-back idler file
    # (~2.2 MB) cannot be written: the error names it, and no click
    # file is left
    child = ("import resource, signal, sys\n"
             "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
             "resource.setrlimit(resource.RLIMIT_FSIZE, (10**6, 10**6))\n"
             "from fransonsim.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, "simulate", "--preset",
         "back-to-back", "--acquisition-s", "1", "--dump-clicks",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    idler = tmp_path / "back-to-back_idler_clicks.bin"
    assert proc.returncode == 1, proc.stderr
    assert re.fullmatch(f"error: {re.escape(str(idler))}: \\S.*\n",
                        proc.stderr), proc.stderr
    assert not list(tmp_path.glob("*_clicks.bin"))


def test_an_os_error_without_a_file_name_prints_its_message(
        small_config, tmp_path, monkeypatch, capsys):
    def fail(*_):
        raise OSError("276497 requested and 124968 written")

    monkeypatch.setattr(cli, "measure_point", fail)
    assert run_cli("simulate", small_config, "--out-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == \
        "error: 276497 requested and 124968 written\n"


def test_dump_memory_stays_flat_with_acquisition_time(tmp_path, capsys):
    # each bucket goes to the files as it passes: a dump of three times
    # the acquisition holds no more clicks (kept buckets would add ~15
    # bytes per click, ~22 MB over these 4 s of back-to-back)
    def dump(seconds):
        return run_cli("simulate", "--preset", "back-to-back",
                       "--acquisition-s", seconds, "--dump-clicks",
                       "--out-dir", str(tmp_path))

    assert dump("0.1") == 0     # imports and first-call caches
    peaks = []
    for seconds in ("2", "6"):
        tracemalloc.start()
        try:
            assert dump(seconds) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4e6, peaks


def test_simulate_matches_fringe_point(tmp_path):
    master = 41
    scenario = preset("ideal", master_seed=master)
    acq = scenario.plan.acquisition_s_per_point
    point = run_scenario(scenario).points[0]
    # point 0 is at the preset's own phase: simulate at the point's
    # seed and acquisition time runs the very same config
    assert point.setting == scenario.config.analyzer_signal.phase_rad
    assert run_cli("simulate", "--preset", "ideal",
                   "--seed", str(derive_seed(master, 0)),
                   "--acquisition-s", str(acq),
                   "--out-dir", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "ideal_report.json").read_text())
    (measured,) = doc["points"]
    assert measured["counts_central"] == point.counts_central > 0
    assert measured["counts_side_early"] == point.counts_side_early
    assert measured["counts_side_late"] == point.counts_side_late
    assert measured["singles_signal"] == point.singles_signal
    assert measured["singles_idler"] == point.singles_idler
    assert measured["pairs_generated"] == point.pairs_generated
    assert measured["setting"] == point.setting
    assert doc["acquisition_s_per_point"] == acq


@pytest.mark.parametrize("per_kelvin", [0.5, 0.0])
def test_simulate_runs_a_temperature_driven_analyzer(tmp_path, per_kelvin):
    # no Scenario is built for the one point: a temperature ScanPlan
    # would refuse the zero coefficient
    cfg = replace(preset("ideal").config, acquisition_time_s=0.05)
    analyzer = replace(cfg.analyzer_signal, phase_rad=None,
                       temperature_c=21.0, phase_per_kelvin_rad=per_kelvin)
    path = tmp_path / "warm.json"
    save_config(replace(cfg, analyzer_signal=analyzer), path)
    assert run_cli("simulate", str(path), "--out-dir", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "warm_report.json").read_text())
    assert doc["points"][0]["setting"] == analyzer.effective_phase_rad()


# ---------------------------------------------------------------------------
# fringe
# ---------------------------------------------------------------------------

def test_fringe_scenario_file(quick_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("fringe", quick_scenario, "--out-dir", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "VIOLATES" in stdout
    doc = json.loads((out / "quick_report.json").read_text())
    assert doc["fit"]["visibility"] == pytest.approx(1.0, abs=0.01)
    assert (out / "quick_scan.csv").exists()


def test_fringe_overrides(quick_scenario, tmp_path):
    out = tmp_path / "out"
    assert run_cli("fringe", quick_scenario, "--out-dir", str(out),
                   "--points", "5", "--acquisition-s", "0.01",
                   "--seed", "11") == 0
    doc = json.loads((out / "quick_report.json").read_text())
    assert len(doc["points"]) == 5
    assert doc["acquisition_s_per_point"] == 0.01
    assert doc["master_seed"] == 11


def test_fringe_bare_config_gets_default_plan(small_config, tmp_path):
    out = tmp_path / "out"
    assert run_cli("fringe", small_config, "--out-dir", str(out)) == 0
    doc = json.loads((out / "small_report.json").read_text())
    assert len(doc["points"]) == 16
    assert doc["acquisition_s_per_point"] == 0.05   # the config's own
    assert run_cli("fringe", small_config, "--out-dir", str(out),
                   "--points", "5", "--acquisition-s", "0.01") == 0
    doc = json.loads((out / "small_report.json").read_text())
    assert len(doc["points"]) == 5
    assert doc["acquisition_s_per_point"] == 0.01


@pytest.mark.parametrize("stem, name", [("_cfg", "_cfg"),
                                        ("my cfg", "my-cfg"), ("-x", "x")])
def test_fringe_and_simulate_name_a_config_file_alike(small_config, tmp_path,
                                                      stem, name):
    # one name rule: a bare config runs under the name its file stem
    # gives, whatever the command
    path = tmp_path / f"{stem}.json"
    path.write_bytes(Path(small_config).read_bytes())
    for command, flags in (("simulate", ()), ("fringe", ("--points", "5"))):
        out = tmp_path / command
        assert run_cli(command, str(path), "--out-dir", str(out),
                       *flags) == 0
        assert (out / f"{name}_report.json").is_file()
        assert all(p.name.startswith(f"{name}_") for p in out.iterdir())


def test_fringe_refuses_two_phases_before_any_point(tmp_path, capsys,
                                                    monkeypatch):
    # temperatures 20..25 C at pi rad per kelvin: fringe phases 0 and pi
    s = preset("ideal")
    an = replace(s.config.analyzer_signal, phase_rad=None,
                 temperature_c=20.0, phase_per_kelvin_rad=math.pi)
    s = replace(s, config=replace(s.config, analyzer_signal=an),
                plan=ScanPlan(settings=(20.0, 20.5, 21.0, 21.5, 22.0, 22.5),
                              acquisition_s_per_point=0.05,
                              abscissa="temperature"))
    path = tmp_path / "two-phase.json"
    save_config(s, path)
    # Scenario refuses the two-phase plan, so it goes into the file itself
    doc = json.loads(path.read_text())
    doc["plan"]["settings"] = [20.0 + k for k in range(6)]
    path.write_text(json.dumps(doc))
    ran = []
    monkeypatch.setattr(scenarios, "_run_fringe_point",
                        lambda *args: ran.append(args))
    assert run_cli("fringe", str(path), "--out-dir", str(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert ran == []
    assert "point " not in err and "V =" not in out and "VIOLAT" not in out
    assert "three distinct fringe phases" in err
    assert "0.0000, 3.1416 rad" in err


def test_fringe_degenerate_fit_exits_3(tmp_path, capsys):
    s = preset("ideal")
    s = replace(s, name="starved",
                plan=ScanPlan(settings=phase_grid(5),
                              acquisition_s_per_point=2e-7))
    path = tmp_path / "starved.json"
    save_config(s, path)
    assert run_cli("fringe", str(path), "--out-dir", str(tmp_path)) == 3
    assert "DEGENERATE" in capsys.readouterr().out
    # outputs still written so the run can be inspected
    assert (tmp_path / "starved_report.json").exists()


def test_fringe_runs_sweep_scenarios(tmp_path, capsys):
    assert run_cli("fringe", "--preset", "window-sweep",
                   "--out-dir", str(tmp_path)) == 0
    assert "best window by s_value: 100 ps" in capsys.readouterr().out
    assert (tmp_path / "window-sweep_windows.csv").exists()


@pytest.mark.parametrize("name", ["mu-sweep", "window-sweep"])
@pytest.mark.parametrize("flags", [("--points", "4"),
                                   ("--acquisition-s", "3"),
                                   ("--histograms",)])
def test_fringe_refuses_plan_flags_on_closed_form_scenarios(
        tmp_path, capsys, name, flags):
    # a sweep has no plan for them to change: refuse, write nothing
    out = tmp_path / "out"
    assert run_cli("fringe", "--preset", name, *flags,
                   "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert flags[0] in err and name in err
    assert not out.exists()


def test_closed_form_scenario_refuses_emit_histograms(tmp_path, capsys):
    # a sweep has no histograms: the field is refused like the flag,
    # not accepted and then ignored
    with pytest.raises(ValidationError, match="emit_histograms"):
        replace(preset("window-sweep"), emit_histograms=True)
    path = tmp_path / "sweep.json"
    save_config(preset("window-sweep"), path)
    body = json.loads(path.read_text())
    body["emit_histograms"] = True
    path.write_text(json.dumps(body))
    out = tmp_path / "out"
    assert run_cli("fringe", str(path), "--out-dir", str(out)) == 2
    assert "emit_histograms" in capsys.readouterr().err
    assert not out.exists()


def test_fringe_refuses_a_planless_scenario(tmp_path, capsys):
    # no plan and no grid is no Scenario: fringe refuses the file before
    # it writes anything, and budget reads the file's config
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"name": "ideal",
                                "config": asdict(preset("ideal").config)}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("fringe", str(path), "--out-dir", str(a)) == 2
    assert "exactly one" in capsys.readouterr().err
    assert not a.exists()
    assert run_cli("budget", str(path), "--out-dir", str(a)) == 0
    assert run_cli("budget", "--preset", "ideal", "--out-dir", str(b)) == 0
    assert sorted(p.name for p in a.iterdir()) == ["ideal_report.json"]
    assert (a / "ideal_report.json").read_bytes() == \
        (b / "ideal_report.json").read_bytes()


# ---------------------------------------------------------------------------
# optimize-window
# ---------------------------------------------------------------------------

def test_optimize_window_table(capsys):
    assert run_cli("optimize-window", "--preset", "window-sweep",
                   "--grid", "60:10:140") == 0
    out = capsys.readouterr().out
    assert "best window by s_value: 100 ps" in out


def test_fringe_prints_the_optimize_window_table(tmp_path, capsys):
    # a window-sweep report prints one way: fringe adds its two header
    # lines to the table optimize-window prints
    assert run_cli("fringe", "--preset", "window-sweep",
                   "--out-dir", str(tmp_path)) == 0
    lines = [line for line in capsys.readouterr().out.splitlines(True)
             if not line.startswith("wrote ")]
    assert run_cli("optimize-window", "--preset", "window-sweep") == 0
    table = capsys.readouterr().out
    assert lines[0].startswith("scenario window-sweep  config ")
    assert lines[1].startswith("wall clock ")
    assert "".join(lines[2:]) == table
    assert table.count("\n") == 2 + len(scenarios.DEFAULT_WINDOW_GRID_PS)


def test_optimize_window_comma_grid(capsys):
    assert run_cli("optimize-window", "--preset", "window-sweep",
                   "--grid", "60,100", "--objective", "s_value") == 0
    assert "100" in capsys.readouterr().out


def test_optimize_window_csv_matches_scenario_output(tmp_path):
    cli_dir, scenario_dir = tmp_path / "cli", tmp_path / "scenario"
    assert run_cli("optimize-window", "--preset", "window-sweep",
                   "--out-dir", str(cli_dir)) == 0
    emit_outputs(run_scenario(preset("window-sweep")), scenario_dir)
    for name in ("window-sweep_report.json", "window-sweep_windows.csv"):
        assert (cli_dir / name).read_bytes() == \
            (scenario_dir / name).read_bytes()


def test_optimize_window_follows_the_scenario_objective(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    save_config(replace(preset("window-sweep"),
                        window_objective="rate_weighted"), path)
    best = re.compile(r"best window by (\S+): (\S+) ps")
    assert run_cli("fringe", str(path), "--out-dir", str(tmp_path)) == 0
    by_fringe = best.search(capsys.readouterr().out).groups()
    assert run_cli("optimize-window", str(path)) == 0
    by_command = best.search(capsys.readouterr().out).groups()
    assert by_command == by_fringe == ("rate_weighted", "140")
    assert run_cli("optimize-window", str(path),
                   "--objective", "s_value") == 0
    assert "best window by s_value: 100 ps" in capsys.readouterr().out


@pytest.mark.parametrize("grid", [
    "", " , ", "banana", "100:10:60", "a:10:140", "60:x:140", "60,abc",
    "60:1e-7:140", "0:1e-300:1e300", "60:10:inf", "60:nan:140",
    "nan,100", "60:10", "60:0:140", "60:-10:140"])
def test_optimize_window_bad_grid(grid, capsys):
    t0 = time.perf_counter()
    assert run_cli("optimize-window", "--preset", "window-sweep",
                   "--grid", grid) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "grid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# newlines
# ---------------------------------------------------------------------------

def test_every_written_file_ends_lines_in_newline_only(
        quick_scenario, small_config, tmp_path, capsys):
    # each command writes exactly these files into its own directory
    sim = tmp_path / "run4"     # the simulate --dump-clicks directory
    runs = [
        (("fringe", quick_scenario, "--histograms"),
         {"quick_report.json", "quick_scan.csv", "quick_hist.csv"}),
        (("fringe", "--preset", "window-sweep"),
         {"window-sweep_report.json", "window-sweep_windows.csv"}),
        (("fringe", "--preset", "mu-sweep"),
         {"mu-sweep_report.json", "mu-sweep_mu.csv"}),
        (("simulate", small_config),
         {"small_report.json", "small_scan.csv", "small_hist.csv"}),
        (("simulate", small_config, "--dump-clicks"),
         {"small_report.json", "small_scan.csv", "small_hist.csv",
          "small_signal_clicks.bin", "small_idler_clicks.bin"}),
        (("histogram", str(sim / "small_signal_clicks.bin"),
          str(sim / "small_idler_clicks.bin")), {"histogram_hist.csv"}),
        (("optimize-window", "--preset", "window-sweep"),
         {"window-sweep_report.json", "window-sweep_windows.csv"}),
        (("budget", "--preset", "ideal"), {"ideal_report.json"}),
    ]
    for k, (argv, names) in enumerate(runs):
        out = tmp_path / f"run{k}"
        assert run_cli(*argv, "--out-dir", str(out)) == 0
        assert {p.name for p in out.iterdir()} == names, argv
    for path in tmp_path.rglob("*"):
        if path.is_file():
            data = path.read_bytes()
            # a click file's body is binary int64s: only its text
            # header, 256 bytes, has lines
            if path.name.endswith("_clicks.bin"):
                data = data[:256]
            assert b"\r" not in data and data.endswith(b"\n"), path.name


def test_only_scenarios_calls_the_file_writers():
    # one report path: write_json and write_csv are called by
    # emit_outputs, save_config and write_histograms alone
    package = Path(fransonsim.__file__).parent
    callers = set()
    for module in sorted(package.glob("*.py")):
        for top in ast.parse(module.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name in ("write_json", "write_csv"):
                        callers.add((module.stem,
                                     getattr(top, "name", "<module>")))
    assert callers == {("scenarios", "emit_outputs"),
                       ("scenarios", "save_config"),
                       ("scenarios", "write_histograms")}
    cli_source = (package / "cli.py").read_text()
    assert "write_json" not in cli_source and "write_csv" not in cli_source


# ---------------------------------------------------------------------------
# exit codes and plumbing
# ---------------------------------------------------------------------------

def test_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{bad json")
    assert run_cli("budget", str(p)) == 2
    err = capsys.readouterr().err
    assert ":1:" in err  # line:column diagnostics


def test_validation_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"analyzer_signal": {"delay_ps": 1.0},
                             "analyzer_idler": {"delay_ps": 1.0}}))
    assert run_cli("budget", str(p)) == 2
    assert "Franson" in capsys.readouterr().err


def test_non_finite_number_exits_2(tmp_path, capsys):
    p = tmp_path / "inf.json"
    p.write_text('{"acquisition_time_s": Infinity}')
    assert run_cli("simulate", str(p), "--out-dir", str(tmp_path)) == 2
    assert "config.acquisition_time_s: expected a finite number" in \
        capsys.readouterr().err


def test_simulate_oversized_histogram_exits_2(tmp_path, capsys):
    p = tmp_path / "wide.json"
    p.write_text('{"tia": {"window_ps": 1e30}}')
    assert run_cli("simulate", str(p), "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "bins, more than the 1048576 allowed" in err
    assert "Traceback" not in err


def test_simulate_window_off_the_bin_grid_exits_2(tmp_path, capsys):
    p = tmp_path / "narrow.json"
    p.write_text('{"tia": {"window_ps": 50.0, "histogram_bin_ps": 10.0}}')
    assert run_cli("simulate", str(p), "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "10 ps histogram bin grid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fwhm_ps, fiber_km, walk_step_ps", [
    (1e-200, 0.0, 0.0), (1e-150, 1.0, 0.0), (4.0, 0.0, 1e200),
], ids=["1e-200-0.0", "1e-150-1.0", "walk-1e200"])
def test_unresolvable_timing_spread_exits_2(tmp_path, capsys, fwhm_ps,
                                            fiber_km, walk_step_ps):
    # a zero pair spread at 1e-200 ps, an infinite one after dispersion
    # at 1e-150 ps, a walk whose squared step overflows: all must be
    # refused before any click is drawn
    cfg = preset("ideal").config
    channels = {arm: replace(getattr(cfg, arm), fiber_length_km=fiber_km)
                for arm in ("channel_signal", "channel_idler")}
    path = tmp_path / "sharp.json"
    save_config(replace(cfg, source=replace(cfg.source,
                                            photon_fwhm_ps=fwhm_ps),
                        drift=TimingDriftSpec(enabled=walk_step_ps > 0.0,
                                              walk_step_ps=walk_step_ps),
                        **channels), path)
    for command in (("budget", str(path)),
                    ("simulate", str(path), "--out-dir", str(tmp_path))):
        assert run_cli(*command) == 2
        err = capsys.readouterr().err
        assert "timing spreads must be finite and > 0" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--bin-ps", "inf"),
                                        ("--range-ps", "nan"),
                                        ("--window-ps", "nan")])
def test_histogram_non_finite_flag_exits_2(small_config, tmp_path, capsys,
                                           flag, value):
    out = tmp_path / "out"
    assert run_cli("simulate", small_config, "--out-dir", str(out),
                   "--dump-clicks") == 0
    capsys.readouterr()
    assert run_cli("histogram", str(out / "small_signal_clicks.bin"),
                   str(out / "small_idler_clicks.bin"), flag, value) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (("--bin-ps", "inf"), "bin_ps and range_ps must be finite"),
    (("--bin-ps", "2.5"), "bin_ps must be a positive integer"),
    (("--range-ps", "0"), "range_ps must be at least one bin"),
    (("--window-ps", "nan"), "window_ps must be finite"),
    (("--bin-ps", "20", "--window-ps", "10"), "narrower than one 20 ps bin"),
    (("--range-ps", "1e30"), "bins, more than the 1048576 allowed"),
    (("--window-ps", "50"), "10 ps histogram bin grid"),
    (("--range-ps", "300", "--window-ps", "1000"), "within +-300 ps"),
])
def test_histogram_checks_flags_before_reading_clicks(tmp_path, capsys,
                                                      flags, message):
    # the click files do not exist: a read would exit 1, not 2
    assert run_cli("histogram", str(tmp_path / "a.bin"),
                   str(tmp_path / "b.bin"), *flags) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("data,message", REFUSALS)
def test_histogram_malformed_click_file_exits_2(tmp_path, capsys, data,
                                                message):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    good.write_bytes(GOOD)
    bad.write_bytes(data)
    assert run_cli("histogram", str(good), str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
    assert re.search(message, err), err


def test_histogram_of_a_pipe_exits_2_and_names_it(tmp_path, capsys):
    # as `fransonsim histogram good.bin <(cat b.bin)` passes it
    good = tmp_path / "good.bin"
    good.write_bytes(GOOD)
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, GOOD)
        pipe = f"/dev/fd/{read_fd}"
        assert run_cli("histogram", str(good), pipe) == 2
    finally:
        os.close(read_fd)
        os.close(write_fd)
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pipe}: not a regular file"), err


def test_missing_file_exits_2(capsys):
    assert run_cli("budget", "no_such_file.json") == 2
    assert "no_such_file.json" in capsys.readouterr().err


def test_unknown_preset_is_usage_error(capsys):
    assert run_cli("budget", "--preset", "bogus") == 2


def test_unknown_subcommand_is_usage_error():
    assert run_cli("transmogrify") == 2


def test_format_flag_is_usage_error(tmp_path):
    # every run writes its JSON report and CSV companions: no --format
    for command in ("fringe", "simulate"):
        assert run_cli(command, "--preset", "ideal", "--format", "json",
                       "--out-dir", str(tmp_path)) == 2
    assert not any(tmp_path.iterdir())


def _readme_cli_commands():
    """Each ``fransonsim ...`` command of README's CLI quick start, its
    backslash continuations joined, split into argv."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start \(CLI\)\s+```sh\n(.*?)```", readme,
                      re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("fransonsim ")]


def test_readme_cli_examples_parse():
    # parsing reads no file: a documented flag that was removed or
    # renamed fails here
    commands = _readme_cli_commands()
    assert len(commands) >= 6
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_unwritable_out_dir_names_path(small_config, tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("in the way")
    target = blocker / "sub"  # a path under a regular file
    code = run_cli("simulate", small_config, "--out-dir", str(target))
    assert code == 1
    assert "file.txt" in capsys.readouterr().err


def test_package_exports_resolve_once():
    # the package namespace is the documented API: every export
    # resolves and README.md names it in backticks
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    names = fransonsim.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(fransonsim, name) is not None, name
        assert f"`{name}`" in readme, name


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fransonsim", "budget", "--preset",
         "ideal"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "predicted V" in proc.stdout
