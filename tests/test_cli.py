"""Command-line interface: subcommands, flags, exit codes, outputs."""

import json
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import fransonsim
from fransonsim.errors import ValidationError
from fransonsim.montecarlo import TimingDriftSpec, derive_seed
from fransonsim.scenarios import (ScanPlan, emit_outputs, phase_grid, preset,
                                  run_scenario, save_config)
from fransonsim.cli import main


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
    doc = json.loads((tmp_path / "ideal_budget.json").read_text())
    assert doc["bell"]["violates"] is True
    assert len(doc["config_hash"]) == 12


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
    doc = json.loads((out / "small_sim_report.json").read_text())
    assert doc["measured"]["central_window_counts"] > 0
    assert doc["master_seed"] == 7
    hist_lines = (out / "small_hist.csv").read_text().splitlines()
    assert hist_lines[0].startswith("# config_hash=")
    assert hist_lines[1] == "center_ps,counts"
    # measured central rate should sit near the closed-form prediction
    measured = doc["measured"]["central_window_hz"]
    predicted = doc["predicted"]["central_at_config_phase_hz"]
    assert measured == pytest.approx(predicted, rel=0.1)


def test_simulate_is_deterministic(small_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", small_config, "--out-dir", str(a)) == 0
    assert run_cli("simulate", small_config, "--out-dir", str(b)) == 0
    assert (a / "small_sim_report.json").read_bytes() == \
        (b / "small_sim_report.json").read_bytes()
    assert (a / "small_hist.csv").read_bytes() == \
        (b / "small_hist.csv").read_bytes()


def test_simulate_seed_changes_counts(small_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("simulate", small_config, "--out-dir", str(a))
    run_cli("simulate", small_config, "--seed", "8", "--out-dir", str(b))
    da = json.loads((a / "small_sim_report.json").read_text())
    db = json.loads((b / "small_sim_report.json").read_text())
    assert da["measured"]["central_window_counts"] != \
        db["measured"]["central_window_counts"]
    assert db["master_seed"] == 8


def test_dump_clicks_round_trip_through_histogram(small_config, tmp_path,
                                                  capsys):
    out = tmp_path / "out"
    assert run_cli("simulate", small_config, "--out-dir", str(out),
                   "--dump-clicks") == 0
    report = json.loads((out / "small_sim_report.json").read_text())
    capsys.readouterr()
    assert run_cli("histogram", str(out / "small_signal_clicks.txt"),
                   str(out / "small_idler_clicks.txt"),
                   "--window-ps", "60", "--out-dir", str(out)) == 0
    text = capsys.readouterr().out
    central = report["measured"]["central_window_counts"]
    assert f"window 60 ps at 0: {central} counts" in text
    assert (out / "histogram_hist.csv").exists()


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
    measured = json.loads(
        (tmp_path / "ideal_sim_report.json").read_text())["measured"]
    assert measured["central_window_counts"] == point.counts_central > 0
    assert measured["side_early_counts"] == point.counts_side_early
    assert measured["side_late_counts"] == point.counts_side_late
    assert measured["singles_signal_hz"] == point.singles_signal / acq
    assert measured["singles_idler_hz"] == point.singles_idler / acq
    assert measured["pairs_generated"] == point.pairs_generated


def test_simulate_json_format_embeds_histogram(small_config, tmp_path):
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    assert run_cli("simulate", small_config, "--out-dir", str(csv_dir)) == 0
    assert run_cli("simulate", small_config, "--out-dir", str(json_dir),
                   "--format", "json") == 0
    assert not (json_dir / "small_hist.csv").exists()
    doc = json.loads((json_dir / "small_sim_report.json").read_text())
    hist = doc.pop("histogram")
    assert len(hist["counts"]) == 2 * hist["range_ps"] // hist["bin_ps"]
    rows = (csv_dir / "small_hist.csv").read_text().splitlines()[2:]
    assert hist["counts"] == [int(r.split(",")[1]) for r in rows]
    assert doc == json.loads(
        (csv_dir / "small_sim_report.json").read_text())


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
    for command, flags, report in (
            ("simulate", (), "_sim_report.json"),
            ("fringe", ("--points", "5"), "_report.json")):
        out = tmp_path / command
        assert run_cli(command, str(path), "--out-dir", str(out),
                       *flags) == 0
        assert (out / f"{name}{report}").is_file()
        assert all(p.name.startswith(f"{name}_") for p in out.iterdir())


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


def test_fringe_histograms_need_csv(quick_scenario, tmp_path, capsys):
    # the JSON report carries no histograms: refuse before any point runs
    out = tmp_path / "out"
    assert run_cli("fringe", quick_scenario, "--out-dir", str(out),
                   "--histograms", "--format", "json") == 2
    err = capsys.readouterr().err
    assert "--histograms" in err and "--format json" in err
    s = replace(preset("ideal"), name="keep", emit_histograms=True)
    path = tmp_path / "keep.json"
    save_config(s, path)
    assert run_cli("fringe", str(path), "--out-dir", str(out),
                   "--format", "json") == 2
    assert "emit_histograms" in capsys.readouterr().err
    assert not out.exists()


def test_fringe_json_format_writes_report_only(quick_scenario, tmp_path):
    out = tmp_path / "out"
    assert run_cli("fringe", quick_scenario, "--out-dir", str(out),
                   "--format", "json") == 0
    assert (out / "quick_report.json").exists()
    assert not (out / "quick_scan.csv").exists()


# ---------------------------------------------------------------------------
# optimize-window
# ---------------------------------------------------------------------------

def test_optimize_window_table(capsys):
    assert run_cli("optimize-window", "--preset", "window-sweep",
                   "--grid", "60:10:140") == 0
    out = capsys.readouterr().out
    assert "best window by s_value: 100 ps" in out


def test_optimize_window_comma_grid(capsys):
    assert run_cli("optimize-window", "--preset", "window-sweep",
                   "--grid", "60,100", "--objective", "s_value") == 0
    assert "100" in capsys.readouterr().out


def test_optimize_window_csv_matches_scenario_output(tmp_path):
    cli_dir, scenario_dir = tmp_path / "cli", tmp_path / "scenario"
    assert run_cli("optimize-window", "--preset", "window-sweep",
                   "--out-dir", str(cli_dir)) == 0
    emit_outputs(run_scenario(preset("window-sweep")), scenario_dir)
    name = "window-sweep_windows.csv"
    assert (cli_dir / name).read_bytes() == (scenario_dir / name).read_bytes()


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
    "banana", "100:10:60", "a:10:140", "60:x:140", "60,abc",
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
    sim = tmp_path / "run3"     # the simulate run's output directory
    runs = [("fringe", quick_scenario, "--histograms"),
            ("fringe", "--preset", "window-sweep"),
            ("fringe", "--preset", "mu-sweep"),
            ("simulate", small_config, "--dump-clicks"),
            ("histogram", str(sim / "small_signal_clicks.txt"),
             str(sim / "small_idler_clicks.txt")),
            ("optimize-window", "--preset", "window-sweep"),
            ("budget", "--preset", "ideal")]
    for k, argv in enumerate(runs):
        assert run_cli(*argv, "--out-dir", str(tmp_path / f"run{k}")) == 0
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    names = {p.name for p in files}
    assert {"quick_scan.csv", "quick_hist.csv", "window-sweep_windows.csv",
            "mu-sweep_mu.csv", "small_hist.csv", "small_idler_clicks.txt",
            "histogram_hist.csv", "ideal_budget.json"} <= names
    for path in files:
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), path.name


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
    assert run_cli("histogram", str(out / "small_signal_clicks.txt"),
                   str(out / "small_idler_clicks.txt"), flag, value) == 2
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
    assert run_cli("histogram", str(tmp_path / "a.txt"),
                   str(tmp_path / "b.txt"), *flags) == 2
    assert message in capsys.readouterr().err


GOOD_CLICKS = (b"# fransonsim clicks v1\n# channel: signal\n# span_ps: 1000\n"
               b"# seed: 1\n# config_hash: \n# true_count: 3\n"
               b"# dark_count: 0\n10\n20\n30\n")


@pytest.mark.parametrize("text,message", [
    (GOOD_CLICKS + b"foo\n", "line 11: 'foo' is not"),
    (GOOD_CLICKS.replace(b"# span_ps: 1000\n", b""), "no '# span_ps:'"),
    (GOOD_CLICKS + b"40 41\n", "line 11: '40 41' is not"),
    (GOOD_CLICKS + b"4\xc2\xb5\n", "line 11: "),
    (GOOD_CLICKS.replace(b"signal", b"sign\xe4l"), "line 2: header is not"),
    (GOOD_CLICKS.replace(b"span_ps: 1000", b"span_ps: 1k"), "span_ps: '1k'"),
    (GOOD_CLICKS.replace(b"true_count: 3", b"true_count: 3.0"),
     "true_count: '3.0'"),
    (GOOD_CLICKS.replace(b"dark_count: 0", b"dark_count: none"),
     "dark_count: 'none'"),
    (GOOD_CLICKS + b"99999999999999999999\n", "line 11: 9999.* beyond int64"),
    (GOOD_CLICKS + b"\n40\n", "line 11: empty line"),
    (GOOD_CLICKS.replace(b"\n30\n", b"\n30\r\n"), "line 10: '30\\\\r' is not"),
])
def test_histogram_malformed_click_file_exits_2(tmp_path, capsys, text,
                                                message):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_bytes(GOOD_CLICKS)
    bad.write_bytes(text)
    assert run_cli("histogram", str(good), str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
    assert re.search(message, err), err


def test_histogram_reads_a_last_line_without_newline(tmp_path, capsys):
    good, cut = tmp_path / "good.txt", tmp_path / "cut.txt"
    good.write_bytes(GOOD_CLICKS)
    cut.write_bytes(GOOD_CLICKS[:-1])
    assert run_cli("histogram", str(good), str(good)) == 0
    want = capsys.readouterr().out
    assert run_cli("histogram", str(good), str(cut)) == 0
    assert capsys.readouterr().out == want


def test_missing_file_exits_2(capsys):
    assert run_cli("budget", "no_such_file.json") == 2
    assert "no_such_file.json" in capsys.readouterr().err


def test_unknown_preset_is_usage_error(capsys):
    assert run_cli("budget", "--preset", "bogus") == 2


def test_unknown_subcommand_is_usage_error():
    assert run_cli("transmogrify") == 2


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
