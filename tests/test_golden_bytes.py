"""Frozen bytes of engine-only and closed-form outputs.

Each engine case runs the CLI on a small seeded config and compares
the sha256 of files that the engine and the click writer alone decide:

* both click files of ``simulate --dump-clicks`` on a 0.2 s
  back-to-back link with 2e4 Hz darks and a 50 ns dead time on each
  detector;
* both click files of ``simulate --dump-clicks`` on a 12 s 100 km
  link (two generation slices, one bucket edge) whose idler arrivals
  drift by a 40 ps offset and a 5 ps-per-ms random walk;
* the ``_scan.csv`` of a 6-point back-to-back ``fringe`` at 0.5 s a
  point (counts and singles per point).

On the first link, the click files' ``true_count`` and ``dark_count``
headers must also equal what the engine's buckets hold: their sizes
less their dark counts, and their dark counts.

The report JSON is left out on purpose: the fringe fit's floats go
through LAPACK, whose last bits may differ between CPUs.

The digests were frozen with numpy 2.4.6.  A change that only
refactors the engine must leave them as they are.  A change that
deliberately changes the drawn numbers (a new sampling law, a new RNG
stream layout) re-freezes them and says so in its change log, as the
frozen values of ``tests/test_acceptance.py`` are.

The four click-file digests were re-pinned when click files became
v2, a 256-byte text header over little-endian int64 timestamps, in
place of one decimal line per click.  No drawn number moved: each
v2 file reads back to the same timestamps and counts as the v1 file
did, and the scan-table digest did not move.

Each closed-form case runs a command that draws no clicks and compares
the sha256 of every file it writes (and, for ``budget``, of its
stdout):

* ``budget --preset paper-100km --out-dir``;
* ``budget`` on that preset with 5.005 km of signal fiber, where an
  exact (``fsum``) and a plain sum of the arm's dB terms differ in the
  last bit;
* ``fringe --preset window-sweep`` and ``fringe --preset mu-sweep``:
  the report JSON and the table CSV of each;
* ``optimize-window --preset window-sweep --grid 40:20:160 --objective
  rate_weighted --out-dir``: the report JSON and the window table.

The ``budget`` JSON digests and the ``optimize-window`` report were
re-pinned when both commands came to run a closed-form ``Scenario``
through ``run_scenario`` and ``emit_outputs``: ``budget`` now writes
``{name}_report.json`` (the common report header and predicted block,
plus the ledger, the terms of the side-corrected visibility prediction
that the predicted block does not already hold, and the Bell verdict)
where it wrote ``{name}_budget.json``, and ``optimize-window`` writes
the window-sweep report beside its table, which was new.  The
``budget`` stdout digests and the ``optimize-window`` table digest
did not move.

None of these goes through LAPACK; their floats come from
``math.erf``, ``math.cos`` and plain arithmetic.  They were frozen on
CPython 3.11.7, x86-64 Linux (glibc 2.36).  A change that only
refactors the closed form must leave them as they are.
"""

import hashlib
from dataclasses import replace

import pytest

from fransonsim.cli import main
from fransonsim.montecarlo import (TimingDriftSpec, iter_click_buckets,
                                   read_click_stream)
from fransonsim.scenarios import preset, save_config


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _b2b_dead_darks():
    cfg = preset("back-to-back", master_seed=3).config

    def detector(d):
        return replace(d, dark_rate_hz=2.0e4, dead_time_ps=5.0e4)

    return replace(cfg, acquisition_time_s=0.2,
                   detector_signal=detector(cfg.detector_signal),
                   detector_idler=detector(cfg.detector_idler))


def _km100_idler_walk():
    cfg = preset("paper-100km", master_seed=4).config
    return replace(cfg, acquisition_time_s=12.0,
                   drift=TimingDriftSpec(enabled=True, channel="idler",
                                         offset_ps=40.0, walk_step_ps=5.0,
                                         walk_interval_ps=1.0e9))


@pytest.mark.parametrize("name, make, digests", [
    ("b2b", _b2b_dead_darks, {
        "signal": "46ab0b6788ce602cd6f81e1f08f26b40"
                  "67f6e79be0a537690f60683bfb26c48a",
        "idler": "d4751ac2f72552752a8273c2314baac4"
                 "77e2762f887548bff5092f1534f33fbe",
    }),
    ("km100", _km100_idler_walk, {
        "signal": "658729af50fb180a957c40dfcce30f56"
                  "b2b41037b901e2a4321046c53708eb51",
        "idler": "f56758006fc3b01ffc8e97ff5ff2d3b4"
                 "81cdae71bcc4206633465e1c77f75f0a",
    }),
], ids=["b2b-dead-darks", "km100-idler-walk"])
def test_dumped_click_files_are_frozen(name, make, digests, tmp_path):
    config = tmp_path / f"{name}.json"
    save_config(make(), config)
    assert main(["simulate", str(config), "--out-dir", str(tmp_path),
                 "--dump-clicks"]) == 0
    for channel, digest in digests.items():
        assert _sha256(tmp_path / f"{name}_{channel}_clicks.bin") == digest


def test_dumped_click_counts_match_the_buckets(tmp_path):
    # the buckets' sizes and dark counts and the click files' true_count
    # and dark_count headers count the same clicks
    cfg = _b2b_dead_darks()
    buckets = list(iter_click_buckets(cfg))
    save_config(cfg, tmp_path / "b2b.json")
    assert main(["simulate", str(tmp_path / "b2b.json"), "--out-dir",
                 str(tmp_path), "--dump-clicks"]) == 0
    for col, channel in ((1, "signal"), (3, "idler")):
        darks = sum(b[col + 1] for b in buckets)
        photons = sum(b[col].size for b in buckets) - darks
        assert photons > 0 and darks > 0
        stream, meta = read_click_stream(
            tmp_path / f"b2b_{channel}_clicks.bin")
        assert (stream.true_count, stream.dark_count) == (photons, darks)
        assert (meta["true_count"], meta["dark_count"]) == (str(photons),
                                                            str(darks))


def test_fringe_scan_table_is_frozen(tmp_path):
    assert main(["fringe", "--preset", "back-to-back", "--points", "6",
                 "--acquisition-s", "0.5", "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "back-to-back_scan.csv") == (
        "d143d578caf38a2538393af81cef92b1"
        "b678740bcffb978a3a89145972737c5f")


def _stdout_sha256(out):
    # the "wrote <path>" lines name the temporary directory
    return hashlib.sha256("".join(
        line for line in out.splitlines(keepends=True)
        if not line.startswith("wrote ")).encode()).hexdigest()


def _km100_short_signal_fiber():
    cfg = preset("paper-100km").config
    return replace(cfg, channel_signal=replace(cfg.channel_signal,
                                               fiber_length_km=5.005))


@pytest.mark.parametrize("make, json_digest, stdout_digest", [
    (None, "2e9c4f2d476a3a8eb0c4c72ea9870a08"
     "2f94a9e342afcf7609856b68afcf1655",
     "f63d448451bae66ce373c5e3e8020557"
     "42428e5e834c0a588be3be5e39def2a9"),
    (_km100_short_signal_fiber,
     "3b000ad894c1f6ec7ab6d5ff5ae36661"
     "4ed92bc1b1f12ab712382b5bf4919e2a",
     "d8aadd32e5e3bd49bceffbafd33c09cc"
     "014a7420b0c7979d1dec9a370c1205e7"),
], ids=["paper-100km", "signal-fiber-5.005km"])
def test_budget_outputs_are_frozen(make, json_digest, stdout_digest,
                                   tmp_path, capsys):
    if make is None:
        name, source = "paper-100km", ["--preset", "paper-100km"]
    else:
        name = "short"
        save_config(make(), tmp_path / f"{name}.json")
        source = [str(tmp_path / f"{name}.json")]
    assert main(["budget", *source, "--out-dir", str(tmp_path)]) == 0
    assert _stdout_sha256(capsys.readouterr().out) == stdout_digest
    assert _sha256(tmp_path / f"{name}_report.json") == json_digest


@pytest.mark.parametrize("args, digests", [
    (["fringe", "--preset", "window-sweep"], {
        "window-sweep_report.json": "75b19e506356f3600d644323f2355f2e"
                                    "3d6adab7d409611e1287adb7f8038b76",
        "window-sweep_windows.csv": "1939ab80236d51f59d75d1667bf35a28"
                                    "927bfcc22511dfceac1c4b6b48607d58",
    }),
    (["fringe", "--preset", "mu-sweep"], {
        "mu-sweep_report.json": "adb2b0aaaaf656b7e6c51f486aaefc6e"
                                "ffefefe5d6f197bf979dbe0873216d48",
        "mu-sweep_mu.csv": "33f8676b53460aaa810adea600a80655"
                           "2d70b1f24e34b5ec10dc9d22e14e89b0",
    }),
    (["optimize-window", "--preset", "window-sweep", "--grid", "40:20:160",
      "--objective", "rate_weighted"], {
        "window-sweep_report.json": "4e8e41b9b24c0a5cdb57fa22d51a336b"
                                    "be1a11dba4c00bffa7a7b2bab9d94817",
        "window-sweep_windows.csv": "2a6cb566278ec1cf9a2988f56c782127"
                                    "49c638afa6fa3b77c21cc50492ae9fb3",
    }),
], ids=["window-sweep", "mu-sweep", "optimize-window"])
def test_closed_form_tables_are_frozen(args, digests, tmp_path):
    assert main([*args, "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests)
    for file, digest in digests.items():
        assert _sha256(tmp_path / file) == digest
