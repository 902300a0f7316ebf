"""Frozen bytes of engine-only outputs.

Each case runs the CLI on a small seeded config and compares the
sha256 of files that the engine and the click writer alone decide:

* both click files of ``simulate --dump-clicks`` on a 0.2 s
  back-to-back link with 2e4 Hz darks and a 50 ns dead time on each
  detector;
* both click files of ``simulate --dump-clicks`` on a 12 s 100 km
  link (two generation slices, one bucket edge) whose idler arrivals
  drift by a 40 ps offset and a 5 ps-per-ms random walk;
* the ``_scan.csv`` of a 6-point back-to-back ``fringe`` at 0.5 s a
  point (counts and singles per point).

The report JSON is left out on purpose: the fringe fit's floats go
through LAPACK, whose last bits may differ between CPUs.

The digests were frozen with numpy 2.4.6.  A change that only
refactors the engine must leave them as they are.  A change that
deliberately changes the drawn numbers (a new sampling law, a new RNG
stream layout) re-freezes them and says so in its change log, as the
frozen values of ``tests/test_acceptance.py`` are.
"""

import hashlib
from dataclasses import replace

import pytest

from fransonsim.cli import main
from fransonsim.montecarlo import TimingDriftSpec
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
        "signal": "33032ac442b70a38a030583e5eb20553"
                  "bee8de1b12702c595f416640a9a0059b",
        "idler": "320182e8b1059ea60b85e5eedde5516f"
                 "f794af3159e1ba42b74ed9629445110f",
    }),
    ("km100", _km100_idler_walk, {
        "signal": "a7a1b3962ecc440761560e100df3a121"
                  "311baa36d4c5ad6ad262172418acbe3b",
        "idler": "73d9fe899288eb34c28f9c08ba1210d4"
                 "dbb7e7be4d6c9328ba0b244da7cf5792",
    }),
], ids=["b2b-dead-darks", "km100-idler-walk"])
def test_dumped_click_files_are_frozen(name, make, digests, tmp_path):
    config = tmp_path / f"{name}.json"
    save_config(make(), config)
    assert main(["simulate", str(config), "--out-dir", str(tmp_path),
                 "--dump-clicks"]) == 0
    for channel, digest in digests.items():
        assert _sha256(tmp_path / f"{name}_{channel}_clicks.txt") == digest


def test_fringe_scan_table_is_frozen(tmp_path):
    assert main(["fringe", "--preset", "back-to-back", "--points", "6",
                 "--acquisition-s", "0.5", "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "back-to-back_scan.csv") == (
        "d143d578caf38a2538393af81cef92b1"
        "b678740bcffb978a3a89145972737c5f")
