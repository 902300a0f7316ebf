"""The benchmark tracer (perfbench/tracing.py) patches fransonsim names
by hand.  This guard keeps a rename or deletion in the package from
breaking its per-layer split: every name it patches must exist, the
closed-form and accumulator patch points must sit on the live path,
and uninstall must put every original back."""

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

from fransonsim import budget, montecarlo, scenarios, tia

PERFBENCH = Path(__file__).parents[1] / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("tracing"),
            importlib.import_module("workloads"))


def test_tracer_patches_and_restores_every_name(perfbench):
    tracing, workloads = perfbench
    modules = (budget, montecarlo, scenarios, tia, workloads)
    before = [dict(vars(m)) for m in modules]

    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        patched = {f"{m.__name__}.{name}"
                   for m, saved in zip(modules, before)
                   for name, value in vars(m).items()
                   if saved.get(name) is not value}
        for name in ("fransonsim.budget.dispersion_broaden",
                     "fransonsim.budget.sigma_from_fwhm",
                     "fransonsim.budget.predict_rates",
                     "fransonsim.tia.build_histogram",
                     "fransonsim.tia.HistogramAccumulator",
                     "fransonsim.montecarlo.iter_click_buckets",
                     "fransonsim.montecarlo.write_click_stream",
                     "fransonsim.montecarlo.read_click_stream"):
            assert name in patched, name
        config = scenarios.preset("paper-100km").config
        tracer.take()
        budget.predict_rates(config)
        _, counts = tracer.take()
        # four accidental-rate terms plus, per arm, the broadening
        # that LinkModel derives through the patched names
        assert counts["budget.calls"] == 1
        assert counts["physics.calls"] > 4 + 2
    finally:
        tracer.uninstall()

    for m, saved in zip(modules, before):
        now = vars(m)
        assert now.keys() == saved.keys(), m.__name__
        for name, value in saved.items():
            assert now[name] is value, f"{m.__name__}.{name}"


def test_tracer_times_the_accumulator_of_a_fringe_point(perfbench):
    # a fringe point must feed its buckets through the public
    # add_bucket, the one accumulator entry the tracer times
    tracing, workloads = perfbench
    config = replace(scenarios.preset("back-to-back").config,
                     acquisition_time_s=0.5, master_seed=3)
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        tracer.take()
        point = scenarios.measure_point(config, 0.0)
        seconds, counts = tracer.take()
    finally:
        tracer.uninstall()
    assert seconds.get("tia.add_bucket_s", 0.0) > 0.0
    assert counts.get("tia.starts") == point.singles_signal > 0
