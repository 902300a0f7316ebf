"""Histogram and fringe-analysis tests.

Histogram arithmetic is checked exactly against brute-force pairing;
fit behavior against analytically constructed scans and a frozen-seed
Poisson coverage study.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fransonsim.errors import FitDegenerate, ValidationError
from fransonsim.physics import ChannelSpec, DetectorSpec, SourceSpec
from fransonsim.montecarlo import (SimulationConfig, iter_click_buckets,
                                   run_simulation)
from fransonsim.tia import (FringeScan, HistogramAccumulator, build_histogram,
                            count_in_window, fit_fringe, write_scan_csv)
from fransonsim.tia import _pair_deltas


def brute_histogram(starts, stops, bin_ps, range_ps):
    nbins = 2 * range_ps // bin_ps
    counts = np.zeros(nbins, dtype=np.int64)
    for s in starts:
        for t in stops:
            d = t - s
            if -range_ps <= d < range_ps:
                counts[(d + range_ps) // bin_ps] += 1
    return counts


# ---------------------------------------------------------------------------
# build_histogram
# ---------------------------------------------------------------------------

def test_histogram_matches_brute_force_exactly():
    rng = np.random.default_rng(5)
    starts = np.sort(rng.integers(0, 5000, 400)).astype(np.int64)
    stops = np.sort(rng.integers(0, 5000, 500)).astype(np.int64)
    hist = build_histogram(starts, stops, 7, 100)
    assert hist.range_ps == 105  # rounded up to the bin grid
    assert np.array_equal(hist.counts,
                          brute_histogram(starts, stops, 7, 105))
    assert hist.n_starts == 400 and hist.n_stops == 500


def _two_search_pair_deltas(starts, stops, range_ps):
    """Reference: both binary searches for every start."""
    lo = np.searchsorted(stops, starts - range_ps, side="left")
    hi = np.searchsorted(stops, starts + range_ps, side="left")
    lengths = hi - lo
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    start_rep = np.repeat(starts, lengths)
    first = np.repeat(lo, lengths)
    offsets = np.arange(total, dtype=np.int64) \
        - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return stops[first + offsets] - start_rep


# gaps of 0 make duplicate times; 0-3 is dense, up to 5000 sparse
_gaps = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 5000)),
                 max_size=80)


@settings(max_examples=300, deadline=None)
@given(start_gaps=_gaps, stop_gaps=_gaps, range_ps=st.integers(1, 300),
       stop_offset=st.integers(-2000, 2000),
       edges=st.lists(st.tuples(st.integers(0, 79), st.sampled_from([-1, 1])),
                      max_size=12),
       base=st.sampled_from([0, 25 * 10**12]))
@example(start_gaps=[], stop_gaps=[1, 2], range_ps=10, stop_offset=0,
         edges=[], base=0)
@example(start_gaps=[1, 2], stop_gaps=[], range_ps=10, stop_offset=0,
         edges=[], base=0)
@example(start_gaps=[5, 0, 0, 3000], stop_gaps=[], range_ps=7,
         stop_offset=0, edges=[(0, -1), (1, 1), (3, 1), (3, -1)], base=0)
def test_pair_deltas_matches_two_search_reference(start_gaps, stop_gaps,
                                                  range_ps, stop_offset,
                                                  edges, base):
    starts = base + np.cumsum(np.asarray(start_gaps, dtype=np.int64))
    stops = base + stop_offset \
        + np.cumsum(np.asarray(stop_gaps, dtype=np.int64))
    # stops exactly at start - range (in) and start + range (out)
    extra = [starts[i] + sign * range_ps for i, sign in edges
             if i < starts.size]
    stops = np.sort(np.concatenate([stops, np.asarray(extra, np.int64)]))
    got = _pair_deltas(starts, stops, range_ps)
    want = _two_search_pair_deltas(starts, stops, range_ps)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def test_histogram_edges_are_exact():
    starts = np.array([1000], dtype=np.int64)
    stops = np.array([899, 900, 1000, 1099, 1100], dtype=np.int64)
    hist = build_histogram(starts, stops, 10, 100)
    assert hist.total_pairs == 3          # -101 and +100 fall outside
    assert hist.counts[0] == 1            # delta = -100 (closed low edge)
    assert hist.counts[10] == 1           # delta = 0
    assert hist.counts[19] == 1           # delta = +99 (open high edge)


def test_histogram_rejects_bad_inputs():
    good = np.array([1, 2, 3], dtype=np.int64)
    with pytest.raises(ValidationError):
        build_histogram(np.array([3, 1], dtype=np.int64), good, 10, 100)
    with pytest.raises(ValidationError):
        build_histogram(np.array([1.5, 2.5]), good, 10, 100)
    with pytest.raises(ValidationError):
        build_histogram(good, good, 0, 100)
    with pytest.raises(ValidationError):
        build_histogram(good, good, 10, 5)
    for bin_ps, range_ps in ((math.inf, 100), (10, math.nan),
                             (math.nan, 100), (10, math.inf)):
        with pytest.raises(ValidationError, match="finite"):
            build_histogram(good, good, bin_ps, range_ps)


# ---------------------------------------------------------------------------
# count_in_window
# ---------------------------------------------------------------------------

def test_window_count_uses_closed_center_interval():
    hist = build_histogram(np.array([0], dtype=np.int64),
                           np.array([-95, -5, 5, 95], dtype=np.int64),
                           10, 100)
    # centers sit at -95 ... +95; counts: bins 0, 9, 10, 19
    assert count_in_window(hist, 0.0, 10.0) == 2   # centers +-5 included
    assert count_in_window(hist, 0.0, 30.0) == 2
    assert count_in_window(hist, 0.0, 200.0) == 4
    assert count_in_window(hist, -95.0, 10.0) == 1
    with pytest.raises(ValidationError):
        count_in_window(hist, 0.0, 5.0)
    # a nan window compares false both ways and would count nothing
    for center, window in ((0.0, math.nan), (math.nan, 10.0),
                           (0.0, math.inf)):
        with pytest.raises(ValidationError, match="finite"):
            count_in_window(hist, center, window)


def test_window_count_is_monotone_in_width():
    rng = np.random.default_rng(17)
    starts = np.sort(rng.integers(0, 100_000, 800)).astype(np.int64)
    stops = np.sort(rng.integers(0, 100_000, 800)).astype(np.int64)
    hist = build_histogram(starts, stops, 10, 500)
    counts = [count_in_window(hist, 0.0, w) for w in range(10, 1001, 10)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == hist.total_pairs


# ---------------------------------------------------------------------------
# streaming accumulator
# ---------------------------------------------------------------------------

def test_accumulator_matches_batch_on_synthetic_buckets():
    # bucket width comparable to the histogram range stresses the
    # pending-start and stop-tail carry logic
    rng = np.random.default_rng(23)
    starts = np.sort(rng.integers(0, 1000, 600)).astype(np.int64)
    stops = np.sort(rng.integers(0, 1000, 600)).astype(np.int64)
    acc = HistogramAccumulator(5, 80)
    for hi in (100, 250, 400, 1001):
        lo = 0 if hi == 100 else {250: 100, 400: 250, 1001: 400}[hi]
        acc.add_bucket(starts[(starts >= lo) & (starts < hi)],
                       stops[(stops >= lo) & (stops < hi)], hi)
    streamed = acc.finalize()
    batch = build_histogram(starts, stops, 5, 80)
    assert np.array_equal(streamed.counts, batch.counts)
    assert streamed.n_starts == batch.n_starts
    assert streamed.n_stops == batch.n_stops


def test_accumulator_matches_batch_on_simulation_buckets():
    cfg = SimulationConfig(
        source=SourceSpec(mean_pairs_per_window=1e-3),
        channel_signal=ChannelSpec(fiber_length_km=0.0,
                                   pre_fiber_loss_db=10.0),
        channel_idler=ChannelSpec(fiber_length_km=0.0,
                                  pre_fiber_loss_db=10.0),
        detector_signal=DetectorSpec(quantum_efficiency=0.02,
                                     dark_rate_hz=200.0,
                                     jitter_fwhm_ps=30.0),
        detector_idler=DetectorSpec(quantum_efficiency=0.05,
                                    dark_rate_hz=200.0,
                                    jitter_fwhm_ps=30.0),
        acquisition_time_s=25.0,
        master_seed=41,
    )
    acc = HistogramAccumulator(10, 300)
    for hi, sig_t, _, idl_t, _ in iter_click_buckets(cfg):
        acc.add_bucket(sig_t, idl_t, hi)
    streamed = acc.finalize()
    sig, idl, _ = run_simulation(cfg)
    batch = build_histogram(sig.times_ps, idl.times_ps, 10, 300)
    assert np.array_equal(streamed.counts, batch.counts)
    assert streamed.n_starts == sig.times_ps.size


def test_accumulator_rejects_out_of_order_buckets():
    acc = HistogramAccumulator(10, 100)
    acc.add_bucket(np.array([5], dtype=np.int64),
                   np.array([7], dtype=np.int64), 1000)
    with pytest.raises(ValidationError):
        acc.add_bucket(np.array([], dtype=np.int64),
                       np.array([], dtype=np.int64), 500)


# ---------------------------------------------------------------------------
# fringe fitting
# ---------------------------------------------------------------------------

def scan_from_law(mean, v, phi0, n=12, acq=2.0, freq=1.0):
    x = np.linspace(0.0, 2.0 * math.pi / freq, n, endpoint=False)
    rate = mean * (1.0 + v * np.cos(freq * x + phi0))
    return FringeScan(settings=x, counts=rate * acq, acquisition_s=acq)


def test_fit_recovers_noiseless_fringe():
    est = fit_fringe(scan_from_law(1000.0, 0.8, 0.7))
    assert abs(est.visibility - 0.8) < 1e-6
    assert abs(est.phase_offset_rad - 0.7) < 1e-6
    assert abs(est.frequency - 1.0) < 1e-6
    assert abs(est.mean_level_hz - 1000.0) < 1e-3
    assert est.chi2 < 1e-10
    assert est.dof == 8


@pytest.mark.parametrize("phi0", [0.5, 2.9, 4.4])
def test_fit_recovers_phase_offset(phi0):
    est = fit_fringe(scan_from_law(500.0, 0.6, phi0, n=16))
    assert abs(est.phase_offset_rad - phi0) < 1e-6


def test_fit_recovers_non_unit_frequency():
    # settings in arbitrary units (e.g. kelvin) at 0.35 rad per unit
    est = fit_fringe(scan_from_law(800.0, 0.7, 1.2, n=20, freq=0.35))
    assert abs(est.frequency - 0.35) < 1e-6
    assert abs(est.visibility - 0.7) < 1e-6


def test_fit_flat_scan_is_degenerate_with_estimate():
    x = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    scan = FringeScan(settings=x, counts=np.full(12, 400.0),
                      acquisition_s=1.0)
    with pytest.raises(FitDegenerate) as err:
        fit_fringe(scan)
    assert err.value.estimate is not None
    assert err.value.estimate.visibility == 0.0
    assert math.isinf(err.value.estimate.sigma_visibility)


def test_fit_is_invariant_under_count_rescaling():
    a = fit_fringe(scan_from_law(300.0, 0.55, 1.9))
    base = scan_from_law(300.0, 0.55, 1.9)
    scaled = FringeScan(settings=base.settings, counts=base.counts * 1000.0,
                        acquisition_s=base.acquisition_s * 1000.0)
    b = fit_fringe(scaled)
    assert abs(a.visibility - b.visibility) < 1e-9
    assert abs(a.mean_level_hz - b.mean_level_hz) < 1e-6


def test_fit_sigma_covers_truth():
    rng = np.random.default_rng(47)
    x = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    truth = 0.6
    rate = 200.0 * (1.0 + truth * np.cos(x + 1.1))
    hits = 0
    for _ in range(100):
        scan = FringeScan(settings=x, counts=rng.poisson(rate).astype(float),
                          acquisition_s=1.0)
        est = fit_fringe(scan)
        if abs(est.visibility - truth) <= 3.0 * est.sigma_visibility:
            hits += 1
    assert hits >= 96


def test_fit_rejects_underdetermined_scans():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        fit_fringe(FringeScan(settings=x, counts=np.ones(4),
                              acquisition_s=1.0))
    with pytest.raises(ValidationError):
        FringeScan(settings=np.zeros(6), counts=np.ones(5),
                   acquisition_s=1.0)
    with pytest.raises(ValidationError):
        fit_fringe(FringeScan(settings=np.zeros(6), counts=np.ones(6),
                              acquisition_s=1.0))


# ---------------------------------------------------------------------------
# scan CSV round trip
# ---------------------------------------------------------------------------

def _read_scan_rows(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


def test_scan_csv_round_trip(tmp_path):
    scan = FringeScan(settings=np.linspace(0, 6.2, 8),
                      counts=np.arange(8, dtype=float) * 7 + 3,
                      acquisition_s=120.0,
                      singles_a=np.arange(8, dtype=float) * 100,
                      singles_b=np.arange(8, dtype=float) * 50 + 1)
    path = tmp_path / "scan.csv"
    write_scan_csv(scan, path, header_comment="config_hash=abc")
    comment, header, *rows = _read_scan_rows(path)
    assert comment == ["# config_hash=abc"]
    assert header == ["setting", "counts", "acquisition_s", "singles_a",
                      "singles_b"]
    back = np.array(rows, dtype=float)
    assert np.array_equal(back[:, 0], scan.settings)
    assert np.array_equal(back[:, 1], scan.counts)
    assert np.all(back[:, 2] == 120.0)
    assert np.array_equal(back[:, 3], scan.singles_a)
    assert np.array_equal(back[:, 4], scan.singles_b)


def test_scan_csv_without_singles(tmp_path):
    scan = FringeScan(settings=np.linspace(0, 6.2, 6),
                      counts=np.ones(6) * 4, acquisition_s=1.0)
    path = tmp_path / "scan.csv"
    write_scan_csv(scan, path)
    header, *rows = _read_scan_rows(path)
    assert len(rows) == 6
    assert all(row[3:] == ["", ""] for row in rows)
