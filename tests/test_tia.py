"""Histogram and fringe-analysis tests.

Histogram arithmetic is checked exactly against brute-force pairing;
fit behavior against analytically constructed scans, on which the
linear fit is exact, and a frozen-seed Poisson coverage study.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fransonsim.errors import FitDegenerate, ValidationError
from fransonsim.physics import ChannelSpec, DetectorSpec, SourceSpec
from fransonsim.montecarlo import (SimulationConfig, iter_click_buckets,
                                   run_simulation)
from fransonsim.scenarios import ScanPlan, phase_grid, preset
from fransonsim.tia import (FringeScan, HistogramAccumulator,
                            build_histogram, count_in_window, fit_fringe)
from fransonsim import tia
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


def _chunked_pair_deltas(starts, stops, range_ps, chunk):
    """_pair_deltas with its chunk bound set to chunk, concatenated;
    checks every yielded chunk against the bound."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tia, "_PAIR_CHUNK", chunk)
        parts = list(_pair_deltas(starts, stops, range_ps))
    assert all(p.dtype == np.int64 and 0 < p.size <= chunk for p in parts)
    return np.concatenate([np.empty(0, np.int64)] + parts)


# gaps of 0 make duplicate times; 0-3 is dense, up to 5000 sparse
_gaps = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 5000)),
                 max_size=80)


@settings(max_examples=300, deadline=None)
@given(start_gaps=_gaps, stop_gaps=_gaps, range_ps=st.integers(1, 300),
       stop_offset=st.integers(-2000, 2000),
       edges=st.lists(st.tuples(st.integers(0, 79), st.sampled_from([-1, 1])),
                      max_size=12),
       base=st.sampled_from([0, 25 * 10**12]),
       chunk=st.sampled_from([1, 2, 3, 7, tia._PAIR_CHUNK]))
@example(start_gaps=[], stop_gaps=[1, 2], range_ps=10, stop_offset=0,
         edges=[], base=0, chunk=tia._PAIR_CHUNK)
@example(start_gaps=[1, 2], stop_gaps=[], range_ps=10, stop_offset=0,
         edges=[], base=0, chunk=tia._PAIR_CHUNK)
@example(start_gaps=[5, 0, 0, 3000], stop_gaps=[], range_ps=7,
         stop_offset=0, edges=[(0, -1), (1, 1), (3, 1), (3, -1)], base=0,
         chunk=tia._PAIR_CHUNK)
def test_pair_deltas_matches_two_search_reference(start_gaps, stop_gaps,
                                                  range_ps, stop_offset,
                                                  edges, base, chunk):
    starts = base + np.cumsum(np.asarray(start_gaps, dtype=np.int64))
    stops = base + stop_offset \
        + np.cumsum(np.asarray(stop_gaps, dtype=np.int64))
    # stops exactly at start - range (in) and start + range (out)
    extra = [starts[i] + sign * range_ps for i, sign in edges
             if i < starts.size]
    stops = np.sort(np.concatenate([stops, np.asarray(extra, np.int64)]))
    got = _chunked_pair_deltas(starts, stops, range_ps, chunk)
    want = _two_search_pair_deltas(starts, stops, range_ps)
    assert np.array_equal(got, want)


def test_pair_expansion_is_bounded_on_a_dense_stream(monkeypatch):
    # every start's window holds more stops than a chunk bound of 16
    # pairs: one start alone exceeds it, and windows straddle chunks
    rng = np.random.default_rng(8)
    starts = np.sort(rng.integers(0, 200, 30)).astype(np.int64)
    stops = np.sort(rng.integers(0, 200, 400)).astype(np.int64)
    want = _two_search_pair_deltas(starts, stops, 100)
    assert np.diff(np.searchsorted(stops, [starts - 100, starts + 100]),
                   axis=0).min() > 16
    assert np.array_equal(_chunked_pair_deltas(starts, stops, 100, 16), want)
    monkeypatch.setattr(tia, "_PAIR_CHUNK", 16)
    hist = build_histogram(starts, stops, 10, 100)
    assert np.array_equal(hist.counts,
                          np.bincount((want + 100) // 10, minlength=20))
    assert np.array_equal(hist.counts,
                          brute_histogram(starts, stops, 10, 100))



def _sparse_clicks(rng):
    # starts 1 ns apart, each with one stop in its window and one out
    starts = 1000 * np.arange(200) + rng.integers(0, 100, 200)
    near = starts + rng.integers(-90, 90, 200)
    return starts, np.sort(np.concatenate([near, starts + 500]))


def _dense_clicks(rng):
    return (np.sort(rng.integers(0, 3000, 200)),
            np.sort(rng.integers(0, 3000, 400)))


def _one_wide_window(rng):
    # the sparse clicks and one start at 1 us whose window alone holds
    # 150 stops, almost ten times the chunk
    starts, stops = _sparse_clicks(rng)
    crowd = 10**6 + np.arange(-75, 75)
    return (np.append(starts, 10**6),
            np.sort(np.concatenate([stops, crowd])))


@pytest.mark.parametrize("clicks", [_sparse_clicks, _dense_clicks,
                                    _one_wide_window],
                         ids=["sparse", "dense", "one-wide-window"])
def test_pair_deltas_work_is_linear_in_pairs_and_starts(monkeypatch,
                                                        clicks):
    # The time bound beside the memory bound, in yielded arrays (each
    # one vectorized step of at most c pairs): at most
    # 3 * pairs / c + ceil(starts / c).  Within a chunk of c starts, two
    # neighbouring runs hold more than c pairs together (or the first
    # would have taken the second's first start), so the runs number
    # fewer than 2 * pairs / c + 1; a start whose window alone holds
    # n > c stops yields ceil(n / c) < n / c + 1 arrays, its one run and
    # n / c more.
    c, range_ps = 16, 100
    starts, stops = (t.astype(np.int64)
                     for t in clicks(np.random.default_rng(12)))
    monkeypatch.setattr(tia, "_PAIR_CHUNK", c)
    parts = list(_pair_deltas(starts, stops, range_ps))
    pairs = sum(p.size for p in parts)
    assert pairs == _two_search_pair_deltas(starts, stops, range_ps).size
    assert len(parts) <= 3 * pairs / c + math.ceil(starts.size / c), \
        (len(parts), pairs)
    hist = build_histogram(starts, stops, 10, range_ps)
    assert hist.total_pairs == pairs
    assert np.array_equal(hist.counts,
                          brute_histogram(starts, stops, 10, range_ps))

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


def test_histogram_bins_are_bounded_before_allocation():
    # a 2 * range / bin grid always has an even number of bins, so
    # the smallest count past the bound is _MAX_BINS + 2
    assert tia._normalize_binning(1, tia._MAX_BINS // 2) \
        == (1, tia._MAX_BINS // 2)
    with pytest.raises(ValidationError,
                       match=f"needs {tia._MAX_BINS + 2} bins, more than"):
        tia._normalize_binning(1, tia._MAX_BINS // 2 + 1)
    with pytest.raises(ValidationError, match="more than"):
        tia._normalize_binning(10, 1e30)
    # few bins, but a range whose click + range leaves int64
    with pytest.raises(ValidationError, match="range_ps must be below 2"):
        tia._normalize_binning(1e17, 2 ** 62)


def test_histogram_rejects_clicks_at_its_edge():
    edge = np.array([2 ** 62], dtype=np.int64)
    good = np.array([0], dtype=np.int64)
    for starts, stops in ((edge, good), (good, edge)):
        with pytest.raises(ValidationError, match="below the bucket edge"):
            build_histogram(starts, stops, 10, 100)


# ---------------------------------------------------------------------------
# count_in_window
# ---------------------------------------------------------------------------

def test_window_count_sums_whole_bins():
    hist = build_histogram(np.array([0], dtype=np.int64),
                           np.array([-95, -5, 5, 95], dtype=np.int64),
                           10, 100)
    # one count each in bins 0, 9, 10 and 19
    assert count_in_window(hist, 0.0, 20.0) == 2   # [-10, 10)
    assert count_in_window(hist, 0.0, 40.0) == 2
    assert count_in_window(hist, 0.0, 200.0) == 4
    assert count_in_window(hist, -95.0, 10.0) == 1   # [-100, -90)
    assert count_in_window(hist, 5.0, 10.0) == 1     # [0, 10)
    with pytest.raises(ValidationError, match="narrower than one 10 ps bin"):
        count_in_window(hist, 0.0, 5.0)
    # a nan window compares false both ways and would count nothing
    for center, window in ((0.0, math.nan), (math.nan, 20.0),
                           (0.0, math.inf)):
        with pytest.raises(ValidationError, match="finite"):
            count_in_window(hist, center, window)


@pytest.mark.parametrize("center, window", [
    (0.0, 45.0), (0.0, 50.0), (0.0, 70.0),   # edges off the grid
    (0.0, 220.0), (-100.0, 20.0), (100.0, 20.0),   # reaching past +-100
])
def test_window_count_refuses_windows_it_cannot_count_whole(center, window):
    # with 10 ps bins a 50 ps window's bin centres span 60 ps of delay,
    # and a window past the range would silently lose its outer part
    hist = build_histogram(np.array([0], dtype=np.int64),
                           np.arange(-100, 100, 5, dtype=np.int64), 10, 100)
    with pytest.raises(ValidationError,
                       match="10 ps histogram bin grid within \\+-100 ps"):
        count_in_window(hist, center, window)


def test_window_count_is_monotone_in_width():
    rng = np.random.default_rng(17)
    starts = np.sort(rng.integers(0, 100_000, 800)).astype(np.int64)
    stops = np.sort(rng.integers(0, 100_000, 800)).astype(np.int64)
    hist = build_histogram(starts, stops, 10, 500)
    counts = [count_in_window(hist, 0.0, w) for w in range(20, 1001, 20)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == hist.total_pairs


@settings(max_examples=300, deadline=None)
@given(bin_ps=st.integers(1, 37), range_ps=st.integers(1, 400),
       edges=st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_on_grid_window_counts_what_the_bin_centre_rule_counted(
        bin_ps, range_ps, edges, seed):
    b, r = tia._normalize_binning(bin_ps, max(range_ps, bin_ps))
    n = 2 * r // b
    i, j = sorted(e % (n + 1) for e in edges)
    j += i == j   # at least one bin wide
    if j > n:
        i, j = n - 1, n
    lo, hi = -r + i * b, -r + j * b
    center, window = (lo + hi) / 2.0, float(hi - lo)
    counts = np.random.default_rng(seed).integers(0, 1000, n)
    hist = tia.DelayHistogram(bin_ps=b, range_ps=r, counts=counts)
    # the rule this one replaced: every bin whose centre lies in the
    # closed window [center - w/2, center + w/2]
    centres = -r + b * np.arange(n) + b / 2.0
    inside = (centres >= center - window / 2.0) \
        & (centres <= center + window / 2.0)
    want = int(counts[inside].sum())
    assert tia.window_bins(b, r, center, window) == slice(i, j)
    assert count_in_window(hist, center, window) == want


# ---------------------------------------------------------------------------
# streaming accumulator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("finalize_each", [False, True],
                         ids=["finalize-once", "finalize-after-every-bucket"])
def test_accumulator_matches_batch_on_synthetic_buckets(finalize_each):
    # bucket width comparable to the histogram range stresses the
    # start-tail and stop-tail carry logic
    rng = np.random.default_rng(23)
    starts = np.sort(rng.integers(0, 1000, 600)).astype(np.int64)
    stops = np.sort(rng.integers(0, 1000, 600)).astype(np.int64)
    acc = HistogramAccumulator(5, 80)
    for lo, hi in ((0, 100), (100, 250), (250, 400), (400, 1001)):
        acc.add_bucket(starts[(starts >= lo) & (starts < hi)],
                       stops[(stops >= lo) & (stops < hi)], hi)
        if finalize_each:
            # a snapshot holds exactly the pairs of the clicks so far
            snapshot = acc.finalize()
            so_far = build_histogram(starts[starts < hi], stops[stops < hi],
                                     5, 80)
            assert np.array_equal(snapshot.counts, so_far.counts)
    streamed = acc.finalize()
    batch = build_histogram(starts, stops, 5, 80)
    assert np.array_equal(streamed.counts, batch.counts)
    assert streamed.n_starts == batch.n_starts
    assert streamed.n_stops == batch.n_stops


def test_accumulator_keeps_pairs_fed_after_finalize():
    # finalize() used to bin and drop the starts still waiting for
    # their stops, so a stop of a later bucket found no start
    acc, none = HistogramAccumulator(10, 100), np.empty(0, np.int64)
    acc.add_bucket([950], none, 1000)
    assert acc.finalize().total_pairs == 0
    acc.add_bucket(none, [1010], 2000)
    assert acc.finalize().total_pairs == 1 == \
        build_histogram([950], [1010], 10, 100).total_pairs


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


# (earlier buckets, the breaching bucket, what the message names)
BUCKET_BREACHES = {
    "float clicks": ([], ([0.5], [1], 100), "starts must be integer"),
    "unsorted starts": ([], ([5, 3], [1], 100),
                        "starts must be sorted ascending"),
    "unsorted stops": ([], ([1], [9, 2], 100),
                       "stops must be sorted ascending"),
    "edge not after the last": ([([5], [7], 1000)], ([], [], 1000),
                                "buckets must arrive in time order"),
    # a stop past its own edge used to reach np.bincount as a negative
    # delta, ending in numpy's unnamed ValueError
    "stop past its edge": ([], ([0], [5, 1500], 500),
                           "stops must lie below the bucket edge 500"),
    "start past its edge": ([], ([0, 500], [5], 500),
                            "starts must lie below the bucket edge 500"),
    "start before the last edge": ([([0], [5], 500)], ([450], [600], 1000),
                                   "starts must not precede the previous "
                                   "bucket edge 500"),
    "stop before the last edge": ([([0], [5], 500)], ([600], [499], 1000),
                                  "stops must not precede the previous "
                                  "bucket edge 500"),
}


@pytest.mark.parametrize("earlier,bad,message", BUCKET_BREACHES.values(),
                         ids=BUCKET_BREACHES.keys())
def test_accumulator_names_each_contract_breach(earlier, bad, message):
    acc, clean = HistogramAccumulator(10, 100), HistogramAccumulator(10, 100)
    for bucket in earlier:
        acc.add_bucket(*bucket)
        clean.add_bucket(*bucket)
    with pytest.raises(ValidationError, match=message):
        acc.add_bucket(*bad)
    # the rejected bucket left no trace
    later = ([2000], [2005], 3000)
    acc.add_bucket(*later)
    clean.add_bucket(*later)
    got, want = acc.finalize(), clean.finalize()
    assert np.array_equal(got.counts, want.counts)
    assert (got.n_starts, got.n_stops) == (want.n_starts, want.n_stops)


def test_accumulator_rejects_the_stop_past_its_edge_reproduction():
    acc = HistogramAccumulator(10, 100)
    with pytest.raises(ValidationError, match="below the bucket edge"):
        acc.add_bucket([0], [5, 1500], 500)
    acc.add_bucket([600, 1450], [605], 2000)
    assert acc.finalize().total_pairs == 1


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_accumulator_order_check_spans_chunk_boundaries(chunk, monkeypatch):
    monkeypatch.setattr(tia, "_PAIR_CHUNK", chunk)
    times = np.arange(0, 400, 3, dtype=np.int64)
    times[7] = times[6]                 # a repeat is still ascending
    HistogramAccumulator(10, 100).add_bucket(times, times, 400)
    for k in range(1, times.size):
        bad = times.copy()
        bad[k] = bad[k - 1] - 1
        with pytest.raises(ValidationError, match="stops must be sorted"):
            HistogramAccumulator(10, 100).add_bucket(times, bad, 400)


# ---------------------------------------------------------------------------
# fringe fitting
# ---------------------------------------------------------------------------

def scan_from_law(mean, v, phi0, n=12, acq=2.0, freq=1.0):
    x = np.linspace(0.0, 2.0 * math.pi / freq, n, endpoint=False)
    rate = mean * (1.0 + v * np.cos(freq * x + phi0))
    return FringeScan(settings=x, counts=rate * acq, acquisition_s=acq,
                      frequency=freq)


def test_fit_recovers_noiseless_fringe():
    est = fit_fringe(scan_from_law(1000.0, 0.8, 0.7))
    assert abs(est.visibility - 0.8) < 1e-6
    assert abs(est.phase_offset_rad - 0.7) < 1e-6
    assert est.frequency == 1.0
    assert abs(est.mean_level_hz - 1000.0) < 1e-3
    assert est.chi2 < 1e-10
    assert est.dof == 9


@pytest.mark.parametrize("freq", [1.0, 0.8])
@pytest.mark.parametrize("n", [4, 7, 16])
def test_fit_is_exact_on_noiseless_counts(freq, n):
    # the fit is one linear solve: exact (V, phi) up to rounding
    est = fit_fringe(scan_from_law(640.0, 0.73, 2.1, n=n, freq=freq))
    assert est.visibility == pytest.approx(0.73, rel=1e-12, abs=0.0)
    assert est.phase_offset_rad == pytest.approx(2.1, rel=1e-12, abs=0.0)
    assert est.frequency == freq
    assert est.dof == n - 3


@pytest.mark.parametrize("phi0", [0.5, 2.9, 4.4])
def test_fit_recovers_phase_offset(phi0):
    est = fit_fringe(scan_from_law(500.0, 0.6, phi0, n=16))
    assert abs(est.phase_offset_rad - phi0) < 1e-6


def test_fit_recovers_non_unit_frequency():
    # settings in arbitrary units (e.g. kelvin), fitted at 0.35 rad per unit
    est = fit_fringe(scan_from_law(800.0, 0.7, 1.2, n=20, freq=0.35))
    assert est.frequency == 0.35
    assert abs(est.visibility - 0.7) < 1e-6
    assert abs(est.phase_offset_rad - 1.2) < 1e-6


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
    x = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValidationError, match="at least 4 scan points"):
        fit_fringe(FringeScan(settings=x, counts=np.ones(3),
                              acquisition_s=1.0))
    with pytest.raises(ValidationError):
        FringeScan(settings=np.zeros(6), counts=np.ones(5),
                   acquisition_s=1.0)
    with pytest.raises(ValidationError, match="three distinct"):
        fit_fringe(FringeScan(settings=np.zeros(6), counts=np.ones(6),
                              acquisition_s=1.0))
    # phases 0 and pi alone leave the sine amplitude unidentified, in
    # radians or in settings of half a period each
    k = np.arange(5.0)
    counts = 500.0 * (1.0 + 0.6 * np.cos(k * math.pi + 0.4))
    for x, freq in ((k * math.pi, 1.0), (k, math.pi)):
        with pytest.raises(ValidationError, match="three distinct"):
            fit_fringe(FringeScan(settings=x, counts=counts,
                                  acquisition_s=1.0, frequency=freq))


# the two-phase scans of test_fit_rejects_underdetermined_scans, six
# points each: k pi at f = 1, and k or 10 + k at f = pi
_TWO_PHASES = [(np.arange(6.0) * math.pi, 1.0), (np.arange(6.0), math.pi),
               (10.0 + np.arange(6.0), math.pi)]


@pytest.mark.parametrize("periods", [0, 1, 10, 1000])
def test_fit_verdict_holds_under_whole_period_shifts(periods):
    # rounding in f x must not decide whether repeated phases count as
    # distinct: sin(20 pi) is ~1e-15, not 0
    counts = 500.0 * (1.0 + 0.6 * np.cos(np.arange(6.0) * math.pi + 0.4))
    for x, freq in _TWO_PHASES:
        shifted = x + periods * 2.0 * math.pi / freq
        with pytest.raises(ValidationError, match="three distinct"):
            fit_fringe(FringeScan(settings=shifted, counts=counts,
                                  acquisition_s=1.0, frequency=freq))
    grid = np.array(phase_grid(8))
    counts = np.random.default_rng(8).poisson(
        400.0 * (1.0 + 0.7 * np.cos(grid + 0.3))).astype(float)
    v_ref = fit_fringe(FringeScan(settings=grid, counts=counts,
                                  acquisition_s=1.0)).visibility
    for freq in (1.0, math.pi):
        shifted = (grid + periods * 2.0 * math.pi) / freq
        est = fit_fringe(FringeScan(settings=shifted, counts=counts,
                                    acquisition_s=1.0, frequency=freq))
        assert est.visibility == pytest.approx(v_ref, rel=1e-9)


def _clustered(offset, d):
    """Six settings in three phase groups d rad apart at f = 1."""
    return offset + d * np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0])


# at d = 1e-5 these counts raised LinAlgError from the covariance, gave
# V = 0.99999999578 +- 0.0, and took the square root of a negative
# variance: three distinct phases, too close to identify a fringe
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("offset, counts", [
    (0.8724909448748407, (793, 220, 774, 233, 799, 200)),
    (3.0510460534636357, (816, 217, 762, 216, 816, 229)),
    (0.0, (776, 224, 776, 224, 776, 224)),
])
def test_fit_refuses_phases_too_close_to_identify(offset, counts):
    x = _clustered(offset, 1e-5)
    with pytest.raises(ValidationError, match="three distinct"):
        fit_fringe(FringeScan(settings=x, counts=np.array(counts, float),
                              acquisition_s=1.0))
    with pytest.raises(ValidationError, match="three distinct"):
        replace(preset("ideal"), plan=ScanPlan(
            settings=tuple(x), acquisition_s_per_point=0.05))


@pytest.mark.filterwarnings("error")
def test_clustered_phases_are_refused_degenerate_or_a_finite_sigma():
    rng = np.random.default_rng(25)
    outcomes = []
    for d in (1e-5, 1e-4, 1e-3, 0.03, 0.3):
        for k in range(80):
            x = _clustered(rng.uniform(0.0, 2.0 * math.pi), d)
            # counts alternating between points, or the fringe of x
            phase = np.arange(6.0) * math.pi if k % 2 else x
            counts = rng.poisson(500.0 * (1.0 + 0.6 * np.cos(
                phase + rng.uniform(0.0, 2.0 * math.pi)))).astype(float)
            try:
                est = fit_fringe(FringeScan(settings=x, counts=counts,
                                            acquisition_s=1.0))
            except ValidationError:
                outcomes.append((d, "refused"))
            except FitDegenerate:
                outcomes.append((d, "degenerate"))
            else:
                assert math.isfinite(est.sigma_visibility), (d, x, counts)
                assert est.sigma_visibility > 0.0, (d, x, counts)
                outcomes.append((d, "fitted"))
    assert {o for _, o in outcomes} == {"refused", "degenerate", "fitted"}
    assert all(o == "refused" for d, o in outcomes if d <= 1e-3)


@pytest.mark.parametrize("field, value", [
    ("settings", math.nan), ("settings", math.inf),
    ("counts", math.nan), ("counts", math.inf),
    ("acquisition_s", math.nan), ("acquisition_s", math.inf),
    ("frequency", math.nan), ("frequency", math.inf),
    ("frequency", 0.0), ("frequency", -1.0),
])
def test_scan_refuses_non_finite_input(field, value):
    args = dict(settings=np.linspace(0.0, 6.0, 8), counts=np.full(8, 100.0),
                acquisition_s=1.0)
    if field in ("settings", "counts"):
        args[field][3] = value
    else:
        args[field] = value
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        FringeScan(**args)


@pytest.mark.parametrize("x, counts, message", [
    ((), (), "settings must be a non-empty 1-d array"),
    ((0.0, 1.0, 2.0), (5.0, -1.0, 5.0), "counts must be non-negative"),
])
def test_scan_refuses_an_empty_or_negative_scan(x, counts, message):
    with pytest.raises(ValidationError, match=message):
        FringeScan(settings=x, counts=counts, acquisition_s=1.0)


def test_fit_clamps_at_unit_visibility():
    # counts stay positive at V = 1.02: no setting falls on the trough
    x = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    scan = FringeScan(settings=x, acquisition_s=1.0,
                      counts=1000.0 * (1.0 + 1.02 * np.cos(x + math.pi / 8)))
    est = fit_fringe(scan)
    assert est.visibility == 1.0
    assert est.amplitude_hz / est.mean_level_hz == pytest.approx(1.02)
    assert 0.0 < est.sigma_visibility < 0.01
