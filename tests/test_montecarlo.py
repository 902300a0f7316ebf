"""Monte Carlo engine tests.

Statistical assertions use 4-5 sigma bounds with frozen seeds so they
are deterministic; exact assertions (determinism, stream
independence, dead time, dedupe) are bitwise.
"""

import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fransonsim import (AnalyzerSpec, CENTRAL, ChannelSpec, ClickStream,
                        DetectorSpec, NO_JOINT_CLICK, PathOutcome, SIDE_EARLY,
                        SIDE_LATE, SimDiagnostics, SimulationConfig,
                        SourceSpec, TimingDriftSpec, ValidationError,
                        derive_seed, detect, dispersive_spread,
                        generate_emissions, iter_click_buckets,
                        read_click_stream, reference_pair_table,
                        resolve_central_paths, run_simulation,
                        sample_pair_paths, thin_by_loss, write_click_stream)
from fransonsim.montecarlo import (SLICE_PS, _WRITE_CHUNK_ROWS, _DriftWalk,
                                   _dedupe_sorted_merge, _dead_time_filter,
                                   _gen_slice)

SIGMA_G = 2.0 * math.sqrt(2.0 * math.log(2.0))


def lossless_config(**kw):
    """Unit-efficiency, noise-free link at mu = 1e-4 (fast, bright)."""
    defaults = dict(
        source=SourceSpec(photon_fwhm_ps=0.5, mean_pairs_per_window=1e-4),
        channel_signal=ChannelSpec(fiber_length_km=0.0),
        channel_idler=ChannelSpec(fiber_length_km=0.0),
        analyzer_signal=AnalyzerSpec(insertion_loss_db=0.0, phase_rad=0.0),
        analyzer_idler=AnalyzerSpec(insertion_loss_db=0.0, phase_rad=0.0),
        detector_signal=DetectorSpec(quantum_efficiency=1.0,
                                     dark_rate_hz=0.0, jitter_fwhm_ps=0.0),
        detector_idler=DetectorSpec(quantum_efficiency=1.0,
                                    dark_rate_hz=0.0, jitter_fwhm_ps=0.0),
        acquisition_time_s=0.5,
        master_seed=11,
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


def lossy_config(**kw):
    """Attenuated link with darks and jitter (cheap event counts)."""
    defaults = dict(
        source=SourceSpec(mean_pairs_per_window=1e-3),
        channel_signal=ChannelSpec(fiber_length_km=0.0,
                                   pre_fiber_loss_db=10.0),
        channel_idler=ChannelSpec(fiber_length_km=0.0,
                                  pre_fiber_loss_db=10.0),
        analyzer_signal=AnalyzerSpec(insertion_loss_db=5.0, phase_rad=0.4),
        analyzer_idler=AnalyzerSpec(insertion_loss_db=5.0, phase_rad=0.0),
        detector_signal=DetectorSpec(quantum_efficiency=0.02,
                                     dark_rate_hz=100.0, jitter_fwhm_ps=30.0),
        detector_idler=DetectorSpec(quantum_efficiency=0.05,
                                    dark_rate_hz=200.0, jitter_fwhm_ps=30.0),
        acquisition_time_s=1.0,
        master_seed=5,
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


def window_counts(sig, idl, center, half):
    """Coincidences with idler - signal inside [center-half, center+half]."""
    lo = np.searchsorted(idl, sig + (center - half))
    hi = np.searchsorted(idl, sig + (center + half), side="right")
    return int((hi - lo).sum())


# ---------------------------------------------------------------------------
# generate / thin
# ---------------------------------------------------------------------------

def test_emission_count_matches_rate():
    rng = np.random.default_rng(7)
    rate = 0.05 / 60e-12  # mu per base window
    counts = [generate_emissions(rate, 1e6, rng).size for _ in range(50)]
    mean = np.mean(counts)
    assert abs(mean - 833.33) < 4.0 * math.sqrt(833.33 / 50)


@settings(max_examples=40, deadline=None)
@given(rate=st.floats(0.0, 1e7), span=st.floats(1.0, 1e7),
       seed=st.integers(0, 2**32 - 1))
def test_emissions_sorted_and_in_span(rate, span, seed):
    times = generate_emissions(rate, span, np.random.default_rng(seed))
    assert np.all(np.diff(times) >= 0)
    if times.size:
        assert times[0] >= 0.0 and times[-1] < span


def test_generate_emissions_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        generate_emissions(-1.0, 100.0, rng)
    with pytest.raises(ValidationError):
        generate_emissions(1.0, 0.0, rng)


def test_thin_edge_cases_and_subset():
    rng = np.random.default_rng(3)
    e = np.sort(rng.random(1000)) * 1e6
    assert np.array_equal(thin_by_loss(e, 1.0, rng), e)
    assert thin_by_loss(e, 0.0, rng).size == 0
    kept = thin_by_loss(e, 0.4, rng)
    assert np.all(np.diff(kept) > 0)
    assert np.all(np.isin(kept, e))
    with pytest.raises(ValidationError):
        thin_by_loss(e, 1.2, rng)
    with pytest.raises(ValidationError):
        thin_by_loss(e, -0.1, rng)


def test_sequential_thinning_composes():
    rng = np.random.default_rng(12)
    e = np.sort(rng.random(100_000)) * 1e9
    n_two = thin_by_loss(thin_by_loss(e, 0.6, rng), 0.5, rng).size
    n_one = thin_by_loss(e, 0.3, rng).size
    sigma = math.sqrt(2 * 100_000 * 0.3 * 0.7)
    assert abs(n_two - n_one) < 4.0 * sigma


# ---------------------------------------------------------------------------
# joint path sampling
# ---------------------------------------------------------------------------

def test_joint_outcome_fractions_constructive():
    rng = np.random.default_rng(21)
    n = 400_000
    codes = sample_pair_paths(0.0, 0.0, 0.0, 1.0, n, rng)
    frac = np.bincount(codes, minlength=4) / n
    for got, want in zip(frac, (0.25, 1 / 16, 1 / 16, 0.625)):
        assert abs(got - want) < 4.0 * math.sqrt(want * (1 - want) / n)


def test_joint_outcome_destructive_has_no_central():
    rng = np.random.default_rng(22)
    codes = sample_pair_paths(math.pi / 2, math.pi / 2, 0.0, 1.0,
                              200_000, rng)
    counts = np.bincount(codes, minlength=4)
    assert counts[CENTRAL] == 0
    # side peaks keep their phase-free 1/16 weight
    for k in (SIDE_EARLY, SIDE_LATE):
        assert abs(counts[k] / 200_000 - 1 / 16) < 4.0 * math.sqrt(
            (1 / 16) * (15 / 16) / 200_000)


def test_joint_outcome_zero_contrast_is_phase_flat():
    n = 300_000
    for theta in (0.0, 1.3, math.pi):
        rng = np.random.default_rng(23)
        codes = sample_pair_paths(theta, 0.0, 0.0, 0.0, n, rng)
        frac_central = np.mean(codes == CENTRAL)
        assert abs(frac_central - 0.125) < 4.0 * math.sqrt(
            0.125 * 0.875 / n)


def test_resolve_central_splits_evenly_and_maps_sides():
    rng = np.random.default_rng(31)
    n = 100_000
    out = resolve_central_paths(np.full(n, CENTRAL, dtype=np.int8), rng)
    n_ss = sum(1 for o in out if o is PathOutcome.SHORT_SHORT)
    assert abs(n_ss - n / 2) < 4.0 * math.sqrt(n * 0.25)
    mapped = resolve_central_paths(
        np.array([SIDE_EARLY, SIDE_LATE, NO_JOINT_CLICK], dtype=np.int8), rng)
    assert mapped[0] is PathOutcome.LONG_SHORT
    assert mapped[1] is PathOutcome.SHORT_LONG
    assert mapped[2] is None


# ---------------------------------------------------------------------------
# detect()
# ---------------------------------------------------------------------------

def test_detect_is_identity_for_perfect_detector():
    rng = np.random.default_rng(41)
    arr = np.sort(rng.random(500)) * 1e9
    spec = DetectorSpec(quantum_efficiency=1.0, dark_rate_hz=0.0,
                        jitter_fwhm_ps=0.0)
    stream = detect(arr, spec, 1e9, rng)
    assert np.array_equal(stream.times_ps, np.unique(np.rint(arr)
                                                     .astype(np.int64)))
    assert stream.dark_count == 0


def test_detect_dark_rate():
    rng = np.random.default_rng(42)
    spec = DetectorSpec(quantum_efficiency=1.0, dark_rate_hz=1000.0,
                        jitter_fwhm_ps=0.0)
    stream = detect(np.empty(0), spec, 1e12, rng)  # 1 s
    assert stream.true_count == 0
    assert abs(stream.dark_count - 1000) < 4.0 * math.sqrt(1000)


def test_detect_jitter_spread():
    rng = np.random.default_rng(43)
    centers = (np.arange(10_000) + 0.5) * 1e6
    spec = DetectorSpec(quantum_efficiency=1.0, dark_rate_hz=0.0,
                        jitter_fwhm_ps=65.0)
    stream = detect(centers, spec, 1e10, rng)
    assert stream.times_ps.size == centers.size  # spacing >> jitter
    resid = stream.times_ps - np.rint(centers).astype(np.int64)
    assert abs(np.std(resid) - 65.0 / SIGMA_G) < 0.05 * (65.0 / SIGMA_G)


def test_detect_dead_time_exact():
    rng = np.random.default_rng(44)
    spec = DetectorSpec(quantum_efficiency=1.0, dark_rate_hz=0.0,
                        jitter_fwhm_ps=0.0, dead_time_ps=100.0)
    stream = detect(np.array([0.0, 50.0, 120.0, 130.0, 200.0]),
                    spec, 1000.0, rng)
    assert stream.times_ps.tolist() == [0, 120]


def test_detect_merges_same_picosecond():
    rng = np.random.default_rng(45)
    spec = DetectorSpec(quantum_efficiency=1.0, dark_rate_hz=0.0,
                        jitter_fwhm_ps=0.0)
    stream = detect(np.array([100.2, 100.4, 300.0]), spec, 1000.0, rng)
    assert stream.times_ps.tolist() == [100, 300]
    assert stream.true_count == 2


def test_detect_rejects_unsorted():
    rng = np.random.default_rng(46)
    with pytest.raises(ValidationError):
        detect(np.array([5.0, 1.0]), DetectorSpec(), 100.0, rng)


def test_dedupe_prefers_photon_label():
    t, d = _dedupe_sorted_merge(np.array([5, 5], dtype=np.int64),
                                np.array([True, False]))
    assert t.tolist() == [5] and d.tolist() == [False]


def test_dead_time_carry_across_calls():
    t1 = np.array([0, 200], dtype=np.int64)
    d1 = np.zeros(2, dtype=bool)
    _, _, last = _dead_time_filter(t1, d1, 100, -2**62)
    t2 = np.array([250, 400], dtype=np.int64)
    kept, _, _ = _dead_time_filter(t2, np.zeros(2, bool), 100, last)
    assert kept.tolist() == [400]  # 250 falls in 200's dead window


def _lexsort_merge(times, is_dark):
    """Reference merge: lexsort by (time, label), keep the first click
    of each picosecond."""
    order = np.lexsort((is_dark, times))
    t, d = times[order], is_dark[order]
    if t.size:
        keep = np.concatenate([[True], t[1:] != t[:-1]])
        t, d = t[keep], d[keep]
    return t, d


def _dead_time_loop(times, is_dark, dead_ps, carry_last):
    """Reference dead time: the per-click sequential rule."""
    if dead_ps <= 0 or times.size == 0:
        return times, is_dark, int(times[-1]) if times.size else carry_last
    keep = np.zeros(times.size, dtype=bool)
    last = carry_last
    for i, t in enumerate(times.tolist()):
        if t - last >= dead_ps:
            keep[i] = True
            last = t
    return times[keep], is_dark[keep], last


@settings(max_examples=200, deadline=None)
@given(times=st.lists(st.integers(0, 300), max_size=150),
       collide=st.lists(st.integers(0, 149), max_size=30),
       base=st.sampled_from([0, 25 * 10**12]),
       seed=st.integers(0, 2**32 - 1))
@example(times=[], collide=[], base=0, seed=0)
@example(times=[7, 7, 3], collide=[0, 2], base=0, seed=1)
def test_dedupe_sorted_merge_matches_lexsort(times, collide, base, seed):
    rng = np.random.default_rng(seed)
    t = base + np.asarray(times, dtype=np.int64)
    d = rng.random(t.size) < 0.5
    # force equal-picosecond photon/dark pairs
    twins = [i for i in collide if i < t.size]
    t = np.concatenate([t, t[twins]])
    d = np.concatenate([d, ~d[twins]])
    order = rng.permutation(t.size)
    t, d = t[order], d[order]
    got_t, got_d = _dedupe_sorted_merge(t, d)
    want_t, want_d = _lexsort_merge(t, d)
    assert got_t.dtype == np.int64 and got_d.dtype == bool
    assert np.array_equal(got_t, want_t)
    assert np.array_equal(got_d, want_d)


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.one_of(st.integers(1, 30), st.integers(1, 3000)),
                     max_size=150),
       carry_back=st.integers(0, 2000), dead_ps=st.integers(0, 500),
       split=st.integers(0, 150), seed=st.integers(0, 2**32 - 1))
@example(gaps=[], carry_back=0, dead_ps=100, split=0, seed=0)
@example(gaps=[5, 7, 9], carry_back=3, dead_ps=0, split=1, seed=0)
@example(gaps=[50, 50, 150], carry_back=0, dead_ps=100, split=0, seed=0)
@example(gaps=[1] * 100 + [500] + [3] * 50, carry_back=10, dead_ps=40,
         split=60, seed=0)
def test_dead_time_filter_matches_per_click_loop(gaps, carry_back, dead_ps,
                                                 split, seed):
    times = 10**12 + np.cumsum(np.asarray(gaps, dtype=np.int64))
    is_dark = np.random.default_rng(seed).random(times.size) < 0.3
    carry = int(times[0]) - carry_back if times.size else -2**62
    want_t, want_d, want_last = _dead_time_loop(times, is_dark, dead_ps,
                                                carry)
    got_t, got_d, got_last = _dead_time_filter(times, is_dark, dead_ps, carry)
    assert np.array_equal(got_t, want_t)
    assert np.array_equal(got_d, want_d)
    assert got_last == want_last
    # carry chained over two calls equals one call on the whole stream
    k = min(split, times.size)
    t1, d1, last = _dead_time_filter(times[:k], is_dark[:k], dead_ps, carry)
    t2, d2, last = _dead_time_filter(times[k:], is_dark[k:], dead_ps, last)
    assert np.array_equal(np.concatenate([t1, t2]), want_t)
    assert np.array_equal(np.concatenate([d1, d2]), want_d)
    assert last == want_last


# ---------------------------------------------------------------------------
# dispersive_spread
# ---------------------------------------------------------------------------

def test_dispersive_spread_matches_target_width():
    rng = np.random.default_rng(51)
    n = 100_000
    base = np.zeros(n) + np.random.default_rng(1).normal(
        0.0, 4.0 / SIGMA_G, n)
    out = dispersive_spread(base, 4.0, 0.7120544106828958, 50.0, rng)
    assert abs(np.std(out) * SIGMA_G - 25.0) < 0.05 * 25.0


def test_dispersive_spread_zero_length_is_identity():
    rng = np.random.default_rng(52)
    base = np.linspace(0.0, 10.0, 17)
    assert np.array_equal(dispersive_spread(base, 4.0, 0.7, 0.0, rng), base)


# ---------------------------------------------------------------------------
# engine invariants
# ---------------------------------------------------------------------------

def test_run_is_deterministic():
    a_sig, a_idl, a_diag = run_simulation(lossy_config())
    b_sig, b_idl, b_diag = run_simulation(lossy_config())
    assert np.array_equal(a_sig.times_ps, b_sig.times_ps)
    assert np.array_equal(a_idl.times_ps, b_idl.times_ps)
    assert a_diag == b_diag
    assert a_sig.true_count + a_sig.dark_count == a_sig.times_ps.size


def test_idler_detector_cannot_touch_signal_stream():
    base = lossy_config()
    modified = replace(base, detector_idler=DetectorSpec(
        quantum_efficiency=0.11, dark_rate_hz=5000.0, jitter_fwhm_ps=60.0))
    a_sig, a_idl, _ = run_simulation(base)
    b_sig, b_idl, _ = run_simulation(modified)
    assert np.array_equal(a_sig.times_ps, b_sig.times_ps)
    assert a_sig.true_count == b_sig.true_count
    assert not (a_idl.times_ps.size == b_idl.times_ps.size
                and np.array_equal(a_idl.times_ps, b_idl.times_ps))


def test_analyzer_phases_cannot_touch_signal_stream():
    # no single-photon fringes: phases shift only joint statistics
    base = lossless_config(acquisition_time_s=0.05)
    moved = replace(
        base,
        analyzer_signal=replace(base.analyzer_signal, phase_rad=1.1),
        analyzer_idler=replace(base.analyzer_idler, phase_rad=2.2))
    a_sig, a_idl, _ = run_simulation(base)
    b_sig, b_idl, _ = run_simulation(moved)
    assert np.array_equal(a_sig.times_ps, b_sig.times_ps)
    assert not np.array_equal(a_idl.times_ps, b_idl.times_ps)


def test_fringe_extremes_and_side_peaks():
    cfg0 = lossless_config(master_seed=77)
    cfg_pi = replace(cfg0, analyzer_signal=replace(cfg0.analyzer_signal,
                                                   phase_rad=math.pi))
    sig0, idl0, diag0 = run_simulation(cfg0)
    sigp, idlp, _ = run_simulation(cfg_pi)

    pairs = diag0.pairs_both_detectable
    assert abs(pairs - 833_333) < 5.0 * math.sqrt(833_333)

    c0 = window_counts(sig0.times_ps, idl0.times_ps, 0, 20)
    cp = window_counts(sigp.times_ps, idlp.times_ps, 0, 20)
    assert c0 > 0.25 * pairs - 5.0 * math.sqrt(0.25 * pairs)
    assert cp < 80  # accidental floor only (~14 expected)

    for stream_pair in ((sig0, idl0), (sigp, idlp)):
        s, i = stream_pair
        early = window_counts(s.times_ps, i.times_ps, -100, 20)
        late = window_counts(s.times_ps, i.times_ps, +100, 20)
        want = pairs / 16.0
        assert abs(early - want) < 5.0 * math.sqrt(want)
        assert abs(late - want) < 5.0 * math.sqrt(want)


def test_singles_rate_is_half_detected_rate():
    cfg = lossless_config(master_seed=13, acquisition_time_s=0.2)
    sig, idl, diag = run_simulation(cfg)
    expected = cfg.generated_pair_rate_hz() * 0.2 / 2.0
    for stream in (sig, idl):
        assert abs(stream.true_count - expected) < 5.0 * math.sqrt(expected)


def test_buckets_concatenate_to_full_run():
    cfg = lossy_config(acquisition_time_s=25.0, master_seed=9)
    buckets = list(iter_click_buckets(cfg))
    assert len(buckets) == 3  # 10 s + 10 s + 5 s
    edges = [b[0] for b in buckets]
    assert edges == sorted(edges) and edges[-1] == cfg.span_ps() + 1
    for hi, ts, _, ti, _ in buckets:
        assert ts.size == 0 or ts[-1] < hi
        assert ti.size == 0 or ti[-1] < hi
    sig_cat = np.concatenate([b[1] for b in buckets])
    idl_cat = np.concatenate([b[3] for b in buckets])
    sig, idl, _ = run_simulation(cfg)
    assert np.array_equal(sig_cat, sig.times_ps)
    assert np.array_equal(idl_cat, idl.times_ps)
    sig.assert_valid()
    idl.assert_valid()


def _whole_run_reference(cfg):
    """Oracle for the bucket path: every slice's packed keys unpacked
    and merged at once with the lexsort reference, clipped to
    [0, span], then the per-click dead-time loop over the whole run."""
    span = cfg.span_ps()
    n_slices = max(1, -(-span // SLICE_PS))
    drift, diag = _DriftWalk(cfg), SimDiagnostics()
    slices = [_gen_slice(cfg, k, k * SLICE_PS,
                         min(span, (k + 1) * SLICE_PS), drift, diag)
              for k in range(n_slices)]
    streams = {}
    for col, ch, det in ((0, "signal", cfg.detector_signal),
                         (1, "idler", cfg.detector_idler)):
        key = np.concatenate([s[col] for s in slices])
        t, d = key >> 1, (key & 1).astype(bool)
        inside = (t >= 0) & (t <= span)
        diag.clicks_dropped_out_of_span += int((~inside).sum())
        t, d = _lexsort_merge(t[inside], d[inside])
        t, d, _ = _dead_time_loop(t, d, int(round(det.dead_time_ps)),
                                  -2 ** 62)
        setattr(diag, f"photon_clicks_{ch}", int((~d).sum()))
        setattr(diag, f"dark_clicks_{ch}", int(d.sum()))
        streams[ch] = (t, d)
    return streams, diag


def _with_dead_time(cfg, signal_ps, idler_ps):
    return replace(
        cfg,
        detector_signal=replace(cfg.detector_signal, dead_time_ps=signal_ps),
        detector_idler=replace(cfg.detector_idler, dead_time_ps=idler_ps))


@pytest.mark.parametrize("cfg", [
    _with_dead_time(lossy_config(acquisition_time_s=25.0, master_seed=9),
                    1.5e8, 6.0e7),
    lossy_config(acquisition_time_s=25.0, master_seed=31,
                 drift=TimingDriftSpec(enabled=True, channel="idler",
                                       offset_ps=40.0, walk_step_ps=5.0,
                                       walk_interval_ps=1.0e9)),
    # clicks pushed below t = 0 are dropped
    lossy_config(acquisition_time_s=25.0, master_seed=7,
                 drift=TimingDriftSpec(enabled=True, channel="signal",
                                       offset_ps=-3.0e11)),
    # clicks of the second-to-last slice pushed past the span are dropped
    lossy_config(acquisition_time_s=20.1, master_seed=12,
                 drift=TimingDriftSpec(enabled=True, channel="signal",
                                       offset_ps=2.0e11)),
], ids=["darks-dead-time", "idler-walk", "signal-early", "signal-late"])
def test_buckets_match_whole_run_reference(cfg):
    diag = SimDiagnostics()
    buckets = list(iter_click_buckets(cfg, diag))
    span = cfg.span_ps()
    assert len(buckets) == -(-span // SLICE_PS)
    for b, (hi, ts, ds, ti, di) in enumerate(buckets):
        assert hi == (span + 1 if b == len(buckets) - 1
                      else (b + 1) * SLICE_PS)
        for t, d in ((ts, ds), (ti, di)):
            assert t.dtype == np.int64 and d.dtype == bool
            assert t.size == 0 or (t[0] >= b * SLICE_PS and t[-1] < hi)
    want, want_diag = _whole_run_reference(cfg)
    for col, ch in ((1, "signal"), (3, "idler")):
        t = np.concatenate([b[col] for b in buckets])
        d = np.concatenate([b[col + 1] for b in buckets])
        assert np.array_equal(t, want[ch][0])
        assert np.array_equal(d, want[ch][1])
    assert diag == want_diag
    if cfg.drift.enabled and cfg.drift.channel == "signal":
        assert diag.clicks_dropped_out_of_span > 0


def test_dead_time_across_bucket_edges():
    dead = {"signal": 150_000_000, "idler": 60_000_000}
    base = lossy_config(acquisition_time_s=25.0, master_seed=9)
    cfg = replace(
        base,
        detector_signal=replace(base.detector_signal,
                                dead_time_ps=float(dead["signal"])),
        detector_idler=replace(base.detector_idler,
                               dead_time_ps=float(dead["idler"])))
    free_diag, dead_diag = SimDiagnostics(), SimDiagnostics()
    free = list(iter_click_buckets(base, free_diag))
    held = list(iter_click_buckets(cfg, dead_diag))
    assert len(held) == 3
    edges = [b[0] for b in held[:-1]]
    carried = 0
    for ch, col in (("signal", 1), ("idler", 3)):
        t_free = np.concatenate([b[col] for b in free])
        d_free = np.concatenate([b[col + 1] for b in free])
        t = np.concatenate([b[col] for b in held])
        d = np.concatenate([b[col + 1] for b in held])
        # a subset of the zero-dead-time stream, labels included
        idx = np.searchsorted(t_free, t)
        assert np.array_equal(t_free[idx], t)
        assert np.array_equal(d_free[idx], d)
        assert t.size < t_free.size
        # kept clicks spaced by at least the dead time, across edges too
        assert np.all(np.diff(t) >= dead[ch])
        # every dropped click lies in the dead window of the last kept one
        dropped = np.setdiff1d(t_free, t)
        pos = np.searchsorted(t, dropped)
        assert np.all(pos > 0)
        assert np.all(dropped - t[pos - 1] < dead[ch])
        # counters match the kept labels
        photons = getattr(dead_diag, f"photon_clicks_{ch}")
        darks = getattr(dead_diag, f"dark_clicks_{ch}")
        assert (photons, darks) == (int((~d).sum()), int(d.sum()))
        assert photons <= getattr(free_diag, f"photon_clicks_{ch}")
        assert darks <= getattr(free_diag, f"dark_clicks_{ch}")
        # clicks dropped because of a kept click in the previous bucket
        for edge in edges:
            last_kept = t[t < edge][-1]
            carried += int(((dropped >= edge)
                            & (dropped < last_kept + dead[ch])).sum())
    assert carried > 0
    assert dead_diag.pairs_generated == free_diag.pairs_generated


def test_drift_offset_displaces_one_channel_exactly():
    base = lossless_config(
        source=SourceSpec(photon_fwhm_ps=0.5, mean_pairs_per_window=1e-5),
        acquisition_time_s=0.1, master_seed=123)
    shifted = replace(base, drift=TimingDriftSpec(enabled=True,
                                                  channel="idler",
                                                  offset_ps=500.0))
    a_sig, a_idl, _ = run_simulation(base)
    b_sig, b_idl, _ = run_simulation(shifted)
    assert np.array_equal(a_sig.times_ps, b_sig.times_ps)
    assert np.array_equal(b_idl.times_ps, a_idl.times_ps + 500)


def test_drift_walk_is_deterministic_and_one_sided():
    drift = TimingDriftSpec(enabled=True, channel="idler", offset_ps=0.0,
                            walk_step_ps=5.0, walk_interval_ps=1.0e6)
    cfg = lossy_config(drift=drift, master_seed=31)
    a_sig, a_idl, _ = run_simulation(cfg)
    b_sig, b_idl, _ = run_simulation(cfg)
    assert np.array_equal(a_idl.times_ps, b_idl.times_ps)
    no_drift_sig, _, _ = run_simulation(lossy_config(master_seed=31))
    assert np.array_equal(a_sig.times_ps, no_drift_sig.times_ps)
    a_idl.assert_valid()


def test_integer_analyzer_delay_matches_float():
    # the branch codes are uint8: an int delay must not keep them uint8
    def run(delay):
        cfg = lossy_config(
            acquisition_time_s=0.05,
            analyzer_signal=AnalyzerSpec(insertion_loss_db=5.0,
                                         phase_rad=0.4, delay_ps=delay),
            analyzer_idler=AnalyzerSpec(insertion_loss_db=5.0,
                                        phase_rad=0.0, delay_ps=delay))
        return run_simulation(cfg)

    (a_sig, a_idl, _), (b_sig, b_idl, _) = run(1000), run(1000.0)
    assert np.array_equal(a_sig.times_ps, b_sig.times_ps)
    assert np.array_equal(a_idl.times_ps, b_idl.times_ps)
    assert a_idl.times_ps.size > 0


# ---------------------------------------------------------------------------
# reference per-pair pipeline
# ---------------------------------------------------------------------------

def test_reference_pipeline_offsets_and_order():
    cfg = lossless_config()
    rng = np.random.default_rng(61)
    table = reference_pair_table(cfg, 1e10, rng)
    assert len(table) > 1200  # ~1667 expected
    sigma_pair = math.sqrt(2.0) * 0.5 / SIGMA_G
    times = [p.emission_time_ps for p in table]
    assert all(b >= a for a, b in zip(times, times[1:]))
    n_joint = 0
    for p in table:
        assert p.signal_survived and p.idler_survived
        if p.outcome is None:
            assert p.signal_arrival_ps is None and p.idler_arrival_ps is None
            continue
        n_joint += 1
        delta = p.idler_arrival_ps - p.signal_arrival_ps
        want = 100.0 * p.outcome.arrival_offset_units
        assert abs(delta - want) < 6.0 * sigma_pair
    frac = n_joint / len(table)
    assert abs(frac - 0.375) < 4.0 * math.sqrt(0.375 * 0.625 / len(table))


def test_reference_pipeline_survival_fractions():
    cfg = lossless_config(
        detector_signal=DetectorSpec(quantum_efficiency=0.3,
                                     dark_rate_hz=0.0, jitter_fwhm_ps=0.0),
        detector_idler=DetectorSpec(quantum_efficiency=0.5,
                                    dark_rate_hz=0.0, jitter_fwhm_ps=0.0))
    table = reference_pair_table(cfg, 1e10, np.random.default_rng(62))
    n = len(table)
    s_frac = sum(p.signal_survived for p in table) / n
    i_frac = sum(p.idler_survived for p in table) / n
    assert abs(s_frac - 0.3) < 4.0 * math.sqrt(0.3 * 0.7 / n)
    assert abs(i_frac - 0.5) < 4.0 * math.sqrt(0.5 * 0.5 / n)


# ---------------------------------------------------------------------------
# config validation / guards
# ---------------------------------------------------------------------------

def test_config_rejects_unequal_analyzer_delays():
    with pytest.raises(ValidationError):
        lossless_config(analyzer_idler=AnalyzerSpec(delay_ps=90.0,
                                                    insertion_loss_db=0.0))


def test_config_rejects_delay_not_exceeding_photon_width():
    with pytest.raises(ValidationError):
        lossless_config(
            source=SourceSpec(photon_fwhm_ps=4.0, mean_pairs_per_window=1e-4),
            analyzer_signal=AnalyzerSpec(delay_ps=3.0, insertion_loss_db=0.0),
            analyzer_idler=AnalyzerSpec(delay_ps=3.0, insertion_loss_db=0.0))


def test_config_rejects_jitter_wider_than_delay():
    with pytest.raises(ValidationError):
        lossy_config(detector_idler=DetectorSpec(quantum_efficiency=0.05,
                                                 jitter_fwhm_ps=120.0))


def test_config_rejects_short_pump_coherence():
    with pytest.raises(ValidationError):
        lossy_config(
            source=SourceSpec(pump_coherence_fwhm_ps=4.0e6,
                              mean_pairs_per_window=1e-3),
            analyzer_signal=AnalyzerSpec(delay_ps=1.0e5),
            analyzer_idler=AnalyzerSpec(delay_ps=1.0e5))


def test_config_rejects_bad_scalars():
    with pytest.raises(ValidationError):
        lossy_config(acquisition_time_s=0.0)
    with pytest.raises(ValidationError):
        lossy_config(master_seed="abc")
    with pytest.raises(ValidationError):
        lossy_config(master_seed=-1)


def test_engine_budget_guard():
    cfg = lossless_config(
        source=SourceSpec(photon_fwhm_ps=0.5, mean_pairs_per_window=0.05),
        acquisition_time_s=10.0)
    with pytest.raises(ValidationError):
        run_simulation(cfg)


def test_drift_spec_validation():
    with pytest.raises(ValidationError):
        TimingDriftSpec(channel="both")
    with pytest.raises(ValidationError):
        TimingDriftSpec(walk_step_ps=-1.0)
    with pytest.raises(ValidationError):
        TimingDriftSpec(walk_interval_ps=100.0)


# ---------------------------------------------------------------------------
# export / seeds
# ---------------------------------------------------------------------------

def test_click_stream_round_trip(tmp_path):
    cfg = lossy_config(acquisition_time_s=0.05)
    sig, idl, _ = run_simulation(cfg)
    path = tmp_path / "signal.clicks"
    write_click_stream(sig, path, seed=cfg.master_seed, config_hash="cafe01")
    back, meta = read_click_stream(path)
    assert np.array_equal(back.times_ps, sig.times_ps)
    assert back.channel == "signal"
    assert back.span_ps == sig.span_ps
    assert back.true_count == sig.true_count
    assert back.dark_count == sig.dark_count
    assert meta["seed"] == str(cfg.master_seed)
    assert meta["config_hash"] == "cafe01"


@pytest.mark.parametrize("rows", [0, 1, 2 * _WRITE_CHUNK_ROWS + 1])
def test_click_file_body_matches_savetxt(tmp_path, rows):
    times = np.cumsum(np.random.default_rng(rows).integers(
        1, 10**7, rows)).astype(np.int64)
    span = int(times[-1]) if rows else 0
    stream = ClickStream(channel="idler", times_ps=times, span_ps=span,
                         true_count=rows)
    path = tmp_path / "idler.clicks"
    write_click_stream(stream, path, seed=3)
    lines = path.read_bytes().split(b"\n", 7)
    assert all(line.startswith(b"#") for line in lines[:7])
    body = io.BytesIO()
    np.savetxt(body, times, fmt="%d")
    assert lines[7] == body.getvalue()


def test_click_stream_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.txt"
    p.write_text("1 2 3\n")
    with pytest.raises(ValidationError):
        read_click_stream(p)


def test_derived_seeds_are_stable_and_distinct():
    seeds = [derive_seed(99, k) for k in range(200)]
    assert seeds == [derive_seed(99, k) for k in range(200)]
    assert len(set(seeds)) == 200
    assert all(0 <= s < 2**64 for s in seeds)
