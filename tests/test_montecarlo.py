"""Monte Carlo engine tests.

Statistical assertions use 4-5 sigma bounds with frozen seeds so they
are deterministic; exact assertions (determinism, stream
independence, the click filter) are bitwise.  The click filter is one
pass, the detector's dead time with the digitizer's 1 ps as its floor
(same-picosecond clicks merge, the photon kept over a dark); its
references are the lexsort merge followed by the per-click dead-time
loop, on a carry strictly below the first click, as it is between
buckets.
"""

import io
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fransonsim import montecarlo, tia
from fransonsim.budget import LinkModel
from fransonsim.errors import ValidationError
from fransonsim.physics import (AnalyzerSpec, ChannelSpec, DetectorSpec,
                                SourceSpec, dispersion_broaden,
                                sigma_from_fwhm)
from fransonsim.montecarlo import (ClickStream, SimDiagnostics,
                                   SimulationConfig, TimingDriftSpec,
                                   derive_seed, iter_click_buckets,
                                   read_click_stream, run_simulation,
                                   write_click_stream)
from fransonsim.montecarlo import (SLICE_PS, _WRITE_CHUNK_ROWS, _DriftWalk,
                                   _filter_clicks, _gen_slice)


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


def packed_keys(times, is_dark):
    """Sorted engine click keys (t << 1) | is_dark."""
    key = (np.asarray(times, dtype=np.int64) << 1) | np.asarray(is_dark)
    key.sort()
    return key


# ---------------------------------------------------------------------------
# emissions, thinning, detector
# ---------------------------------------------------------------------------

def test_emission_count_matches_rate():
    # the drawn and the counted classes together make Poisson(rate * T)
    # pairs
    cfg = lossy_config(acquisition_time_s=0.05, master_seed=7)
    _, _, diag = run_simulation(cfg)
    mean = LinkModel.from_config(cfg).pair_rate_hz * cfg.acquisition_time_s
    assert abs(diag.pairs_generated - mean) < 4.0 * math.sqrt(mean)


@settings(max_examples=25, deadline=None)
@given(mu=st.floats(1e-6, 1e-3), span_s=st.floats(1e-4, 0.02),
       seed=st.integers(0, 2**32 - 1))
def test_emissions_sorted_and_in_span(mu, span_s, seed):
    cfg = lossy_config(source=SourceSpec(mean_pairs_per_window=mu),
                       acquisition_time_s=span_s, master_seed=seed)
    sig, idl, _ = run_simulation(cfg)
    for t in (sig.times_ps, idl.times_ps):
        assert t.dtype == np.int64 and np.all(np.diff(t) > 0)
        if t.size:
            assert t[0] >= 0 and t[-1] <= cfg.span_ps()


def test_sequential_thinning_composes():
    # the engine sees arm loss and detector efficiency only through
    # their product: 10 dB at 50 % efficiency is 5 % efficiency
    base = lossless_config(acquisition_time_s=0.05)
    lossy = replace(
        base,
        analyzer_idler=replace(base.analyzer_idler, insertion_loss_db=10.0),
        detector_idler=replace(base.detector_idler, quantum_efficiency=0.5))
    folded = replace(
        base,
        analyzer_idler=replace(base.analyzer_idler, insertion_loss_db=0.0),
        detector_idler=replace(base.detector_idler, quantum_efficiency=0.05))
    assert LinkModel.from_config(lossy).idler.q == \
        LinkModel.from_config(folded).idler.q
    a_sig, a_idl, _ = run_simulation(lossy)
    b_sig, b_idl, _ = run_simulation(folded)
    assert np.array_equal(a_sig.times_ps, b_sig.times_ps)
    assert np.array_equal(a_idl.times_ps, b_idl.times_ps)
    assert a_idl.times_ps.size > 0


def test_joint_outcome_zero_contrast_is_phase_flat():
    # without contrast the analyzer phase cannot move a single click
    streams = []
    for theta in (0.0, 1.3, math.pi):
        cfg = lossless_config(
            acquisition_time_s=0.02,
            analyzer_signal=AnalyzerSpec(insertion_loss_db=0.0,
                                         phase_rad=theta, contrast=0.0),
            analyzer_idler=AnalyzerSpec(insertion_loss_db=0.0,
                                        phase_rad=0.0, contrast=0.0))
        sig, idl, _ = run_simulation(cfg)
        streams.append((sig.times_ps, idl.times_ps))
    for sig, idl in streams[1:]:
        assert np.array_equal(sig, streams[0][0])
        assert np.array_equal(idl, streams[0][1])


def test_detect_dark_rate():
    dark = DetectorSpec(quantum_efficiency=0.02, dark_rate_hz=1000.0,
                        jitter_fwhm_ps=30.0)
    _, _, diag = run_simulation(lossy_config(detector_signal=dark,
                                             detector_idler=dark))
    for n in (diag.dark_clicks_signal, diag.dark_clicks_idler):
        assert abs(n - 1000) < 4.0 * math.sqrt(1000)


def test_detect_dead_time_exact():
    times = np.array([0, 50, 120, 130, 200], dtype=np.int64)
    kept, _, last = _filter_clicks(packed_keys(times, np.zeros(5, bool)),
                                   100, -2 ** 62)
    assert kept.tolist() == [0, 120] and last == 120


def test_detect_merges_same_picosecond():
    t, d, _ = _filter_clicks(packed_keys([300, 100, 100], [False] * 3), 0,
                             -1)
    assert t.tolist() == [100, 300]
    assert int((~d).sum()) == 2


def test_dedupe_prefers_photon_label():
    t, d, _ = _filter_clicks(packed_keys([5, 5], [True, False]), 0, -1)
    assert t.tolist() == [5] and d.tolist() == [False]


@pytest.mark.parametrize("dead_ps", [0, 5])
@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_dedupe_squeezes_in_place_across_chunks(chunk, dead_ps, monkeypatch):
    monkeypatch.setattr(montecarlo, "_DRAW_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    t = rng.integers(0, 60, 200)      # most picoseconds shared
    d = rng.random(t.size) < 0.5
    key = packed_keys(t, d)
    got_t, got_d, last = _filter_clicks(key, dead_ps, -1)
    want_t, want_d, want_last = _dead_time_loop(*_lexsort_merge(t, d),
                                                dead_ps, -1)
    assert np.array_equal(got_t, want_t) and np.array_equal(got_d, want_d)
    assert last == want_last
    assert np.shares_memory(got_t, key)


def test_dispersive_spread_zero_length_is_identity():
    # no fiber, no dispersion draw: beta2 cannot change a click
    def run(beta2):
        ch = ChannelSpec(fiber_length_km=0.0, beta2_ps2_per_km=beta2)
        return run_simulation(lossy_config(acquisition_time_s=0.1,
                                           channel_signal=ch,
                                           channel_idler=ch))

    (a_sig, a_idl, _), (b_sig, b_idl, _) = run(0.7), run(5.0)
    assert np.array_equal(a_sig.times_ps, b_sig.times_ps)
    assert np.array_equal(a_idl.times_ps, b_idl.times_ps)


def test_dead_time_carry_across_calls():
    t1 = np.array([0, 200], dtype=np.int64)
    d1 = np.zeros(2, dtype=bool)
    _, _, last = _filter_clicks(packed_keys(t1, d1), 100, -2**62)
    t2 = np.array([250, 400], dtype=np.int64)
    kept, _, _ = _filter_clicks(packed_keys(t2, np.zeros(2, bool)), 100,
                                last)
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
    got_t, got_d, last = _filter_clicks(packed_keys(t, d), 0, base - 1)
    want_t, want_d = _lexsort_merge(t, d)
    assert got_t.dtype == np.int64 and got_d.dtype == bool
    assert np.array_equal(got_t, want_t)
    assert np.array_equal(got_d, want_d)
    assert last == (int(want_t[-1]) if want_t.size else base - 1)


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.one_of(st.integers(1, 30), st.integers(1, 3000)),
                     max_size=150),
       collide=st.lists(st.integers(0, 149), max_size=30),
       carry_back=st.integers(1, 2000), dead_ps=st.integers(0, 500),
       split=st.integers(0, 150), chunk=st.sampled_from([1, 3, 64, 1 << 16]),
       seed=st.integers(0, 2**32 - 1))
@example(gaps=[], collide=[], carry_back=1, dead_ps=100, split=0, chunk=1,
         seed=0)
@example(gaps=[5, 7, 9], collide=[0, 1], carry_back=3, dead_ps=0, split=1,
         chunk=1, seed=0)
@example(gaps=[50, 50, 150], collide=[], carry_back=1, dead_ps=100,
         split=0, chunk=1 << 16, seed=0)
@example(gaps=[1] * 100 + [500] + [3] * 50, collide=[59, 60, 61],
         carry_back=10, dead_ps=40, split=60, chunk=3, seed=0)
def test_click_filter_matches_merge_then_per_click_loop(
        gaps, collide, carry_back, dead_ps, split, chunk, seed):
    # the carry is the last kept click of an earlier bucket, so it lies
    # strictly below the first click
    times = 10**12 + np.cumsum(np.asarray(gaps, dtype=np.int64))
    is_dark = np.random.default_rng(seed).random(times.size) < 0.3
    carry = int(times[0]) - carry_back if times.size else -2**62
    # force equal-picosecond photon/dark pairs
    twins = [i for i in collide if i < times.size]
    times = np.concatenate([times, times[twins]])
    is_dark = np.concatenate([is_dark, ~is_dark[twins]])
    want_t, want_d, want_last = _dead_time_loop(
        *_lexsort_merge(times, is_dark), dead_ps, carry)
    key = packed_keys(times, is_dark)
    with mock.patch.object(montecarlo, "_DRAW_CHUNK", chunk):
        got_t, got_d, got_last = _filter_clicks(key.copy(), dead_ps, carry)
    assert np.array_equal(got_t, want_t)
    assert np.array_equal(got_d, want_d)
    assert got_last == want_last
    # carry chained over two calls equals one call on the whole stream;
    # like a bucket edge, the split falls between picoseconds
    k = int(np.searchsorted(key, key[split] >> 1 << 1)) \
        if split < key.size else key.size
    t1, d1, last = _filter_clicks(key[:k].copy(), dead_ps, carry)
    t2, d2, last = _filter_clicks(key[k:].copy(), dead_ps, last)
    assert np.array_equal(np.concatenate([t1, t2]), want_t)
    assert np.array_equal(np.concatenate([d1, d2]), want_d)
    assert last == want_last


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
    expected = LinkModel.from_config(cfg).pair_rate_hz * 0.2 / 2.0
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


def _dispersive(cfg, km):
    return replace(cfg, channel_signal=replace(cfg.channel_signal,
                                               fiber_length_km=km),
                   channel_idler=replace(cfg.channel_idler,
                                         fiber_length_km=km))


@pytest.mark.parametrize("cfg", [
    # intrinsic + dispersion spreads, darks, dead time, idler walk
    _with_dead_time(
        _dispersive(lossy_config(
            acquisition_time_s=21.0, master_seed=17,
            source=SourceSpec(mean_pairs_per_window=5e-4),
            drift=TimingDriftSpec(enabled=True, channel="idler",
                                  offset_ps=40.0, walk_step_ps=5.0,
                                  walk_interval_ps=1.0e9)), 5.0),
        5.0e4, 5.0e4),
    # intrinsic spread alone, no jitter, no darks; signal walk
    lossless_config(source=SourceSpec(photon_fwhm_ps=0.5,
                                      mean_pairs_per_window=2e-7),
                    acquisition_time_s=10.5, master_seed=3,
                    drift=TimingDriftSpec(enabled=True, channel="signal",
                                          offset_ps=-7.0, walk_step_ps=2.0)),
], ids=["dispersive-dead-walk", "intrinsic-signal-walk"])
def test_buckets_do_not_depend_on_the_draw_chunk(cfg, monkeypatch):
    want_diag, got_diag = SimDiagnostics(), SimDiagnostics()
    want = list(iter_click_buckets(cfg, want_diag))
    monkeypatch.setattr(montecarlo, "_DRAW_CHUNK", 7)
    got = list(iter_click_buckets(cfg, got_diag))
    assert len(got) == len(want) == math.ceil(cfg.acquisition_time_s / 10)
    assert sum(b[1].size + b[3].size for b in want) > 1000
    for g, w in zip(got, want):
        assert g[0] == w[0]
        for a, b in zip(g[1:], w[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got_diag == want_diag


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


def test_dead_time_below_a_picosecond_is_the_digitizer_floor():
    # keeping the first click of each picosecond is a 1 ps dead time;
    # darks at 2e8 Hz make same-picosecond twins certain
    dark = replace(lossy_config().detector_signal, dark_rate_hz=2.0e8)
    base = lossy_config(acquisition_time_s=0.005, detector_signal=dark,
                        detector_idler=dark)
    runs = []
    for dead_ps in (0.0, 0.4, 1.0):
        diag = SimDiagnostics()
        buckets = list(iter_click_buckets(
            _with_dead_time(base, dead_ps, dead_ps), diag))
        runs.append((buckets, diag))
    (want, want_diag), rest = runs[0], runs[1:]
    for got, got_diag in rest:
        assert got_diag == want_diag
        for g, w in zip(got, want, strict=True):
            assert g[0] == w[0]
            for a, b in zip(g[1:], w[1:]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    sig, idl = _gen_slice(base, 0, 0, base.span_ps(), _DriftWalk(base),
                          SimDiagnostics())
    drawn = sig.size + idl.size - want_diag.clicks_dropped_out_of_span
    kept = sum(b[1].size + b[3].size for b in want)
    assert kept < drawn     # twins were merged


def test_filter_memory_is_bounded():
    # 50 ns dead time on clicks 500 ns apart on average: ~10 % of them
    # take the sequential rule, one Python step each
    n, dead = 10**6, 50_000
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.exponential(500_000.0, n).astype(np.int64))
    key = packed_keys(times, rng.random(n) < 0.1)
    tracemalloc.start()
    try:
        t, _, _ = _filter_clicks(key, dead, -dead)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n - t.size > 0.05 * n
    assert peak <= 4 * n + (1 << 20)


@pytest.mark.parametrize("dead_ps", [1.0e19, 1.0e30])
def test_huge_dead_time_keeps_the_first_click(dead_ps):
    # a detector starts ready, however long it then stays dead
    base = lossy_config(acquisition_time_s=0.01)
    held = replace(base, detector_signal=replace(base.detector_signal,
                                                 dead_time_ps=dead_ps))
    free_sig, free_idl, _ = run_simulation(base)
    sig, idl, diag = run_simulation(held)
    assert free_sig.times_ps.size > 1
    assert sig.times_ps.tolist() == free_sig.times_ps[:1].tolist()
    assert diag.photon_clicks_signal + diag.dark_clicks_signal == 1
    assert np.array_equal(idl.times_ps, free_idl.times_ps)


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

def _per_pair_clicks(cfg, rng):
    """Oracle for the engine: the literal link, one pair at a time
    (drawn array-wise, each pair on its own coins and draws).

    Each photon survives its arm on its own coin (probability q).
    A pair where both survive takes the joint law of the two analyzers:
    port signs (+1 monitored, -1 not) and paths (0 short, 1 long), with
    the short-short and long-long amplitudes 1/4 and
    (s_s s_i / 4) e^{i theta} interfering and each mixed path at 1/16
    (the (+1, +1) row is franson_bin_probabilities).  A lone photon
    takes the phase-free marginal: uniform port and path.  Only the
    monitored port clicks.  Every photon gets its own intrinsic,
    dispersion and detector-jitter Gaussian, and the drifted channel's
    photons a constant offset (no walk, no darks, no dead time); clicks
    outside [0, span] are dropped.  Returns (signal times, idler times,
    pairs where both photons survived)."""
    tau = cfg.analyzer_signal.delay_ps
    link = LinkModel.from_config(cfg)
    q_s, q_i, x = link.signal.q, link.idler.q, link.x
    joint, probs = [], []
    for s_port in (1, -1):
        for i_port in (1, -1):
            central = (1.0 + s_port * i_port * x) / 8.0
            joint += [(s_port, i_port, 0, 0), (s_port, i_port, 1, 1),
                      (s_port, i_port, 1, 0), (s_port, i_port, 0, 1)]
            probs += [central / 2.0, central / 2.0, 1 / 16, 1 / 16]
    cum = np.cumsum(probs)
    n = rng.poisson(link.pair_rate_hz * cfg.acquisition_time_s)
    t0 = rng.random(n) * cfg.span_ps()
    s_ok, i_ok = rng.random(n) < q_s, rng.random(n) < q_i
    both = s_ok & i_ok
    k = np.minimum(np.searchsorted(cum, rng.random(n), side="right"),
                   len(joint) - 1)
    lone = np.stack([np.where(rng.random(n) < 0.5, 1, -1),
                     np.where(rng.random(n) < 0.5, 1, -1),
                     (rng.random(n) < 0.5).astype(int),
                     (rng.random(n) < 0.5).astype(int)], axis=1)
    s_port, i_port, s_path, i_path = np.where(
        both[:, None], np.array(joint)[k], lone).T
    sigma_int = sigma_from_fwhm(cfg.source.photon_fwhm_ps)
    drift = cfg.drift

    def clicks(ok, port, path, channel, detector, name):
        sigma_disp = sigma_from_fwhm(dispersion_broaden(
            cfg.source.photon_fwhm_ps, channel.beta2_ps2_per_km,
            channel.fiber_length_km))
        t = t0 + path * tau
        for sigma in (sigma_int, math.sqrt(sigma_disp ** 2 - sigma_int ** 2),
                      sigma_from_fwhm(detector.jitter_fwhm_ps)):
            t = t + rng.normal(0.0, sigma, n)
        if drift.enabled and drift.channel == name:
            t = t + drift.offset_ps
        t = np.rint(t[ok & (port == 1)]).astype(np.int64)
        return np.sort(t[(t >= 0) & (t <= cfg.span_ps())])

    return (clicks(s_ok, s_port, s_path, cfg.channel_signal,
                   cfg.detector_signal, "signal"),
            clicks(i_ok, i_port, i_path, cfg.channel_idler,
                   cfg.detector_idler, "idler"),
            int(both.sum()))


def _engine_and_oracle(theta, k):
    """One engine run and one oracle run of the same lossy link.

    q_s = 0.3, q_i = 0.5: every class the engine draws (signal clicks,
    idler partners, partner-less idler clicks) and every pair class
    it only counts are populated."""
    cfg = lossless_config(
        source=SourceSpec(photon_fwhm_ps=0.5, mean_pairs_per_window=2e-4),
        analyzer_signal=AnalyzerSpec(insertion_loss_db=0.0, phase_rad=theta),
        detector_signal=DetectorSpec(quantum_efficiency=0.3,
                                     dark_rate_hz=0.0, jitter_fwhm_ps=0.0),
        detector_idler=DetectorSpec(quantum_efficiency=0.5,
                                    dark_rate_hz=0.0, jitter_fwhm_ps=0.0),
        acquisition_time_s=0.01, master_seed=100 + k)
    return (cfg, run_simulation(cfg),
            _per_pair_clicks(cfg, np.random.default_rng(200 + k)))


def test_reference_pipeline_offsets_and_order():
    for k, theta in enumerate((0.4, 2.0)):
        _, (sig, idl, diag), (o_sig, o_idl, o_both) = _engine_and_oracle(
            theta, k)
        for times in (sig.times_ps, idl.times_ps, o_sig, o_idl):
            assert np.all(np.diff(times) >= 0)
        n_both = diag.pairs_both_detectable
        # the central peak and the two side peaks at -tau and +tau
        for center in (0, -100, 100):
            fa = window_counts(sig.times_ps, idl.times_ps, center, 10) / n_both
            fb = window_counts(o_sig, o_idl, center, 10) / o_both
            se = math.sqrt(fa * (1 - fa) / n_both + fb * (1 - fb) / o_both)
            assert abs(fa - fb) <= 5.0 * se, (theta, center, fa, fb)


def test_reference_pipeline_survival_fractions():
    for k, theta in enumerate((0.4, 2.0)):
        cfg, (sig, idl, diag), (o_sig, o_idl, o_both) = _engine_and_oracle(
            theta, k)
        n_both = diag.pairs_both_detectable
        for a, b in ((sig.true_count, o_sig.size),
                     (idl.true_count, o_idl.size), (n_both, o_both)):
            assert abs(a - b) <= 5.0 * math.sqrt(a + b), (theta, a, b)
        # each arm survives on its own coin, then half reach the monitor
        n = diag.pairs_generated
        link = LinkModel.from_config(cfg)
        q_s, q_i = link.signal.q, link.idler.q
        for count, p in ((sig.true_count, q_s / 2), (idl.true_count, q_i / 2),
                         (n_both, q_s * q_i)):
            assert abs(count / n - p) <= 5.0 * math.sqrt(p * (1 - p) / n), (
                theta, count, p)


def _spread_link(theta, k):
    """A lossy link with every timing spread the engine draws: an
    intrinsic photon width, dispersion on both arms, detector jitter
    on both, and a constant idler drift offset."""
    return lossless_config(
        source=SourceSpec(photon_fwhm_ps=4.0, mean_pairs_per_window=2e-4),
        channel_signal=ChannelSpec(fiber_length_km=0.5,
                                   beta2_ps2_per_km=-20.0),
        channel_idler=ChannelSpec(fiber_length_km=0.25,
                                  beta2_ps2_per_km=-20.0),
        analyzer_signal=AnalyzerSpec(insertion_loss_db=0.0, phase_rad=theta),
        detector_signal=DetectorSpec(quantum_efficiency=0.3,
                                     dark_rate_hz=0.0, jitter_fwhm_ps=6.0),
        detector_idler=DetectorSpec(quantum_efficiency=0.5,
                                    dark_rate_hz=0.0, jitter_fwhm_ps=9.0),
        drift=TimingDriftSpec(enabled=True, channel="idler", offset_ps=7.0),
        acquisition_time_s=0.01, master_seed=300 + k)


@pytest.mark.parametrize("theta", [0.15, 2.0])     # x = 0.99 and -0.42
def test_engine_matches_per_pair_oracle_over_seeds(theta):
    # singles, the central and side-peak counts and the central-peak
    # width, summed over ten seeds of each side, agree within 5 sigma
    tau, offset, half = 100.0, 7.0, 40.0
    totals = {"engine": {}, "oracle": {}}
    deltas = {"engine": [], "oracle": []}
    for k in range(10):
        cfg = _spread_link(theta, k)
        sig, idl, _ = run_simulation(cfg)
        o_sig, o_idl, _ = _per_pair_clicks(cfg, np.random.default_rng(400 + k))
        for side, s, i in (("engine", sig.times_ps, idl.times_ps),
                           ("oracle", o_sig, o_idl)):
            counts = {"signal singles": s.size, "idler singles": i.size}
            for name, center in (("central", 0.0), ("early", -tau),
                                 ("late", tau)):
                counts[name] = window_counts(s, i, center + offset, half)
            for name, n in counts.items():
                totals[side][name] = totals[side].get(name, 0) + n
            # the first idler in each central window: a second one is
            # an accidental (~1e-4 per window at these rates)
            j = np.searchsorted(i, s + (offset - half))
            d = i[j[j < i.size]] - s[j < i.size]
            deltas[side].append(d[d <= offset + half])
    for name, a in totals["engine"].items():
        b = totals["oracle"][name]
        assert a > 1000 and abs(a - b) <= 5.0 * math.sqrt(a + b), (
            theta, name, a, b)
    d_e, d_o = (np.concatenate(deltas[side]) for side in ("engine", "oracle"))
    v_e, v_o = d_e.var(), d_o.var()
    se = math.sqrt(2.0 * v_e ** 2 / d_e.size + 2.0 * v_o ** 2 / d_o.size)
    assert abs(v_e - v_o) <= 5.0 * se, (theta, v_e, v_o)
    assert abs(d_e.mean() - d_o.mean()) <= 5.0 * math.sqrt(
        v_e / d_e.size + v_o / d_o.size), (theta, d_e.mean(), d_o.mean())


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
    with pytest.raises(ValidationError):
        lossy_config(master_seed=True)  # equal to 1, but hashes apart
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="acquisition_time_s"):
            lossy_config(acquisition_time_s=bad)


def test_config_bounds_the_span_packed_keys_can_hold():
    # span + _MAX_SPILL_PS must stay below 2**62 ps so that (t << 1)
    # fits int64; validation only, the engine never runs at either
    limit_s = (2 ** 62 - montecarlo._MAX_SPILL_PS) / 1e12
    lossy_config(acquisition_time_s=limit_s * (1 - 1e-9))
    with pytest.raises(ValidationError, match="acquisition_time_s=.*too long"):
        lossy_config(acquisition_time_s=limit_s * (1 + 1e-9))


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
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="walk_interval_ps"):
            TimingDriftSpec(walk_interval_ps=bad)
        with pytest.raises(ValidationError, match="walk_step_ps"):
            TimingDriftSpec(walk_step_ps=bad)


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


INT64_MAX = np.iinfo(np.int64).max
# every digit-count edge: 0, 9, 10, 99, 100, ..., 10**18 - 1, 10**18
DIGIT_EDGES = sorted({0} | {10**k - 1 for k in range(1, 19)}
                     | {10**k for k in range(1, 19)} | {INT64_MAX})
HEADER_LINES = 7


def reference_body(times) -> bytes:
    return "".join(f"{v}\n" for v in np.asarray(times).tolist()).encode()


def write_body(path, times) -> bytes:
    """Write times as a click file; return the bytes after its header."""
    times = np.asarray(times, dtype=np.int64)
    stream = ClickStream(channel="signal", times_ps=times,
                         span_ps=int(times[-1]) if times.size else 0)
    write_click_stream(stream, path)
    return path.read_bytes().split(b"\n", HEADER_LINES)[HEADER_LINES]


def test_click_file_round_trips_every_digit_width(tmp_path):
    path = tmp_path / "edges.clicks"
    assert write_body(path, DIGIT_EDGES) == reference_body(DIGIT_EDGES)
    assert read_click_stream(path)[0].times_ps.tolist() == DIGIT_EDGES


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.integers(0, INT64_MAX), max_size=60),
       chunk=st.sampled_from([1, 3, _WRITE_CHUNK_ROWS]),
       block=st.sampled_from([1, 7, 64, montecarlo._READ_BLOCK_BYTES]))
def test_click_file_round_trip_property(tmp_path_factory, values, chunk,
                                        block):
    times = np.array(sorted(set(values)), dtype=np.int64)
    path = tmp_path_factory.mktemp("clicks") / "c.clicks"
    with mock.patch.object(montecarlo, "_WRITE_CHUNK_ROWS", chunk), \
            mock.patch.object(montecarlo, "_READ_BLOCK_BYTES", block):
        assert write_body(path, times) == reference_body(times)
        back = read_click_stream(path)[0].times_ps
    assert back.dtype == np.int64 and np.array_equal(back, times)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_reader_blocks_split_lines_anywhere(tmp_path, monkeypatch, block):
    sig, _, _ = run_simulation(lossy_config(acquisition_time_s=0.05))
    path = tmp_path / "signal.clicks"
    write_click_stream(sig, path)
    edges = tmp_path / "edges.clicks"
    write_body(edges, DIGIT_EDGES)
    monkeypatch.setattr(montecarlo, "_READ_BLOCK_BYTES", block)
    assert np.array_equal(read_click_stream(path)[0].times_ps, sig.times_ps)
    assert read_click_stream(edges)[0].times_ps.tolist() == DIGIT_EDGES
    # a bad line is named by its line in the file, across block edges
    lines = path.read_bytes().split(b"\n")
    lines[HEADER_LINES + 40] = b"12x"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValidationError, match=f"line {HEADER_LINES + 41}:"):
        read_click_stream(path)


HEADER = (b"# fransonsim clicks v1\n# channel: idler\n# span_ps: 100\n"
          b"# seed: \n# config_hash: \n# true_count: 3\n# dark_count: 0\n")


@pytest.mark.parametrize("body,message", [
    (b"1\n2\n3", None),                 # last line without its newline
    (b"0\n2\n3\n", None),
    (b"", None),
    (b"1\nfoo\n3\n", "line 9: 'foo' is not a non-negative decimal"),
    (b"1 2\n3\n", "line 8: '1 2' is not"),
    (b"1\n2\r\n3\n", r"line 9: '2\\r' is not"),
    (b"1\n 2\n3\n", "line 9: ' 2' is not"),
    (b"1\n2\n# note\n3\n", "line 10: '# note' is not"),
    (b"1\n-2\n3\n", "line 9: '-2' is not"),
    (b"1\n\n3\n", "line 9: empty line"),
    (b"\n1\n", "line 8: empty line"),
    (b"1\n2\n\n", "line 10: empty line"),
    (b"1\n02\n3\n", "line 9: '02' has a leading zero"),
    (b"1\n\xc2\xb5\n", r"line 9: '\\xc2\\xb5' is not"),
    (b"1\n9223372036854775808\n", "line 9: 9223372036854775808 is beyond"),
    (b"1\n" + b"7" * 40, "line 9: 7777777777.* is beyond int64"),
    pytest.param(b"1\n" + b"7" * 5000 + b"\n", "line 9: 7{20,40} is beyond int64",
                 id="5000-digit-line"),
    (b"3\n2\n", "idler.clicks: click timestamps must be strictly"),
    (b"1\n101\n", r"idler.clicks: clicks outside \[0, span\]"),
])
def test_reader_names_the_bad_line(tmp_path, monkeypatch, body, message):
    path = tmp_path / "idler.clicks"
    path.write_bytes(HEADER + body)
    for block in (3, montecarlo._READ_BLOCK_BYTES):
        monkeypatch.setattr(montecarlo, "_READ_BLOCK_BYTES", block)
        if message is None:
            want = [int(v) for v in body.split()]
            assert read_click_stream(path)[0].times_ps.tolist() == want
        else:
            with pytest.raises(ValidationError, match=message):
                read_click_stream(path)


@pytest.mark.parametrize("header,message", [
    (b"# channel: idler\n", "no '# span_ps:' header line"),
    (b"# span_ps: 1e3\n", "header span_ps: '1e3' is not a non-negative"),
    (b"# span_ps: 9223372036854775808\n",
     "header span_ps: '9223372036854775808' is not a non-negative int64"),
    pytest.param(b"# span_ps: " + b"9" * 5000 + b"\n",
                 "header span_ps: '9{40}' is not", id="5000-digit-span"),
    (b"# span_ps: 10\n# true_count: many\n", "header true_count: 'many'"),
    (b"# span_ps: 10\n# dark_count: -1\n", "header dark_count: '-1'"),
    (b"# span_ps: 10\n# channel: \xe9\n", "line 3: header is not ASCII"),
])
def test_reader_names_a_bad_header(tmp_path, header, message):
    path = tmp_path / "bad.clicks"
    path.write_bytes(b"# fransonsim clicks v1\n" + header + b"1\n")
    with pytest.raises(ValidationError, match="bad.clicks: " + message):
        read_click_stream(path)


def test_click_file_memory_is_bounded(tmp_path):
    """The writer's peak does not grow with the rows; the reader's is
    its result (8 B/row) plus a fixed allowance for its blocks."""
    allowance = 4 << 20
    path = tmp_path / "big.clicks"
    peaks = []
    for rows in (10**5, 10**6):
        times = np.cumsum(np.random.default_rng(rows).integers(
            1, 10**7, rows))
        stream = ClickStream(channel="signal", times_ps=times,
                             span_ps=int(times[-1]))
        tracemalloc.start()
        try:
            write_click_stream(stream, path)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = read_click_stream(path)[0]
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.times_ps, times)
        del back
        assert read_peak <= 8 * rows + allowance, (rows, read_peak)
        peaks.append(write_peak)
    # ten times the rows: at 0.3 B per row, growth would show
    assert max(peaks) <= allowance and peaks[1] <= peaks[0] + (256 << 10), \
        peaks


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_assert_valid_compares_neighbours_across_chunks(chunk, monkeypatch):
    monkeypatch.setattr(tia, "_PAIR_CHUNK", chunk)
    times = np.arange(0, 400, 3, dtype=np.int64)
    ClickStream("signal", times, span_ps=400).assert_valid()
    for k in range(1, times.size):
        for step in (0, -1):            # a repeat, then a step back
            bad = times.copy()
            bad[k] = bad[k - 1] + step
            if bad[k] < 0:
                continue
            with pytest.raises(ValidationError, match="strictly"):
                ClickStream("signal", bad, span_ps=400).assert_valid()


def test_derived_seeds_are_stable_and_distinct():
    seeds = [derive_seed(99, k) for k in range(200)]
    assert seeds == [derive_seed(99, k) for k in range(200)]
    assert len(set(seeds)) == 200
    assert all(0 <= s < 2**64 for s in seeds)
