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

import math
import os
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fransonsim import montecarlo, tia
from fransonsim.budget import LinkModel, predict_rates
from fransonsim.errors import ValidationError
from fransonsim.physics import (AnalyzerSpec, ChannelSpec, DetectorSpec,
                                SourceSpec, dispersion_broaden,
                                sigma_from_fwhm)
from fransonsim.montecarlo import (ClickStream, SimDiagnostics,
                                   SimulationConfig, TimingDriftSpec,
                                   click_writer, derive_seed,
                                   iter_click_buckets, read_click_stream,
                                   run_simulation, write_click_stream)
from fransonsim.montecarlo import (SLICE_PS, _DriftWalk, _filter_clicks,
                                   _gen_slice, slice_ps)
from fransonsim.scenarios import measure_point, preset
from fransonsim.tia import CLICK_LIMIT_PS

from clickfiles import (BLANK_HEADER, GOOD, HEADER_BYTES, REFUSALS,
                        click_file)


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
    sig, idl, _ = run_simulation(lossy_config(detector_signal=dark,
                                              detector_idler=dark))
    for stream in (sig, idl):
        assert abs(stream.dark_count - 1000) < 4.0 * math.sqrt(1000)


def test_detect_dead_time_exact():
    times = np.array([0, 50, 120, 130, 200], dtype=np.int64)
    kept, _, last = _filter_clicks(packed_keys(times, np.zeros(5, bool)),
                                   100, -2 ** 62)
    assert kept.tolist() == [0, 120] and last == 120


def test_detect_merges_same_picosecond():
    t, n_dark, _ = _filter_clicks(packed_keys([300, 100, 100], [False] * 3),
                                  0, -1)
    assert t.tolist() == [100, 300] and n_dark == 0


def test_dedupe_prefers_photon_label():
    # a photon and a dark in one picosecond leave the photon
    t, n_dark, _ = _filter_clicks(packed_keys([5, 5], [True, False]), 0, -1)
    assert t.tolist() == [5] and n_dark == 0


@pytest.mark.parametrize("dead_ps", [0, 5])
@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_dedupe_squeezes_in_place_across_chunks(chunk, dead_ps, monkeypatch):
    monkeypatch.setattr(montecarlo, "_DRAW_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    t = rng.integers(0, 60, 200)      # most picoseconds shared
    d = rng.random(t.size) < 0.5
    key = packed_keys(t, d)
    got_t, got_dark, last = _filter_clicks(key, dead_ps, -1)
    want_t, want_d, want_last = _dead_time_loop(*_lexsort_merge(t, d),
                                                dead_ps, -1)
    assert np.array_equal(got_t, want_t) and got_dark == int(want_d.sum())
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
    got_t, got_dark, last = _filter_clicks(packed_keys(t, d), 0, base - 1)
    want_t, want_d = _lexsort_merge(t, d)
    assert got_t.dtype == np.int64 and type(got_dark) is int
    assert np.array_equal(got_t, want_t)
    assert got_dark == int(want_d.sum())
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
        got_t, got_dark, got_last = _filter_clicks(key.copy(), dead_ps,
                                                   carry)
    assert np.array_equal(got_t, want_t)
    assert got_dark == int(want_d.sum())
    assert got_last == want_last
    # carry chained over two calls equals one call on the whole stream;
    # like a bucket edge, the split falls between picoseconds
    k = int(np.searchsorted(key, key[split] >> 1 << 1)) \
        if split < key.size else key.size
    t1, dark1, last = _filter_clicks(key[:k].copy(), dead_ps, carry)
    t2, dark2, last = _filter_clicks(key[k:].copy(), dead_ps, last)
    assert np.array_equal(np.concatenate([t1, t2]), want_t)
    assert dark1 + dark2 == int(want_d.sum())
    assert last == want_last


@settings(max_examples=300, deadline=None)
@given(times=st.lists(st.integers(0, 400), max_size=200),
       repeats=st.lists(st.integers(0, 199), max_size=60),
       carry_back=st.integers(1, 50), dead_ps=st.sampled_from([0, 1]),
       chunk=st.sampled_from([1, 2, 7, 1 << 16]),
       seed=st.integers(0, 2**32 - 1))
@example(times=[3, 3, 3, 4], repeats=[0, 3], carry_back=1, dead_ps=0,
         chunk=2, seed=0)
def test_dedupe_fast_path_is_the_sequential_rule_at_one_ps(
        times, repeats, carry_back, dead_ps, chunk, seed):
    # at a dead time of at most 1 ps a click is kept iff it differs
    # from its predecessor; the reference is the per-click rule at 1 ps
    # on the sorted keys, photon before dark within a picosecond
    rng = np.random.default_rng(seed)
    t = 10**12 + np.asarray(times, dtype=np.int64)
    d = rng.random(t.size) < 0.4
    # planted duplicates: repeated clicks, and photon/dark ties
    again = [i for i in repeats if i < t.size]
    t = np.concatenate([t, t[again], t[again]])
    d = np.concatenate([d, d[again], ~d[again]])
    key = packed_keys(t, d)
    carry = int(key[0] >> 1) - carry_back if key.size else -2**62
    want_t, want_d, want_last = _dead_time_loop(key >> 1, (key & 1) == 1,
                                                1, carry)
    with mock.patch.object(montecarlo, "_DRAW_CHUNK", chunk):
        got_t, got_dark, got_last = _filter_clicks(key.copy(), dead_ps,
                                                   carry)
    assert np.array_equal(got_t, want_t)
    assert got_dark == int(want_d.sum())
    assert got_last == want_last


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


def test_rates_and_engine_read_the_link_peak_weights(monkeypatch):
    # a link whose side weights are zero: the closed form and the
    # engine both read config.link.weights, so both lose the side peaks
    cfg = lossless_config(master_seed=78, acquisition_time_s=0.1)
    w_c, _, _ = cfg.link.weights
    link = replace(cfg.link, weights=(w_c, 0.0, 0.0))
    monkeypatch.setattr(LinkModel, "of", classmethod(lambda cls, c: link))
    assert predict_rates(cfg).side_leak_in_window_hz == 0.0

    sig, idl, diag = run_simulation(cfg)
    pairs = diag.pairs_both_detectable
    assert window_counts(sig.times_ps, idl.times_ps, 0, 20) \
        > 0.25 * pairs - 5.0 * math.sqrt(0.25 * pairs)
    # accidentals only (~3 expected; ~10^4 at the true side weights)
    for center in (-100, 100):
        assert window_counts(sig.times_ps, idl.times_ps, center, 20) < 30


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
    span, width = cfg.span_ps(), slice_ps(cfg)
    n_slices = max(1, -(-span // width))
    drift, diag = _DriftWalk(cfg), SimDiagnostics()
    slices = [_gen_slice(cfg, cfg.link, k, k * width,
                         min(span, (k + 1) * width), width, drift, diag)
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
    # back-to-back: 1.25 s slices, 50 ns dead time, an idler walk and an
    # idler offset of almost a quarter slice back, so that every bucket
    # merges its own slice with the next one's spill
    replace(_with_dead_time(preset("back-to-back", master_seed=23).config,
                            5.0e4, 5.0e4),
            acquisition_time_s=3.4,
            drift=TimingDriftSpec(enabled=True, channel="idler",
                                  offset_ps=-3.0e11, walk_step_ps=5.0)),
], ids=["darks-dead-time", "idler-walk", "signal-early", "signal-late",
        "narrow-slices-idler-back"])
def test_buckets_match_whole_run_reference(cfg):
    diag = SimDiagnostics()
    buckets = list(iter_click_buckets(cfg, diag))
    span, width = cfg.span_ps(), slice_ps(cfg)
    assert len(buckets) == -(-span // width)
    for b, (hi, ts, ds, ti, di) in enumerate(buckets):
        assert hi == (span + 1 if b == len(buckets) - 1
                      else (b + 1) * width)
        for t, n_dark in ((ts, ds), (ti, di)):
            assert t.dtype == np.int64 and type(n_dark) is int
            assert 0 <= n_dark <= t.size
            assert t.size == 0 or (t[0] >= b * width and t[-1] < hi)
    want, want_diag = _whole_run_reference(cfg)
    for col, ch in ((1, "signal"), (3, "idler")):
        t = np.concatenate([b[col] for b in buckets])
        assert np.array_equal(t, want[ch][0])
        assert sum(b[col + 1] for b in buckets) == int(want[ch][1].sum())
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
        assert g[0] == w[0] and g[2::2] == w[2::2]   # dark counts
        for a, b in zip(g[1::2], w[1::2]):
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
        t = np.concatenate([b[col] for b in held])
        # a subset of the zero-dead-time stream
        idx = np.searchsorted(t_free, t)
        assert np.array_equal(t_free[idx], t)
        assert t.size < t_free.size
        # kept clicks spaced by at least the dead time, across edges too
        assert np.all(np.diff(t) >= dead[ch])
        # every dropped click lies in the dead window of the last kept one
        dropped = np.setdiff1d(t_free, t)
        pos = np.searchsorted(t, dropped)
        assert np.all(pos > 0)
        assert np.all(dropped - t[pos - 1] < dead[ch])
        # the dead time keeps no more photons and no more darks
        n_dark = sum(b[col + 1] for b in held)
        free_dark = sum(b[col + 1] for b in free)
        assert n_dark <= free_dark
        assert t.size - n_dark <= t_free.size - free_dark
        # clicks dropped because of a kept click in the previous bucket
        for edge in edges:
            last_kept = t[t < edge][-1]
            carried += int(((dropped >= edge)
                            & (dropped < last_kept + dead[ch])).sum())
    assert carried > 0
    assert dead_diag.pairs_generated == free_diag.pairs_generated


def test_dead_time_below_a_picosecond_is_the_digitizer_floor():
    # keeping the first click of each picosecond is a 1 ps dead time;
    # darks at 2e8 Hz for 1 ms, ~2e5 per channel, make same-picosecond
    # twins certain (n**2 / 2T: ~20 per channel)
    dark = replace(lossy_config().detector_signal, dark_rate_hz=2.0e8)
    base = lossy_config(acquisition_time_s=0.001, detector_signal=dark,
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
            assert g[0] == w[0] and g[2::2] == w[2::2]   # dark counts
            for a, b in zip(g[1::2], w[1::2]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    sig, idl = _gen_slice(base, base.link, 0, 0, base.span_ps(),
                          slice_ps(base), _DriftWalk(base), SimDiagnostics())
    drawn = sig.size + idl.size - want_diag.clicks_dropped_out_of_span
    kept = sum(b[1].size + b[3].size for b in want)
    assert kept < drawn     # twins were merged


def test_filter_memory_is_bounded():
    # 50 ns dead time on clicks 500 ns apart on average: ~10 % of them
    # take the sequential rule, one Python step each.  The filter works
    # in place a chunk at a time and counts the darks, so its peak is
    # one bound at any bucket size
    dead = 50_000
    rng = np.random.default_rng(3)
    for n in (10**6, 4 * 10**6):
        times = np.cumsum(rng.exponential(500_000.0, n).astype(np.int64))
        key = packed_keys(times, rng.random(n) < 0.1)
        del times
        tracemalloc.start()
        try:
            t, _, _ = _filter_clicks(key, dead, -dead)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n - t.size > 0.05 * n
        assert peak <= 1 << 20


@pytest.mark.parametrize("dead_ps", [1.0e19, 1.0e30])
def test_huge_dead_time_keeps_the_first_click(dead_ps):
    # a detector starts ready, however long it then stays dead
    base = lossy_config(acquisition_time_s=0.01)
    held = replace(base, detector_signal=replace(base.detector_signal,
                                                 dead_time_ps=dead_ps))
    free_sig, free_idl, _ = run_simulation(base)
    sig, idl, _ = run_simulation(held)
    assert free_sig.times_ps.size > 1
    assert sig.times_ps.tolist() == free_sig.times_ps[:1].tolist()
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
    q_s, q_i = link.signal.q, link.idler.q
    # the interference term from the config itself, not from the
    # link's peak weights that the engine reads
    x = (cfg.analyzer_signal.contrast * cfg.analyzer_idler.contrast
         * math.cos(cfg.analyzer_signal.effective_phase_rad()
                    + cfg.analyzer_idler.effective_phase_rad()
                    + cfg.source.pump_phase_offset_rad))
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


class _Drawn(Exception):
    pass


def test_engine_budget_counts_dark_clicks(monkeypatch):
    # 1e7 Hz of signal darks: ~7.8e5 clicks in the narrowest slice,
    # past the bound, where the link's own ~3.7e4 clicks/s fit a 10 s
    # slice.  The bound reads the closed form's singles, darks
    # included, and refuses before any click is drawn.
    cfg = replace(preset("paper-100km").config, acquisition_time_s=1.0)
    dark = replace(cfg, detector_signal=replace(cfg.detector_signal,
                                                dark_rate_hz=1.0e7))
    photons = predict_rates(cfg)
    assert (photons.singles_signal_hz + photons.singles_idler_hz) \
        * cfg.acquisition_time_s < montecarlo._SLICE_CLICKS / 10
    assert slice_ps(dark) == montecarlo._MIN_SLICE_PS
    monkeypatch.setattr(montecarlo, "_gen_slice",
                        mock.Mock(side_effect=_Drawn))
    with pytest.raises(_Drawn):
        next(iter_click_buckets(cfg))
    with pytest.raises(ValidationError, match="darks included"):
        next(iter_click_buckets(dark))


def test_engine_bound_is_expected_clicks_per_slice(monkeypatch):
    # 2**19 clicks in the narrowest, 78.125 ms slice: ~6.7e6 clicks/s.
    # A faster config runs only while its one slice stays within
    # 2**19 clicks; a slower one runs at any length.
    assert montecarlo._MIN_SLICE_PS == SLICE_PS >> 7
    assert montecarlo._SLICE_CLICKS / (montecarlo._MIN_SLICE_PS * 1e-12) \
        == pytest.approx(6.71e6, rel=1e-3)
    monkeypatch.setattr(montecarlo, "_gen_slice",
                        mock.Mock(side_effect=_Drawn))

    def lossless_at(mu, clicks_hz):
        cfg = lossless_config(source=SourceSpec(
            photon_fwhm_ps=0.5, mean_pairs_per_window=mu))
        rates = predict_rates(cfg)
        assert rates.singles_signal_hz + rates.singles_idler_hz \
            == pytest.approx(clicks_hz, rel=1e-9)
        assert slice_ps(cfg) == montecarlo._MIN_SLICE_PS
        return cfg
    fast = lossless_at(4.2e-4, 7.0e6)
    below = lossless_at(3.9e-4, 6.5e6)
    for cfg, seconds, refused in ((fast, 8.0, True), (fast, 10.0, True),
                                  (fast, 20.0, True), (fast, 0.05, False),
                                  (below, 10.0, False)):
        run = iter_click_buckets(replace(cfg, acquisition_time_s=seconds))
        with pytest.raises(ValidationError if refused else _Drawn):
            next(run)
    assert montecarlo._gen_slice.call_count == 2   # the accepted runs


def test_densest_accepted_point_holds_bounded_memory(monkeypatch):
    # a lossless back-to-back point just below the bound's rate, 6.5e6
    # clicks/s for 0.5 s: seven 78 ms slices of ~5.1e5 expected clicks.
    # Its measure_point peak is about two slices of clicks.
    cfg = lossless_config(source=SourceSpec(photon_fwhm_ps=0.5,
                                            mean_pairs_per_window=3.9e-4))
    tracemalloc.start()
    try:
        point = measure_point(cfg, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert point.singles_signal + point.singles_idler > 3.0e6
    assert peak <= 16 * 2 ** 20
    # the presets' mu = 0.05 on the same link: 8.3e8 clicks/s, 1.7e7
    # in one 20 ms run, refused before any slice is drawn
    stock = lossless_config(
        source=SourceSpec(photon_fwhm_ps=0.5, mean_pairs_per_window=0.05),
        acquisition_time_s=0.02)
    monkeypatch.setattr(montecarlo, "_gen_slice",
                        mock.Mock(side_effect=_Drawn))
    with pytest.raises(ValidationError, match=r"bound of 2\*\*19"):
        measure_point(stock, 0.0)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["back-to-back", "paper-100km", "ideal"]),
       mu_scale=st.floats(1e-2, 1e2), dark_hz=st.floats(0.0, 1e6),
       km=st.floats(0.0, 100.0), phase=st.floats(-math.pi, math.pi),
       window_ps=st.sampled_from([60.0, 100.0, 200.0]),
       seed=st.integers(0, 2**32 - 1))
@example(name="ideal", mu_scale=100.0, dark_hz=0.0, km=0.0, phase=0.0,
         window_ps=100.0, seed=0)    # past the narrowest width's clicks
def test_slice_width_is_the_widest_within_the_click_budget(
        name, mu_scale, dark_hz, km, phase, window_ps, seed):
    base = preset(name).config
    cfg = replace(
        base,
        source=replace(base.source, mean_pairs_per_window=(
            base.source.mean_pairs_per_window * mu_scale)),
        detector_signal=replace(base.detector_signal, dark_rate_hz=dark_hz),
        **{arm: replace(getattr(base, arm), fiber_length_km=km)
           for arm in ("channel_signal", "channel_idler")})
    rates = predict_rates(cfg)
    per_ps = (rates.singles_signal_hz + rates.singles_idler_hz) * 1e-12
    width = slice_ps(cfg)
    k = (SLICE_PS // width).bit_length() - 1
    assert width << k == SLICE_PS and 0 <= k <= 7
    at_cap = width == montecarlo._MIN_SLICE_PS
    assert per_ps * width <= montecarlo._SLICE_CLICKS or at_cap
    assert k == 0 or per_ps * 2 * width > montecarlo._SLICE_CLICKS
    # the engine runs cfg exactly when its one slice (all of a shorter
    # run) stays within the bound, and refuses before drawing
    clicks = (rates.singles_signal_hz + rates.singles_idler_hz) \
        * min(cfg.span_ps(), width) * 1e-12
    refused = clicks > montecarlo._SLICE_CLICKS
    with mock.patch.object(montecarlo, "_gen_slice", side_effect=_Drawn), \
            pytest.raises(ValidationError if refused else _Drawn):
        next(iter_click_buckets(cfg))
    # a scan's points differ from its config in phase, window and seed
    # alone, so every point of a scan shares one width
    point = replace(cfg, analyzer_signal=replace(cfg.analyzer_signal,
                                                 phase_rad=phase),
                    tia=replace(cfg.tia, window_ps=window_ps),
                    master_seed=seed)
    assert slice_ps(point) == width


def test_no_click_spills_past_the_next_bucket(monkeypatch):
    # back-to-back: 1.25 s slices, so a click may land at most a
    # quarter slice outside its own and a bucket merges at most three
    # slices.  With the idler pulled back by almost that much, every
    # drawn click ends in a bucket, in clicks_dropped_out_of_span or
    # among the same-picosecond repeats (no dead time) that the filter
    # removes.
    cfg = replace(preset("back-to-back", master_seed=19).config,
                  acquisition_time_s=3.0)
    width, span = slice_ps(cfg), cfg.span_ps()
    assert width == SLICE_PS // 8

    def idler_offset(ps):
        return replace(cfg, drift=TimingDriftSpec(
            enabled=True, channel="idler", offset_ps=ps))

    drawn = []
    gen = montecarlo._gen_slice

    def spy(*args):
        drawn.append(gen(*args))
        return drawn[-1]

    monkeypatch.setattr(montecarlo, "_gen_slice", spy)
    diag = SimDiagnostics()
    buckets = list(iter_click_buckets(idler_offset(-0.24 * width), diag))
    assert len(drawn) == len(buckets) == 3
    outside = 0
    for col in (0, 1):
        t = np.concatenate([keys[col] for keys in drawn]) >> 1
        inside = t[(t >= 0) & (t <= span)]
        outside += t.size - inside.size
        kept = sum(b[1 + 2 * col].size for b in buckets)
        assert kept == np.unique(inside).size
    assert diag.clicks_dropped_out_of_span == outside > 0
    # an idler pulled back by more than a slice would land two buckets
    # back, after that bucket was cut: it is refused instead
    with pytest.raises(ValidationError, match="idler clicks spilled"):
        list(iter_click_buckets(idler_offset(-1.5 * width)))


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


@pytest.mark.parametrize("rows", [0, 1, 100_001])
def test_click_file_body_is_the_clicks_as_little_endian_int64(tmp_path,
                                                              rows):
    times = np.cumsum(np.random.default_rng(rows).integers(
        1, 10**7, rows)).astype(np.int64)
    span = int(times[-1]) if rows else 0
    stream = ClickStream(channel="idler", times_ps=times, span_ps=span)
    path = tmp_path / "idler.clicks"
    write_click_stream(stream, path, seed=3)
    data = path.read_bytes()
    assert data[:HEADER_BYTES] == click_file(
        (), channel="idler", span_ps=span, seed=3, true_count=rows)
    assert data[HEADER_BYTES:] == times.astype("<i8").tobytes()


def test_click_stream_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.txt"
    p.write_text("1 2 3\n")
    with pytest.raises(ValidationError):
        read_click_stream(p)


@settings(max_examples=150, deadline=None)
@given(values=st.sets(st.integers(0, CLICK_LIMIT_PS - 1), max_size=60),
       dark=st.integers(0, 60), config_hash=st.text("0123456789abcdef",
                                                     max_size=12))
@example(values=set(), dark=0, config_hash="")
@example(values={0, CLICK_LIMIT_PS - 1}, dark=1, config_hash="cafe01")
def test_click_file_round_trip_property(tmp_path_factory, values, dark,
                                        config_hash):
    times = np.array(sorted(values), dtype=np.int64)
    stream = ClickStream(channel="idler", times_ps=times,
                         span_ps=int(times[-1]) if times.size else 0,
                         dark_count=min(dark, times.size))
    path = tmp_path_factory.mktemp("clicks") / "c.clicks"
    write_click_stream(stream, path, seed=5, config_hash=config_hash)
    assert path.stat().st_size == HEADER_BYTES + 8 * times.size
    back, meta = read_click_stream(path)
    assert back.times_ps.dtype == np.int64
    assert np.array_equal(back.times_ps, times)
    assert (back.channel, back.span_ps, back.dark_count) == (
        stream.channel, stream.span_ps, stream.dark_count)
    assert meta == {"channel": "idler", "span_ps": str(stream.span_ps),
                    "seed": "5", "config_hash": config_hash,
                    "true_count": str(stream.true_count),
                    "dark_count": str(stream.dark_count)}


def test_reader_reads_a_hand_made_file(tmp_path):
    path = tmp_path / "signal.clicks"
    path.write_bytes(GOOD)
    stream, meta = read_click_stream(path)
    assert stream.times_ps.tolist() == [10, 20, 30]
    assert (stream.channel, stream.span_ps, stream.true_count,
            stream.dark_count) == ("signal", 1000, 3, 0)
    assert meta["seed"] == "1" and meta["config_hash"] == ""


@pytest.mark.parametrize("data,message", REFUSALS)
def test_reader_refuses_a_faulty_file_and_names_it(tmp_path, data, message):
    path = tmp_path / "bad.clicks"
    path.write_bytes(data)
    with pytest.raises(ValidationError,
                       match=re.escape(f"{path}: ") + message):
        read_click_stream(path)


def test_reader_refuses_a_pipe_and_names_it():
    # a pipe's size is unknown until it is read, so its header's count
    # cannot be checked before the result is allocated
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, GOOD)
        path = f"/dev/fd/{read_fd}"
        with pytest.raises(ValidationError,
                           match=f"{path}: not a regular file"):
            read_click_stream(path)
    finally:
        os.close(read_fd)
        os.close(write_fd)


def test_reader_refuses_a_device_and_names_it():
    # /dev/null opens and reads as empty, but it is no regular file
    with pytest.raises(ValidationError,
                       match="/dev/null: not a regular file"):
        read_click_stream("/dev/null")


@pytest.mark.parametrize("name", ["idler_clicks.bin", "idler_clicks.txt",
                                  "idler", "link"])
def test_reader_goes_by_the_bytes_not_the_file_name(tmp_path, name):
    # the benchmark writes its click files as *_clicks.txt
    stream = ClickStream("idler", np.array([5, 7], np.int64), span_ps=9,
                         dark_count=1)
    path = tmp_path / name
    if name == "link":
        write_click_stream(stream, tmp_path / "target.bin", seed=2)
        path.symlink_to(tmp_path / "target.bin")
    else:
        write_click_stream(stream, path, seed=2)
    back, meta = read_click_stream(path)
    assert back.times_ps.tolist() == [5, 7]
    assert (back.channel, back.span_ps, back.dark_count) == ("idler", 9, 1)
    assert meta["seed"] == "2"


def test_writer_refuses_a_header_over_256_bytes(tmp_path):
    stream = ClickStream("signal", np.arange(3, dtype=np.int64), span_ps=3)
    path = tmp_path / "long.clicks"
    # the header must fit with 19-digit counts, whatever the run counts
    write_click_stream(stream, path, config_hash="f" * 108)  # 255 bytes
    assert read_click_stream(path)[1]["config_hash"] == "f" * 108
    path.unlink()
    with pytest.raises(ValidationError, match=re.escape(
            f"{path}: the header takes up to 256 bytes, more than its 255")):
        write_click_stream(stream, path, config_hash="f" * 109)
    assert not path.exists()


@pytest.mark.parametrize("times,span", [
    ((5, CLICK_LIMIT_PS + 5), CLICK_LIMIT_PS + 5), ((), CLICK_LIMIT_PS),
    ((), -5)])
def test_writer_refuses_a_span_the_reader_refuses(tmp_path, times, span):
    # a delay histogram takes clicks in [0, 2**62) ps alone
    path = tmp_path / "far.bin"
    stream = ClickStream("signal", np.array(times, np.int64), span_ps=span)
    with pytest.raises(ValidationError, match=re.escape(
            f"{path}: span_ps {span} lies outside [0, 2**62) ps")):
        write_click_stream(stream, path)
    assert not path.exists()


def test_dark_count_must_lie_within_the_clicks():
    times = np.arange(3, dtype=np.int64)
    for dark in (-1, 4):
        stream = ClickStream("idler", times, span_ps=3, dark_count=dark)
        with pytest.raises(ValidationError, match=f"dark_count {dark} "):
            stream.assert_valid()
    assert ClickStream("idler", times, span_ps=3,
                       dark_count=3).true_count == 0


@settings(max_examples=20, deadline=None)
@given(mu=st.floats(1e-6, 1e-4), dark_hz=st.floats(0.0, 1e4),
       dead_ps=st.floats(0.0, 1e5), offset_ps=st.floats(-1e4, 1e4),
       walk_ps=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1))
def test_a_runs_click_counts_agree_everywhere(tmp_path_factory, mu, dark_hz,
                                              dead_ps, offset_ps, walk_ps,
                                              seed):
    # the buckets are the one record of a run's clicks: run_simulation's
    # streams, measure_point's singles and the click files it appends
    # each bucket to, their count headers as written and as read back
    # and their bodies, all hold the same clicks
    detector = DetectorSpec(quantum_efficiency=1.0, dark_rate_hz=dark_hz,
                            jitter_fwhm_ps=0.0, dead_time_ps=dead_ps)
    cfg = lossless_config(
        source=SourceSpec(photon_fwhm_ps=0.5, mean_pairs_per_window=mu),
        detector_signal=detector, detector_idler=detector,
        drift=TimingDriftSpec(enabled=True, channel="idler",
                              offset_ps=offset_ps, walk_step_ps=walk_ps),
        acquisition_time_s=0.01, master_seed=seed)
    streams = run_simulation(cfg)[:2]
    tmp = tmp_path_factory.mktemp("clicks")
    paths = [tmp / f"{s.channel}.clicks" for s in streams]
    with click_writer(paths[0], "signal", cfg.span_ps()) as sig, \
            click_writer(paths[1], "idler", cfg.span_ps()) as idl:
        point = measure_point(cfg, 0.0, (sig, idl))
    singles = (point.singles_signal, point.singles_idler)
    for stream, path, n_singles in zip(streams, paths, singles):
        clicks, darks = stream.times_ps.size, stream.dark_count
        assert clicks == n_singles and 0 <= darks <= clicks
        data = path.read_bytes()
        header = data[:HEADER_BYTES].decode("ascii")
        written = dict(line[2:].split(": ", 1) for line in
                       header.split("\n")[1:7])
        assert data[HEADER_BYTES:] == stream.times_ps.astype("<i8").tobytes()
        back, meta = read_click_stream(path)
        for header in (written, meta):
            assert (header["true_count"], header["dark_count"]) == (
                str(clicks - darks), str(darks))
        assert (back.true_count, back.dark_count) == (clicks - darks, darks)


def test_click_writer_appends_chunks_under_a_blank_header(tmp_path):
    # a file being written reads as no click file until the clean exit
    # writes its header; the chunks' clicks and darks add up
    path = tmp_path / "idler.bin"
    with click_writer(path, "idler", 100, seed=4, config_hash="ab") as append:
        for times, dark in (([1, 5], 1), ([], 0), ([6, 9, 100], 2)):
            append(np.array(times, np.int64), dark)
            assert path.read_bytes()[:HEADER_BYTES] == BLANK_HEADER
            with pytest.raises(ValidationError, match=re.escape(
                    f"{path}: not a fransonsim click file")):
                read_click_stream(path)
    assert path.read_bytes() == click_file(
        (1, 5, 6, 9, 100), channel="idler", span_ps=100, seed=4,
        config_hash="ab", true_count=2, dark_count=3)


@pytest.mark.parametrize("first, chunk, dark, message", [
    ([1, 5], [5, 7], 0, "click timestamps must be strictly increasing "
     "across appends"),
    ([1, 5], [4, 7], 0, "click timestamps must be strictly increasing "
     "across appends"),
    ([], [3, 2], 0, "click timestamps must be strictly increasing$"),
    ([], [3, 101], 0, r"clicks outside \[0, span\]: 3..101 span=100"),
    ([], [-1, 2], 0, r"clicks outside \[0, span\]"),
    ([1], [3, 4], 3, r"dark_count 3 lies outside \[0, 2\]"),
])
def test_click_writer_refuses_a_chunk_and_removes_its_file(
        tmp_path, first, chunk, dark, message):
    path = tmp_path / "signal.bin"
    with pytest.raises(ValidationError,
                       match=re.escape(f"{path}: ") + message):
        with click_writer(path, "signal", 100) as append:
            append(np.array(first, np.int64))
            append(np.array(chunk, np.int64), dark)
    assert not path.exists()


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
