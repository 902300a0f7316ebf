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

from fransonsim import (AnalyzerSpec, ChannelSpec, ClickStream,
                        DetectorSpec, SimDiagnostics, SimulationConfig,
                        SourceSpec, TimingDriftSpec, ValidationError,
                        derive_seed, iter_click_buckets, read_click_stream,
                        run_simulation, write_click_stream)
from fransonsim.montecarlo import (SLICE_PS, _WRITE_CHUNK_ROWS, _DriftWalk,
                                   _dead_time_filter, _gen_slice,
                                   _unpack_dedupe)


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
    # the three Poisson classes together generate Poisson(rate * T) pairs
    cfg = lossy_config(acquisition_time_s=0.05, master_seed=7)
    _, _, diag = run_simulation(cfg)
    mean = cfg.generated_pair_rate_hz() * cfg.acquisition_time_s
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
    assert lossy.arm_q("idler") == folded.arm_q("idler")
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
    kept, _, last = _dead_time_filter(times, np.zeros(5, bool), 100,
                                      -2 ** 62)
    assert kept.tolist() == [0, 120] and last == 120


def test_detect_merges_same_picosecond():
    t, d = _unpack_dedupe(packed_keys([300, 100, 100], [False] * 3))
    assert t.tolist() == [100, 300]
    assert int((~d).sum()) == 2


def test_dedupe_prefers_photon_label():
    t, d = _unpack_dedupe(packed_keys([5, 5], [True, False]))
    assert t.tolist() == [5] and d.tolist() == [False]


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
    got_t, got_d = _unpack_dedupe(packed_keys(t, d))
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

def _per_pair_clicks(cfg, rng):
    """Oracle for the engine's three Poisson classes: the literal link,
    one pair at a time.

    Each photon survives its arm on its own coin (probability arm_q).
    A pair where both survive takes the joint law of the two analyzers:
    port signs (+1 monitored, -1 not) and paths (0 short, 1 long), with
    the short-short and long-long amplitudes 1/4 and
    (s_s s_i / 4) e^{i theta} interfering and each mixed path at 1/16
    (the (+1, +1) row is franson_bin_probabilities).  A lone photon
    takes the phase-free marginal: uniform port and path.  Only the
    monitored port clicks; no timing spreads.  Returns (signal times,
    idler times, pairs where both photons survived)."""
    tau = cfg.analyzer_signal.delay_ps
    q_s, q_i = cfg.arm_q("signal"), cfg.arm_q("idler")
    x = cfg.interference_x()
    joint, probs = [], []
    for s_port in (1, -1):
        for i_port in (1, -1):
            central = (1.0 + s_port * i_port * x) / 8.0
            joint += [(s_port, i_port, 0, 0), (s_port, i_port, 1, 1),
                      (s_port, i_port, 1, 0), (s_port, i_port, 0, 1)]
            probs += [central / 2.0, central / 2.0, 1 / 16, 1 / 16]
    cum = np.cumsum(probs)
    sig, idl, both = [], [], 0
    n = rng.poisson(cfg.generated_pair_rate_hz() * cfg.acquisition_time_s)
    for t0 in (rng.random(n) * cfg.span_ps()).tolist():
        s_ok, i_ok = rng.random() < q_s, rng.random() < q_i
        if s_ok and i_ok:
            both += 1
            k = min(int(np.searchsorted(cum, rng.random(), side="right")),
                    len(joint) - 1)
            s_port, i_port, s_path, i_path = joint[k]
        else:
            u = rng.random(4)
            s_port, i_port = (1 if v < 0.5 else -1 for v in u[:2])
            s_path, i_path = (int(v < 0.5) for v in u[2:])
        if s_ok and s_port == 1:
            sig.append(t0 + s_path * tau)
        if i_ok and i_port == 1:
            idl.append(t0 + i_path * tau)
    return (np.sort(np.rint(sig).astype(np.int64)),
            np.sort(np.rint(idl).astype(np.int64)), both)


def _engine_and_oracle(theta, k):
    """One engine run and one oracle run of the same lossy link.

    q_s = 0.3, q_i = 0.5: all three engine classes (signal-detectable,
    idler-only, undetectable) are populated."""
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
        q_s, q_i = cfg.arm_q("signal"), cfg.arm_q("idler")
        for count, p in ((sig.true_count, q_s / 2), (idl.true_count, q_i / 2),
                         (n_both, q_s * q_i)):
            assert abs(count / n - p) <= 5.0 * math.sqrt(p * (1 - p) / n), (
                theta, count, p)


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


def test_derived_seeds_are_stable_and_distinct():
    seeds = [derive_seed(99, k) for k in range(200)]
    assert seeds == [derive_seed(99, k) for k in range(200)]
    assert len(set(seeds)) == 200
    assert all(0 <= s < 2**64 for s in seeds)
