"""Closed-form physics: dB arithmetic, two-photon interference
probabilities, dispersion broadening, visibility/CHSH conversions,
accidental rates, and the domain-type invariants."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fransonsim.errors import ValidationError
from fransonsim.montecarlo import SimulationConfig
from fransonsim.physics import (AnalyzerSpec, ChannelSpec,
                                CoincidenceWindowSpec, DEFAULT_BETA2,
                                DetectorSpec, SourceSpec, accidental_rate,
                                chsh_from_visibility, db_to_linear,
                                dispersion_broaden, franson_bin_probabilities,
                                solve_beta2, temp_to_phase, wrap_phase)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# dB arithmetic
# ---------------------------------------------------------------------------

def test_db_to_linear_reference_points():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 0.1
    assert db_to_linear(20.0) == 0.01


def test_negative_db_is_gain():
    assert db_to_linear(-3.0) > 1.0


@given(st.floats(min_value=-60.0, max_value=120.0))
@settings(max_examples=200, deadline=None)
def test_db_round_trip(loss_db):
    t = db_to_linear(loss_db)
    assert -10.0 * math.log10(t) == pytest.approx(loss_db, rel=1e-12,
                                                  abs=1e-12)


def test_db_rejects_nonfinite():
    with pytest.raises(ValidationError):
        db_to_linear(math.nan)
    with pytest.raises(ValidationError):
        db_to_linear(math.inf)


# ---------------------------------------------------------------------------
# franson_bin_probabilities
# ---------------------------------------------------------------------------

def test_bin_probabilities_constructive():
    # SS and LL amplitudes 1/4 each add in phase: |1/4 + 1/4|^2 = 1/4,
    # side peaks are single distinguishable paths of amplitude 1/4.
    p_c, p_e, p_l = franson_bin_probabilities(0.0, 0.0, 0.0, 1.0)
    assert p_c == pytest.approx(0.25, abs=1e-15)
    assert p_e == 0.0625
    assert p_l == 0.0625


def test_bin_probabilities_destructive():
    p_c, _, _ = franson_bin_probabilities(math.pi, 0.0, 0.0, 1.0)
    assert p_c == pytest.approx(0.0, abs=1e-15)


def test_bin_probabilities_zero_contrast_flat():
    for theta in (0.0, 0.3, 1.7, math.pi, 5.5):
        p_c, p_e, p_l = franson_bin_probabilities(theta, 0.11, 2.2, 0.0)
        assert p_c == 0.125
        assert (p_e, p_l) == (0.0625, 0.0625)


def test_bin_probabilities_swap_symmetry():
    a = franson_bin_probabilities(0.4, 1.9, 0.7, 0.83)
    b = franson_bin_probabilities(1.9, 0.4, 0.7, 0.83)
    assert a == b


def test_complementary_fringes_sum_to_quarter():
    # p_central(Theta) + p_central(Theta + pi) = 1/4 at unit contrast
    for theta in [k * TWO_PI / 13 for k in range(13)]:
        p1, _, _ = franson_bin_probabilities(theta, 0.0, 0.0, 1.0)
        p2, _, _ = franson_bin_probabilities(theta + math.pi, 0.0, 0.0, 1.0)
        assert p1 + p2 == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("contrast", [0.0, 0.3, 0.805, 1.0])
def test_phase_average_is_eighth(contrast):
    n = 64
    mean = sum(
        franson_bin_probabilities(TWO_PI * k / n, 0.0, 0.0, contrast)[0]
        for k in range(n)) / n
    assert mean == pytest.approx(0.125, abs=1e-12)


def test_side_peaks_phase_independent():
    sides = {
        franson_bin_probabilities(ts, ti, pp, 0.9)[1:]
        for ts in (0.0, 1.0, 4.0)
        for ti in (0.0, 2.5)
        for pp in (0.0, 3.1)
    }
    assert sides == {(0.0625, 0.0625)}


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
       st.floats(-10.0, 10.0), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_bin_probabilities_bounds(ts, ti, pp, c):
    p_c, p_e, p_l = franson_bin_probabilities(ts, ti, pp, c)
    assert 0.0 <= p_c <= 0.25
    assert p_c + p_e + p_l <= 0.5 + 1e-12


def test_bin_probabilities_rejects_bad_input():
    with pytest.raises(ValidationError):
        franson_bin_probabilities(math.inf, 0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        franson_bin_probabilities(0.0, 0.0, 0.0, 1.2)


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

def test_dispersion_zero_beta2_identity():
    assert dispersion_broaden(4.0, 0.0, 50.0) == 4.0


def test_dispersion_pinned_beta2_reproduces_25ps():
    out = dispersion_broaden(4.0, DEFAULT_BETA2, 50.0)
    assert out == pytest.approx(25.0, rel=1e-3)


def test_default_beta2_matches_independent_inversion():
    # independent closed-form inversion of the broadening formula
    t0 = 4.0 / (2.0 * math.sqrt(math.log(2.0)))
    expected = t0 * t0 * math.sqrt((25.0 / 4.0) ** 2 - 1.0) / 50.0
    assert DEFAULT_BETA2 == pytest.approx(expected, rel=1e-12)
    assert solve_beta2(4.0, 25.0, 50.0) == pytest.approx(expected, rel=1e-12)


def test_dispersion_excess_linear_in_length():
    # in the dispersion-dominated regime the excess spread
    # sqrt(out^2 - in^2) is exactly linear in fiber length
    def excess(length):
        out = dispersion_broaden(4.0, DEFAULT_BETA2, length)
        return math.sqrt(out * out - 16.0)

    assert excess(100.0) == pytest.approx(2.0 * excess(50.0), rel=1e-9)
    # and the total width approaches the linear asymptote
    assert dispersion_broaden(4.0, DEFAULT_BETA2, 100.0) == \
        pytest.approx(2.0 * excess(50.0), rel=0.01)


def test_dispersion_of_an_underflowed_duration():
    # T0^2 underflows to 0 here: no ZeroDivisionError, and no fiber
    # leaves the width alone while any dispersion makes it unbounded
    assert dispersion_broaden(1e-200, DEFAULT_BETA2, 0.0) == 1e-200
    assert dispersion_broaden(1e-200, 0.0, 50.0) == 1e-200
    assert dispersion_broaden(1e-200, DEFAULT_BETA2, 1.0) == math.inf


def test_dispersion_sign_flip_invariant():
    assert dispersion_broaden(4.0, -DEFAULT_BETA2, 50.0) == \
        dispersion_broaden(4.0, DEFAULT_BETA2, 50.0)


def test_dispersion_monotone():
    widths = [dispersion_broaden(4.0, b, 50.0) for b in (0.0, 0.3, 0.7, 1.4)]
    assert widths == sorted(widths)
    lengths = [dispersion_broaden(4.0, DEFAULT_BETA2, l)
               for l in (0.0, 10.0, 50.0, 200.0)]
    assert lengths == sorted(lengths)


def test_dispersion_rejects_bad_width():
    with pytest.raises(ValidationError):
        dispersion_broaden(0.0, 0.7, 50.0)
    with pytest.raises(ValidationError):
        dispersion_broaden(-4.0, 0.7, 50.0)


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------

def test_chsh_reference_points():
    s, violates = chsh_from_visibility(1.0)
    assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert violates

    s, violates = chsh_from_visibility(0.7071)
    assert s == pytest.approx(2.0, abs=1e-3)
    assert not violates

    s, violates = chsh_from_visibility(0.805)
    assert s == pytest.approx(2.277, abs=1e-3)
    assert violates


def test_chsh_boundary_strict():
    thr = 1.0 / math.sqrt(2.0)
    assert chsh_from_visibility(thr + 1e-9)[1]
    assert not chsh_from_visibility(thr - 1e-9)[1]


def test_chsh_rejects_out_of_range():
    with pytest.raises(ValidationError):
        chsh_from_visibility(1.5)
    with pytest.raises(ValidationError):
        chsh_from_visibility(-0.1)


# ---------------------------------------------------------------------------
# accidental rates
# ---------------------------------------------------------------------------

def test_dark_prob_per_window_exact():
    # a 100 Hz background clicks in a 100 ps window with probability
    # rate * window: its accidental rate against a 1 Hz stream, exact
    assert accidental_rate(100.0, 1.0, 100.0) == 1.0e-8


def test_accidental_rate_reference_points():
    assert accidental_rate(0.0, 12345.0, 100.0) == 0.0
    assert accidental_rate(1000.0, 1000.0, 100.0) == 1e-4


def test_accidental_rate_rejects_negative():
    with pytest.raises(ValidationError):
        accidental_rate(-1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# temperature -> phase
# ---------------------------------------------------------------------------

def _temp_analyzer(coeff, ref=22.5):
    return AnalyzerSpec(phase_rad=None, temperature_c=ref,
                        phase_per_kelvin_rad=coeff, reference_temp_c=ref)


def test_temp_to_phase_at_reference():
    spec = _temp_analyzer(1.7)
    assert temp_to_phase(22.5, spec) == 0.0


def test_temp_to_phase_two_kelvin():
    kappa = 2.2
    spec = _temp_analyzer(kappa)
    assert temp_to_phase(24.5, spec) == pytest.approx(
        wrap_phase(2.0 * kappa), abs=1e-12)


def test_temp_to_phase_zero_coefficient():
    spec = _temp_analyzer(0.0)
    for t in (-10.0, 0.0, 22.5, 80.0):
        assert temp_to_phase(t, spec) == 0.0


@pytest.mark.parametrize("temp_c", [1e300, math.nan])
def test_temp_to_phase_refuses_a_non_finite_phase(temp_c):
    spec = AnalyzerSpec(phase_rad=None, temperature_c=20.0,
                        phase_per_kelvin_rad=1e10)
    with pytest.raises(ValidationError,
                       match=r"^temperature_c=.* gives a non-finite phase"):
        temp_to_phase(temp_c, spec)


@given(st.floats(-1e3, 1e3))
@settings(max_examples=200, deadline=None)
def test_wrap_phase_range(phi):
    w = wrap_phase(phi)
    assert 0.0 <= w < TWO_PI


# ---------------------------------------------------------------------------
# domain-type invariants
# ---------------------------------------------------------------------------

def test_source_spec_defaults_valid():
    SourceSpec()
    rate = SimulationConfig().link.pair_rate_hz
    assert rate == pytest.approx(0.05 / 60e-12)


def test_source_spec_rejects_short_coherence():
    with pytest.raises(ValidationError):
        SourceSpec(pump_coherence_fwhm_ps=300.0, photon_fwhm_ps=4.0)


def test_source_spec_rejects_negative_mu():
    with pytest.raises(ValidationError):
        SourceSpec(mean_pairs_per_window=-0.1)


def test_channel_spec_defaults():
    c = ChannelSpec()
    assert c.beta2_ps2_per_km == DEFAULT_BETA2
    assert c.fiber_loss_db == pytest.approx(10.0)


def test_channel_spec_rejects_negative():
    with pytest.raises(ValidationError):
        ChannelSpec(fiber_length_km=-1.0)
    with pytest.raises(ValidationError):
        ChannelSpec(pre_fiber_loss_db=-0.1)


def test_analyzer_spec_phase_xor_temperature():
    with pytest.raises(ValidationError):
        AnalyzerSpec(phase_rad=0.0, temperature_c=24.5,
                     phase_per_kelvin_rad=1.0)
    with pytest.raises(ValidationError):
        AnalyzerSpec(phase_rad=None, temperature_c=None)
    with pytest.raises(ValidationError):
        # temperature drive without a calibration coefficient
        AnalyzerSpec(phase_rad=None, temperature_c=24.5)


def test_analyzer_effective_phase_from_temperature():
    spec = AnalyzerSpec(phase_rad=None, temperature_c=24.5,
                        phase_per_kelvin_rad=0.8, reference_temp_c=22.5)
    assert spec.effective_phase_rad() == pytest.approx(1.6, abs=1e-12)


@pytest.mark.parametrize("temp, ref, coeff", [
    (1e300, 22.5, 1e10),        # the product overflows
    (1.7e308, -1.7e308, 1.0),   # the difference overflows
    (1.7e308, -1.7e308, 0.0),   # inf * 0 is nan
])
def test_analyzer_rejects_a_temperature_phase_that_overflows(
        temp, ref, coeff):
    with pytest.raises(ValidationError, match="non-finite phase"):
        AnalyzerSpec(phase_rad=None, temperature_c=temp,
                     phase_per_kelvin_rad=coeff, reference_temp_c=ref)


def test_analyzer_rejects_bad_contrast():
    with pytest.raises(ValidationError):
        AnalyzerSpec(contrast=1.01)


def test_detector_spec_rejects_bad_qe():
    with pytest.raises(ValidationError):
        DetectorSpec(quantum_efficiency=1.5)


def test_window_spec_bin_not_larger_than_window():
    with pytest.raises(ValidationError):
        CoincidenceWindowSpec(window_ps=10.0, histogram_bin_ps=20.0)


def _float_fields():
    """(spec, field) for every float field of every spec, once each;
    the temperature-driven analyzer supplies its two Optional floats."""
    bases = (SourceSpec(), ChannelSpec(), AnalyzerSpec(),
             AnalyzerSpec(phase_rad=None, temperature_c=24.5,
                          phase_per_kelvin_rad=0.8),
             DetectorSpec(), CoincidenceWindowSpec())
    seen = {}
    for spec in bases:
        for f in dataclasses.fields(spec):
            key = f"{type(spec).__name__}.{f.name}"
            if isinstance(getattr(spec, f.name), float) and key not in seen:
                seen[key] = pytest.param(spec, f.name, id=key)
    return list(seen.values())


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("spec,name", _float_fields())
def test_specs_reject_non_finite(spec, name, value):
    with pytest.raises(ValidationError):
        dataclasses.replace(spec, **{name: value})
