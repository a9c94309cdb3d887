import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvibe.cli import main
from qvibe.core import (
    SPEED_OF_LIGHT,
    ClassicalFringeSpec,
    GeometryFactor,
    PhotonPairSpec,
    fringe_probability,
    quadrature_delay,
)
from qvibe.errors import ConfigError
from qvibe.simulate import (
    ChannelModel,
    FluxPair,
    QuantumRun,
    SignalComponent,
    TimestampStream,
    VibrationSignal,
    _MAX_CANDIDATES,
    _PEAK_BLOCK,
    _cos_range,
    _simulate_run,
    _trace_samples,
    classical_fluxes,
    quantum_fluxes,
    sample_inhomogeneous_poisson,
    simulate_classical_run,
    simulate_quantum_run,
)
from qvibe.streamio import read_stream

DETUNING = 2 * math.pi * 177e12


def flat_flux(rate):
    return lambda t: np.full_like(np.asarray(t, dtype=float), rate)


# ----- signal model -----


def test_component_validation():
    with pytest.raises(ConfigError):
        SignalComponent(frequency=0.0, amplitude_pp=1e-9)
    with pytest.raises(ConfigError):
        SignalComponent(frequency=10.0, amplitude_pp=-1e-9)
    SignalComponent(frequency=10.0, amplitude_pp=0.0)  # silent channel is fine


def test_signal_keeps_its_components_as_a_tuple_and_refuses_an_infinite_offset():
    components = [SignalComponent(10.0, 1e-9), SignalComponent(30.0, 2e-9)]
    assert VibrationSignal(components).components == tuple(components)
    with pytest.raises(ConfigError, match="dc_offset_delay must be finite"):
        VibrationSignal(tuple(components), dc_offset_delay=math.inf)


def test_pure_tone_waveform():
    sig = VibrationSignal.pure_tone(10.0, 20e-9, phase=0.3)
    assert sig.displacement(0.0) == pytest.approx(10e-9 * math.cos(0.3), rel=1e-12)
    assert sig.max_frequency == 10.0
    assert sig.peak_to_peak(1.0) == pytest.approx(20e-9, rel=1e-3)


def test_delay_includes_geometry_and_offset():
    sig = VibrationSignal.pure_tone(5.0, 10e-9, dc_offset_delay=1e-15)
    g2 = sig.delay(0.0, GeometryFactor(2))
    g1 = sig.delay(0.0, GeometryFactor(1))
    assert g2 - 1e-15 == pytest.approx(2 * (g1 - 1e-15), rel=1e-12)


def test_square_wave_components():
    sq = VibrationSignal.square_wave(10.0, 55e-9)
    freqs = [c.frequency for c in sq.components]
    assert freqs == [10.0, 30.0, 50.0, 70.0]
    for k, c in zip((1, 3, 5, 7), sq.components):
        assert c.amplitude_pp == pytest.approx((4 / math.pi) * 55e-9 / k, rel=1e-12)
        assert c.phase == pytest.approx(-math.pi / 2, rel=1e-12)


def test_square_wave_truncation_overshoot():
    # The 7-harmonic truncation rings past the nominal levels; the dense
    # sampled peak-to-peak lands 18.4% above nominal.
    sq = VibrationSignal.square_wave(10.0, 55e-9)
    assert sq.peak_to_peak(1.0) / 55e-9 == pytest.approx(1.1841917, abs=2e-4)


def test_square_wave_matches_brute_force_sum():
    sq = VibrationSignal.square_wave(3.0, 40e-9, phase=0.7)
    t = np.linspace(0.0, 1.0, 5001)
    brute = np.zeros_like(t)
    for k in (1, 3, 5, 7):
        brute += (2 / math.pi) * (40e-9 / k) * np.sin(k * (2 * math.pi * 3.0 * t + 0.7))
    assert np.max(np.abs(sq.displacement(t) - brute)) < 1e-21


def test_alternating_tones_match_gated_product():
    alt = VibrationSignal.alternating_tones(5.0, 300.0, 10e-9, 700.0, 6e-9, phase_b=0.4)
    t = np.linspace(0.0, 0.4, 60001)
    gate = 0.5 + sum(
        (2 / math.pi) * np.sin(2 * math.pi * 5.0 * k * t) / k for k in (1, 3, 5, 7)
    )
    tone_a = 5e-9 * np.cos(2 * math.pi * 300.0 * t)
    tone_b = 3e-9 * np.cos(2 * math.pi * 700.0 * t + 0.4)
    brute = gate * tone_a + (1.0 - gate) * tone_b
    assert np.max(np.abs(alt.displacement(t) - brute)) < 1e-20
    # sidebands appear at |k*fs +/- f| around both tones
    freqs = {round(c.frequency, 6) for c in alt.components}
    assert {265.0, 295.0, 300.0, 305.0, 335.0, 665.0, 700.0, 735.0} <= freqs


def test_peak_to_peak_is_the_full_trace_excursion_bit_for_bit(monkeypatch):
    # Several lines are taken block by block, on the samples of one linspace
    # over the whole duration: part of one block (1000 samples), one block
    # and a part (70,000), and over three blocks, for two tones, a square
    # wave and alternating tones.
    cases = (
        (VibrationSignal.multi_tone([SignalComponent(3.7, 20e-9, 0.3),
                                     SignalComponent(1.1, 5e-9)]), 1.0),
        (VibrationSignal.multi_tone([SignalComponent(3000.3, 20e-9, 1.1),
                                     SignalComponent(100.0, 5e-9)]), 0.7),
        (VibrationSignal.square_wave(100.0, 55e-9, phase=0.2), 1.0),
        (VibrationSignal.alternating_tones(5.0, 300.0, 10e-9, 700.0, 6e-9, phase_b=0.4), 0.4),
    )
    for sig, duration in cases:
        n = _trace_samples(sig.max_frequency, duration)
        x = sig.displacement(np.linspace(0.0, duration, n, endpoint=False))
        assert sig.peak_to_peak(duration) == float(x.max() - x.min()), (sig, duration)
    assert _trace_samples(3000.3, 0.7) > 3 * _PEAK_BLOCK
    assert _PEAK_BLOCK < _trace_samples(700.0, 1.0) < 2 * _PEAK_BLOCK
    # The blocks' sample times, put end to end, are the linspace itself.
    blocks = []
    displacement = VibrationSignal.displacement

    def recorded(self, t):
        blocks.append(np.array(t))
        return displacement(self, t)

    monkeypatch.setattr(VibrationSignal, "displacement", recorded)
    sig, duration = cases[1]
    sig.peak_to_peak(duration)
    n = _trace_samples(sig.max_frequency, duration)
    assert len(blocks) == 4
    times = np.concatenate(blocks)
    assert times.tobytes() == np.linspace(0.0, duration, n, endpoint=False).tobytes()


def test_one_line_true_peak_to_peak_is_the_continuous_one():
    # A 20 nm tone at 10 Hz over 1 s is sampled 100 times a period; off the
    # sample grid its samples miss the peaks and read low by up to
    # 1 - cos(pi / 100), while the closed form gives the full swing over the
    # samples' span, as reconstruct takes a one-line model's.
    for phase in (0.0, 0.3, math.pi / 100, -2.0):
        sig = VibrationSignal.pure_tone(10.0, 20e-9, phase)
        x = sig.displacement(np.linspace(0.0, 1.0, 1000, endpoint=False))
        assert sig.peak_to_peak(1.0) == 20e-9
        assert float(x.max() - x.min()) <= 20e-9 * (1.0 + 1e-15)
    sampled = VibrationSignal.pure_tone(10.0, 20e-9, math.pi / 100).displacement(
        np.linspace(0.0, 1.0, 1000, endpoint=False))
    assert float(sampled.max() - sampled.min()) < 20e-9 * (1.0 - 4.9e-4)
    # Below one cycle the span holds one maximum (phase 2 pi) and no
    # minimum: the swing runs from the cosine at the last sample up to 1.
    sig = VibrationSignal.pure_tone(0.6, 20e-9, 5.0)
    last = math.cos(2.0 * math.pi * 0.6 * (1.0 - 1.0 / 1000) + 5.0)
    assert sig.peak_to_peak(1.0) == pytest.approx(10e-9 * (1.0 - last), rel=1e-15)


def test_multi_tone_sorts_and_rejects_empty():
    a = SignalComponent(50.0, 1e-9)
    b = SignalComponent(10.0, 2e-9)
    sig = VibrationSignal.multi_tone([a, b])
    assert [c.frequency for c in sig.components] == [10.0, 50.0]
    with pytest.raises(ConfigError):
        VibrationSignal.multi_tone([])


# ----- channel model -----


def test_accidental_flux_example():
    # 100 kHz signal singles at 50% background gives 200 kHz per detector;
    # with a 100 ps window the accidental rate is 2e-10 * (2e5)^2 = 8/s.
    ch = ChannelModel(singles_rate=100e3, background_fraction=0.5, coincidence_window=100e-12)
    assert ch.accidental_flux == pytest.approx(8.0, rel=1e-12)


def test_channel_validation():
    with pytest.raises(ConfigError):
        ChannelModel(loss_b=1.0)
    with pytest.raises(ConfigError):
        ChannelModel(background_fraction=-0.1)
    with pytest.raises(ConfigError):
        ChannelModel(rate_c=0.0)


def test_quantum_fluxes_loss_scales_but_preserves_contrast():
    pair = PhotonPairSpec(delta_omega=DETUNING, visibility_v0=0.9)
    sig = VibrationSignal.pure_tone(10.0, 30e-9, dc_offset_delay=1.4124e-15)
    t = np.linspace(0.0, 0.3, 1000)
    lossless = quantum_fluxes(pair, sig, ChannelModel(coincidence_window=1e-30))
    lossy = quantum_fluxes(pair, sig, ChannelModel(loss_b=0.6, coincidence_window=1e-30))
    f0 = lossless.flux_1(t)
    f1 = lossy.flux_1(t)
    assert np.allclose(f1, 0.4 * f0, rtol=1e-12)
    assert lossy.bound_1 == pytest.approx(0.4 * lossless.bound_1, rel=1e-12)
    # normalised modulation identical: loss does not touch the fringe
    assert np.allclose(f1 / f1.mean(), f0 / f0.mean(), rtol=1e-9)


def test_classical_fluxes_loss_lowers_visibility():
    fringe = ClassicalFringeSpec(omega_optical=1.2e15, phase_offset=-math.pi / 2)
    sig = VibrationSignal.pure_tone(10.0, 30e-9)
    ch = ChannelModel(singles_rate=1e6, loss_b=0.87)
    fx = classical_fluxes(fringe, sig, ch)
    t = np.linspace(0.0, 0.3, 3000)
    f1 = fx.flux_1(t)
    vis = (f1.max() - f1.min()) / (f1.max() + f1.min())
    # modulation is small, so flux visibility ~ fringe visibility * depth;
    # compare against the analytic 2 sqrt(r_eff)/(1+r_eff) prediction
    r_eff = 1.0 * (1 - 0.87)
    expected_v = 2 * math.sqrt(r_eff) / (1 + r_eff)
    depth = (f1.max() - f1.min()) / 2 / (ch.singles_rate * (1 + r_eff) / 2 / 2)
    assert expected_v > 0.6
    assert vis <= expected_v + 1e-9
    assert depth > 0


def test_classical_background_adds_flat_flux():
    fringe = ClassicalFringeSpec(omega_optical=1.2e15, phase_offset=-math.pi / 2)
    sig = VibrationSignal.pure_tone(10.0, 30e-9)
    clean = classical_fluxes(fringe, sig, ChannelModel(singles_rate=1e5))
    dirty = classical_fluxes(fringe, sig, ChannelModel(singles_rate=1e5, background_fraction=0.5))
    t = np.linspace(0.0, 0.3, 2000)
    delta = dirty.flux_1(t) - clean.flux_1(t)
    assert np.allclose(delta, delta[0], rtol=1e-12)  # flat offset
    assert delta[0] == pytest.approx(1e5 / 2, rel=1e-12)
    # total detected rate doubles at B = 0.5
    total_clean = clean.flux_1(t) + clean.flux_2(t)
    total_dirty = dirty.flux_1(t) + dirty.flux_2(t)
    assert np.allclose(total_dirty, 2 * total_clean, rtol=1e-12)


def test_waveform_fringes_and_fluxes_compute_the_written_formulas_and_result_types():
    # The waveform, fringes and fluxes compute the formulas written out here,
    # bit for bit, so every value and every seeded draw is pinned to them;
    # for a scalar, 0-d or empty time or delay each returns the type these do.
    pair = PhotonPairSpec(delta_omega=DETUNING, visibility_v0=0.9)
    fringe = ClassicalFringeSpec(omega_optical=1.2153e15, phase_offset=-math.pi / 2,
                                 arm_intensity_ratio=0.6)
    sig = VibrationSignal.square_wave(10.0, 55e-9, dc_offset_delay=1.4124293785310734e-15)
    ch = ChannelModel(loss_b=0.3, background_fraction=0.2, singles_rate=1.2e6)
    g = ch.geometry

    def displacement(t):
        t = np.asarray(t, dtype=float)
        x = np.zeros_like(t)
        for c in sig.components:
            x += (c.amplitude_pp / 2.0) * np.cos(2.0 * math.pi * c.frequency * t + c.phase)
        return x

    def delay(t):
        return sig.dc_offset_delay + g.g * displacement(t) / SPEED_OF_LIGHT

    def p_quantum(tau):
        tau = np.asarray(tau, dtype=float)
        envelope = np.exp(-2.0 * (pair.sigma * tau) ** 2)
        p = 0.5 * (1.0 - pair.visibility_v0 * np.cos(pair.delta_omega * tau) * envelope)
        return p if p.ndim else float(p)

    def p_port(spec, tau):
        tau = np.asarray(tau, dtype=float)
        p = 0.5 * (1.0 + spec.visibility * np.cos(spec.omega_optical * tau + spec.phase_offset))
        return p if p.ndim else float(p)

    survival, acc = 1.0 - ch.loss_b, ch.accidental_flux
    eff = ClassicalFringeSpec(omega_optical=fringe.omega_optical, phase_offset=fringe.phase_offset,
                              arm_intensity_ratio=0.6 * survival)
    scale = ch.singles_rate * (1.0 + eff.arm_intensity_ratio) / 2.0
    bg = (ch.background_fraction / (1.0 - ch.background_fraction)) * scale / 2.0
    expected = {
        "quantum": (lambda t: survival * ch.rate_c * p_quantum(delay(t)) + acc,
                    lambda t: survival * ch.rate_a * (1.0 - p_quantum(delay(t))) + acc),
        "classical": (lambda t: scale * p_port(eff, delay(t)) + bg,
                      lambda t: scale * (1.0 - p_port(eff, delay(t))) + bg),
    }
    actual = {
        "quantum": quantum_fluxes(pair, sig, ch),
        "classical": classical_fluxes(fringe, sig, ch),
    }

    def same(a, b):
        assert type(a) is type(b)
        assert np.shape(a) == np.shape(b) and np.array_equal(a, b)

    times = np.sort(np.random.default_rng(14).random(20_000)) * 1.8
    for t in (times, np.empty(0), 0.3, np.float64(0.7)):
        same(sig.displacement(t), displacement(t))
        same(sig.delay(t, g), delay(t))
        for tau in (delay(t), np.asarray(delay(t)), -2.0e-15):
            same(fringe_probability(pair, tau), p_quantum(tau))
            same(fringe_probability(eff, tau), p_port(eff, tau))
        if np.ndim(t):
            for mode, fx in actual.items():
                same(fx.flux_1(t), expected[mode][0](t))
                same(fx.flux_2(t), expected[mode][1](t))


# ----- timestamp streams -----


def test_stream_validation():
    with pytest.raises(ConfigError):
        TimestampStream("bogus", [1, 2], 1e-10, 1.0)
    with pytest.raises(ConfigError):
        TimestampStream("coincidence", [3, 2], 1e-10, 1.0)
    with pytest.raises(ConfigError):
        TimestampStream("coincidence", [-1], 1e-10, 1.0)
    with pytest.raises(ConfigError):
        TimestampStream("coincidence", [10**10], 1e-10, 1.0)  # tick lands at t_exp


def test_stream_order_check_does_not_wrap():
    # np.diff of these ticks wraps to non-negative steps on int64; a wrapped
    # cast from an over-fine tick looks like this.
    ticks = [0, 2**63 - 1, -(2**63)]
    with pytest.raises(ConfigError, match="sorted ascending"):
        TimestampStream("coincidence", ticks, 1e-18, 100.0)


def test_stream_times_and_centering():
    s = TimestampStream("coincidence", [0, 5_000_000_000], 100e-12, 1.0)
    assert np.allclose(s.times(), [0.0, 0.5])
    assert np.allclose(s.centered_times(), [-0.5, 0.0])
    assert len(s) == 2


# ----- sampling -----


def test_homogeneous_count_and_uniformity():
    rate, t_exp = 5000.0, 1.0
    s = sample_inhomogeneous_poisson(flat_flux(rate), rate, t_exp, rng=101)
    n = len(s)
    assert abs(n - rate * t_exp) < 4 * math.sqrt(rate * t_exp)
    # arrival times should look uniform on [0, 1)
    assert _ks_uniform_p(s.times()) > 1e-4


def _ks_uniform_p(x: np.ndarray) -> float:
    """p-value of the one-sample Kolmogorov-Smirnov test of x against uniform on [0, 1).

    D is the largest gap between the empirical and the uniform distribution
    function. p is the Kolmogorov tail Q(lambda) = 2 sum (-1)^(k-1)
    exp(-2 k^2 lambda^2) at Stephens' lambda = (sqrt(n) + 0.12 + 0.11 /
    sqrt(n)) D, which tracks the exact small-sample p within a few per mille
    at n = 5000 (M. A. Stephens, JRSS B 32, 1970).
    """
    x = np.sort(x)
    n = x.size
    i = np.arange(1, n + 1)
    d = max(np.max(i / n - x), np.max(x - (i - 1) / n))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    q = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 101))
    return min(max(q, 0.0), 1.0)


def test_thinning_reproduces_modulated_profile():
    rate0, depth, f0 = 20000.0, 0.8, 4.0
    flux = lambda t: rate0 * (1 + depth * np.cos(2 * math.pi * f0 * t))
    bound = rate0 * (1 + depth)
    s = sample_inhomogeneous_poisson(flux, bound, 2.0, rng=77)
    phase = (s.times() * f0) % 1.0
    counts, edges = np.histogram(phase, bins=25, range=(0, 1))
    centers = (edges[:-1] + edges[1:]) / 2
    expected = rate0 * 2.0 * (1 + depth * np.cos(2 * math.pi * centers)) / 25
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 24 dof; generous ceiling keeps the seeded test stable
    assert chi2 < 60.0


def test_sampler_rejects_bound_violation():
    with pytest.raises(ConfigError):
        sample_inhomogeneous_poisson(flat_flux(10.0), 5.0, 1.0, rng=1)
    with pytest.raises(ConfigError):
        sample_inhomogeneous_poisson(lambda t: 5.0 - 10 * t, 5.0, 1.0, rng=1)  # negative
    # Refused before the draw, not by the stream the draw would make.
    with pytest.raises(ConfigError, match="^bound must be positive$"):
        sample_inhomogeneous_poisson(flat_flux(0.0), 0.0, 1.0, rng=1)
    with pytest.raises(ConfigError, match="^t_exp must be positive$"):
        sample_inhomogeneous_poisson(flat_flux(1.0), 1.0, 0.0, rng=1)


def test_sampler_reads_the_flux_once_at_the_candidates():
    # The bound check reads the very values the thinning uses: one flux
    # call per draw, at the sorted candidate times.
    calls = []

    def flux(t):
        calls.append(np.array(t, copy=True))
        return np.full_like(t, 500.0)

    s = sample_inhomogeneous_poisson(flux, 1000.0, 2.0, rng=3)
    assert len(calls) == 1
    (t,) = calls
    assert np.all(np.diff(t) >= 0) and t[0] >= 0.0 and t[-1] < 2.0
    assert t.size == np.random.default_rng(3).poisson(1000.0 * 2.0)
    assert 0 < len(s) < t.size
    assert np.all(np.isin(s.ticks, np.floor(t / s.tick_duration).astype(np.int64)))
    # A flux that turns NaN in the second half of the exposure is refused.
    with pytest.raises(ConfigError, match="flux is not finite"):
        sample_inhomogeneous_poisson(lambda t: np.where(t > 0.5, np.nan, 1.0), 5.0, 1.0, rng=1)


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.nan, "flux is not finite"),
        (np.inf, "flux is not finite"),
        (-np.inf, "flux is not finite"),
        (-1e-9, "flux is negative"),
        (5.0 * (1.0 + 1e-11), r"flux exceeds its bound \(5 > 5 events/s\)"),
    ],
)
def test_sampler_refuses_a_bad_flux_value_with_its_message(bad, message):
    # One bad value among valid ones fails the min/max pass; the three
    # checks behind it then name what is wrong. A negative value next to a
    # NaN is reported as not finite, the first check.
    def flux(t):
        f = np.full_like(t, 2.5)
        f[t.size // 2] = bad
        return f

    with pytest.raises(ConfigError, match=message):
        sample_inhomogeneous_poisson(flux, 5.0, 1.0, rng=1)
    with pytest.raises(ConfigError, match="flux is not finite"):
        sample_inhomogeneous_poisson(lambda t: np.where(t < 0.5, -1.0, np.nan), 5.0, 1.0, rng=1)


def test_sampler_accepts_zero_candidates_and_the_bound_itself():
    assert np.random.default_rng(2).poisson(1e-3) == 0
    s = sample_inhomogeneous_poisson(flat_flux(1e-3), 1e-3, 1.0, rng=2)
    assert len(s) == 0 and s.ticks.dtype == np.int64
    # The bound, and a rounding-level excess over it, are not violations.
    for rate in (5.0, 5.0 * (1.0 + 1e-13)):
        assert len(sample_inhomogeneous_poisson(flat_flux(rate), 5.0, 100.0, rng=4)) > 0


def test_sampler_candidate_cap():
    with pytest.raises(ConfigError):
        sample_inhomogeneous_poisson(flat_flux(1e9), 1e9, 1.0, rng=1)
    # Just above the 2.2e7 cap: refused before anything is allocated.
    with pytest.raises(ConfigError, match="too large to sample"):
        sample_inhomogeneous_poisson(flat_flux(2.3e7), 2.3e7, 1.0, rng=1)


@pytest.mark.parametrize("squeezed", [True, False], ids=["flux_range", "no-range"])
def test_a_draw_peaks_within_20_bytes_a_candidate(squeezed):
    # The bound behind _MAX_CANDIDATES: at 20 bytes a candidate, a draw at the
    # cap stays within about 0.4 GiB. A 21 kHz tone's range leaves about 7% of
    # the candidates for the flux to decide; with no range it decides them all.
    # Thinning a block at a time, either peaks at about 17.0 bytes a candidate.
    pair = PhotonPairSpec(delta_omega=DETUNING, visibility_v0=0.9)
    tone = VibrationSignal.pure_tone(21e3, 20e-9, dc_offset_delay=quadrature_delay(pair))
    fx = quantum_fluxes(pair, tone, ChannelModel(rate_c=1e6, rate_a=1e6))
    candidates = 1e6
    tracemalloc.start()
    try:
        stream = sample_inhomogeneous_poisson(
            fx.flux_1, fx.bound_1, candidates / fx.bound_1, rng=7,
            flux_range=fx.range_1 if squeezed else None,
        )
        per_candidate = tracemalloc.get_traced_memory()[1] / candidates
    finally:
        tracemalloc.stop()
    assert abs(len(stream) - candidates / 2) < 5e3  # a quadrature draw keeps about half
    assert per_candidate <= 20, per_candidate
    assert 20 * _MAX_CANDIDATES <= 0.41 * 2**30


@pytest.mark.parametrize("tick, t_exp, message", [
    (0.0, 1.0, "tick_duration must be positive and finite"),
    (-1e-10, 1.0, "tick_duration must be positive and finite"),
    (math.nan, 1.0, "tick_duration must be positive and finite"),
    (math.inf, 1.0, "tick_duration must be positive and finite"),
    (1e-18, 100.0, "below 2\\^63 ticks, got 1e\\+20"),
    (1.0, 2.0**63, "below 2\\^63 ticks"),
])
def test_sampler_refuses_a_tick_without_an_int64_count(tick, t_exp, message):
    # 100 s at 1 as is 1e20 ticks, past int64: cast, the ticks would wrap to
    # -2^63. The tick is refused before the flux is read or a number drawn.
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state

    def flux(t):
        raise AssertionError("flux read")

    with pytest.raises(ConfigError, match=message):
        sample_inhomogeneous_poisson(flux, 1e-3, t_exp, rng, tick_duration=tick)
    assert rng.bit_generator.state == state
    # Just below 2^63 ticks the exposure is drawn.
    t_exp = float(np.nextafter(2.0**63, 0.0)) * 1e-18
    assert sample_inhomogeneous_poisson(flat_flux(1e-3), 1e-3, t_exp, 9, 1e-18).t_exp == t_exp


def test_tick_quantisation():
    s = sample_inhomogeneous_poisson(flat_flux(1000.0), 1000.0, 1.0, rng=5, tick_duration=1e-3)
    assert np.all(s.ticks < 1000)
    assert s.tick_duration == 1e-3


# ----- run drivers -----


def test_quantum_run_determinism_and_rates():
    pair = PhotonPairSpec(delta_omega=DETUNING, visibility_v0=0.9)
    sig = VibrationSignal.pure_tone(10.0, 20e-9, dc_offset_delay=1.4124293785310734e-15)
    ch = ChannelModel(rate_c=50e3, rate_a=50e3)
    run1 = simulate_quantum_run(pair, sig, ch, 0.5, seed=42)
    run2 = simulate_quantum_run(pair, sig, ch, 0.5, seed=42)
    assert np.array_equal(run1.coincidences.ticks, run2.coincidences.ticks)
    assert np.array_equal(run1.anticoincidences.ticks, run2.anticoincidences.ticks)
    run3 = simulate_quantum_run(pair, sig, ch, 0.5, seed=43)
    assert not np.array_equal(run1.coincidences.ticks, run3.coincidences.ticks)
    # near quadrature both streams run at about half their max rate
    for stream, rate in ((run1.coincidences, 50e3), (run1.anticoincidences, 50e3)):
        n = len(stream)
        assert abs(n - 0.5 * rate * 0.5) < 5 * math.sqrt(0.5 * rate * 0.5)
    assert sig.peak_to_peak(0.5) == pytest.approx(20e-9, rel=1e-3)


def test_classical_run_port_rates():
    fringe = ClassicalFringeSpec(omega_optical=1.2153e15, phase_offset=-math.pi / 2)
    sig = VibrationSignal.pure_tone(10.0, 20e-9)
    ch = ChannelModel(singles_rate=100e3)
    run = simulate_classical_run(fringe, sig, ch, 0.5, seed=9)
    n1, n2 = len(run.port1), len(run.port2)
    assert abs(n1 - 25e3) < 5 * math.sqrt(25e3)
    assert abs(n2 - 25e3) < 5 * math.sqrt(25e3)
    assert run.port1.tag == "singles1"
    assert run.port2.tag == "singles2"


# ----- concurrent draws -----


def test_concurrent_draws_are_bitwise_the_serial_draws(monkeypatch, counting_pools):
    # 60k candidates a stream (the quantum pair with its accidentals, the
    # classical ports at half the singles rate each), drawn with the gate
    # forced open and shut: each stream reads only its own child generator.
    pair = PhotonPairSpec(delta_omega=DETUNING, visibility_v0=0.9)
    fringe = ClassicalFringeSpec(omega_optical=1.2153e15, phase_offset=-math.pi / 2)
    signal = VibrationSignal.square_wave(37.0, 30e-9, phase=0.4)
    signal_q = VibrationSignal(signal.components, dc_offset_delay=quadrature_delay(pair))
    channel = ChannelModel(rate_c=60e3, rate_a=55e3, singles_rate=120e3)
    runs = {}
    started = counting_pools
    for gate in (0, math.inf):
        monkeypatch.setattr("qvibe.simulate._PAIR_THREAD_EVENTS", gate)
        runs[gate] = (
            simulate_quantum_run(pair, signal_q, channel, 1.0, seed=5),
            simulate_classical_run(fringe, signal, channel, 1.0, seed=5, tick_duration=23e-12),
        )
    assert started == [1, 1]  # one worker for each run on the open gate, none on the shut
    for serial, concurrent in zip(runs[math.inf], runs[0]):
        for a, b in zip(serial, concurrent):
            assert (a.tag, a.tick_duration, a.t_exp) == (b.tag, b.tick_duration, b.t_exp)
            assert len(a) > 20_000
            assert a.ticks.tobytes() == b.ticks.tobytes()


def test_two_draws_over_the_cap_together_start_no_thread(monkeypatch):
    # Each stream expects 1e5 candidates, under a cap of 1.5e5 and over the
    # pair's thread gate, but the two together pass the cap, so they are drawn
    # one after the other and never peak together.
    def refuse(max_workers):
        raise AssertionError("started a thread")

    monkeypatch.setattr("qvibe.simulate.ThreadPoolExecutor", refuse)
    monkeypatch.setattr("qvibe.simulate._MAX_CANDIDATES", 1.5e5)
    pair = PhotonPairSpec(delta_omega=DETUNING)
    signal = VibrationSignal.pure_tone(10.0, 20e-9, dc_offset_delay=quadrature_delay(pair))
    channel = ChannelModel(rate_c=1e5, rate_a=1e5, singles_rate=1e3)
    assert 1e5 <= quantum_fluxes(pair, signal, channel).bound_1 < 1.0001e5
    run = simulate_quantum_run(pair, signal, channel, 1.0, seed=3)
    assert min(len(run.coincidences), len(run.anticoincidences)) > 40_000


def test_a_refused_second_draw_raises_the_same_error_with_the_gate_open_or_shut(monkeypatch):
    # Stream 2's flux exceeds its bound; on the open gate it is drawn, and
    # refused, on the worker thread, whose error the caller raises once
    # the pool is closed.
    def fluxes(fringe, signal, channel):
        return FluxPair(flat_flux(4e4), lambda t: np.linspace(0.0, 5e4, np.size(t)), 4e4, 4e4)

    pair = PhotonPairSpec(delta_omega=DETUNING)
    signal = VibrationSignal.pure_tone(10.0, 20e-9)
    threads = threading.active_count()
    messages = []
    for gate in (0, math.inf):
        monkeypatch.setattr("qvibe.simulate._PAIR_THREAD_EVENTS", gate)
        with pytest.raises(ConfigError, match="flux exceeds its bound") as exc:
            _simulate_run(QuantumRun, fluxes, pair, signal, ChannelModel(), 1.0, 8, 1e-10)
        messages.append(str(exc.value))
        assert threading.active_count() == threads
    assert messages[0] == messages[1]


# ----- squeezed thinning -----

QUICK_START = """
[pair]
detuning = 177 THz
visibility = 0.9

[signal]
kind = pure_tone
frequency = 10 Hz
amplitude_pp = 20 nm

[channel]
rate_c = 190 kHz
rate_a = 190 kHz

[run]
t_exp = 1 s
seed = 611
"""


def _quick_start_run(tmp_path, mode):
    """The README quick start's two streams, drawn by ``qvibe simulate``."""
    (tmp_path / "tone.ini").write_text(QUICK_START)
    out = tmp_path / mode
    assert main(["simulate", "-c", str(tmp_path / "tone.ini"), "--mode", mode,
                 "--out", str(out), "--binary"]) == 0
    names = ("coincidence", "anticoincidence") if mode == "quantum" else ("port1", "port2")
    return [read_stream(out / f"{name}.bin") for name in names]


def _seeded_run(case, tmp_path):
    pair = PhotonPairSpec(delta_omega=DETUNING, visibility_v0=0.9)
    if case in ("quick start quantum", "quick start classical"):
        return _quick_start_run(tmp_path, case.split()[-1])
    if case == "signal-free":
        # The first run of test_06.
        seed = int(np.random.SeedSequence(20260814).spawn(1)[0].generate_state(1)[0])
        pair = PhotonPairSpec(delta_omega=DETUNING)
        signal = VibrationSignal(components=(), dc_offset_delay=quadrature_delay(pair))
        return simulate_quantum_run(pair, signal, ChannelModel(rate_c=2e3, rate_a=2e3), 1.0, seed)
    if case == "sweep 21 kHz":
        # The top point of test_02: 5 s at 200 kHz, seed 3000 + 20.
        signal = VibrationSignal.pure_tone(
            21e3 * 1.00142, 20e-9, dc_offset_delay=quadrature_delay(pair)
        )
        return simulate_quantum_run(pair, signal, ChannelModel(rate_c=200e3, rate_a=200e3), 5.0, 3020)
    # A 300 nm square wave a third of the way to quadrature, with loss and
    # background: its fringe phase swings past half a period.
    signal, channel = _wide_square_wave(pair)
    return simulate_quantum_run(pair, signal, channel, 1.0, 5)


def _wide_square_wave(pair):
    signal = VibrationSignal.square_wave(
        37.0, 300e-9, phase=0.4, dc_offset_delay=quadrature_delay(pair) / 3.0
    )
    return signal, ChannelModel(rate_c=5e4, rate_a=4e4, loss_b=0.3, background_fraction=0.2)


# sha256 of each run's two tick arrays, in stream order, as drawn before the
# thinning was squeezed: the squeeze changes no decision, so no stream.
PINNED_STREAMS = {
    "quick start quantum":
        "4d1d85b4e7d97165e53fe078cb5aaa515e9288653e7ed538f4368cd3ad7da1f1",
    "quick start classical":
        "2e83e089e845bacb467d2506ee8fb44b1e7a694b12035f2dbd79722fbd7be6ce",
    "signal-free":
        "9b371e02ebda7eb0e7d84aa3eaea2823c570550b1c582588d549e0265e284f27",
    "sweep 21 kHz":
        "5a3470ca068fb78bb501ba96fbf29a33c2f34a4e4e20d4ab18ce5b69823b73fe",
    "wide square wave":
        "34e369c8b6c1cfddd9d1e61bc70fd30dd96634799a446b2f8d5638c57e10e0f6",
}


@pytest.mark.parametrize("case", sorted(PINNED_STREAMS))
def test_seeded_streams_keep_their_bytes(tmp_path, case):
    digest = hashlib.sha256()
    for stream in _seeded_run(case, tmp_path):
        digest.update(stream.ticks.tobytes())
    assert digest.hexdigest() == PINNED_STREAMS[case], case


def test_the_wide_square_wave_has_a_wide_enclosure():
    # The pinned wide case leaves most decisions to the flux: its enclosure
    # spans over 80% of each bound, against under 7% for the sweep tone.
    pair = PhotonPairSpec(delta_omega=DETUNING, visibility_v0=0.9)
    wide = quantum_fluxes(pair, *_wide_square_wave(pair))
    tone = VibrationSignal.pure_tone(21e3, 20e-9, dc_offset_delay=quadrature_delay(pair))
    narrow = quantum_fluxes(pair, tone, ChannelModel(rate_c=200e3, rate_a=200e3))
    for fx, low, high in ((wide, 0.8, 0.95), (narrow, 0.06, 0.07)):
        for (lo, hi), bound in ((fx.range_1, fx.bound_1), (fx.range_2, fx.bound_2)):
            assert 0.0 <= lo < hi <= bound
            assert low < (hi - lo) / bound < high


def test_a_signal_free_enclosure_is_one_flux_value_wide():
    pair = PhotonPairSpec(delta_omega=DETUNING)
    signal = VibrationSignal(components=(), dc_offset_delay=quadrature_delay(pair))
    fx = quantum_fluxes(pair, signal, ChannelModel(rate_c=2e3, rate_a=2e3))
    t = np.linspace(0.0, 1.0, 5)
    for flux, (lo, hi), bound in ((fx.flux_1, fx.range_1, fx.bound_1),
                                  (fx.flux_2, fx.range_2, fx.bound_2)):
        assert lo <= flux(t).min() <= flux(t).max() <= hi
        assert hi - lo <= 2.1e-9 * bound


def test_the_squeezed_draw_reads_the_flux_only_where_the_range_leaves_it_open(monkeypatch):
    # A flat 500/s flux under a 1000/s bound, squeezed by (400, 600): the
    # flux is read at the sorted candidates whose u * bound lies in
    # [400, 600), about a fifth of them, in blocks of at most _FLUX_BLOCK,
    # and the stream is the one drawn without the range, which reads the
    # flux at every candidate, in the same blocks.
    monkeypatch.setattr("qvibe.simulate._FLUX_BLOCK", 100)
    calls = []

    def flux(t):
        calls.append(np.array(t, copy=True))
        return np.full_like(t, 500.0)

    full = sample_inhomogeneous_poisson(flux, 1000.0, 2.0, rng=3)
    assert len(calls) > 3 and all(c.size <= 100 for c in calls)
    everywhere = np.concatenate(calls)
    assert np.all(np.diff(everywhere) >= 0)
    calls.clear()
    squeezed = sample_inhomogeneous_poisson(flux, 1000.0, 2.0, rng=3, flux_range=(400.0, 600.0))
    assert squeezed.ticks.tobytes() == full.ticks.tobytes()
    assert len(calls) > 3 and all(c.size <= 100 for c in calls)
    read = np.concatenate(calls)
    rng = np.random.default_rng(3)
    n = rng.poisson(2000.0)
    rng.random(n)
    u = rng.random(n) * 1000.0
    assert np.array_equal(read, everywhere[(u >= 400.0) & (u < 600.0)])
    assert 0.15 < read.size / everywhere.size < 0.25
    # No candidate left open: the flux is not read at all.
    calls.clear()
    assert sample_inhomogeneous_poisson(flux, 1000.0, 2.0, 3, flux_range=(500.0, 500.0)).ticks.tobytes() \
        == full.ticks.tobytes()
    assert calls == []


@pytest.mark.parametrize("block", [1, 7, 1000, 1 << 16])
@pytest.mark.parametrize("squeezed", [True, False], ids=["flux_range", "no-range"])
def test_thinning_a_block_at_a_time_is_the_one_shot_draw(monkeypatch, block, squeezed):
    # Each block draws its own uniforms, rng.random(k), which continue the
    # one-shot draw of all of them, so the stream and the generator's state
    # after the draw are those of drawing every uniform at once and reading
    # the flux at every candidate.
    pair = PhotonPairSpec(delta_omega=DETUNING, visibility_v0=0.9)
    tone = VibrationSignal.pure_tone(210.0, 40e-9, dc_offset_delay=quadrature_delay(pair))
    fx = quantum_fluxes(pair, tone, ChannelModel(rate_c=1e4, rate_a=1e4))
    rng = np.random.default_rng(44)
    n = rng.poisson(fx.bound_1)
    times = np.sort(rng.random(n) * 1.0)
    u = rng.random(n) * fx.bound_1
    ticks = np.floor(times[u < fx.flux_1(times)] / 1e-10).astype(np.int64)
    monkeypatch.setattr("qvibe.simulate._FLUX_BLOCK", block)
    drawn = np.random.default_rng(44)
    stream = sample_inhomogeneous_poisson(
        fx.flux_1, fx.bound_1, 1.0, drawn, flux_range=fx.range_1 if squeezed else None
    )
    assert n > 5000 and stream.ticks.tobytes() == ticks.tobytes()
    assert drawn.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("flux_range", [(-1.0, 500.0), (400.0, 1000.5), (600.0, 400.0),
                                        (math.nan, 500.0)])
def test_a_range_outside_the_bound_reads_the_flux_everywhere(monkeypatch, flux_range):
    monkeypatch.setattr("qvibe.simulate._FLUX_BLOCK", 100)
    calls = []

    def flux(t):
        calls.append(t.size)
        return np.full_like(t, 500.0)

    s = sample_inhomogeneous_poisson(flux, 1000.0, 2.0, rng=3, flux_range=flux_range)
    n = np.random.default_rng(3).poisson(2000.0)
    assert sum(calls) == n and calls == [100] * (n // 100) + [n % 100]
    assert s.ticks.tobytes() == sample_inhomogeneous_poisson(flux, 1000.0, 2.0, rng=3).ticks.tobytes()


def test_a_squeezed_draw_checks_the_values_it_reads(monkeypatch):
    # A flux the range misdescribes is refused with the usual messages where
    # the draw reads it. Without a range, a bad value late in the exposure
    # is refused from a later block than the first.
    monkeypatch.setattr("qvibe.simulate._FLUX_BLOCK", 100)
    for bad, message in ((np.nan, "flux is not finite"), (-1.0, "flux is negative"),
                         (2e3, "flux exceeds its bound")):
        with pytest.raises(ConfigError, match=message):
            sample_inhomogeneous_poisson(
                lambda t: np.full_like(t, bad), 1000.0, 2.0, rng=3, flux_range=(400.0, 600.0)
            )
        with pytest.raises(ConfigError, match=message):
            sample_inhomogeneous_poisson(
                lambda t: np.where(t < 1.9, 500.0, bad), 1000.0, 2.0, rng=3
            )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-1e4, 1e4), st.floats(0.0, 7.0))
def test_cos_range_is_the_range_of_cos(a, width):
    # Against the cosine at 10^5 points and both ends of [a, a + width]:
    # the range encloses them all and is no wider than their spacing allows.
    b = a + width
    lo, hi = _cos_range(a, b)
    values = np.cos(np.concatenate([np.linspace(a, b, 100_000), [a, b]]))
    assert lo <= values.min() and values.max() <= hi
    step = width / 99_999
    assert values.min() - lo <= step * step and hi - values.max() <= step * step


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    classical=st.booleans(),
    square=st.booleans(),
    periods=st.one_of(st.just(0.0), st.floats(1e-4, 6.0)),
    operating=st.one_of(st.sampled_from([1.0, 0.0]), st.floats(-3.0, 9.0)),
    sigma=st.sampled_from([0.0, 2 * math.pi * 0.5e12, 3e14]),
    contrast=st.sampled_from([1.0, 0.9, 0.25]),
    loss=st.sampled_from([0.0, 0.3]),
    background=st.sampled_from([0.0, 0.2]),
    g=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**31),
)
def test_flux_enclosure_holds_and_the_squeeze_keeps_the_stream(
    classical, square, periods, operating, sigma, contrast, loss, background, g, seed
):
    # Both fringe kinds, on quadrature (operating 1), off it and at zero
    # delay, amplitudes up to six fringe periods of delay: every flux value
    # at 10^4 sorted times lies in its enclosure, and a seeded draw squeezed
    # by it has the ticks of the draw that reads the flux everywhere.
    pair = PhotonPairSpec(delta_omega=DETUNING, sigma=sigma, visibility_v0=contrast)
    fringe = (ClassicalFringeSpec(omega_optical=1.2153e15, arm_intensity_ratio=contrast,
                                  phase_offset=operating) if classical else pair)
    period = 2 * math.pi * SPEED_OF_LIGHT / (fringe.omega * g)  # one fringe period of displacement
    delay = operating * quadrature_delay(pair) if not classical else 0.0
    amplitude = periods * period
    if square:
        signal = (VibrationSignal.square_wave(37.0, amplitude, phase=0.4, dc_offset_delay=delay)
                  if amplitude else VibrationSignal((), delay))
    else:
        signal = VibrationSignal.pure_tone(37.0, amplitude, 0.4, delay)
    channel = ChannelModel(rate_c=2e4, rate_a=1.5e4, singles_rate=2e4, loss_b=loss,
                           background_fraction=background, geometry=GeometryFactor(g))
    fx = (classical_fluxes if classical else quantum_fluxes)(fringe, signal, channel)
    t = np.sort(np.random.default_rng(seed).random(10_000))
    for flux, flux_range, bound in ((fx.flux_1, fx.range_1, fx.bound_1),
                                    (fx.flux_2, fx.range_2, fx.bound_2)):
        lo, hi = flux_range
        assert 0.0 <= lo <= hi <= bound
        values = flux(t)
        assert lo <= values.min() and values.max() <= hi
        squeezed = sample_inhomogeneous_poisson(flux, bound, 1.0, seed, flux_range=flux_range)
        full = sample_inhomogeneous_poisson(flux, bound, 1.0, seed)
        assert squeezed.ticks.tobytes() == full.ticks.tobytes()


@pytest.mark.parametrize("pair, signal", [
    # 2 pi f t overflows: the waveform, so the flux, is NaN.
    (PhotonPairSpec(delta_omega=DETUNING), VibrationSignal.pure_tone(1e308, 1e-9)),
    # The fringe phase omega tau overflows.
    (PhotonPairSpec(delta_omega=DETUNING), VibrationSignal((), dc_offset_delay=1e300)),
    # sigma tau is inf * 0 at zero delay.
    (PhotonPairSpec(delta_omega=DETUNING, sigma=math.inf), VibrationSignal((), 0.0)),
])
def test_a_flux_that_may_be_nan_has_no_enclosure_and_is_refused(pair, signal):
    # No range can hold a NaN, so the draw reads the flux at every candidate
    # and refuses it as it does unsqueezed.
    channel = ChannelModel(rate_c=2e3, rate_a=2e3)
    fx = quantum_fluxes(pair, signal, channel)
    assert fx.range_1 is None and fx.range_2 is None
    with np.errstate(all="ignore"), pytest.raises(ConfigError, match="flux is not finite"):
        simulate_quantum_run(pair, signal, channel, 1.0, seed=3)
