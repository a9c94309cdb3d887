"""Event-stream simulation for interferometric vibrometry.

A vibration waveform is modelled as a sparse set of sinusoids. The
waveform modulates the interferometer delay around an operating point,
the fringe model converts the delay into detection-rate modulation, and
detector clicks are drawn as an inhomogeneous Poisson process which is
then quantised onto a discrete timestamp grid. Each flux is evaluated once
per draw, at the thinning candidates, and checked against its bound there.

Two detection channels are supported:

* quantum: coincidence and anti-coincidence pair streams whose rates
  follow the entangled-pair fringe,
* classical: two beamsplitter-port singles streams following ordinary
  single-photon interference.

Uniform optical loss on one arm and uncorrelated background light are
both modelled at the flux level, which is where they act on detection
statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ClassicalFringeSpec,
    GeometryFactor,
    PhotonPairSpec,
    SPEED_OF_LIGHT,
    fringe_probability,
)
from .errors import ConfigError

STREAM_TAGS = ("coincidence", "anticoincidence", "singles1", "singles2")

DEFAULT_TICK = 100e-12

# Hard cap on expected thinning candidates, to protect memory. A draw
# peaks at about 48 bytes per candidate (tracemalloc on 2M and 4M
# candidates, pure tone and square wave), so the cap keeps one draw
# within about 1 GiB.
_MAX_CANDIDATES = 2.2e7

# Ticks are int64, so an exposure spans fewer than 2^63 of them.
_MAX_TICKS = 2.0**63


@dataclass(frozen=True)
class SignalComponent:
    """One sinusoid: x(t) = (amplitude_pp / 2) * cos(2*pi*frequency*t + phase)."""

    frequency: float
    amplitude_pp: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.frequency) and self.frequency > 0):
            raise ConfigError("component frequency must be positive and finite")
        if not (np.isfinite(self.amplitude_pp) and self.amplitude_pp >= 0):
            raise ConfigError("component amplitude_pp must be non-negative")


def _components_from_phasors(phasors: dict[float, complex]) -> tuple[SignalComponent, ...]:
    comps = []
    for f in sorted(phasors):
        z = phasors[f]
        amp = abs(z)
        if amp < 1e-30:
            continue
        comps.append(SignalComponent(frequency=f, amplitude_pp=2.0 * amp, phase=float(np.angle(z))))
    return tuple(comps)


def _add_sin(phasors: dict[float, complex], freq: float, amp: float, phase: float) -> None:
    """Accumulate amp*sin(2*pi*freq*t + phase), folding negative frequencies."""
    if freq < 0:
        # sin(-a + p) = -sin(a - p) = sin(a - p + pi)
        freq, phase = -freq, math.pi - phase
    if freq == 0:
        return
    # sin(y) = cos(y - pi/2); store the cosine phasor amp*exp(i*theta).
    phasors[freq] = phasors.get(freq, 0j) + amp * np.exp(1j * (phase - math.pi / 2))


@dataclass(frozen=True)
class VibrationSignal:
    """Sparse-sinusoid displacement waveform plus a static delay offset.

    ``dc_offset_delay`` is the interferometer operating point in seconds;
    the waveform rides on top of it.
    """

    components: tuple[SignalComponent, ...]
    dc_offset_delay: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.components, tuple):
            object.__setattr__(self, "components", tuple(self.components))
        if not np.isfinite(self.dc_offset_delay):
            raise ConfigError("dc_offset_delay must be finite")

    # ----- constructors -----

    @classmethod
    def pure_tone(
        cls, frequency: float, amplitude_pp: float, phase: float = 0.0, dc_offset_delay: float = 0.0
    ) -> "VibrationSignal":
        comp = SignalComponent(frequency, amplitude_pp, phase)
        return cls(components=(comp,), dc_offset_delay=dc_offset_delay)

    @classmethod
    def multi_tone(
        cls, components: Sequence[SignalComponent], dc_offset_delay: float = 0.0
    ) -> "VibrationSignal":
        comps = tuple(sorted(components, key=lambda c: c.frequency))
        if not comps:
            raise ConfigError("multi_tone needs at least one component")
        return cls(components=comps, dc_offset_delay=dc_offset_delay)

    @classmethod
    def square_wave(
        cls,
        frequency: float,
        amplitude_pp: float,
        n_harmonics: int = 7,
        phase: float = 0.0,
        dc_offset_delay: float = 0.0,
    ) -> "VibrationSignal":
        """Odd-harmonic truncation of a square wave of nominal pp amplitude.

        Components sit at odd multiples k of the fundamental with pp
        amplitude (4/pi) * amplitude_pp / k, up to k = n_harmonics. Note
        that the truncated waveform overshoots the nominal amplitude near
        the transitions, so its actual peak-to-peak excursion exceeds
        ``amplitude_pp`` (about 18% for the default truncation). A
        non-positive frequency or amplitude, which would leave no
        component, is a ConfigError.
        """
        if not frequency > 0:
            raise ConfigError(f"square wave frequency must be positive, got {frequency} Hz")
        if not amplitude_pp > 0:
            raise ConfigError(f"square wave amplitude_pp must be positive, got {amplitude_pp} m")
        if n_harmonics < 1:
            raise ConfigError("n_harmonics must be >= 1")
        phasors: dict[float, complex] = {}
        for k in range(1, n_harmonics + 1, 2):
            _add_sin(phasors, k * frequency, (2.0 / math.pi) * amplitude_pp / k, k * phase)
        return cls(components=_components_from_phasors(phasors), dc_offset_delay=dc_offset_delay)

    @classmethod
    def alternating_tones(
        cls,
        switch_frequency: float,
        freq_a: float,
        amplitude_pp_a: float,
        freq_b: float,
        amplitude_pp_b: float,
        phase_a: float = 0.0,
        phase_b: float = 0.0,
        n_gate_harmonics: int = 7,
        dc_offset_delay: float = 0.0,
    ) -> "VibrationSignal":
        """Tone a and tone b gated on alternately at the switch frequency.

        The square gate is expanded in odd harmonics (truncated at
        ``n_gate_harmonics``) and multiplied through, which keeps the
        waveform inside the sparse-sinusoid model. The result carries
        half-amplitude lines at the two tone frequencies plus mixing
        sidebands at |k * switch_frequency +/- tone frequency|. A
        non-positive or non-finite switch frequency is a ConfigError.
        """
        if not (math.isfinite(switch_frequency) and switch_frequency > 0):
            raise ConfigError(f"switch_frequency must be positive, got {switch_frequency} Hz")
        if n_gate_harmonics < 1:
            raise ConfigError("n_gate_harmonics must be >= 1")
        phasors: dict[float, complex] = {}
        amp_a, amp_b = amplitude_pp_a / 2.0, amplitude_pp_b / 2.0
        # gate(t) = 1/2 + (2/pi) sum_k sin(k*(2*pi*fs*t))/k, k odd
        # x = gate * a_tone + (1 - gate) * b_tone, tones in cos convention.
        phasors[freq_a] = phasors.get(freq_a, 0j) + (amp_a / 2.0) * np.exp(1j * phase_a)
        phasors[freq_b] = phasors.get(freq_b, 0j) + (amp_b / 2.0) * np.exp(1j * phase_b)
        for k in range(1, n_gate_harmonics + 1, 2):
            for sign, freq, amp, ph in (
                (+1.0, freq_a, amp_a, phase_a),
                (-1.0, freq_b, amp_b, phase_b),
            ):
                # sin(k*gamma) * cos(alpha) = [sin(k*gamma + alpha) + sin(k*gamma - alpha)] / 2
                c = sign * amp / (math.pi * k)
                _add_sin(phasors, k * switch_frequency + freq, c, ph)
                _add_sin(phasors, k * switch_frequency - freq, c, -ph)
        return cls(components=_components_from_phasors(phasors), dc_offset_delay=dc_offset_delay)

    # ----- evaluation -----

    @property
    def max_frequency(self) -> float:
        return max((c.frequency for c in self.components), default=0.0)

    def displacement(self, t) -> np.ndarray:
        """Waveform displacement x(t) in metres, vectorised over t."""
        t = np.asarray(t, dtype=float)
        x = np.zeros_like(t)
        term = np.empty_like(t)
        for c in self.components:
            # x += (amplitude_pp / 2) * cos(2 pi f t + phase), in one buffer.
            np.multiply(2.0 * math.pi * c.frequency, t, out=term)
            term += c.phase
            np.cos(term, out=term)
            np.multiply(c.amplitude_pp / 2.0, term, out=term)
            x += term
        return x

    def delay(self, t, geometry: GeometryFactor) -> np.ndarray:
        """Interferometer delay tau(t) = dc_offset_delay + g * x(t) / c."""
        tau = self.displacement(t)
        np.multiply(geometry.g, tau, out=tau)
        tau /= SPEED_OF_LIGHT
        np.add(self.dc_offset_delay, tau, out=tau)
        return tau if tau.ndim else tau[()]

    def peak_to_peak(self, duration: float) -> float:
        """Displacement excursion over the given duration, sampled as ``_trace_samples`` says.

        The samples are t_i = i * (duration / n), as
        ``np.linspace(0, duration, n, endpoint=False)`` has them, taken
        _PEAK_BLOCK at a time, so no array of the trace's length is held.
        """
        n = _trace_samples(self.max_frequency, duration)
        step = duration / n
        x_min, x_max = math.inf, -math.inf
        for start in range(0, n, _PEAK_BLOCK):
            t = np.arange(start, min(n, start + _PEAK_BLOCK), dtype=float)
            t *= step
            x = self.displacement(t)
            x_min, x_max = min(x_min, x.min()), max(x_max, x.max())
        return float(x_max - x_min)


_TRACE_POINTS_PER_PERIOD = 100
_PEAK_BLOCK = 1 << 16  # samples per pass of ``VibrationSignal.peak_to_peak``
_MAX_TRACE_SAMPLES = 20_000_000


def _trace_samples(max_frequency: float, duration: float) -> int:
    """Samples of a dense waveform trace over ``duration``.

    _TRACE_POINTS_PER_PERIOD = 100 per period of the highest line (or of
    the whole duration, if longer), kept within [1000, _MAX_TRACE_SAMPLES].
    The true peak-to-peak and the reconstructed trace both use it, so they
    are sampled alike.
    """
    n = int(math.ceil(_TRACE_POINTS_PER_PERIOD * max(max_frequency, 1.0 / duration) * duration))
    return max(1000, min(n, _MAX_TRACE_SAMPLES))


@dataclass(frozen=True)
class ChannelModel:
    """Detection-channel parameters common to both fringe models.

    ``rate_c``/``rate_a`` are the maximum coincidence/anti-coincidence
    fluxes of the quantum channel (events/s before loss). ``singles_rate``
    plays two roles: in classical mode it is the total singles flux across
    both ports; in quantum mode it is the per-detector signal singles rate
    that feeds the accidental-coincidence estimate. ``background_fraction``
    is the fraction of detected singles contributed by uncorrelated
    background light.
    """

    loss_b: float = 0.0
    background_fraction: float = 0.0
    coincidence_window: float = DEFAULT_TICK
    rate_c: float = 200e3
    rate_a: float = 200e3
    singles_rate: float = 100e3
    geometry: GeometryFactor = field(default_factory=GeometryFactor)

    def __post_init__(self) -> None:
        if not 0 <= self.loss_b < 1:
            raise ConfigError("loss_b must lie in [0, 1)")
        if not 0 <= self.background_fraction < 1:
            raise ConfigError("background_fraction must lie in [0, 1)")
        for name in ("coincidence_window", "rate_c", "rate_a", "singles_rate"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def accidental_flux(self) -> float:
        """Accidental-coincidence flux 2 * w_c * S1 * S2, events/s.

        S1 and S2 are the per-detector singles rates inflated by the
        background fraction; background light enters the pair streams
        only through this term.
        """
        s = self.singles_rate / (1.0 - self.background_fraction)
        return 2.0 * self.coincidence_window * s * s


@dataclass(frozen=True, eq=False)
class TimestampStream:
    """A tagged multiset of detector clicks on a discrete time grid.

    Ticks are non-negative integers sorted ascending; duplicates are kept
    (several events can share a tick at finite resolution). All tick
    times fall inside [0, t_exp).
    """

    tag: str
    ticks: np.ndarray
    tick_duration: float = DEFAULT_TICK
    t_exp: float = 1.0

    def __post_init__(self) -> None:
        if self.tag not in STREAM_TAGS:
            raise ConfigError(f"unknown stream tag {self.tag!r}")
        if not (self.tick_duration > 0 and math.isfinite(self.tick_duration)):
            raise ConfigError(
                f"tick_duration must be positive and finite, got {self.tick_duration}"
            )
        if not (self.t_exp > 0 and math.isfinite(self.t_exp)):
            raise ConfigError(f"t_exp must be positive and finite, got {self.t_exp}")
        ticks = np.asarray(self.ticks, dtype=np.int64)
        object.__setattr__(self, "ticks", ticks)
        if ticks.size:
            if ticks[0] < 0:
                raise ConfigError("ticks must be non-negative")
            # np.diff would wrap across the int64 range; a comparison cannot.
            if np.any(ticks[1:] < ticks[:-1]):
                raise ConfigError("ticks must be sorted ascending")
            if ticks[-1] * self.tick_duration >= self.t_exp:
                raise ConfigError("ticks must fall inside [0, t_exp)")

    def __len__(self) -> int:
        return int(self.ticks.size)

    def times(self) -> np.ndarray:
        """Event times in seconds."""
        return self.ticks * self.tick_duration

    def centered_times(self) -> np.ndarray:
        """Event times shifted so the exposure midpoint is zero."""
        return self.ticks * self.tick_duration - self.t_exp / 2.0


# ----- flux construction -----


@dataclass(frozen=True)
class FluxPair:
    """Two channel fluxes with their constant upper bounds (events/s)."""

    flux_1: Callable[[np.ndarray], np.ndarray]
    flux_2: Callable[[np.ndarray], np.ndarray]
    bound_1: float
    bound_2: float


def _fringe_fluxes(
    fringe: PhotonPairSpec | ClassicalFringeSpec,
    signal: VibrationSignal,
    geometry: GeometryFactor,
    scale_1: float,
    scale_2: float,
    offset: float,
) -> FluxPair:
    """Fluxes scale_1 * P + offset and scale_2 * (1 - P) + offset, P the fringe at the delay."""

    def flux_1(t):
        p = fringe_probability(fringe, signal.delay(t, geometry))
        p *= scale_1
        p += offset
        return p

    def flux_2(t):
        # (p - 1) * -k is (1 - p) * k exactly, since negation is exact and
        # subtraction rounds symmetrically; unlike 1 - p it works in place.
        p = fringe_probability(fringe, signal.delay(t, geometry))
        p -= 1.0
        p *= -scale_2
        p += offset
        return p

    return FluxPair(flux_1, flux_2, bound_1=scale_1 + offset, bound_2=scale_2 + offset)


def quantum_fluxes(pair: PhotonPairSpec, signal: VibrationSignal, channel: ChannelModel) -> FluxPair:
    """Coincidence / anti-coincidence fluxes for the entangled channel.

    Loss on arm b removes one photon of a pair, so it scales both pair
    fluxes by (1 - L) without touching the normalised fringe contrast.
    The accidental flux rides on both streams.
    """
    survival = 1.0 - channel.loss_b
    return _fringe_fluxes(
        pair, signal, channel.geometry,
        survival * channel.rate_c, survival * channel.rate_a, channel.accidental_flux,
    )


def classical_fluxes(
    fringe: ClassicalFringeSpec, signal: VibrationSignal, channel: ChannelModel
) -> FluxPair:
    """Port-1 / port-2 singles fluxes for the classical reference channel.

    Loss on arm b multiplies the configured arm intensity ratio by
    (1 - L), which lowers the visibility to 2 sqrt(r)/(1 + r) and scales
    the total rate by (1 + r)/2. Background light adds a flat flux
    B/(1-B) times the mean signal flux to each port, so the effective
    visibility shrinks by (1 - B) while the modulation amplitude stays.
    """
    r_eff = fringe.arm_intensity_ratio * (1.0 - channel.loss_b)
    eff = replace(fringe, arm_intensity_ratio=r_eff)
    scale = channel.singles_rate * (1.0 + r_eff) / 2.0
    b = channel.background_fraction
    bg = (b / (1.0 - b)) * scale / 2.0  # flat flux per port
    return _fringe_fluxes(eff, signal, channel.geometry, scale, scale, bg)


# ----- sampling -----


def _check_tick(tick_duration: float, t_exp: float) -> None:
    """Refuse a tick that is not positive and finite, or too fine for an int64 count of t_exp."""
    if not (tick_duration > 0 and math.isfinite(tick_duration)):
        raise ConfigError(f"tick_duration must be positive and finite, got {tick_duration}")
    if not t_exp / tick_duration < _MAX_TICKS:
        raise ConfigError(
            f"t_exp / tick_duration must stay below 2^63 ticks, got {t_exp / tick_duration:.3g}"
        )


def sample_inhomogeneous_poisson(
    flux: Callable[[np.ndarray], np.ndarray],
    bound: float,
    t_exp: float,
    rng: np.random.Generator | int,
    tick_duration: float = DEFAULT_TICK,
    tag: str = "coincidence",
) -> TimestampStream:
    """Draw one realisation of an inhomogeneous Poisson process by thinning.

    Candidates form a homogeneous process at the bound rate (realised as
    a Poisson count with sorted uniform arrival times, which is the same
    process), and each candidate at time t survives with probability
    flux(t)/bound. Surviving times are quantised to the tick grid with
    floor, keeping duplicates.

    The flux is evaluated once, at the sorted candidates, and those values
    are thinned. One min/max pass over them clears a valid flux; only when
    it fails do three checks, in turn, name a value that is not finite,
    negative or above the bound, as a ConfigError. A violation between
    candidates goes unseen. A tick that is not positive and finite, or
    that leaves t_exp / tick_duration at or above 2^63 (no int64 tick
    count), is a ConfigError before any draw.
    """
    if not bound > 0:
        raise ConfigError("bound must be positive")
    if not t_exp > 0:
        raise ConfigError("t_exp must be positive")
    _check_tick(tick_duration, t_exp)
    if bound * t_exp > _MAX_CANDIDATES:
        raise ConfigError("bound * t_exp too large to sample (%.3g candidates)" % (bound * t_exp))
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    n_cand = rng.poisson(bound * t_exp)
    times = rng.random(n_cand)
    times *= t_exp
    times.sort()
    # The flux draws no random numbers, so reading it before the thinning
    # uniforms leaves every draw where it was.
    rates = np.asarray(flux(times), dtype=float)
    limit = bound * (1.0 + 1e-12)
    # A NaN fails both comparisons, so one min/max pass clears a valid flux.
    if rates.size and not (rates.min() >= 0 and rates.max() <= limit):
        if not np.all(np.isfinite(rates)):
            raise ConfigError("flux is not finite over the exposure")
        if np.any(rates < 0):
            raise ConfigError("flux is negative over the exposure")
        raise ConfigError("flux exceeds its bound (%.6g > %.6g events/s)" % (rates.max(), bound))
    u = rng.random(n_cand)
    u *= bound
    kept = times[u < rates]
    del times, rates, u  # the candidates are not held while the survivors are cast and checked
    kept /= tick_duration
    np.floor(kept, out=kept)
    ticks = kept.astype(np.int64)
    return TimestampStream(tag=tag, ticks=ticks, tick_duration=tick_duration, t_exp=t_exp)


# ----- run drivers -----


class QuantumRun(NamedTuple):
    coincidences: TimestampStream
    anticoincidences: TimestampStream


class ClassicalRun(NamedTuple):
    port1: TimestampStream
    port2: TimestampStream


def _simulate_run(run_type, fluxes, fringe, signal, channel, t_exp, seed, tick):
    """Draw ``fluxes(fringe, signal, channel)`` as ``run_type(stream_1, stream_2)``.

    Each stream gets its own child generator of the run seed and its tag from
    ``fringe.stream_tags``, so a run is reproducible from (configuration, seed).
    """
    fx = fluxes(fringe, signal, channel)
    return run_type(*(
        sample_inhomogeneous_poisson(flux, bound, t_exp, np.random.default_rng(seq), tick, tag)
        for flux, bound, seq, tag in zip(
            (fx.flux_1, fx.flux_2),
            (fx.bound_1, fx.bound_2),
            np.random.SeedSequence(seed).spawn(2),
            fringe.stream_tags,
        )
    ))


def simulate_quantum_run(
    pair: PhotonPairSpec,
    signal: VibrationSignal,
    channel: ChannelModel,
    t_exp: float,
    seed: int,
    tick_duration: float = DEFAULT_TICK,
) -> QuantumRun:
    """Simulate one exposure of the entangled channel."""
    return _simulate_run(
        QuantumRun, quantum_fluxes, pair, signal, channel, t_exp, seed, tick_duration
    )


def simulate_classical_run(
    fringe: ClassicalFringeSpec,
    signal: VibrationSignal,
    channel: ChannelModel,
    t_exp: float,
    seed: int,
    tick_duration: float = DEFAULT_TICK,
) -> ClassicalRun:
    """Simulate one exposure of the classical reference channel."""
    return _simulate_run(
        ClassicalRun, classical_fluxes, fringe, signal, channel, t_exp, seed, tick_duration
    )
