"""Event-stream simulation for interferometric vibrometry.

A vibration waveform is modelled as a sparse set of sinusoids. The
waveform modulates the interferometer delay around an operating point,
the fringe model converts the delay into detection-rate modulation, and
detector clicks are drawn as an inhomogeneous Poisson process which is
then quantised onto a discrete timestamp grid. Each flux comes with a
proven range of the values it can compute, and a draw evaluates the flux
only at the thinning candidates whose uniform that range leaves undecided
(Marsaglia's squeeze); those values are checked against the bound. A
run's two streams are drawn together, the second on a worker thread,
when each is large enough to repay the thread and both together stay
within the draw cap (see ``_simulate_run``).

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

import contextlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
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
# peaks at 17.0 to 17.8 bytes per candidate (tracemalloc on 1M candidates,
# with a 21 kHz tone's narrow range, no range or a wide square wave's
# range: the sorted times, the mask and the survivors, plus one block's
# uniforms, ``_survivors``; a test holds it to 20), so the cap keeps one
# draw within about 0.4 GiB. A run's two draws peak together only when
# their candidates add up to at most the cap (``_simulate_run``), so that
# bound holds for a run too.
_MAX_CANDIDATES = 2.2e7

# A run draws its second stream on a worker thread while the caller draws
# the first only if each stream expects at least _CONCURRENT_CANDIDATES
# candidates: below that, the thread's start and hand-off cost more than
# the overlap saves. One quantum run of squeezed draws timed on 2 cores,
# median of 41 (11 at 1M), serial against concurrent: at 2k candidates a
# stream 0.5 against 1.3 ms, 10k 0.8 against 1.8 ms, 20k 1.8 against
# 2.3 ms, 30k 2.1 to 3.2 against 2.6 to 2.8 ms over two timings, 50k 4.6
# against 4.0 ms, 190k (the README quick start) 18 against 10 ms and 1M
# (a 21 kHz sweep point) 88 against 49 ms.
_CONCURRENT_CANDIDATES = 1 << 15

# A draw thins its sorted candidates _FLUX_BLOCK at a time (``_survivors``):
# it holds one block's thinning uniforms and flux values, not all of them.
_FLUX_BLOCK = 1 << 16

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
        for c in self.components:
            x += (c.amplitude_pp / 2.0) * np.cos(2.0 * math.pi * c.frequency * t + c.phase)
        return x

    def delay(self, t, geometry: GeometryFactor) -> np.ndarray:
        """Interferometer delay tau(t) = dc_offset_delay + g * x(t) / c."""
        return self.dc_offset_delay + geometry.g * self.displacement(t) / SPEED_OF_LIGHT

    def peak_to_peak(self, duration: float) -> float:
        """Displacement excursion over the samples t_i = i * (duration / n), i < n,
        of ``_trace_samples``, as ``np.linspace(0, duration, n, endpoint=False)``
        has them.

        One line's is its continuous excursion from t_0 to t_(n-1), from the
        range of cos over that phase span (``_cos_range``), as ``reconstruct``
        takes a one-line model's. Several lines are sampled, _PEAK_BLOCK
        samples at a time, so no array of the trace's length is held.
        """
        n = _trace_samples(self.max_frequency, duration)
        step = duration / n
        if len(self.components) == 1:
            (c,) = self.components
            lo, hi = _cos_range(c.phase, 2.0 * math.pi * c.frequency * (n - 1) * step + c.phase)
            return c.amplitude_pp / 2.0 * (hi - lo)
        x_min, x_max = math.inf, -math.inf
        for start in range(0, n, _PEAK_BLOCK):
            x = self.displacement(np.arange(start, min(n, start + _PEAK_BLOCK), dtype=float) * step)
            x_min, x_max = min(x_min, x.min()), max(x_max, x.max())
        return float(x_max - x_min)


_TRACE_POINTS_PER_PERIOD = 100
_PEAK_BLOCK = 1 << 16  # samples per pass of ``VibrationSignal.peak_to_peak``
_MAX_TRACE_SAMPLES = 20_000_000


def _trace_samples(max_frequency: float, duration: float) -> int:
    """Samples of a dense waveform trace over ``duration``.

    _TRACE_POINTS_PER_PERIOD = 100 per period of the highest line (or of
    the whole duration, if longer), kept within [1000, _MAX_TRACE_SAMPLES].
    The true peak-to-peak and the reconstructed trace both span these
    samples: one line's extremes are taken in closed form over that span,
    and several lines' at the samples, for the truth and the model alike.
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
    """Two channel fluxes with their constant upper bounds (events/s).

    ``range_1`` and ``range_2``, where given, are enclosures (lo, hi) of every
    value the flux can compute, inside [0, bound]: the sampler takes each
    thinning decision they settle without evaluating the flux.
    """

    flux_1: Callable[[np.ndarray], np.ndarray]
    flux_2: Callable[[np.ndarray], np.ndarray]
    bound_1: float
    bound_2: float
    range_1: tuple[float, float] | None = None
    range_2: tuple[float, float] | None = None


_EPS = sys.float_info.epsilon

# Margin of a flux enclosure, as a share of the bound. It covers the
# rounding after the phase: cos and exp (an ulp or so each) and the few
# products and sums that turn them into a flux, each a few ulps of the
# bound. 1e-9 exceeds that a million times over and leaves undecided one
# more candidate in 5e8.
_RANGE_MARGIN = 1e-9


def _cos_range(a: float, b: float) -> tuple[float, float]:
    """(min, max) of cos over [a, b]: the endpoints and any multiple k pi inside,
    a maximum for even k and a minimum for odd k."""
    # a / pi and b / pi round by about eps of their size; a multiple within
    # that counts as inside, which can only widen the range.
    slack = 4.0 * _EPS * max(abs(a), abs(b)) / math.pi + 1e-12
    first, last = math.ceil(a / math.pi - slack), math.floor(b / math.pi + slack)
    if last > first:  # a maximum and a minimum inside
        return -1.0, 1.0
    lo, hi = sorted((math.cos(a), math.cos(b)))
    if last == first:
        lo, hi = (-1.0, hi) if first % 2 else (lo, 1.0)
    return lo, hi


def _delay_range(signal: VibrationSignal, geometry: GeometryFactor) -> tuple[float, float]:
    """An enclosure (lo, hi) of every delay tau(t) the flux can compute.

    |x(t)| <= X = sum amplitude_pp / 2 for any computed cosines, so the delay
    stays within tau0 +/- g X / c, widened by the rounding of its n-term sum,
    scaling and offset. An overflowing reach gives an infinite end: the
    sums are of Python floats, which overflow without a warning.
    """
    reach = sum(float(c.amplitude_pp) for c in signal.components)
    reach = geometry.g * reach / 2.0 / SPEED_OF_LIGHT
    tau0 = float(signal.dc_offset_delay)
    reach += (len(signal.components) + 4) * _EPS * (abs(tau0) + reach)
    return tau0 - reach, tau0 + reach


def _fringe_range(
    fringe: PhotonPairSpec | ClassicalFringeSpec,
    signal: VibrationSignal,
    geometry: GeometryFactor,
    horizon: float,
) -> tuple[float, float] | None:
    """An enclosure (lo, hi) of every fringe probability P the flux can compute
    at times in [0, horizon), or None where P may be NaN there.

    Over the delay interval of ``_delay_range``, cos(omega tau +
    phase_offset) is bounded over its phase interval, widened by the
    rounding of the phase (a few |phase| eps), and exp(-2 sigma^2 tau^2)
    over the delay interval; P follows from both. A waveform phase 2 pi f t
    + phase, a delay or a fringe phase that overflows makes the flux NaN,
    which a draw must read and refuse, so then there is no enclosure.
    """
    top = max(
        (2.0 * math.pi * c.frequency * horizon + abs(c.phase) for c in signal.components),
        default=0.0,
    )
    tau_lo, tau_hi = _delay_range(signal, geometry)
    slip = 4.0 * _EPS * (fringe.omega * max(-tau_lo, tau_hi) + abs(fringe.phase_offset))
    a = fringe.omega * tau_lo + fringe.phase_offset - slip
    b = fringe.omega * tau_hi + fringe.phase_offset + slip
    if not all(map(math.isfinite, (top, a, b))):
        return None
    cos_lo, cos_hi = _cos_range(a, b)
    env_lo = env_hi = 1.0
    if fringe.sigma:
        near = fringe.sigma * (0.0 if tau_lo <= 0.0 <= tau_hi else min(abs(tau_lo), abs(tau_hi)))
        far = fringe.sigma * max(abs(tau_lo), abs(tau_hi))
        env_lo, env_hi = math.exp(-2.0 * far * far), math.exp(-2.0 * near * near)
    # contrast * cos * envelope, the envelope positive.
    term_lo = fringe.contrast * cos_lo * (env_hi if cos_lo < 0 else env_lo)
    term_hi = fringe.contrast * cos_hi * (env_hi if cos_hi > 0 else env_lo)
    if fringe.polarity < 0:
        term_lo, term_hi = -term_hi, -term_lo
    p_lo, p_hi = (1.0 + term_lo) / 2.0, (1.0 + term_hi) / 2.0
    return (p_lo, p_hi) if math.isfinite(p_lo) and math.isfinite(p_hi) else None


def _flux_range(lo: float, hi: float, bound: float) -> tuple[float, float]:
    """[lo, hi] widened by _RANGE_MARGIN of the bound and cut to [0, bound].

    The cut holds for a fringe flux: with 0 <= P <= 1, and rounding being
    monotone, scale * P + offset and scale * (1 - P) + offset compute to at
    most scale + offset, the bound, and to at least 0.
    """
    margin = _RANGE_MARGIN * bound
    return max(lo - margin, 0.0), min(hi + margin, bound)


def _fringe_fluxes(
    fringe: PhotonPairSpec | ClassicalFringeSpec,
    signal: VibrationSignal,
    geometry: GeometryFactor,
    scale_1: float,
    scale_2: float,
    offset: float,
) -> FluxPair:
    """Fluxes scale_1 * P + offset and scale_2 * (1 - P) + offset, P the fringe at the delay,
    with the enclosure of each that ``_fringe_range`` gives."""

    def flux_1(t):
        return scale_1 * fringe_probability(fringe, signal.delay(t, geometry)) + offset

    def flux_2(t):
        return scale_2 * (1.0 - fringe_probability(fringe, signal.delay(t, geometry))) + offset

    bound_1, bound_2 = scale_1 + offset, scale_2 + offset
    # A draw is refused before the flux is read unless bound * t_exp is at
    # most _MAX_CANDIDATES (``_check_candidates``), so it reads no time past
    # this horizon; the factor 2 covers the rounding of that product.
    low = min(bound_1, bound_2)
    horizon = 2.0 * _MAX_CANDIDATES / low if low > 0 else math.inf
    p_range = _fringe_range(fringe, signal, geometry, horizon)
    if p_range is None:
        return FluxPair(flux_1, flux_2, bound_1, bound_2)
    p_lo, p_hi = p_range
    return FluxPair(
        flux_1, flux_2, bound_1, bound_2,
        range_1=_flux_range(scale_1 * p_lo + offset, scale_1 * p_hi + offset, bound_1),
        range_2=_flux_range(scale_2 * (1.0 - p_hi) + offset, scale_2 * (1.0 - p_lo) + offset, bound_2),
    )


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


def _fluxes(fringe, signal, channel) -> FluxPair:
    """The flux pair of the fringe's channel: ``quantum_fluxes`` for a pair spec,
    else ``classical_fluxes``."""
    fluxes = quantum_fluxes if fringe.mode == "quantum" else classical_fluxes
    return fluxes(fringe, signal, channel)


# ----- sampling -----


def _check_tick(tick_duration: float, t_exp: float) -> None:
    """Refuse a tick that is not positive and finite, or too fine for an int64 count of t_exp."""
    if not (tick_duration > 0 and math.isfinite(tick_duration)):
        raise ConfigError(f"tick_duration must be positive and finite, got {tick_duration}")
    if not t_exp / tick_duration < _MAX_TICKS:
        raise ConfigError(
            f"t_exp / tick_duration must stay below 2^63 ticks, got {t_exp / tick_duration:.3g}"
        )


def _check_candidates(bound: float, t_exp: float) -> None:
    """Refuse a draw of more than _MAX_CANDIDATES expected thinning candidates."""
    if bound * t_exp > _MAX_CANDIDATES:
        raise ConfigError("bound * t_exp too large to sample (%.3g candidates)" % (bound * t_exp))


def _check_draws(fx: FluxPair, t_exp: float) -> None:
    """Refuse a run either of whose two draws ``_check_candidates`` refuses."""
    for bound in (fx.bound_1, fx.bound_2):
        _check_candidates(bound, t_exp)


def _check_rates(rates: np.ndarray, bound: float) -> None:
    """Refuse flux values that are not finite, negative or above the bound.

    A NaN fails both comparisons, so one min/max pass clears valid values;
    only when it fails do three checks, in turn, name what is wrong.
    """
    if rates.size and not (rates.min() >= 0 and rates.max() <= bound * (1.0 + 1e-12)):
        if not np.all(np.isfinite(rates)):
            raise ConfigError("flux is not finite over the exposure")
        if np.any(rates < 0):
            raise ConfigError("flux is negative over the exposure")
        raise ConfigError("flux exceeds its bound (%.6g > %.6g events/s)" % (rates.max(), bound))


def _survivors(flux, bound: float, flux_range, times: np.ndarray, rng: np.random.Generator):
    """The thinning mask of the sorted candidate ``times``, squeezed by ``flux_range``
    as ``sample_inhomogeneous_poisson`` says.

    The candidates are thinned _FLUX_BLOCK at a time: each block draws its
    uniforms, ``rng.random(k)``, which continues the one-shot draw of all
    of them byte for byte, and the flux is read at the block's undecided
    candidates. So a draw holds one block's uniforms and flux values, and
    a wide range no more than a narrow one. The flux draws no random
    numbers, so reading it between blocks leaves every draw where it was.
    """
    if flux_range is None or not 0 <= flux_range[0] <= flux_range[1] <= bound:
        flux_range = (0.0, bound)  # u * bound < bound, so every candidate is undecided
    lo, hi = flux_range
    keep = np.empty(times.size, dtype=bool)
    for start in range(0, times.size, _FLUX_BLOCK):
        block = times[start : start + _FLUX_BLOCK]
        u = rng.random(block.size) * bound
        kept = np.less(u, lo, out=keep[start : start + block.size])
        at = np.flatnonzero((u < hi) ^ kept)  # lo <= u < hi, since u < lo implies u < hi
        if at.size:
            rates = np.asarray(flux(block[at]), dtype=float)
            _check_rates(rates, bound)
            kept[at] = u[at] < rates
    return keep


def sample_inhomogeneous_poisson(
    flux: Callable[[np.ndarray], np.ndarray],
    bound: float,
    t_exp: float,
    rng: np.random.Generator | int,
    tick_duration: float = DEFAULT_TICK,
    tag: str = "coincidence",
    flux_range: tuple[float, float] | None = None,
) -> TimestampStream:
    """Draw one realisation of an inhomogeneous Poisson process by thinning.

    Candidates form a homogeneous process at the bound rate (realised as
    a Poisson count with sorted uniform arrival times, which is the same
    process), and each candidate at time t survives with probability
    flux(t)/bound: where u * bound < flux(t), u its thinning uniform.
    Surviving times are quantised to the tick grid with floor, keeping
    duplicates.

    ``flux_range`` = (lo, hi), an enclosure of every value the flux
    computes, squeezes the thinning: a candidate with u * bound < lo is
    kept and one with u * bound >= hi dropped without the flux, which is
    read only at the remaining candidates, in sorted order. The candidates
    are thinned _FLUX_BLOCK at a time, each block drawing its own uniforms
    (``_survivors``), so the flux is read at most that many at a time. Each
    decision is the same comparison of the same doubles, so the stream is
    the one drawn without the range, and the one drawn whole. None, or a
    range not inside [0, bound], stands for (0, bound), which leaves every
    candidate undecided, so the flux is read at all of them.
    The values read are checked, one read at a time: one min/max pass
    clears valid values; only when it fails do three checks, in turn, name
    a value that is not finite, negative or above the bound, as a
    ConfigError. A violation where the flux is not read goes unseen. A
    tick that is not positive and finite, or that leaves t_exp /
    tick_duration at or above 2^63 (no int64 tick count), is a ConfigError
    before any draw.
    """
    if not bound > 0:
        raise ConfigError("bound must be positive")
    if not t_exp > 0:
        raise ConfigError("t_exp must be positive")
    _check_tick(tick_duration, t_exp)
    _check_candidates(bound, t_exp)
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    n_cand = rng.poisson(bound * t_exp)
    times = rng.random(n_cand)
    times *= t_exp
    times.sort()
    keep = _survivors(flux, bound, flux_range, times, rng)
    # times[keep] by compress, which numpy runs faster than boolean indexing
    # on a random mask: 0.4 against 1.9 ms at 190k candidates.
    kept = times.compress(keep)
    del times, keep  # the candidates are not held while the survivors are cast and checked
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


# ``campaign_worker`` is set on each thread a campaign's pool opens
# (``metrology._map_indexed``), whose workers already hold the cores.
_thread = threading.local()


def _mark_campaign_worker() -> None:
    _thread.campaign_worker = True


def _worker(wanted: bool):
    """A one-thread pool if ``wanted`` and the caller is no campaign worker, closed on
    exit, else a null context yielding None."""
    if wanted and not getattr(_thread, "campaign_worker", False):
        return ThreadPoolExecutor(max_workers=1)
    return contextlib.nullcontext()


def _simulate_run(run_type, fluxes, fringe, signal, channel, t_exp, seed, tick):
    """Draw ``fluxes(fringe, signal, channel)`` as ``run_type(stream_1, stream_2)``.

    Each stream gets its own child generator of the run seed and its tag from
    ``fringe.stream_tags``, so a run is reproducible from (configuration, seed).
    Both draws are checked against the candidate cap before either is made,
    and each is squeezed by its flux's range. The sampler is looked up as a
    module global at call time, so a stand-in put there sees every draw. When
    each expects at least _CONCURRENT_CANDIDATES candidates and both
    together at most _MAX_CANDIDATES, stream 2 is drawn on a worker thread
    while the caller draws stream 1; each draw reads only its own generator,
    so the streams are the serial ones bit for bit, and a refused draw raises
    the same error. The pool is closed before the run returns or raises.
    """
    fx = fluxes(fringe, signal, channel)
    _check_draws(fx, t_exp)
    seq_1, seq_2 = np.random.SeedSequence(seed).spawn(2)
    tag_1, tag_2 = fringe.stream_tags
    draw_2 = (fx.flux_2, fx.bound_2, t_exp, np.random.default_rng(seq_2), tick, tag_2, fx.range_2)
    candidates = (fx.bound_1 * t_exp, fx.bound_2 * t_exp)
    concurrent = min(candidates) >= _CONCURRENT_CANDIDATES and sum(candidates) <= _MAX_CANDIDATES
    with _worker(concurrent) as pool:
        stream_2 = pool.submit(sample_inhomogeneous_poisson, *draw_2) if pool else None
        stream_1 = sample_inhomogeneous_poisson(
            fx.flux_1, fx.bound_1, t_exp, np.random.default_rng(seq_1), tick, tag_1, fx.range_1
        )
        stream_2 = stream_2.result() if pool else sample_inhomogeneous_poisson(*draw_2)
    return run_type(stream_1, stream_2)


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


def _simulate(fringe, signal, channel, t_exp, seed, tick):
    """One exposure of the fringe's channel: ``simulate_quantum_run`` for a pair spec,
    else ``simulate_classical_run``.

    Both are looked up as module globals at call time, not kept in a table,
    so a wrapper put on either (by a tracer, say) sees every run drawn here.
    """
    simulate = simulate_quantum_run if fringe.mode == "quantum" else simulate_classical_run
    return simulate(fringe, signal, channel, t_exp, seed, tick)
