"""Precision benchmarks and repeated-run experiment drivers.

Three layers live here:

* closed-form delay/displacement precision bounds for a fixed pair
  budget, and a Monte Carlo estimator that checks how closely the
  arccos inversion at quadrature approaches them,
* repeated-trial statistics for amplitude and frequency recovery on a
  fixed scenario,
* paired quantum/classical experiments that equalise the event budget
  across channel conditions (loss, background) and compare how much of
  the waveform each channel recovers.

Trials, sweep points and both halves of each advantage condition repeat
one exposure step, ``_exposure``: simulate a run of the fringe's channel
from a seed, then analyse it with ``pipeline`` at the channel's true
output-rate ratio (rate_c / rate_a for the pair streams, 1 for the
classical ports). ``_trial`` scores that step against the component
nearest a reference frequency.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ClassicalFringeSpec,
    GeometryFactor,
    PhotonPairSpec,
    SPEED_OF_LIGHT,
    fringe_probability,
    quadrature_delay,
)
from .errors import AnalysisError, ConfigError
from .estimate import AnalysisOptions, _grid_bins, pipeline
from .simulate import (
    DEFAULT_TICK,
    ChannelModel,
    VibrationSignal,
    _check_draws,
    _fluxes,
    _mark_campaign_worker,
    _simulate,
)


def qcrb_delay_std(n_pairs: int, pair: PhotonPairSpec) -> float:
    """Lowest achievable delay standard deviation for n_pairs detections.

    sigma_tau >= 1 / (sqrt(N) * sqrt(delta_omega^2 + 4 sigma^2)).
    """
    if n_pairs < 1:
        raise ConfigError("n_pairs must be >= 1")
    return 1.0 / (math.sqrt(n_pairs) * math.hypot(pair.delta_omega, 2.0 * pair.sigma))


def qcrb_displacement_std(
    n_pairs: int, pair: PhotonPairSpec, geometry: GeometryFactor = GeometryFactor(1)
) -> float:
    """Displacement-equivalent bound c * sigma_tau / g.

    The default geometry factor is 1, quoting the bound as an optical
    path length; pass g=2 to quote it as motion of a retro-reflecting
    mirror, which changes the path twice as fast.
    """
    return SPEED_OF_LIGHT * qcrb_delay_std(n_pairs, pair) / geometry.g


@dataclass(frozen=True)
class DelayStdResult:
    """Monte Carlo delay precision against the closed-form bound."""

    n_pairs: int
    n_trials: int
    v0: float
    calibration_pairs: int | None
    sigma_tau: float
    bound: float

    @property
    def ratio_to_bound(self) -> float:
        return self.sigma_tau / self.bound


_MAX_PAIRS = (1 << 63) - 1  # the largest count a binomial draw takes
_MAX_TRIALS = 1 << 24


def monte_carlo_delay_std(
    n_pairs: int,
    n_trials: int,
    seed: int,
    pair: PhotonPairSpec,
    calibration_pairs: int | None = None,
) -> DelayStdResult:
    """Simulate repeated static-delay estimation at quadrature.

    Each trial splits n_pairs detections between the two outputs at the
    quadrature point and inverts the fringe, at the pair's visibility
    ``visibility_v0``, for the delay. When
    ``calibration_pairs`` is given, the output-rate ratio is first
    estimated from a separate calibration draw at known probability 1/2,
    as a deployed instrument must, which adds a known variance share
    (1 + n_pairs / calibration_pairs) to the estimator.

    Returns the root-mean-square deviation from the true delay. Every
    input is checked before the first draw: n_pairs and calibration_pairs
    must fit the binomial draw's int64 count, and n_trials is at most
    _MAX_TRIALS = 2^24, since a trial holds about 64 bytes of draw arrays
    (about 1 GiB at the cap); anything else raises ConfigError.
    """
    if not 1 <= n_pairs <= _MAX_PAIRS:
        raise ConfigError(f"n_pairs must lie in [1, {_MAX_PAIRS}], got {n_pairs}")
    if not 2 <= n_trials <= _MAX_TRIALS:
        raise ConfigError(f"n_trials must lie in [2, {_MAX_TRIALS}], got {n_trials}")
    if calibration_pairs is not None and not 4 <= calibration_pairs <= _MAX_PAIRS:
        raise ConfigError(
            f"calibration_pairs must lie in [4, {_MAX_PAIRS}], got {calibration_pairs}"
        )
    v0 = pair.visibility_v0
    rng = np.random.default_rng(seed)
    tau_op = quadrature_delay(pair)
    p_true = fringe_probability(pair, tau_op)
    k = rng.binomial(n_pairs, p_true, size=n_trials)
    if calibration_pairs is not None:
        k_cal = rng.binomial(calibration_pairs, 0.5, size=n_trials)
        k_cal = np.clip(k_cal, 1, calibration_pairs - 1)
        ratio_hat = k_cal / (calibration_pairs - k_cal)
    else:
        ratio_hat = np.ones(n_trials)
    p_hat = k / (k + ratio_hat * (n_pairs - k))
    u = np.clip(1.0 - 2.0 * p_hat, -v0, v0) / v0  # clipped before the divide, which cannot overflow
    tau_hat = np.arccos(u) / pair.delta_omega
    sigma = float(np.sqrt(np.mean((tau_hat - tau_op) ** 2)))
    return DelayStdResult(
        n_pairs=n_pairs,
        n_trials=n_trials,
        v0=v0,
        calibration_pairs=calibration_pairs,
        sigma_tau=sigma,
        bound=qcrb_delay_std(n_pairs, pair),
    )


# ----- repeated trials on one scenario -----


def _usable_cores() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else os.cpu_count(), else 1. A cgroup CPU quota is not counted."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_indexed(fn, n: int, max_workers: int | None) -> list:
    """[fn(0), ..., fn(n - 1)] on at most max_workers threads; None runs serially.

    At most min(max_workers, _usable_cores(), n) threads are opened: each
    holds one exposure, so the clamp bounds memory whatever the count asked
    for, and no result depends on the number of threads. Each is marked a
    campaign worker, so an exposure on it opens no thread of its own
    (``simulate._worker``): the campaign uses at most that many threads.
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigError(f"max_workers must be at least 1, got {max_workers}")
    workers = min(max_workers or 1, _usable_cores(), n)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers, initializer=_mark_campaign_worker) as pool:
        return list(pool.map(fn, range(n)))


@dataclass(frozen=True)
class TrialScenario:
    """One fully specified quantum exposure to repeat.

    An exposure that is not positive and finite, a scan grid over it that
    ``frequency_grid`` would refuse, or a signal with no component to score,
    is a ConfigError before any draw.
    """

    pair: PhotonPairSpec
    signal: VibrationSignal
    channel: ChannelModel
    t_exp: float
    options: AnalysisOptions = AnalysisOptions()
    tick_duration: float = DEFAULT_TICK

    def __post_init__(self) -> None:
        if not (self.t_exp > 0 and math.isfinite(self.t_exp)):
            raise ConfigError(f"t_exp must be positive and finite, got {self.t_exp}")
        _grid_bins(self.t_exp, self.options.f_max)
        if not self.signal.components:
            raise ConfigError("trials need a signal with a component to score")

    def true_ratio(self) -> float:
        return self.channel.rate_c / self.channel.rate_a


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    detected: bool
    f_hat: float
    pp_hat: float
    n_components: int
    unrefined: int


@dataclass(frozen=True)
class TrialStatistics:
    records: tuple[TrialRecord, ...]
    truth_f: float
    truth_pp: float
    f_mean: float
    f_std: float
    pp_mean: float
    pp_std: float
    detection_rate: float


def _exposure(fringe, signal, channel, t_exp, options, ratio, seed, tick):
    """Simulate one exposure of the fringe's channel and analyse it at output-rate ``ratio``.

    Returns the run and its reconstruction, None when nothing is detected.
    """
    run = _simulate(fringe, signal, channel, t_exp, seed, tick)
    result = pipeline(*run, fringe=fringe, geometry=channel.geometry, ratio=ratio, options=options)
    return run, result.reconstruction


def _trial(scenario: TrialScenario, seed: int, f_ref: float) -> TrialRecord:
    """One exposure scored on the detected component nearest f_ref."""
    _, recon = _exposure(
        scenario.pair, scenario.signal, scenario.channel, scenario.t_exp, scenario.options,
        scenario.true_ratio(), seed, scenario.tick_duration,
    )
    if recon is None:
        return TrialRecord(seed, False, math.nan, math.nan, 0, 0)
    comp = min(recon.components, key=lambda c: abs(c.f_hat - f_ref))
    unrefined = sum(1 for c in recon.components if not c.refined)
    return TrialRecord(
        seed, True, comp.f_hat, recon.displacement_pp, len(recon.components), unrefined
    )


def run_amplitude_trials(
    scenario: TrialScenario,
    n_trials: int,
    base_seed: int,
    max_workers: int | None = None,
) -> TrialStatistics:
    """Repeat one quantum exposure n_trials times with seeds base_seed+i.

    Statistics are computed over the trials whose pipeline detected the
    signal; fewer than two detections means no spread can be quoted and
    raises AnalysisError, so fewer than two trials is a ConfigError.
    """
    if n_trials < 2:
        raise ConfigError("n_trials must be >= 2")
    truth_f = scenario.signal.components[0].frequency
    truth_pp = scenario.signal.peak_to_peak(scenario.t_exp)
    records = tuple(
        _map_indexed(lambda i: _trial(scenario, base_seed + i, truth_f), n_trials, max_workers)
    )
    hits = [r for r in records if r.detected]
    if len(hits) < 2:
        raise AnalysisError(
            f"only {len(hits)} of {n_trials} trials detected the signal"
        )
    f_hats = np.array([r.f_hat for r in hits])
    pp_hats = np.array([r.pp_hat for r in hits])
    return TrialStatistics(
        records=records,
        truth_f=truth_f,
        truth_pp=truth_pp,
        f_mean=float(f_hats.mean()),
        f_std=float(f_hats.std(ddof=1)),
        pp_mean=float(pp_hats.mean()),
        pp_std=float(pp_hats.std(ddof=1)),
        detection_rate=len(hits) / n_trials,
    )


# ----- frequency sweep -----


@dataclass(frozen=True)
class SweepPoint:
    f_nominal: float
    f_true: float
    detected: bool
    f_hat: float
    rel_offset: float
    pp_hat: float
    n_components: int


def run_frequency_sweep(
    frequencies,
    pair: PhotonPairSpec,
    channel: ChannelModel,
    amplitude_pp: float,
    t_exp: float,
    options: AnalysisOptions,
    playback_scale: float = 0.0,
    base_seed: int = 0,
    max_workers: int | None = None,
) -> tuple[SweepPoint, ...]:
    """Step a pure tone across nominal frequencies, one exposure each.

    ``playback_scale`` offsets the true tone from its nominal setting by
    a fixed relative amount, mimicking a source whose dial is slightly
    miscalibrated; the estimator should recover the true frequency, so
    ``rel_offset`` = f_hat / f_nominal - 1 should land on playback_scale.
    """
    nominal = [float(f) for f in frequencies]
    if not nominal:
        raise ConfigError("sweep needs at least one frequency")

    def one(i: int) -> SweepPoint:
        f_nom = nominal[i]
        f_true = f_nom * (1.0 + playback_scale)
        signal = VibrationSignal.pure_tone(
            f_true, amplitude_pp, dc_offset_delay=quadrature_delay(pair)
        )
        rec = _trial(TrialScenario(pair, signal, channel, t_exp, options), base_seed + i, f_true)
        return SweepPoint(
            f_nom, f_true, rec.detected, rec.f_hat, rec.f_hat / f_nom - 1.0, rec.pp_hat,
            rec.n_components,
        )

    return tuple(_map_indexed(one, len(nominal), max_workers))


# ----- quantum vs classical under channel degradation -----


@dataclass(frozen=True)
class AdvantageCondition:
    """One channel state plus the per-channel exposures that equalise
    the detected-event budget against the reference condition.

    A loss or background outside [0, 1), or an exposure that is not
    positive and finite, is a ConfigError.
    """

    label: str
    loss_b: float
    background_fraction: float
    t_exp_quantum: float
    t_exp_classical: float

    def __post_init__(self) -> None:
        for name in ("loss_b", "background_fraction"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {value}")
        for name in ("t_exp_quantum", "t_exp_classical"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class AdvantageOutcome:
    condition: AdvantageCondition
    truth_pp: float
    quantum_pp: float
    classical_pp: float
    quantum_events: int
    classical_events: int
    quantum_harmonics: tuple[float, ...]
    classical_harmonics: tuple[float, ...]

    @property
    def quantum_recovery(self) -> float:
        return self.quantum_pp / self.truth_pp

    @property
    def classical_recovery(self) -> float:
        return self.classical_pp / self.truth_pp


@dataclass(frozen=True)
class AdvantageSetup:
    signal: VibrationSignal
    pair: PhotonPairSpec
    fringe: ClassicalFringeSpec
    channel_quantum: ChannelModel
    channel_classical: ChannelModel
    conditions: tuple[AdvantageCondition, ...]
    options: AnalysisOptions

    def __post_init__(self) -> None:
        """Refuse a signal with no component, whose first is the scored
        fundamental, and a condition whose draws the sampler, or whose scan
        grids ``frequency_grid``, would refuse, before any draw is made."""
        if not self.signal.components:
            raise ConfigError("an advantage experiment needs a signal with a fundamental to score")
        for cond in self.conditions:
            for fringe, signal, channel, t_exp, _ in self._halves(cond):
                _check_draws(_fluxes(fringe, signal, channel), t_exp)
                _grid_bins(t_exp, self.options.f_max)

    def _halves(self, cond: AdvantageCondition) -> tuple[tuple, tuple]:
        """(fringe, signal, channel, t_exp, ratio) of the quantum, then the classical, exposure.

        Both channels are degraded as ``cond`` says, and each is driven at its
        own quadrature: the pair fringe at quadrature_delay(pair), the
        classical fringe at zero static delay, where its -pi/2 phase offset
        already sits mid-fringe. Each is analysed at its true output-rate
        ratio, rate_c / rate_a for the pair streams and 1 for the ports.
        """
        degradation = {"loss_b": cond.loss_b, "background_fraction": cond.background_fraction}
        ch_q = replace(self.channel_quantum, **degradation)
        ch_c = replace(self.channel_classical, **degradation)
        return (
            (self.pair, replace(self.signal, dc_offset_delay=quadrature_delay(self.pair)), ch_q,
             cond.t_exp_quantum, ch_q.rate_c / ch_q.rate_a),
            (self.fringe, replace(self.signal, dc_offset_delay=0.0), ch_c,
             cond.t_exp_classical, 1.0),
        )


def matched_exposures(
    target_pairs: float,
    rate_c: float,
    singles_rate: float,
    loss_b: float,
) -> tuple[float, float]:
    """Exposures giving both channels the same detected-event budget.

    Quantum: (1 - L) * rate_c * t = target_pairs. Classical: with equal
    arm intensities the summed two-port rate singles_rate * (2 - L) / 2
    integrates to 2 * target_pairs events (a pair feeds two detectors).
    Both exposures are rounded to two significant figures so they read
    like a lab log.
    ``loss_b`` must lie in [0, 1) (ConfigError): at full loss no pair is
    detected and no exposure reaches the budget.
    """
    if not 0 <= loss_b < 1:
        raise ConfigError(f"loss must lie in [0, 1), got {loss_b}")
    t_q = target_pairs / ((1.0 - loss_b) * rate_c)
    t_c = 2.0 * target_pairs / (singles_rate * (1.0 + (1.0 - loss_b)) / 2.0)
    return _round_sig(t_q, 2), _round_sig(t_c, 2)


def _round_sig(x: float, digits: int) -> float:
    if x == 0:
        return 0.0
    scale = digits - 1 - math.floor(math.log10(abs(x)))
    return round(x, scale)


def match_odd_harmonics(
    f_hats, fundamental: float, n_max: int = 7, rtol: float = 0.02
) -> tuple[float, ...]:
    """Detected frequencies lying within rtol of an odd harmonic."""
    matched = []
    for f in f_hats:
        k = round(f / fundamental)
        if k >= 1 and k % 2 == 1 and k <= n_max and abs(f - k * fundamental) <= rtol * k * fundamental:
            matched.append(float(f))
    return tuple(matched)


def run_advantage_experiment(
    setup: AdvantageSetup, base_seed: int, max_workers: int | None = None
) -> tuple[AdvantageOutcome, ...]:
    """Run each condition through both channels with matched budgets.

    Both analyses use clean-instrument references on purpose: the
    quantum inversion keeps the pair visibility (which loss and flat
    background barely touch), the classical inversion keeps the
    undegraded reference fringe. Whatever the degradation does to the
    reconstruction then shows up as a recovery shortfall.

    Both halves of a condition are one ``_exposure`` each, of the
    arguments ``AdvantageSetup._halves`` gives them: each channel is driven
    at its own quadrature operating point, and the waveform components of
    ``setup.signal`` are shared while its dc offset is set per channel.
    Condition i draws the quantum half on seed base_seed + 2i and the
    classical half on base_seed + 2i + 1.
    """
    fundamental = setup.signal.components[0].frequency

    def score(recon):
        """Recovered displacement_pp (0 when nothing is detected) and odd harmonics."""
        if recon is None:
            return 0.0, ()
        f_hats = [c.f_hat for c in recon.components]
        return recon.displacement_pp, match_odd_harmonics(f_hats, fundamental)

    def one(i: int) -> AdvantageOutcome:
        cond = setup.conditions[i]
        (run_q, recon_q), (run_c, recon_c) = [
            _exposure(fringe, signal, channel, t_exp, setup.options, ratio, base_seed + 2 * i + k,
                      DEFAULT_TICK)
            for k, (fringe, signal, channel, t_exp, ratio) in enumerate(setup._halves(cond))
        ]
        pp_q, harm_q = score(recon_q)
        pp_c, harm_c = score(recon_c)
        return AdvantageOutcome(
            condition=cond,
            truth_pp=setup.signal.peak_to_peak(cond.t_exp_quantum),  # the dc offset moves no x(t)
            quantum_pp=pp_q,
            classical_pp=pp_c,
            quantum_events=sum(map(len, run_q)),
            classical_events=sum(map(len, run_c)),
            quantum_harmonics=harm_q,
            classical_harmonics=harm_c,
        )

    return tuple(_map_indexed(one, len(setup.conditions), max_workers))


def _square_wave_setup(
    fundamental: float,
    amplitude_pp: float,
    channel_quantum: ChannelModel,
    channel_classical: ChannelModel,
    conditions,
) -> AdvantageSetup:
    """The pair, 1550 nm fringe, square wave and analysis band both
    advantage experiments share; the band, 20 times the fundamental,
    reaches the 19th harmonic and must be finite."""
    if not math.isfinite(20.0 * fundamental):
        raise ConfigError(f"fundamental must keep the scan band 20 * fundamental finite,"
                          f" got {fundamental!r} Hz")
    return AdvantageSetup(
        signal=VibrationSignal.square_wave(fundamental, amplitude_pp),
        pair=PhotonPairSpec(delta_omega=2.0 * math.pi * 177e12),
        fringe=ClassicalFringeSpec(
            omega_optical=2.0 * math.pi * SPEED_OF_LIGHT / 1550e-9, phase_offset=-math.pi / 2
        ),
        channel_quantum=channel_quantum,
        channel_classical=channel_classical,
        conditions=tuple(conditions),
        options=AnalysisOptions(f_max=20.0 * fundamental),
    )


def loss_advantage_setup(
    loss_values=(0.0, 0.87),
    target_pairs: float = 600_000.0,
    fundamental: float = 10.0,
    amplitude_pp: float = 55e-9,
) -> AdvantageSetup:
    """Square-wave recovery as balanced loss is dialled in.

    The quantum channel keeps its fringe contrast under loss and only
    pays in exposure time; the classical channel's visibility falls as
    2 sqrt(1 - L) / (2 - L) and the clean-reference inversion
    under-reads the waveform by the same factor.
    """
    channel_q = ChannelModel(rate_c=200e3, rate_a=200e3)
    channel_c = ChannelModel(singles_rate=1.2e6)
    conditions = []
    for loss in loss_values:
        t_q, t_c = matched_exposures(
            target_pairs, channel_q.rate_c, channel_c.singles_rate, loss
        )
        conditions.append(
            AdvantageCondition(
                label=f"loss={loss:g}",
                loss_b=loss,
                background_fraction=0.0,
                t_exp_quantum=t_q,
                t_exp_classical=t_c,
            )
        )
    return _square_wave_setup(fundamental, amplitude_pp, channel_q, channel_c, conditions)


def background_advantage_setup(
    background_values=(0.0, 0.5),
    target_pairs: float = 300_000.0,
    fundamental: float = 10.0,
    amplitude_pp: float = 55e-9,
) -> AdvantageSetup:
    """Square-wave recovery as uncorrelated background is dialled in.

    Background raises the singles rates; accidental coincidences grow
    quadratically but stay flat in time, so the pair channel's combined
    spectrum barely moves. The classical ports swallow the background
    directly and their fringe contrast scales by (1 - B).

    Count equalization: the flat background inflates the classical
    detected rate by 1/(1 - B), so the classical exposure shrinks by
    (1 - B) to keep the detected-event budget fixed across conditions.
    The accidental inflation of the pair rate is per-mille level at
    these singles rates, so the quantum exposure stays put.
    """
    channel_q = ChannelModel(rate_c=7.5e3, rate_a=7.5e3, singles_rate=100e3)
    channel_c = ChannelModel(singles_rate=150e3)
    t_q, t_c = matched_exposures(
        target_pairs, channel_q.rate_c, channel_c.singles_rate, 0.0
    )
    conditions = (
        AdvantageCondition(
            label=f"background={b:g}",
            loss_b=0.0,
            background_fraction=b,
            t_exp_quantum=t_q,
            t_exp_classical=_round_sig(t_c * (1.0 - b), 2),
        )
        for b in background_values
    )
    return _square_wave_setup(fundamental, amplitude_pp, channel_q, channel_c, conditions)
