"""Tests for precision bounds, Monte-Carlo benchmarks, and experiment drivers.

Frozen numbers below were computed independently from the closed-form
expressions before being asserted here, so a regression in the library
cannot silently re-derive them.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qvibe.core import GeometryFactor, PhotonPairSpec, quadrature_delay
from qvibe.errors import AnalysisError, ConfigError
from qvibe.estimate import AnalysisOptions, pipeline
from qvibe.metrology import (
    AdvantageCondition,
    TrialScenario,
    _map_indexed,
    _usable_cores,
    background_advantage_setup,
    loss_advantage_setup,
    match_odd_harmonics,
    matched_exposures,
    monte_carlo_delay_std,
    qcrb_delay_std,
    qcrb_displacement_std,
    run_advantage_experiment,
    run_amplitude_trials,
    run_frequency_sweep,
)
from qvibe.simulate import (
    ChannelModel,
    VibrationSignal,
    _mark_campaign_worker,
    simulate_classical_run,
    simulate_quantum_run,
)

PAIR = PhotonPairSpec(delta_omega=2 * math.pi * 177e12)


# ----- closed-form bounds -----


def test_delay_bound_frozen_value():
    # 1 / (sqrt(59000) * sqrt((2 pi 177e12)^2 + 4 (2 pi 0.5e12)^2))
    assert abs(qcrb_delay_std(59_000, PAIR) - 3.7018083301602966e-18) < 1e-30
    manual = 1.0 / (
        math.sqrt(59_000)
        * math.sqrt((2 * math.pi * 177e12) ** 2 + 4.0 * (2 * math.pi * 0.5e12) ** 2)
    )
    assert abs(qcrb_delay_std(59_000, PAIR) - manual) < 1e-12 * manual


def test_displacement_bound_path_and_mirror_conventions():
    assert abs(qcrb_displacement_std(59_000, PAIR) - 1.1097742183436308e-09) < 1e-21
    mirror = qcrb_displacement_std(59_000, PAIR, GeometryFactor(2))
    assert abs(mirror - 5.548871091718154e-10) < 1e-21


def test_delay_bound_scales_inverse_root_n():
    assert abs(qcrb_delay_std(4 * 59_000, PAIR) / qcrb_delay_std(59_000, PAIR) - 0.5) < 1e-12


def test_delay_bound_bandwidth_dominates_small_detuning():
    # With delta_omega tiny the bound is set by the 2 sigma bandwidth term.
    small = PhotonPairSpec(delta_omega=1e3)
    assert abs(qcrb_delay_std(4, small) - 7.957747154594768e-14) < 1e-26
    with pytest.raises(ConfigError):
        qcrb_delay_std(0, PAIR)


# ----- Monte-Carlo benchmark -----


def test_monte_carlo_known_ratio_saturates_bound():
    res = monte_carlo_delay_std(59_000, 4_000, seed=2601, pair=PAIR)
    # A binomial split at quadrature with a known output ratio meets the
    # bound exactly; 4000 trials put the ratio within a few percent.
    assert 0.95 < res.ratio_to_bound < 1.05
    assert res.calibration_pairs is None
    assert res.bound == qcrb_delay_std(59_000, PAIR)
    # The inversion runs at the pair's own visibility; a flatter fringe
    # costs exactly 1 / v0 in delay spread.
    low = monte_carlo_delay_std(59_000, 4_000, seed=2601, pair=replace(PAIR, visibility_v0=0.9))
    assert low.v0 == 0.9
    assert 0.95 < 0.9 * low.ratio_to_bound < 1.05


def test_monte_carlo_calibrated_ratio_pays_known_overhead():
    n = 59_000
    res = monte_carlo_delay_std(n, 4_000, seed=2602, pair=PAIR, calibration_pairs=4 * n)
    # Estimating the ratio from a 4N calibration draw inflates the
    # variance by 1 + N/N_cal = 1.25, i.e. the std by sqrt(1.25) = 1.118.
    assert 1.06 < res.ratio_to_bound < 1.18


def test_monte_carlo_is_deterministic_per_seed():
    a = monte_carlo_delay_std(10_000, 500, seed=7, pair=PAIR)
    b = monte_carlo_delay_std(10_000, 500, seed=7, pair=PAIR)
    assert a.sigma_tau == b.sigma_tau


def test_monte_carlo_validation():
    with pytest.raises(ConfigError):
        monte_carlo_delay_std(100, 1, seed=0, pair=PAIR)
    with pytest.raises(ConfigError):
        monte_carlo_delay_std(100, 10, seed=0, pair=PAIR, calibration_pairs=2)
    # Counts the binomial draw cannot take, and a trial count whose draw
    # arrays would pass the cap (about 64 bytes a trial), are refused before
    # any draw, so no numpy error or warning comes first.
    for n_pairs in (-5, 0, 1 << 63):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="n_pairs"):
                monte_carlo_delay_std(n_pairs, 10, seed=0, pair=PAIR)
    with pytest.raises(ConfigError, match="n_trials"):
        monte_carlo_delay_std(100, (1 << 24) + 1, seed=0, pair=PAIR)
    with pytest.raises(ConfigError, match="calibration_pairs"):
        monte_carlo_delay_std(100, 10, seed=0, pair=PAIR, calibration_pairs=1 << 63)


# ----- repeated exposure trials -----


def quadrature_tone(amplitude_pp, frequency=10.0):
    return VibrationSignal.pure_tone(
        frequency, amplitude_pp, dc_offset_delay=quadrature_delay(PAIR)
    )


def test_amplitude_trials_statistics():
    scenario = TrialScenario(
        pair=PAIR,
        signal=quadrature_tone(20e-9),
        channel=ChannelModel(rate_c=190e3, rate_a=190e3),
        t_exp=1.0,
        options=AnalysisOptions(f_max=200.0),
    )
    stats = run_amplitude_trials(scenario, n_trials=3, base_seed=7000)
    assert stats.detection_rate == 1.0
    assert len(stats.records) == 3
    assert [r.seed for r in stats.records] == [7000, 7001, 7002]
    assert abs(stats.truth_pp - 20e-9) < 1e-3 * 20e-9
    assert abs(stats.pp_mean - 20e-9) < 5e-9
    assert abs(stats.f_mean - 10.0) < 0.15
    assert stats.f_std > 0.0 and stats.pp_std > 0.0
    assert all(r.unrefined == 0 for r in stats.records)


def test_amplitude_trials_need_two_detections():
    # A 0.01-nm tone is far below the detection floor at these rates.
    scenario = TrialScenario(
        pair=PAIR,
        signal=quadrature_tone(1e-11),
        channel=ChannelModel(rate_c=2e3, rate_a=2e3),
        t_exp=1.0,
        options=AnalysisOptions(f_max=200.0),
    )
    with pytest.raises(AnalysisError):
        run_amplitude_trials(scenario, n_trials=3, base_seed=41)
    # A spread needs two detections, so fewer than two trials are refused before any draw.
    for n_trials in (0, 1):
        with pytest.raises(ConfigError, match=">= 2"):
            run_amplitude_trials(scenario, n_trials=n_trials, base_seed=41)


def test_trial_scenario_refuses_an_exposure_no_trial_runs():
    # A zero exposure reached the true peak-to-peak as a ZeroDivisionError.
    channel = ChannelModel(rate_c=2e3, rate_a=2e3)
    TrialScenario(PAIR, quadrature_tone(20e-9), channel, 1.0)
    for t_exp in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match=r"^t_exp must be positive and finite, got "):
            TrialScenario(PAIR, quadrature_tone(20e-9), channel, t_exp)
    # So is a scan grid that frequency_grid would refuse: 1e12 Hz over 1 s.
    with pytest.raises(ConfigError, match=r"^f_max = 1000000000000.0 Hz needs 1666666666667 scan"):
        TrialScenario(PAIR, quadrature_tone(20e-9), channel, 1.0, AnalysisOptions(f_max=1e12))


# Two silent tones gated in turn: a flat signal with no component.
FLAT = VibrationSignal.alternating_tones(2.0, 10.0, 0.0, 10.0, 0.0,
                                         dc_offset_delay=quadrature_delay(PAIR))


def test_campaigns_refuse_a_signal_with_no_component_to_score():
    # Both campaigns score the signal's first component, which a flat signal
    # lacks: each raised IndexError once its draws were under way.
    assert FLAT.components == ()
    channel = ChannelModel(rate_c=2e3, rate_a=2e3)
    with pytest.raises(ConfigError, match=r"^trials need a signal with a component to score$"):
        TrialScenario(PAIR, FLAT, channel, 1.0)
    setup = loss_advantage_setup(loss_values=(0.0,), target_pairs=1000)
    with pytest.raises(ConfigError, match=r"^an advantage experiment needs a signal with a "):
        replace(setup, signal=FLAT)


def test_a_flat_signal_is_still_drawn_and_analysed():
    # Only the campaigns need a component: one exposure of a flat signal is
    # drawn at the operating point's constant rate and analysed to no detection.
    channel = ChannelModel(rate_c=2e3, rate_a=2e3)
    run = simulate_quantum_run(PAIR, FLAT, channel, 1.0, seed=5)
    assert all(800 < len(stream) < 1200 for stream in run)  # about 1000 each
    result = pipeline(*run, fringe=PAIR, geometry=channel.geometry, ratio=1.0,
                      options=AnalysisOptions(f_max=50.0))
    assert result.reconstruction is None


def test_frequency_sweep_recovers_playback_offset():
    channel = ChannelModel(rate_c=200e3, rate_a=200e3)
    pts = run_frequency_sweep(
        [1e3, 2e3],
        PAIR,
        channel,
        amplitude_pp=20e-9,
        t_exp=1.0,
        options=AnalysisOptions(f_max=2.5e3),
        playback_scale=0.00142,
        base_seed=3100,
    )
    assert len(pts) == 2
    for p in pts:
        assert p.detected
        assert p.f_true == p.f_nominal * 1.00142
        assert abs(p.f_hat - p.f_true) / p.f_true < 1e-4
        assert abs(p.rel_offset - 0.00142) < 3e-4
        assert abs(p.pp_hat - 20e-9) < 5e-9
    with pytest.raises(ConfigError):
        run_frequency_sweep([], PAIR, channel, 20e-9, 1.0, AnalysisOptions())


# ----- the shared exposure step -----


def test_campaigns_match_across_worker_counts(monkeypatch, counting_pools):
    # Two usable cores, so max_workers=2 opens a pool on any host. Each
    # stream expects over 100k candidates, so an exposure run alone draws
    # its two streams side by side; on a campaign worker it opens no pool.
    monkeypatch.setattr("qvibe.metrology._usable_cores", lambda: 2)
    channel = ChannelModel(rate_c=100e3, rate_a=100e3)
    options = AnalysisOptions(f_max=200.0)
    scenario = TrialScenario(PAIR, quadrature_tone(20e-9), channel, 1.0, options)
    inner = {}
    for workers in (1, 2):
        counting_pools.clear()
        trials = run_amplitude_trials(scenario, 3, base_seed=7100, max_workers=workers)
        sweep = run_frequency_sweep(
            [10.0, 30.0], PAIR, channel, 20e-9, 1.0, options,
            playback_scale=0.001, base_seed=7150, max_workers=workers,
        )
        inner[workers] = (repr(trials), repr(sweep)), len(counting_pools)
    assert inner[2][0] == inner[1][0]
    assert inner[1][1] >= 5 and inner[2][1] == 0, inner


def test_sweep_point_is_the_trial_record_of_its_tone():
    # A sweep point and a trial run the same exposure step: the same tone,
    # channel and seed give the same f_hat, pp_hat and component count.
    channel = ChannelModel(rate_c=100e3, rate_a=100e3)
    options = AnalysisOptions(f_max=200.0)
    points = run_frequency_sweep(
        [10.0, 10.0], PAIR, channel, 20e-9, 1.0, options, playback_scale=0.001, base_seed=7200
    )
    scenario = TrialScenario(PAIR, quadrature_tone(20e-9, 10.0 * (1.0 + 0.001)), channel, 1.0, options)
    records = run_amplitude_trials(scenario, 2, base_seed=7200).records
    for point, record in zip(points, records):
        assert point.detected and record.detected
        assert (point.f_hat, point.pp_hat, point.n_components) == (
            record.f_hat, record.pp_hat, record.n_components
        )
        assert point.rel_offset == point.f_hat / point.f_nominal - 1.0
    # An undetected point passes NaN through to its offset.
    (missed,) = run_frequency_sweep(
        [50.0], PAIR, ChannelModel(rate_c=2e3, rate_a=2e3), 1e-11, 1.0, options, base_seed=5
    )
    assert not missed.detected and missed.n_components == 0
    assert all(math.isnan(v) for v in (missed.f_hat, missed.rel_offset, missed.pp_hat))


# ----- advantage experiment plumbing -----


def test_matched_exposures_frozen():
    assert matched_exposures(600_000, 200e3, 1.2e6, 0.0) == (3.0, 1.0)
    assert matched_exposures(600_000, 200e3, 1.2e6, 0.87) == (23.0, 1.8)
    assert matched_exposures(300_000, 7.5e3, 150e3, 0.0) == (40.0, 4.0)


def test_advantage_conditions_refuse_what_no_exposure_runs():
    good = dict(label="x", loss_b=0.0, background_fraction=0.0, t_exp_quantum=1.0,
                t_exp_classical=1.0)
    AdvantageCondition(**good)
    for name, value in (("loss_b", 1.0), ("loss_b", -0.1), ("background_fraction", 1.0),
                        ("t_exp_quantum", 0.0), ("t_exp_classical", math.inf),
                        ("t_exp_classical", math.nan)):
        with pytest.raises(ConfigError, match=f"^{name} must "):
            AdvantageCondition(**{**good, name: value})


def test_match_odd_harmonics_filters_even_and_excess():
    got = match_odd_harmonics([10.1, 29.9, 50.9, 70.2, 20.0, 90.0], 10.0)
    assert got == (10.1, 29.9, 50.9, 70.2)
    assert match_odd_harmonics([], 10.0) == ()


def test_setup_builders_freeze_matched_exposures():
    loss = loss_advantage_setup()
    assert [c.t_exp_quantum for c in loss.conditions] == [3.0, 23.0]
    assert [c.t_exp_classical for c in loss.conditions] == [1.0, 1.8]
    bg = background_advantage_setup()
    assert [c.t_exp_quantum for c in bg.conditions] == [40.0, 40.0]
    # Classical exposure shrinks by (1 - B) to keep detected counts flat.
    assert [c.t_exp_classical for c in bg.conditions] == [4.0, 2.0]
    assert [c.background_fraction for c in bg.conditions] == [0.0, 0.5]


def test_advantage_experiment_smoke():
    setup = loss_advantage_setup(loss_values=(0.0,), target_pairs=200_000)
    outs = run_advantage_experiment(setup, base_seed=510)
    assert len(outs) == 1
    out = outs[0]
    assert abs(out.truth_pp - 65.13e-9) < 0.2e-9  # truncated square wave
    # target_pairs counts detections summed over both outputs
    assert abs(out.quantum_events - 200_000) < 4 * math.sqrt(200_000)
    assert 0.85 < out.quantum_recovery < 1.15
    assert 10.0 in {round(h) for h in out.quantum_harmonics}
    assert out.classical_harmonics  # clean channel sees the wave too


def test_an_advantage_half_that_detects_nothing_scores_zero():
    # A 1 fm square wave is far below the detection floor of either channel.
    setup = loss_advantage_setup(loss_values=(0.0,), target_pairs=20_000, amplitude_pp=1e-15)
    (out,) = run_advantage_experiment(setup, base_seed=530)
    assert (out.quantum_pp, out.quantum_harmonics) == (0.0, ())
    assert (out.classical_pp, out.classical_harmonics) == (0.0, ())


def test_each_advantage_half_is_analysed_at_its_own_channels_ratio():
    # Both channels have rate_c != rate_a. The quantum half reads its pair
    # streams at rate_c / rate_a = 2; the classical half reads its ports at 1,
    # whatever its channel's (unused) pair rates say, bit for bit as a run
    # drawn and analysed by hand on the same seed.
    setup = loss_advantage_setup(loss_values=(0.0, 0.5), target_pairs=100_000)
    setup = replace(
        setup,
        channel_quantum=replace(setup.channel_quantum, rate_a=100e3),
        channel_classical=replace(setup.channel_classical, rate_c=300e3, rate_a=100e3),
    )
    outcomes = run_advantage_experiment(setup, base_seed=520)
    for i, (cond, out) in enumerate(zip(setup.conditions, outcomes)):
        ch_q = replace(setup.channel_quantum, loss_b=cond.loss_b)
        ch_c = replace(setup.channel_classical, loss_b=cond.loss_b)
        signal_q = replace(setup.signal, dc_offset_delay=quadrature_delay(setup.pair))
        signal_c = replace(setup.signal, dc_offset_delay=0.0)
        run_q = simulate_quantum_run(setup.pair, signal_q, ch_q, cond.t_exp_quantum, 520 + 2 * i)
        run_c = simulate_classical_run(
            setup.fringe, signal_c, ch_c, cond.t_exp_classical, 520 + 2 * i + 1
        )

        def pp(run, fringe, channel, ratio):
            recon = pipeline(
                *run, fringe=fringe, geometry=channel.geometry, ratio=ratio, options=setup.options
            ).reconstruction
            return recon.displacement_pp

        assert out.quantum_pp == pp(run_q, setup.pair, ch_q, 2.0)
        assert out.classical_pp == pp(run_c, setup.fringe, ch_c, 1.0)
        # Read at its channel's rate_c / rate_a, the classical half would differ.
        assert out.classical_pp != pp(run_c, setup.fringe, ch_c, 3.0)
        assert (out.quantum_events, out.classical_events) == (
            sum(map(len, run_q)), sum(map(len, run_c))
        )


# ----- worker plumbing -----


def test_worker_count_below_one_is_refused():
    # None runs serially; a count below 1 is refused before any work, by
    # the library as by the CLI's --threads.
    assert _map_indexed(lambda i: i * i, 3, None) == [0, 1, 4]
    calls = []
    scenario = TrialScenario(
        PAIR, quadrature_tone(20e-9), ChannelModel(rate_c=2e3, rate_a=2e3), 1.0,
        AnalysisOptions(f_max=200.0),
    )
    for workers in (0, -3):
        with pytest.raises(ConfigError, match=f"max_workers must be at least 1, got {workers}"):
            _map_indexed(calls.append, 3, workers)
        with pytest.raises(ConfigError, match="max_workers must be at least 1"):
            run_amplitude_trials(scenario, 3, base_seed=7000, max_workers=workers)
    assert calls == []


def test_map_indexed_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr("qvibe.metrology._usable_cores", lambda: 3)
    fn = lambda i: i * i  # noqa: E731 - tiny fixture
    assert _map_indexed(fn, 7, 1) == _map_indexed(fn, 7, 3) == [i * i for i in range(7)]


@pytest.mark.parametrize("asked, cores, n, opened", [
    (64, 2, 10, 2),     # clamped to the cores
    (64, 1, 10, None),  # one core: serial
    (3, 8, 10, 3),      # the count asked for
    (64, 8, 5, 5),      # clamped to the calls
    (2, 8, 1, None),    # one call: serial
    (2, 8, 0, None),    # no calls: serial, no pool
])
def test_map_indexed_opens_at_most_one_thread_per_core_and_call(monkeypatch, asked, cores, n, opened):
    # The pool size requested is read from a stand-in pool that runs the
    # calls itself, so no thread is started whatever the count asked for.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            assert initializer is _mark_campaign_worker
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("qvibe.metrology.ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr("qvibe.metrology._usable_cores", lambda: cores)
    assert _map_indexed(lambda i: i * i, n, asked) == [i * i for i in range(n)]
    assert sizes == ([] if opened is None else [opened])


def test_usable_cores_follow_the_affinity_set_else_the_core_count(monkeypatch):
    monkeypatch.setattr("qvibe.metrology.os.sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr("qvibe.metrology.os.cpu_count", lambda: 64)
    assert _usable_cores() == 3
    monkeypatch.delattr("qvibe.metrology.os.sched_getaffinity")
    assert _usable_cores() == 64
    monkeypatch.setattr("qvibe.metrology.os.cpu_count", lambda: None)
    assert _usable_cores() == 1
