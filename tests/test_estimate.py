"""Tests for the spectral estimation and waveform reconstruction layer.

The deterministic streams used here are built by inverting the
cumulative intensity of a modulated rate function, so their projections
carry a noise-free tone. That gives sharp oracles for the refined
frequency, phase and amplitudes of ``estimate_component`` without any
Monte-Carlo slack.
"""

import contextlib
import json
import math
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import qvibe.estimate
from qvibe.cli import main as cli_main
from qvibe.config import check_ratio, parse_config
from qvibe.core import (
    ClassicalFringeSpec,
    GeometryFactor,
    PhotonPairSpec,
    SPEED_OF_LIGHT,
    quadrature_delay,
)
from qvibe.errors import AnalysisError, ConfigError
from qvibe.estimate import (
    AnalysisOptions,
    ComponentEstimate,
    ReconstructedSignal,
    SpectrumEstimate,
    _economisation,
    _economised_terms,
    _estimate_components,
    _fold,
    _fold_size,
    _fold_table,
    _grid_terms,
    _BATCH_BYTES,
    _MAX_GRID_BINS,
    _TRACE_BLOCK,
    _group_detections,
    _offset_moments,
    _offset_series,
    _project_direct,
    _segment_count,
    _series_table,
    _series_terms,
    _threshold,
    _uniform_from_zero,
    combined_spectrum,
    detection_threshold,
    estimate_component,
    frequency_grid,
    grid_spacing,
    pipeline,
    project_timestamps,
    reconstruct,
    scan_spectrum,
    window_weights,
)
from qvibe.simulate import (
    ChannelModel,
    TimestampStream,
    VibrationSignal,
    _mark_campaign_worker,
    _threaded_pair,
    quantum_fluxes,
    simulate_classical_run,
    simulate_quantum_run,
)

TICK = 100e-12


def stream_from_times(times, t_exp, tag="coincidence"):
    ticks = np.sort(np.round(np.asarray(times, dtype=float) / TICK)).astype(np.int64)
    return TimestampStream(tag, ticks, TICK, t_exp)


def modulated_stream(n, f0, depth, theta, t_exp, tag="coincidence"):
    """n events from rate 1 + depth*cos(2 pi f0 (t - t_exp/2) + theta).

    Event times solve Lambda(t_j) = (j + 1/2) * Lambda(t_exp) / n by
    Newton iteration on the exact cumulative intensity, so the stream is
    a noise-free discretization of the modulated flux.
    """
    if not 0 <= depth < 1:
        raise ValueError("depth must keep the rate positive")

    two_pi_f = 2.0 * math.pi * f0

    def cumulative(t):
        ph = two_pi_f * (t - t_exp / 2.0) + theta
        ph0 = two_pi_f * (0.0 - t_exp / 2.0) + theta
        return t + (depth / two_pi_f) * (np.sin(ph) - math.sin(ph0))

    total = float(cumulative(np.asarray(t_exp)))
    targets = (np.arange(n) + 0.5) * total / n
    t = targets.copy()
    for _ in range(30):
        rate = 1.0 + depth * np.cos(two_pi_f * (t - t_exp / 2.0) + theta)
        t = t - (cumulative(t) - targets) / rate
    np.clip(t, 0.0, t_exp * (1.0 - 1e-12), out=t)
    return stream_from_times(t, t_exp, tag)


# ----- projections -----


def test_single_center_event_projects_to_inverse_exposure():
    t_exp = 2.0
    stream = stream_from_times([t_exp / 2.0], t_exp)
    for window in ("hann", "rectangular"):
        for f in (0.0, 10.0, 123.4):
            p = project_timestamps(stream, f, window)
            assert abs(p - 1.0 / t_exp) < 1e-12


def test_empty_stream_projects_to_zero():
    stream = TimestampStream("coincidence", np.array([], dtype=np.int64), TICK, 1.0)
    assert project_timestamps(stream, 7.0) == 0j
    arr = project_timestamps(stream, np.array([0.0, 5.0, 10.0]))
    assert np.all(arr == 0j)


def test_projection_linearity_under_merge():
    rng = np.random.default_rng(101)
    t_exp = 1.0
    s1 = stream_from_times(rng.uniform(0, t_exp, 4000), t_exp)
    s2 = stream_from_times(rng.uniform(0, t_exp, 6000), t_exp)
    union = np.sort(np.concatenate([s1.ticks, s2.ticks]))
    merged = TimestampStream("coincidence", union, TICK, t_exp)
    freqs = np.array([3.0, 17.0, 41.5, 99.0])
    for window in ("hann", "rectangular"):
        p1 = project_timestamps(s1, freqs, window)
        p2 = project_timestamps(s2, freqs, window)
        pm = project_timestamps(merged, freqs, window)
        assert np.max(np.abs(pm - (p1 + p2))) < 1e-9 * np.max(np.abs(pm))


def test_projection_matches_binned_count_dft():
    # The tick grid is itself a uniform binning of the exposure, so a
    # direct DFT over the per-tick counts must reproduce the projection.
    rng = np.random.default_rng(4242)
    t_exp = 1.0
    stream = stream_from_times(rng.uniform(0, t_exp, 100_000), t_exp)
    grid = frequency_grid(t_exp, 100e3)
    freqs = grid[1::9173][:24]  # spot-check across the whole band

    ticks, counts = np.unique(stream.ticks, return_counts=True)
    t_centered = ticks * TICK - t_exp / 2.0
    oracle = np.array(
        [np.sum(counts * np.exp(-2j * math.pi * f * t_centered)) / t_exp for f in freqs]
    )
    got = project_timestamps(stream, freqs, "rectangular")
    scale = np.abs(oracle) + np.abs(got)
    assert np.max(np.abs(got - oracle) / scale) < 1e-6


def _grid_case(name):
    """(stream, frequencies) for the grid-projection exactness test."""
    rng = np.random.default_rng(8)
    t_exp = 1.0
    if name == "small":
        return stream_from_times(rng.uniform(0, t_exp, 3000), t_exp), frequency_grid(t_exp, 150.0)
    if name == "large":
        return stream_from_times(rng.uniform(0, t_exp, 20_000), t_exp), frequency_grid(t_exp, 110e3)
    if name == "wrapped":  # df * t_exp > 1: the exposure spans 2.5 grid periods
        return stream_from_times(rng.uniform(0, t_exp, 3000), t_exp), np.arange(60) * 2.5
    if name == "four_bins":
        return stream_from_times(rng.uniform(0, t_exp, 3000), t_exp), frequency_grid(t_exp, 2.0)
    if name == "near_grid":  # the top bin 2e-12 off k * df: not a grid, summed directly
        grid = frequency_grid(t_exp, 150.0)
        grid[-1] *= 1 + 2e-12
        return stream_from_times(rng.uniform(0, t_exp, 3000), t_exp), grid
    if name == "single_event":
        return stream_from_times([0.3141], t_exp), frequency_grid(t_exp, 500.0)
    last = int(round(t_exp / TICK)) - 1
    ticks = np.sort(np.concatenate([
        [0, 0, 0], rng.integers(0, last, 2000), [last, last]
    ]))
    return TimestampStream("coincidence", ticks, TICK, t_exp), frequency_grid(t_exp, 300.0)


def test_uniform_grid_projection_matches_explicit_matrix():
    # Per-bin error against the explicit event sum, in units of the noise
    # scale sqrt(sum w^2) / t_exp, on up to 64 bins spread over each grid.
    cases = ("small", "large", "wrapped", "four_bins", "near_grid", "single_event", "edge_duplicates")
    for name in cases:
        stream, grid = _grid_case(name)
        # Every case but near_grid runs the grid transform.
        assert (_uniform_from_zero(grid) is None) == (name == "near_grid"), name
        idx = np.unique(np.linspace(0, grid.size - 1, min(grid.size, 64)).round().astype(int))
        t = stream.centered_times()
        for window in ("hann", "rectangular"):
            got = project_timestamps(stream, grid, window)
            w = np.cos(math.pi * t / stream.t_exp) ** 2 if window == "hann" else np.ones_like(t)
            ref = np.exp(-2j * math.pi * np.outer(grid[idx], t)) @ w / stream.t_exp
            noise_scale = math.sqrt(float(np.sum(w * w))) / stream.t_exp
            err = np.max(np.abs(got[idx] - ref)) / noise_scale
            assert err <= 1e-9, (name, window, err)


def test_combined_grid_path_matches_per_stream_and_direct_sums():
    # One transform over both streams against two single-stream transforms
    # and against the explicit event sum, in units of the combined noise
    # scale sqrt(sum w_C^2 + r^2 sum w_A^2) / t_exp. Against the explicit
    # sum the bound also admits the rounding of the event phases, about
    # eps * |2 pi f t| each, which both sums carry (4e-12 rad at m = 10001).
    rng = np.random.default_rng(31)
    t_exp = 1.0
    sc = stream_from_times(rng.uniform(0, t_exp, 5000), t_exp)
    sa = stream_from_times(rng.uniform(0, t_exp, 4000), t_exp, "anticoincidence")
    tc, ta = sc.centered_times(), sa.centered_times()
    for f_max in (2.0, 200.0, 6000.0):  # m = 4, 334, 10001
        grid = frequency_grid(t_exp, f_max)
        assert _uniform_from_zero(grid) is not None
        idx = np.unique(np.linspace(0, grid.size - 1, min(grid.size, 48)).round().astype(int))
        for window in ("hann", "rectangular"):
            wc = np.cos(math.pi * tc / t_exp) ** 2 if window == "hann" else np.ones_like(tc)
            wa = np.cos(math.pi * ta / t_exp) ** 2 if window == "hann" else np.ones_like(ta)
            for ratio in (1.0, 1.7):
                got = combined_spectrum(sc, sa, ratio, grid, window)
                noise = math.sqrt(float(np.sum(wc * wc) + ratio**2 * np.sum(wa * wa))) / t_exp
                split = project_timestamps(sc, grid, window) - ratio * project_timestamps(
                    sa, grid, window
                )
                direct = _project_direct(tc, wc, t_exp, grid[idx]) - ratio * _project_direct(
                    ta, wa, t_exp, grid[idx]
                )
                phase_rounding = 2.0 * np.finfo(float).eps * math.pi * f_max * t_exp
                key = (grid.size, window, ratio)
                assert np.max(np.abs(got - split)) <= 1e-12 * noise, key
                assert np.max(np.abs(got[idx] - direct)) <= (1e-12 + phase_rounding) * noise, key


def test_identical_streams_cancel_exactly():
    rng = np.random.default_rng(55)
    t_exp = 1.0
    s = stream_from_times(rng.uniform(0, t_exp, 2000), t_exp)
    s2 = TimestampStream("anticoincidence", s.ticks, TICK, t_exp)
    y = combined_spectrum(s, s2, 1.0, frequency_grid(t_exp, 100.0))
    assert np.max(np.abs(y)) == 0.0


def test_antiphase_streams_double_the_single_stream_peak():
    t_exp = 1.0
    f0 = 25.0
    sc = modulated_stream(30_000, f0, 0.4, 0.0, t_exp)
    sa = modulated_stream(30_000, f0, 0.4, math.pi, t_exp, "anticoincidence")
    y = abs(complex(combined_spectrum(sc, sa, 1.0, np.array([0.0, f0, 2 * f0]))[1]))
    single = abs(project_timestamps(sc, f0, "hann"))
    assert abs(y / single - 2.0) < 1e-2


# ----- grid and threshold -----


def test_frequency_grid_frozen_sizes():
    g1 = frequency_grid(1.0, 200.0)
    assert g1.size == 334 and g1[0] == 0.0
    assert abs(g1[1] - 0.6) < 1e-15
    g5 = frequency_grid(5.0, 22e3)
    assert g5.size == 183_334
    assert abs(grid_spacing(5.0) - 0.12) < 1e-15
    with pytest.raises(ConfigError):
        frequency_grid(1.0, 0.0)


def test_an_exposure_with_no_finite_grid_spacing_is_refused():
    # 0.6 / 5e-324 overflows, and a grid of that spacing would read 0 * inf.
    refused = "t_exp must leave the scan grid spacing 0.6 / t_exp finite, got 5e-324 s"
    with pytest.raises(ConfigError, match=re.escape(refused)):
        frequency_grid(5e-324, 200.0)
    empty = [TimestampStream(tag, [], t_exp=5e-324) for tag in ("coincidence", "anticoincidence")]
    with pytest.raises(ConfigError, match=re.escape(refused)):
        scan_spectrum(*empty, 1.0, f_max=200.0)
    assert grid_spacing(3.4e-309) < math.inf  # the shortest exposures still scan
    with pytest.raises(ConfigError, match="got 3.3e-309 s"):
        grid_spacing(3.3e-309)


def test_scan_memory_at_the_grid_cap_stays_within_1_gib(monkeypatch):
    # A scan's tracemalloc peak, fitted as a slope per bin plus a fixed part
    # from two grid sizes, each scanned with its table built afresh and the
    # grid transform binning one term a batch, as at the cap, where one
    # term's row of 2^21 bins already exceeds _BATCH_BYTES. At the fold of
    # m rounded up (20 table rows, as at the cap with few events) the fit
    # reads about 240 bytes a bin: the cap stays within 1 GiB, and so would
    # twice the cap, but not three times. At the fold below m (24 rows, the
    # most), about 264 bytes a bin, its largest grid, 1.5 * 2^20 + 1 bins,
    # stays within 1 GiB too.
    t_exp = 1.0
    rng = np.random.default_rng(16)
    sc = stream_from_times(rng.uniform(0, t_exp, 1000), t_exp)
    sa = stream_from_times(rng.uniform(0, t_exp, 1000), t_exp, "anticoincidence")
    monkeypatch.setattr(qvibe.estimate, "_BATCH_BYTES", 1)

    def peak(m, n):
        monkeypatch.setattr(qvibe.estimate, "_table", ((0, 0), None))
        assert _fold_size(m, 2000) == n
        tracemalloc.start()
        try:
            spectrum = scan_spectrum(sc, sa, 1.0, f_max=(m - 0.5) * grid_spacing(t_exp))
            held = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectrum.frequencies.size == m
        return held

    def fit(m_1, n_1, m_2, n_2):
        """Bytes at m bins, on the line through the peaks at m_1 and m_2 bins."""
        p_1, p_2 = peak(m_1, n_1), peak(m_2, n_2)
        return lambda m: p_1 + (p_2 - p_1) / (m_2 - m_1) * (m - m_1)

    gib = 1 << 30
    rounded_up = fit(1 << 17, 1 << 17, 1 << 18, 1 << 18)
    assert rounded_up(_MAX_GRID_BINS) <= gib, rounded_up(_MAX_GRID_BINS) / _MAX_GRID_BINS
    assert rounded_up(2 * _MAX_GRID_BINS) <= gib < rounded_up(3 * _MAX_GRID_BINS)
    below = fit(3 * 2**16 + 1, 1 << 17, 3 * 2**17 + 1, 1 << 18)
    assert below(3 * 2**19 + 1) <= gib, below(3 * 2**19 + 1) / (3 * 2**19 + 1)
    assert frequency_grid(t_exp, (_MAX_GRID_BINS - 0.5) * grid_spacing(t_exp)).size == (
        _MAX_GRID_BINS
    )
    with pytest.raises(ConfigError, match=f"{_MAX_GRID_BINS + 1} scan bins"):
        frequency_grid(t_exp, (_MAX_GRID_BINS + 0.5) * grid_spacing(t_exp))


def test_fold_rule_stays_in_range_and_keeps_the_benchmark_folds():
    # A power of two from m rounded up to max(2m rounded up, 2^16), whatever the
    # count, or the one just below m where theta = pi (m - 1) / n <= 3 pi / 2.
    for m in (4, 5, 334, 1001, 4096, 40_000, 183_334):
        smallest = 1 << (m - 1).bit_length()
        lowest = smallest // 2 if 2 * (m - 1) <= 3 * (smallest // 2) else smallest
        for events in (0, 2, 2_000, 190_000, 10**7):
            n = _fold_size(m, events)
            assert n & (n - 1) == 0 and lowest <= n <= max(2 * smallest, 1 << 16), (m, events)
    assert [n for n, _ in _fold_table(183_334)] == [1 << 17, 1 << 18, 1 << 19]
    assert [n for n, _ in _fold_table(4096)][0] == 4096  # 4095 / 2048 > 1.5
    # Signal-free 1 s exposures (2k to 4k events on 334 bins) keep 2m rounded
    # up, so their spectra are unchanged; the 5 s sweep (1M events on 183,334
    # bins) takes the fold below m, where its rfft stays in cache; the
    # quick-start exposure (190k events) folds wider.
    quick, sweep = frequency_grid(1.0, 200.0).size, frequency_grid(5.0, 22e3).size
    for events in (1_500, 2_000, 4_000):
        assert _fold_size(quick, events) == 1024
    assert _fold_size(sweep, 1_000_000) == 1 << 17
    assert _economised_terms(math.pi * (sweep - 1) / (1 << 17)) == 23
    assert _fold_size(quick, 190_000) == 1 << 14


def test_the_fold_never_narrows_as_the_events_grow():
    # Each fold's work grows with the events at the rate of its term count,
    # which falls as the fold widens, so a wider fold that wins at some
    # count wins at every larger one.
    counts = [0, *np.unique(np.logspace(0, 9, 400).astype(np.int64)).tolist()]
    for m in (4, 5, 334, 1001, 4096, 40_000, 183_334):
        folds = [_fold_size(m, events) for events in counts]
        assert folds == sorted(folds), m
    assert len({_fold_size(40_000, events) for events in counts}) > 1


def _exact_economisation(kept, terms):
    """The folding matrix of u^d into u^q, q < kept <= d < terms, in Fractions.

    Built another way than the package builds it: the Chebyshev
    coefficients of t^d come from d products with t, using
    t T_0 = T_1 and t T_q = (T_(q+1) + T_(q-1)) / 2.
    """
    cheb = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    while len(cheb) < kept:
        c = [Fraction(0)] + [2 * x for x in cheb[-1]]
        for i, x in enumerate(cheb[-2]):
            c[i] -= x
        cheb.append(c)
    fold = [[Fraction(0)] * (terms - kept) for _ in range(kept)]
    for d in range(kept, terms):
        coefs = [Fraction(1)]  # of t^0 in T_0, T_1, ...
        for _ in range(d):
            times_t = [Fraction(0)] * (len(coefs) + 1)
            for q, c in enumerate(coefs):
                if q == 0:
                    times_t[1] += c
                else:
                    times_t[q + 1] += c / 2
                    times_t[q - 1] += c / 2
            coefs = times_t
        for q, c in enumerate(coefs[:kept]):
            for i, x in enumerate(cheb[q]):
                fold[i][d - kept] += c * x * Fraction(2) ** (i - d)  # t^i = 2^i u^i
    return fold


def test_economisation_constants_are_the_exact_fractions_rounded_once():
    # Every (kept, terms) pair the term rules give for theta in (0, pi).
    pairs = {
        (_economised_terms(theta), _series_terms(theta))
        for theta in np.linspace(1e-3, math.pi, 400)
    }
    assert (20, 27) in pairs and (18, 23) in pairs and (14, 17) in pairs
    for kept, terms in sorted(pairs):
        exact = _exact_economisation(kept, terms)
        got = _economisation(kept, terms)
        assert got.shape == (kept, terms - kept)
        for q in range(kept):
            for j in range(terms - kept):
                assert got[q, j] == float(exact[q][j]), (kept, terms, q, j)


def _taylor_rows(m, n, terms):
    """z_k^p / p! as signed reals by the recurrence s *= rate_k * (+-1) / p."""
    rate = (2.0 * math.pi / n) * np.arange(m)
    s, rows = np.ones(m), [np.ones(m)]
    for p in range(1, terms):
        s *= rate * ((1.0 if p % 2 else -1.0) / p)
        rows.append(s.copy())
    return np.array(rows)


def test_series_table_is_the_taylor_recurrence_when_no_degree_is_dropped():
    # The quick-start grid at its fold (8 terms either way) and a tiny one.
    for m, n in ((334, 1 << 14), (5, 1 << 16)):
        theta = math.pi * (m - 1) / n
        assert _economised_terms(theta) == _series_terms(theta)
        table, _ = _series_table(m, n)
        assert table.tobytes() == _taylor_rows(m, n, _series_terms(theta)).tobytes()
    # Where degrees are dropped, the table is the Taylor rows folded by the
    # matrix, to rounding in the sum of the folded terms.
    for m, n in ((334, 1 << 10), (1024, 1024), (183_334, 1 << 18)):
        theta = math.pi * (m - 1) / n
        kept, terms = _economised_terms(theta), _series_terms(theta)
        assert kept < terms
        taylor = _taylor_rows(m, n, terms)
        fold = _economisation(kept, terms)
        folded = taylor[:kept] + fold @ taylor[kept:]
        scale = np.abs(taylor[:kept]) + np.abs(fold) @ np.abs(taylor[kept:])
        eps = np.finfo(float).eps
        assert np.all(np.abs(_series_table(m, n)[0] - folded) <= 4 * terms * eps * scale)
    # At every fold the rule can take, the folds below m included (at m = 4
    # and 5 the one below reaches theta = 3 pi / 2 and pi), the table's
    # polynomial stays within 1e-14 of the phasor e^(-2j pi k u / n) on
    # |u| <= 1/2, and the bin phase is e^(-i pi k / n).
    u = np.linspace(-0.5, 0.5, 257)
    for m in (4, 5, 334, 1001, 4096, 183_334):
        for n, _ in _fold_table(m):
            table, phase = _series_table(m, n)
            assert phase.tobytes() == np.exp((-1j * math.pi / n) * np.arange(m)).tobytes()
            k = np.linspace(0, m - 1, 64).astype(int)
            poly = sum(
                np.outer(row[k] * (-1j if p % 2 else 1.0), u**p) for p, row in enumerate(table)
            )
            error = np.max(np.abs(poly - np.exp(-2j * math.pi * np.outer(k, u) / n)))
            assert error < 1e-14, (m, n, error)


def test_series_tables_kept_within_the_byte_budget(monkeypatch):
    monkeypatch.setattr("qvibe.estimate._table", ((0, 0), None))
    budget = qvibe.estimate._TABLE_BYTES
    # The budget is the largest pair of any grid of up to 2^18 bins: every
    # m <= 2^18 at the smallest fold the rule weighs (the most rows) fits,
    # 2^18 bins exactly, and the next grid does not.
    def pair_bytes(m):
        n = _fold_table(m)[0][0]
        return m * (8 * _economised_terms(math.pi * (m - 1) / n) + 16)

    sizes = [*range(4, 1 << 18, 997), 196_609, 196_610, 1 << 18]
    assert max(map(pair_bytes, sizes)) == pair_bytes(1 << 18) == budget
    assert pair_bytes((1 << 18) + 1) > budget
    sweep = _series_table(183_334, 1 << 17)  # 23 x 183,334 doubles and the phase, 35.0 MiB
    table, phase = sweep
    assert table.shape == (23, 183_334) and phase.shape == (183_334,)
    assert table.nbytes + phase.nbytes == pair_bytes(183_334) <= budget
    key, kept = qvibe.estimate._table
    assert key == (183_334, 1 << 17) and kept is sweep
    assert _series_table(183_334, 1 << 17) is sweep
    assert not table.flags.writeable and not phase.flags.writeable
    # Another shape takes the one slot; the first is then built anew.
    small = _series_table(334, 1 << 10)
    key, kept = qvibe.estimate._table
    assert key == (334, 1 << 10) and kept is small
    assert _series_table(334, 1 << 10) is small
    # A pair over the budget by itself is built but not kept.
    big = _series_table(300_000, 1 << 18)
    assert big[0].nbytes + big[1].nbytes > budget and not big[0].flags.writeable
    assert qvibe.estimate._table[1] is small
    again = _series_table(183_334, 1 << 17)
    assert again is not sweep and all(map(np.array_equal, again, sweep))
    # More threads than cores, switching often, share the one slot: each
    # gets the table of its shape, and the slot ends holding one of them.
    monkeypatch.setattr("qvibe.estimate._table", ((0, 0), None))
    shapes = [(183_334, 1 << 17), (60_000, 1 << 16), (334, 1 << 10), (4000, 1 << 13)] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_series_table, *shape) for shape in shapes]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for shape, (table, phase) in zip(shapes, got):
        assert table.shape[1] == phase.size == shape[0]
        first = got[shapes.index(shape)]
        assert np.array_equal(table, first[0]) and np.array_equal(phase, first[1]), shape
    (m, n), (table, phase) = qvibe.estimate._table
    assert (m, n) in shapes and table.nbytes + phase.nbytes <= budget
    assert table.shape == (_economised_terms(math.pi * (m - 1) / n), m)


def test_threshold_rectangular_closed_form():
    rng = np.random.default_rng(12)
    t_exp = 2.0
    n_c, n_a, ratio, p_fa, m = 1500, 900, 1.25, 1e-3, 400
    sc = stream_from_times(rng.uniform(0, t_exp, n_c), t_exp)
    sa = stream_from_times(rng.uniform(0, t_exp, n_a), t_exp, "anticoincidence")
    kappa = detection_threshold(sc, sa, ratio, "rectangular", p_fa, m)
    alpha_1 = 1.0 - (1.0 - p_fa) ** (1.0 / m)
    expected = math.sqrt(-math.log(alpha_1)) * math.sqrt(n_c + ratio**2 * n_a) / t_exp
    assert abs(kappa - expected) < 1e-12 * expected


def test_threshold_takes_the_log_of_an_underflowing_level_in_closed_form():
    # Down to p_fa = 1e-320 the per-bin level stays above 0 and kappa is the
    # log-space formula, bit for bit; at 5e-324 it underflows to 0, and its
    # log is log(-log1p(-p_fa)) - log(n_bins), which keeps kappa rising.
    w = np.linspace(0.1, 1.0, 1000)
    parts, t_exp, m = [(w, w), (w[:400], -0.8 * w[:400])], 2.0, 334
    power = sum(float(np.sum(x * x)) for _, x in parts)
    kappas = []
    for p_fa in (0.5, 1e-3, 1e-300, 1e-320, 5e-324):
        alpha_1 = -math.expm1(math.log1p(-p_fa) / m)
        if p_fa > 5e-324:
            log_alpha = math.log(alpha_1)
        else:
            assert alpha_1 == 0
            log_alpha = math.log(5e-324) - math.log(m)
        kappa = _threshold(parts, t_exp, p_fa, m)
        assert kappa.hex() == (math.sqrt(-log_alpha) * math.sqrt(power) / t_exp).hex(), p_fa
        kappas.append(kappa)
    assert kappas == sorted(kappas)


def test_threshold_hann_is_below_rectangular():
    rng = np.random.default_rng(13)
    t_exp = 1.0
    sc = stream_from_times(rng.uniform(0, t_exp, 5000), t_exp)
    sa = stream_from_times(rng.uniform(0, t_exp, 5000), t_exp, "anticoincidence")
    k_hann = detection_threshold(sc, sa, 1.0, "hann", 1e-3, 300)
    k_rect = detection_threshold(sc, sa, 1.0, "rectangular", 1e-3, 300)
    assert k_hann < k_rect


def test_threshold_validation():
    rng = np.random.default_rng(14)
    sc = stream_from_times(rng.uniform(0, 1, 100), 1.0)
    sa = stream_from_times(rng.uniform(0, 1, 100), 1.0, "anticoincidence")
    empty_c = TimestampStream("coincidence", np.array([], dtype=np.int64), TICK, 1.0)
    empty_a = TimestampStream("anticoincidence", np.array([], dtype=np.int64), TICK, 1.0)
    with pytest.raises(ConfigError):
        detection_threshold(sc, sa, 1.0, "hann", 0.0, 100)
    with pytest.raises(ConfigError):
        detection_threshold(sc, sa, 1.0, "hann", 1.0, 100)
    with pytest.raises(ConfigError):
        detection_threshold(sc, sa, 1.0, "hann", 1e-3, 0)
    with pytest.raises(ConfigError):
        detection_threshold(sc, sa, -1.0, "hann", 1e-3, 100)
    with pytest.raises(AnalysisError):
        detection_threshold(empty_c, empty_a, 1.0, "hann", 1e-3, 100)


def test_a_ratio_whose_noise_power_overflows_is_refused():
    # One event each at mid-exposure, Hann weight 1: at ratio 1e160 the power
    # 1 + 1e320 overflows. With A's event at the exposure's edge, its weight
    # is about 2.5e-18 and the power stays finite at the same ratio, and is
    # refused again at 1e300. Neither warns, and no kappa is infinite.
    mid_c = stream_from_times([0.5], 1.0)
    mid_a = stream_from_times([0.5], 1.0, "anticoincidence")
    edge_a = stream_from_times([5e-10], 1.0, "anticoincidence")
    cfg = parse_config("[analysis]\nratio = 1e160\n", "r.ini")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sa, ratio in ((mid_a, 1e160), (mid_a, 1e300), (edge_a, 1e300)):
            with pytest.raises(ConfigError, match="noise power"):
                scan_spectrum(mid_c, sa, ratio, 1e-3, 10.0)
            with pytest.raises(ConfigError, match="noise power"):
                detection_threshold(mid_c, sa, ratio, "hann", 1e-3, 10)
        with pytest.raises(ConfigError, match=r"^r\.ini: \[analysis\] ratio: ratio makes"):
            check_ratio(cfg, 1e160, mid_c, mid_a)
        check_ratio(cfg, 1e160, mid_c, edge_a)
        assert math.isfinite(scan_spectrum(mid_c, edge_a, 1e160, 1e-3, 10.0).threshold_kappa)
        # The streams' own refusal names no key.
        with pytest.raises(ConfigError, match="^streams must share"):
            check_ratio(cfg, 1e160, mid_c, stream_from_times([0.5], 2.0, "anticoincidence"))


def _scan_cases():
    """(stream_c, stream_a, ratio) at three ratios, and with an empty A stream."""
    sc, sa = constant_pair_of_streams(5_000, 2.0)
    empty = TimestampStream("anticoincidence", np.array([], dtype=np.int64), TICK, 2.0)
    return [(sc, sa, ratio) for ratio in (0.3, 1.0, 1.7)] + [(sc, empty, 1.0)]


def test_scan_threshold_is_bitwise_detection_threshold():
    # The scan reuses its projection's window weights for the threshold;
    # the result must be the standalone threshold's, bit for bit.
    for stream_c, stream_a, ratio in _scan_cases():
        est = scan_spectrum(stream_c, stream_a, ratio, p_fa=1e-3, f_max=400.0)
        kappa = detection_threshold(stream_c, stream_a, ratio, "hann", 1e-3, est.frequencies.size)
        assert est.threshold_kappa.hex() == kappa.hex(), (len(stream_a), ratio)


def test_scan_projections_are_bitwise_combined_spectrum():
    # The benchmark's oracle checks combined_spectrum on the scan grid, so
    # that call must give the scan's own projections, bit for bit.
    for stream_c, stream_a, ratio in _scan_cases():
        est = scan_spectrum(stream_c, stream_a, ratio, p_fa=1e-3, f_max=400.0)
        y = combined_spectrum(stream_c, stream_a, ratio, frequency_grid(stream_c.t_exp, 400.0))
        assert est.projections.tobytes() == y.tobytes(), (len(stream_a), ratio)


@pytest.fixture(scope="module")
def overlapped_pair():
    # About 100k events a stream, each over the pair's thread gate, so the
    # scan prepares A and bins the terms on its one worker thread, and
    # refinement sums stream A's moments on one.
    pair = PhotonPairSpec(delta_omega=2 * math.pi * 177e12, visibility_v0=0.9)
    signal = VibrationSignal.pure_tone(5e3, 20e-9, dc_offset_delay=quadrature_delay(pair))
    channel = ChannelModel(rate_c=200e3, rate_a=200e3)
    return simulate_quantum_run(pair, signal, channel, t_exp=1.0, seed=20)


def _threaded_scan_is_serial(monkeypatch, started, streams, ratio, f_max):
    """Scan the pair and refine each detection on its worker, then with the
    gate shut: each threaded scan and seed starts one worker, the serial
    path none, and every value is the same bit for bit. Returns the scan."""
    stream_c, stream_a = streams
    assert _threaded_pair(len(stream_c), len(stream_a))
    scan = scan_spectrum(stream_c, stream_a, ratio, f_max=f_max)
    comps = [estimate_component(stream_c, stream_a, ratio, f) for f in scan.detected]
    assert started == [1] * (1 + len(scan.detected))  # one worker a scan and a seed
    monkeypatch.setattr("qvibe.simulate._PAIR_THREAD_EVENTS", math.inf)
    serial = scan_spectrum(stream_c, stream_a, ratio, f_max=f_max)
    serial_comps = [estimate_component(stream_c, stream_a, ratio, f) for f in serial.detected]
    assert len(started) == 1 + len(scan.detected)  # the serial path started none
    assert serial.projections.tobytes() == scan.projections.tobytes()
    assert serial.threshold_kappa.hex() == scan.threshold_kappa.hex()
    assert serial.detected == scan.detected
    assert repr(serial_comps) == repr(comps)  # float repr round-trips every bit
    return scan


def test_overlapped_scan_and_refinement_are_bitwise_the_serial_path(
    monkeypatch, overlapped_pair, counting_pools
):
    # A 66,667-bin grid (f_max = 40 kHz at t_exp = 1 s): three batches of
    # terms, the worker binning each while the caller transforms the one before.
    scan = _threaded_scan_is_serial(monkeypatch, counting_pools, overlapped_pair, 1.1, 40e3)
    assert scan.frequencies.size >= 1 << 16 and scan.detected


def test_side_by_side_preparation_is_bitwise_the_serial_scan(
    monkeypatch, overlapped_pair, counting_pools
):
    # The README quick start's size: about 100k events a stream on its 334
    # bins, folded onto 2^14 bins with 8 series terms, one batch, which the
    # worker path splits into 7 + 1 terms after the worker has made A's
    # times, weights and fold.
    events = sum(map(len, overlapped_pair))
    n = _fold_size(334, events)
    assert n == 1 << 14 and len(_series_table(334, n)[0]) == 8 <= _BATCH_BYTES // (8 * n)
    scan = _threaded_scan_is_serial(monkeypatch, counting_pools, overlapped_pair, 1.1, 200.0)
    assert scan.frequencies.size == 334


def test_a_scan_on_a_campaign_worker_opens_no_worker(overlapped_pair, counting_pools):
    # Both gates are open on this pair, but a campaign's workers hold the cores.
    stream_c, stream_a = overlapped_pair
    with ThreadPoolExecutor(max_workers=1, initializer=_mark_campaign_worker) as pool:
        inner = pool.submit(scan_spectrum, stream_c, stream_a, 1.1, 1e-3, 40e3).result(timeout=120)
    assert counting_pools == []
    alone = scan_spectrum(stream_c, stream_a, 1.1, f_max=40e3)
    assert counting_pools == [1]
    assert inner.projections.tobytes() == alone.projections.tobytes()
    assert inner.threshold_kappa.hex() == alone.threshold_kappa.hex()


def test_concurrent_overlapped_scans_are_bitwise_one_scan(overlapped_pair):
    # Each call opens and closes its own worker, so calls from more threads
    # than cores, switching often, share no state but the kept series table.
    stream_c, stream_a = overlapped_pair
    one = scan_spectrum(stream_c, stream_a, 1.1, f_max=40e3)
    seed = one.detected[-1]
    comp = estimate_component(stream_c, stream_a, 1.1, seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            scans = [pool.submit(scan_spectrum, stream_c, stream_a, 1.1, 1e-3, 40e3)
                     for _ in range(3)]
            comps = [pool.submit(estimate_component, stream_c, stream_a, 1.1, seed)
                     for _ in range(3)]
            scans = [future.result(timeout=120) for future in scans]
            comps = [future.result(timeout=120) for future in comps]
    finally:
        sys.setswitchinterval(interval)
    for scan in scans:
        assert scan.projections.tobytes() == one.projections.tobytes()
    assert [repr(c) for c in comps] == [repr(comp)] * 3


def _whole_part_transform(parts, t_exp, df, m, n):
    """The grid transform with one np.bincount per part and term over the whole fold.

    The series of ``_grid_terms``, summed as one bincount per part and term
    sums it: each term bins each part's moments w u^p in one call, adds the
    parts in order, and reads the m bins off one full n-point spectrum.
    """
    table, phase = _series_table(m, n)
    folded = []
    for t, w in parts:
        if t.size:
            x = t * (df * n)
            cell = np.floor(x)
            folded.append((cell.astype(np.int64) & (n - 1), x - cell - 0.5, w))
    out = np.zeros(m, dtype=complex)
    moments = [w for _, _, w in folded]
    for p, s in enumerate(table):
        if p:
            moments = [x * u for x, (_, u, _) in zip(moments, folded)]
        if not folded:
            break
        binned = np.bincount(folded[0][0], moments[0], minlength=n)
        for (bins, _, _), x in zip(folded[1:], moments[1:]):
            binned += np.bincount(bins, x, minlength=n)
        half = np.fft.rfft(binned)
        full = np.concatenate([half, np.conj(half[n // 2 - 1 : 0 : -1])])
        term = full[np.arange(m) % n] * s
        if p % 2:
            term *= -1j
        out += term
    out *= phase
    out /= t_exp
    return out


def copied(part):
    """A copy of the part (t, w), which the grid transform folds in place."""
    return tuple(x.copy() for x in part)


def test_segment_binning_is_bitwise_one_bincount_per_part(monkeypatch):
    # With 512-event segments, a part is binned segment by segment, and each
    # bin must still get the sum of one whole-part np.bincount: a run of
    # equal times across the nominal cut, the wrap at t = 0, a part of
    # exactly one segment, one event and none, on three folds: above m, at
    # m with the mirrored bins, and below m with the periodic ones.
    monkeypatch.setattr("qvibe.estimate._SEGMENT_EVENTS", 512)
    t_exp = 1.0
    df = grid_spacing(t_exp)
    rng = np.random.default_rng(36)

    def part(t, scale):
        return t, scale * window_weights(t, t_exp, "hann")

    t = np.sort(rng.uniform(-t_exp / 2, t_exp / 2, 5000))
    t[505:530] = t[505]  # 25 equal times across index 512
    long, one_segment = part(t, 1.0), part(np.sort(rng.uniform(-0.5, 0.5, 512)), -0.7)
    single, empty = part(np.array([0.123]), -1.3), (np.array([]), np.array([]))
    for m, n in ((334, 1024), (1000, 1024), (700, 512)):
        cells = np.floor(t * (df * n)).astype(np.int64) & (n - 1)
        segments = _fold(*copied(long), df * n, n)[-1]
        assert cells[511] == cells[512] and cells[505] == cells[529]
        start, stop, _, _ = segments[1]
        assert start > 529 and cells[start - 1] != cells[start], segments[:2]
        assert any(lo + width > n for _, _, lo, width in segments)  # across the wrap
        assert _fold(*copied(one_segment), df * n, n)[-1] == [(0, 512, 0, n)]
        assert len(_fold(*part(t[:600].copy(), 1.0), df * n, n)[-1]) == 2  # cut after index 529
        monkeypatch.setattr("qvibe.estimate._fold_size", lambda m, events, n=n: n)
        for parts in ([long, one_segment], [single, long], [long, empty], [empty, single]):
            y = qvibe.estimate._project_grid([copied(x) for x in parts], t_exp, df, m)
            reference = _whole_part_transform(parts, t_exp, df, m, n)
            assert y.tobytes() == reference.tobytes(), (m, n, [x.size for x, _ in parts])


def test_overlapped_segment_binning_is_bitwise_serial_on_the_sweep_grid():
    # 300k events on the 5 s sweep grid at its fold 2^17: five segments a
    # part and six batches of up to four terms, the worker binning batch
    # b + 1 while the caller transforms batch b.
    t_exp = 5.0
    m, df, n = frequency_grid(t_exp, 22e3).size, grid_spacing(t_exp), 1 << 17
    rng = np.random.default_rng(37)
    parts = []
    for scale in (1.0, -1.1):
        t = np.sort(rng.integers(0, 5 * 10**10, 150_000)) * 1e-10 - t_exp / 2
        parts.append((t, scale * window_weights(t, t_exp, "hann")))

    def folded():  # _grid_terms takes the folded parts, so each call gets its own
        return [_fold(t.copy(), w.copy(), df * n, n) for t, w in parts]

    assert [len(f[-1]) for f in folded()] == [5, 5]
    serial = _grid_terms(folded(), m, n, t_exp, None)
    with ThreadPoolExecutor(max_workers=1) as pool:
        overlapped = _grid_terms(folded(), m, n, t_exp, pool)
    assert overlapped.tobytes() == serial.tobytes()
    assert serial.tobytes() == _whole_part_transform(parts, t_exp, df, m, n).tobytes()


def test_grouped_term_transforms_are_bitwise_one_term_at_a_time(monkeypatch):
    # The grid transform takes a batch's rows as many terms at a time as fit
    # _GROUP_BYTES. One row a group and every row of a batch in one group
    # must give the same bits, those of one bincount per part and term, with
    # and without a worker, on a grid with a mirrored tail (n/2 + 1 < m <= n),
    # one folded below m (whose bins past n repeat) and the false-alarm grid
    # at every fold the rule weighs there, from 256 to 2^16; at its fold,
    # 1024, the default groups hold all 14 of its terms.
    t_exp = 1.0
    df = grid_spacing(t_exp)
    rng = np.random.default_rng(39)
    parts = []
    for size, scale in ((1500, 1.0), (1700, -1.1)):
        t = np.sort(rng.uniform(-t_exp / 2, t_exp / 2, size))
        parts.append((t, scale * window_weights(t, t_exp, "hann")))
    m_fa = frequency_grid(t_exp, 200.0).size
    assert _fold_size(m_fa, 3200) == 1024 and len(_series_table(m_fa, 1024)[0]) == 14
    assert qvibe.estimate._GROUP_BYTES // (16 * 513) >= 14
    weighed = [n for n, _ in _fold_table(m_fa)]
    assert weighed == [256 << k for k in range(9)]
    for m, n in ((1000, 1024), (700, 512), *((m_fa, n) for n in weighed)):
        reference = _whole_part_transform(parts, t_exp, df, m, n).tobytes()
        for budget in (1, 1 << 30):
            monkeypatch.setattr("qvibe.estimate._GROUP_BYTES", budget)
            for pool in (None, ThreadPoolExecutor(max_workers=1)):
                with pool or contextlib.nullcontext():
                    folded = [_fold(t.copy(), w.copy(), df * n, n) for t, w in parts]
                    y = _grid_terms(folded, m, n, t_exp, pool)
                assert y.tobytes() == reference, (m, n, budget, pool)


def test_sweep_scan_holds_less_than_one_bincount_per_part_and_term():
    # The 5 s, 1M-event sweep scan on 183,334 bins, its series table already
    # kept. Binning one whole part per np.bincount, with int64 bins and a
    # term buffer, this scan peaked at 53,527,376 bytes (tracemalloc); the
    # segment binning's 16-bit local bins and reused rows took it to
    # 50,456,710, and folding each part in place, with its weights as the
    # running moment, to 34,467,182. The bound is that plus 1.5 MB, well
    # under the 8 MB a second event-length buffer would add.
    pair = PhotonPairSpec(delta_omega=2 * math.pi * 177e12, visibility_v0=0.9)
    signal = VibrationSignal.pure_tone(21e3 * 1.00142, 20e-9, dc_offset_delay=quadrature_delay(pair))
    channel = ChannelModel(rate_c=200e3, rate_a=200e3)
    stream_c, stream_a = simulate_quantum_run(pair, signal, channel, t_exp=5.0, seed=36)
    assert len(stream_c) + len(stream_a) == 999_303
    scan_spectrum(stream_c, stream_a, 1.0, f_max=22e3)  # builds and keeps the table
    tracemalloc.start()
    try:
        scan = scan_spectrum(stream_c, stream_a, 1.0, f_max=22e3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.frequencies.size == 183_334
    assert peak <= 36_000_000, peak


def test_a_false_alarm_sized_exposure_starts_no_thread(monkeypatch):
    # 2k events a stream and 334 bins, as the signal-free benchmark runs:
    # below the pair's thread gate, where a thread's start would cost more
    # than it saves.
    # The draws, the scan and the refinement start none, nor does a trace
    # the size of the README quick start's (a 10 Hz line over 1 s, 1,000
    # samples in one block).
    def refuse(max_workers):
        raise AssertionError("started a thread")

    monkeypatch.setattr("qvibe.simulate.ThreadPoolExecutor", refuse)  # the one pool name
    pair = PhotonPairSpec(delta_omega=2 * math.pi * 177e12)
    signal = VibrationSignal.pure_tone(50.0, 20e-9, dc_offset_delay=quadrature_delay(pair))
    channel = ChannelModel(rate_c=2000.0, rate_a=2000.0)
    stream_c, stream_a = simulate_quantum_run(pair, signal, channel, t_exp=1.0, seed=6)
    scan = scan_spectrum(stream_c, stream_a, 1.0, f_max=200.0)
    assert scan.frequencies.size == 334
    comp = estimate_component(stream_c, stream_a, 1.0, 50.0)
    rec = reconstruct(stream_c, stream_a, 1.0, pair, GeometryFactor(), [replace(comp, f_hat=10.0)])
    assert rec.tau_trace.size == 1000


def test_the_draw_scan_and_refinement_share_one_thread_gate(
    monkeypatch, counting_pools, tmp_path
):
    # _threaded_pair is the one gate of all five sites: a pair whose smaller
    # stream is exactly at _PAIR_THREAD_EVENTS (a draw: expects exactly that
    # many candidates) starts no worker, and with the gate one lower, one
    # more candidate or event than it, each site starts exactly one.
    pair = PhotonPairSpec(delta_omega=2 * math.pi * 177e12)
    signal = VibrationSignal.pure_tone(50.0, 20e-9, dc_offset_delay=quadrature_delay(pair))
    channel = ChannelModel(rate_c=2000.0, rate_a=3000.0)
    fluxes = quantum_fluxes(pair, signal, channel)
    started, gate = counting_pools, "qvibe.simulate._PAIR_THREAD_EVENTS"

    def workers(at, call, *args):
        monkeypatch.setattr(gate, at)
        result = call(*args)
        opened = list(started)
        started.clear()
        return opened, result

    candidates = min(fluxes.bound_1, fluxes.bound_2)  # at t_exp = 1 s
    assert workers(candidates, simulate_quantum_run, pair, signal, channel, 1.0, 6)[0] == []
    opened, run = workers(candidates - 1, simulate_quantum_run, pair, signal, channel, 1.0, 6)
    assert opened == [1]
    events = min(map(len, run))
    for call, args in ((scan_spectrum, (*run, 1.0, 1e-3, 200.0)),
                       (estimate_component, (*run, 1.0, 50.0))):
        assert workers(events, call, *args)[0] == []
        assert workers(events - 1, call, *args)[0] == [1]
    # The pair's file writes (qvibe simulate, its draw stubbed to give this
    # run) and reads (qvibe estimate, stopped after the reads), which take
    # the reads' event counts from the text headers.
    monkeypatch.setattr("qvibe.cli._simulate", lambda *args: run)

    def no_analysis(*args, **kwargs):
        raise AnalysisError("stopped after the reads")

    monkeypatch.setattr("qvibe.cli.pipeline", no_analysis)
    config = tmp_path / "tone.ini"
    config.write_text("[signal]\nkind = pure_tone\nfrequency = 50 Hz\namplitude_pp = 20 nm\n")
    files = [str(tmp_path / "out" / f"{s.tag}.txt") for s in run]
    for argv, code in ((["simulate", "-c", str(config), "--out", str(tmp_path / "out")], 0),
                       (["estimate", *files, "-c", str(config)], 4)):
        assert workers(events, cli_main, argv) == ([], code)
        assert workers(events - 1, cli_main, argv) == ([1], code)


def test_group_detections_collapses_runs_and_skips_dc():
    freqs = np.arange(8) * 0.6
    mags = np.array([9.0, 0.1, 2.0, 3.0, 2.5, 0.1, 4.0, 0.2])
    seeds = _group_detections(freqs, mags, 1.0)
    # DC is masked even though it towers over the threshold; the
    # contiguous run at bins 2-4 collapses to its peak at bin 3.
    assert seeds == (freqs[3], freqs[6])
    assert _group_detections(freqs, np.zeros(8), 1.0) == ()


def test_group_detections_takes_a_tie_at_its_first_bin_and_a_run_at_the_last_bin():
    freqs = np.arange(9) * 0.6
    # Bins 2-4 tie at 3.0 (the first, bin 2, is the seed); bins 6-8 end the grid.
    mags = np.array([0.0, 0.5, 3.0, 3.0, 2.0, 0.5, 2.0, 4.0, 5.0])
    assert _group_detections(freqs, mags, 1.0) == (freqs[2], freqs[8])
    # A single bin over the threshold, the last one, is a run of its own.
    assert _group_detections(freqs, np.eye(9)[8] * 2.0, 1.0) == (freqs[8],)


def test_a_signal_free_scan_detects_nothing_and_one_run_keeps_its_peak():
    # A signal-free scan has no bin above kappa and detects nothing; a tone's
    # main lobe is one run of bins above kappa, and its peak bin is the seed.
    channel, dc = ChannelModel(rate_c=2000.0, rate_a=2000.0), quadrature_delay(PAIR)
    for signal, run_bins in ((VibrationSignal(components=(), dc_offset_delay=dc), 0),
                             (VibrationSignal.pure_tone(50.0, 100e-9, dc_offset_delay=dc), 3)):
        run = simulate_quantum_run(PAIR, signal, channel, t_exp=1.0, seed=39)
        scan = scan_spectrum(*run, 1.0, 1e-3, 200.0)
        magnitude = np.abs(scan.projections)
        above = np.flatnonzero(magnitude[1:] > scan.threshold_kappa) + 1
        assert above.size == run_bins and np.all(np.diff(above) == 1), above
        peak = above[np.argmax(magnitude[above])] if above.size else None
        assert scan.detected == (() if peak is None else (scan.frequencies[peak],))
        assert _group_detections(scan.frequencies, magnitude, scan.threshold_kappa) == scan.detected


# ----- refinement, phase, amplitudes -----


def golden_section_max(fun, lo, hi, iters=90):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def test_refine_frequency_against_golden_section_oracle():
    # The stated tolerance, 1e-4 of the bracket half-width, must hold at
    # low and high line frequencies alike, against a golden-section
    # maximum of the direct event sums.
    t_exp = 1.0
    df = grid_spacing(t_exp)
    for f_true in (10.25, 1000.25, 21000.25):
        f_seed = f_true - 0.05
        sc = modulated_stream(20_000, f_true, 0.5, 0.7, t_exp)
        sa = modulated_stream(20_000, f_true, 0.5, 0.7 + math.pi, t_exp, "anticoincidence")
        got = estimate_component(sc, sa, 1.0, f_seed)
        assert got.refined

        tc = sc.centered_times()
        ta = sa.centered_times()

        def magnitude(f):
            yc = np.exp((-2j * math.pi * f) * tc).sum()
            ya = np.exp((-2j * math.pi * f) * ta).sum()
            return abs(yc - ya) / t_exp

        oracle = golden_section_max(magnitude, f_seed - df, f_seed + df)
        assert abs(got.f_hat - oracle) <= 1e-4 * df, (f_true, got.f_hat - oracle)
        assert abs(got.f_hat - f_true) < 1e-3, f_true


def test_refine_series_matches_direct_event_sum():
    t_exp = 1.0
    f_seed = 10.2
    sc = modulated_stream(20_000, 10.25, 0.5, 0.7, t_exp)
    sa = modulated_stream(15_000, 10.25, 0.5, 0.7 + math.pi, t_exp, "anticoincidence")
    tc, ta = sc.centered_times(), sa.centered_times()
    h = t_exp / 2.0
    for delta_f in (grid_spacing(t_exp), 1.0 / t_exp):
        freqs = np.linspace(f_seed - delta_f, f_seed + delta_f, 21)
        direct_c = [np.exp((-2j * math.pi * f) * tc).sum() for f in freqs]
        direct_a = [np.exp((-2j * math.pi * f) * ta).sum() for f in freqs]
        for segments in (1, 16):
            m_c = _offset_moments(sc, f_seed, delta_f, segments)
            m_a = _offset_moments(sa, f_seed, delta_f, segments)
            s_c = _offset_series(m_c, f_seed, h)
            s_a = _offset_series(m_a, f_seed, h)
            for f, d_c, d_a in zip(freqs, direct_c, direct_a):
                assert abs(s_c(f) - d_c) <= 1e-12 * abs(d_c), (delta_f, segments, f)
                assert abs(s_a(f) - d_a) <= 1e-12 * abs(d_a), (delta_f, segments, f)
                for ratio in (1.0, 1.7):
                    y = _offset_series(m_c - ratio * m_a, f_seed, h)
                    direct = d_c - ratio * d_a
                    assert abs(y(f) - direct) <= 1e-12 * abs(direct), (delta_f, segments, ratio, f)


def test_refine_segments_with_no_events_and_with_all_of_them():
    # Events only in the first and last eighth of the exposure leave the
    # middle segments empty; events inside one segment leave all others
    # empty. The segmented series is still the event sum.
    t_exp, f_seed, segments = 2.0, 35.0, 16
    rng = np.random.default_rng(15)
    edges = np.concatenate(
        [rng.uniform(0.0, t_exp / 8, 3_000), rng.uniform(7 * t_exp / 8, t_exp, 3_000)]
    )
    lone = rng.uniform(0.26 * t_exp, 0.31 * t_exp, 4_000)  # segment 4 is [0.25, 0.3125) t_exp
    delta_f = grid_spacing(t_exp)
    for times, filled in ((edges, [0, 1, 14, 15]), (lone, [4])):
        s = stream_from_times(times, t_exp)
        moments = _offset_moments(s, f_seed, delta_f, segments)
        assert np.flatnonzero(np.any(moments != 0, axis=1)).tolist() == filled
        series = _offset_series(moments, f_seed, t_exp / 2.0)
        t = s.centered_times()
        for f in np.linspace(f_seed - delta_f, f_seed + delta_f, 11):
            direct = np.exp((-2j * math.pi * f) * t).sum()
            assert abs(series(f) - direct) <= 1e-12 * abs(direct), (filled, f)
    # Up to 2^15 events a stream is one segment: one series about the midpoint.
    assert [_segment_count(n) for n in (0, 1, 1 << 15, (1 << 15) + 1, 500_000)] == [1, 1, 1, 2, 16]


def test_phase_construction_oracle():
    t_exp = 1.0
    f0 = 10.0
    for theta in (0.0, 1.1, -2.4):
        sc = modulated_stream(40_000, f0, 0.5, theta, t_exp)
        sa = modulated_stream(40_000, f0, 0.5, theta + math.pi, t_exp, "anticoincidence")
        got = estimate_component(sc, sa, 1.0, f0).theta_hat
        err = (got - theta + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(err) < 0.01


def test_phase_flips_by_pi_for_antiphase_construction():
    t_exp = 1.0
    f0 = 10.0
    sc = modulated_stream(40_000, f0, 0.5, 0.3, t_exp)
    sa = modulated_stream(40_000, f0, 0.5, 0.3 + math.pi, t_exp, "anticoincidence")
    th_c = estimate_component(sc, sa, 1.0, f0).theta_hat
    th_a = estimate_component(sa, sc, 1.0, f0).theta_hat
    diff = (th_c - th_a + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(abs(diff) - math.pi) < 0.02


def test_phase_undefined_for_cancelled_projection():
    rng = np.random.default_rng(31)
    s = stream_from_times(rng.uniform(0, 1, 300), 1.0)
    s2 = TimestampStream("anticoincidence", s.ticks, TICK, 1.0)
    with pytest.raises(AnalysisError, match="zero combined projection"):
        estimate_component(s, s2, 1.0, 10.0)


def test_amplitude_estimates_recover_construction():
    t_exp = 1.0
    f0, depth, theta, n = 10.0, 0.5, 0.3, 50_000
    sc = modulated_stream(n, f0, depth, theta, t_exp)
    sa = modulated_stream(n, f0, depth, theta + math.pi, t_exp, "anticoincidence")
    comp = estimate_component(sc, sa, 1.0, f0)
    a0 = n / t_exp
    assert abs(comp.theta_hat - theta) < 0.01
    assert abs(comp.a_hat_c - depth * a0) < 0.01 * depth * a0
    # Anti-phase stream keeps the shared phase and flips the sign.
    assert abs(comp.a_hat_a + depth * a0) < 0.01 * depth * a0


def test_component_matches_direct_event_sums_refined_and_next_to_dc():
    # theta_hat and both amplitudes come from the moment series; they must
    # be the direct event sums at f_hat, for a refined seed and for a seed
    # within delta_f of DC, which keeps its frequency unrefined.
    t_exp = 1.0
    sc = modulated_stream(20_000, 10.25, 0.5, 0.7, t_exp)
    sa = modulated_stream(15_000, 10.25, 0.5, 0.7 + math.pi, t_exp, "anticoincidence")
    tc, ta = sc.centered_times(), sa.centered_times()
    df = grid_spacing(t_exp)
    for f_seed, ratio, refined in ((10.2, 1.7, True), (0.5, 1.0, False), (df, 1.3, False)):
        comp = estimate_component(sc, sa, ratio, f_seed)
        assert comp.refined is refined
        if not refined:
            assert comp.f_hat == f_seed
        f = comp.f_hat
        y = np.exp((-2j * math.pi * f) * tc).sum() - ratio * np.exp((-2j * math.pi * f) * ta).sum()
        assert abs(comp.theta_hat - np.angle(y)) <= 1e-12 * abs(np.angle(y)), f_seed
        for got, t in ((comp.a_hat_c, tc), (comp.a_hat_a, ta)):
            direct = 2.0 * np.cos(2.0 * math.pi * f * t + comp.theta_hat).sum() / t_exp
            assert abs(got - direct) <= 1e-12 * abs(direct), (f_seed, got, direct)


# ----- reconstruction -----


PAIR = PhotonPairSpec(delta_omega=2 * math.pi * 177e12)


def constant_pair_of_streams(n, t_exp):
    rng = np.random.default_rng(77)
    sc = stream_from_times(rng.uniform(0, t_exp, n), t_exp)
    sa = stream_from_times(rng.uniform(0, t_exp, n), t_exp, "anticoincidence")
    return sc, sa


def test_quantum_reconstruction_closed_form_single_tone():
    # Components with a_hat = +/- m*a0 and equal mean fluxes produce
    # P(t) = (1 + m cos)/2, so the inverted delay swings by exactly
    # 2*arcsin(m)/delta_omega peak to peak.
    t_exp = 1.0
    n = 10_000
    m = 0.1
    sc, sa = constant_pair_of_streams(n, t_exp)
    a0 = n / t_exp
    comp = ComponentEstimate(f_hat=1.0, theta_hat=0.0, a_hat_c=m * a0, a_hat_a=-m * a0)
    for g in (1, 2):
        rec = reconstruct(sc, sa, 1.0, PAIR, GeometryFactor(g), [comp])
        expected_pp = SPEED_OF_LIGHT * 2.0 * math.asin(m) / (PAIR.delta_omega * g)
        assert abs(rec.displacement_pp - expected_pp) < 1e-10 * expected_pp
        assert rec.flux_clamp_fraction == 0.0
        assert rec.arccos_clamp_fraction == 0.0
        # 1000 samples, all kept, and pp from the full trace's extremes.
        tau, _, _, pp = _unblocked_reference(
            "quantum", sc, sa, 1.0, PAIR.visibility_v0, PAIR, g, [comp], 1000, _rotated_oscillator
        )
        assert rec.trace_stride == 1
        assert rec.tau_trace.tobytes() == tau.tobytes()
        assert rec.displacement_pp == pp


def test_reconstruction_reports_clamp_activity():
    # A line that may clip takes the sampled trace, bit for bit. At depth
    # 1.3 it is overdriven, so both fluxes go negative and the
    # inverse-cosine argument leaves [-1, 1]; at depth 0.9 the fluxes stay
    # positive but the argument reaches 0.9 / 0.8.
    t_exp = 1.0
    n = 10_000
    sc, sa = constant_pair_of_streams(n, t_exp)
    a0 = n / t_exp
    pair = replace(PAIR, visibility_v0=0.8)
    for depth in (1.3, 0.9):
        comp = ComponentEstimate(f_hat=1.0, theta_hat=0.0, a_hat_c=depth * a0,
                                 a_hat_a=-depth * a0)
        rec = reconstruct(sc, sa, 1.0, pair, GeometryFactor(2), [comp])
        tau, flux, arccos, pp = _unblocked_reference(
            "quantum", sc, sa, 1.0, 0.8, pair, 2, [comp], 1000, _rotated_oscillator
        )
        assert (rec.flux_clamp_fraction > 0.0) == (depth > 1.0), depth
        assert 0.0 < rec.arccos_clamp_fraction < 1.0, depth
        assert rec.flux_clamp_fraction == flux and rec.arccos_clamp_fraction == arccos, depth
        assert rec.tau_trace.tobytes() == tau.tobytes(), depth
        assert rec.displacement_pp == pp, depth


def _one_line_pp(depth, cos_lo, cos_hi, g):
    """The continuous peak-to-peak of one line of depth m on equal streams at
    visibility 1: u = -m cos(phi), so tau = (pi / 2 + asin(m cos(phi))) / delta_omega."""
    return SPEED_OF_LIGHT * (math.asin(depth * cos_hi) - math.asin(depth * cos_lo)) / (
        PAIR.delta_omega * g)


def test_one_line_peak_to_peak_is_the_continuous_one():
    # 10 Hz over 1 s at 100 samples per period, with the phase offset by
    # half a sample step: every sample misses the peaks, so the sampled
    # trace reads the swing low by about 1 - cos(pi / 100), 4.9e-4, while
    # the closed form gives the full 2 asin(m) / delta_omega.
    t_exp = 1.0
    sc, sa = constant_pair_of_streams(10_000, t_exp)
    a0 = 10_000 / t_exp
    comp = ComponentEstimate(f_hat=10.0, theta_hat=math.pi / 100, a_hat_c=0.1 * a0,
                             a_hat_a=-0.1 * a0)
    for g in (1, 2):
        rec = reconstruct(sc, sa, 1.0, PAIR, GeometryFactor(g), [comp])
        expected = _one_line_pp(0.1, -1.0, 1.0, g)
        assert abs(rec.displacement_pp - expected) <= 1e-12 * expected
        tau, flux, arccos, pp = _unblocked_reference(
            "quantum", sc, sa, 1.0, 1.0, PAIR, g, [comp], 1000, _rotated_oscillator
        )
        assert pp < expected * (1.0 - 4e-4)
        # Stride 1: the kept trace is the sampled one, bit for bit.
        assert rec.trace_stride == 1 and rec.tau_trace.tobytes() == tau.tobytes()
        assert flux == arccos == rec.flux_clamp_fraction == rec.arccos_clamp_fraction == 0.0


def test_one_line_below_one_cycle_per_exposure():
    # 0.6 Hz over 1 s, as an unrefined seed next to DC would be: the phase
    # interval holds one maximum of cos (at t = -0.13 s, between samples)
    # and no minimum, so cos ranges from its value at the last sample to 1.
    t_exp = 1.0
    sc, sa = constant_pair_of_streams(10_000, t_exp)
    a0 = 10_000 / t_exp
    comp = ComponentEstimate(f_hat=0.6, theta_hat=0.5, a_hat_c=0.1 * a0, a_hat_a=-0.1 * a0)
    rec = reconstruct(sc, sa, 1.0, PAIR, GeometryFactor(2), [comp])
    tau, _, _, pp = _unblocked_reference(
        "quantum", sc, sa, 1.0, 1.0, PAIR, 2, [comp], 1000, _rotated_oscillator
    )
    assert rec.displacement_pp >= pp
    cos_last = math.cos(2.0 * math.pi * 0.6 * (t_exp / 2.0 - t_exp / 1000) + 0.5)
    expected = _one_line_pp(0.1, cos_last, 1.0, 2)
    assert abs(rec.displacement_pp - expected) <= 1e-12 * expected
    assert rec.tau_trace.tobytes() == tau.tobytes()


def test_one_line_trace_evaluates_only_the_kept_samples():
    # Seven blocks, stride 112: only the 4087 kept samples are evaluated,
    # 112 dt apart, so their oscillator rounds its phase differently from
    # the full trace's; both stay within the phase-rounding bound of
    # test_rotated_trace_matches_direct_cosine. The peak-to-peak exceeds
    # the sampled one by at most the half-step shortfall 1 - cos(pi f dt).
    eps = np.finfo(float).eps
    t_exp = 1.0
    n = 7 * _TRACE_BLOCK - 1000
    sc, sa = constant_pair_of_streams(10_000, t_exp)
    a0 = 10_000 / t_exp
    f = (n - 0.5) / 100
    comp = ComponentEstimate(f_hat=f, theta_hat=0.3, a_hat_c=0.1 * a0, a_hat_a=-0.1 * a0)
    pair = replace(PAIR, visibility_v0=0.8)
    rec = reconstruct(sc, sa, 1.0, pair, GeometryFactor(2), [comp])
    tau, _, _, pp = _unblocked_reference(
        "quantum", sc, sa, 1.0, 0.8, pair, 2, [comp], n, _direct_oscillator
    )
    kept, stride = _kept_samples(tau)
    assert rec.trace_stride == stride == 112 and rec.tau_trace.size == kept.size
    assert rec.trace_dt == t_exp / n * stride
    assert rec.flux_clamp_fraction == rec.arccos_clamp_fraction == 0.0
    slope = 1.0 / (0.8 * pair.delta_omega * math.sqrt(1.0 - (0.1 / 0.8) ** 2))
    phase_error = 0.1 * 4.0 * eps * 2.0 * math.pi * f * t_exp
    bound = slope * phase_error + 8.0 * eps * math.pi / pair.delta_omega
    assert np.max(np.abs(rec.tau_trace - kept)) <= bound
    assert pp <= rec.displacement_pp <= pp * (2.0 - math.cos(math.pi * f * t_exp / n))


def test_reconstruction_validation():
    sc, sa = constant_pair_of_streams(100, 1.0)
    comp = ComponentEstimate(1.0, 0.0, 10.0, -10.0)
    with pytest.raises(ValueError):
        reconstruct(sc, sa, 1.0, PAIR, GeometryFactor(2), [])
    with pytest.raises(ConfigError):
        reconstruct(sc, sa, -1.0, PAIR, GeometryFactor(2), [comp])
    no_contrast = ClassicalFringeSpec(omega_optical=1e15, arm_intensity_ratio=0.0)
    with pytest.raises(ConfigError, match="contrast"):
        reconstruct(sc, sa, 1.0, no_contrast, GeometryFactor(2), [comp])
    empty_c = TimestampStream("coincidence", np.array([], dtype=np.int64), TICK, 1.0)
    empty_a = TimestampStream("anticoincidence", np.array([], dtype=np.int64), TICK, 1.0)
    with pytest.raises(AnalysisError):
        reconstruct(empty_c, empty_a, 1.0, PAIR, GeometryFactor(2), [comp])


def test_ratio_must_be_positive_and_finite():
    sc, sa = constant_pair_of_streams(100, 1.0)
    comp = ComponentEstimate(1.0, 0.0, 10.0, -10.0)
    freqs = frequency_grid(1.0, 10.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="ratio"):
            combined_spectrum(sc, sa, bad, freqs)
        with pytest.raises(ConfigError, match="ratio"):
            detection_threshold(sc, sa, bad, "hann", 1e-3, freqs.size)
        with pytest.raises(ConfigError, match="ratio"):
            reconstruct(sc, sa, bad, PAIR, GeometryFactor(2), [comp])
        with pytest.raises(ConfigError, match="ratio"):
            estimate_component(sc, sa, bad, 5.0)


def _direct_oscillator(c, n, t_exp):
    """cos(2 pi f_hat t + theta_hat) on the n-sample trace, one np.cos per sample."""
    t = np.linspace(0.0, t_exp, n, endpoint=False) - t_exp / 2.0
    return np.cos(2.0 * math.pi * c.f_hat * t + c.theta_hat)


def _rotated_oscillator(c, n, t_exp):
    """The same oscillator built as ``reconstruct`` builds it: per _TRACE_BLOCK
    block, the cos and sin of the block's start phase rotate one table of
    in-block phase advances 2 pi f_hat j dt."""
    dt = t_exp / n
    size = min(n, _TRACE_BLOCK)
    advance = (2.0 * math.pi * c.f_hat * dt) * np.arange(size, dtype=float)
    cos_j, sin_j = np.cos(advance), np.sin(advance)
    blocks = []
    for start in range(0, n, size):
        k = min(size, n - start)
        phase0 = 2.0 * math.pi * c.f_hat * (start * dt - t_exp / 2.0) + c.theta_hat
        blocks.append(cos_j[:k] * math.cos(phase0) - sin_j[:k] * math.sin(phase0))
    return np.concatenate(blocks)


def _unblocked_reference(mode, sc, sa, ratio, contrast, fringe, g, comps, n, oscillator):
    """The whole n-sample reconstruction, one array per stage, for comparison.

    Returns the full delay trace, both clamp fractions and the
    peak-to-peak displacement c (tau.max() - tau.min()) / g.
    """
    t_exp = sc.t_exp
    a0_c, a0_a = len(sc) / t_exp, len(sa) / t_exp
    phi_c, phi_a = np.full(n, a0_c), np.full(n, a0_a)
    for c in comps:
        osc = oscillator(c, n, t_exp)
        phi_c += c.a_hat_c * osc
        phi_a += c.a_hat_a * osc
    flux = (np.count_nonzero(phi_c < 0) + np.count_nonzero(phi_a < 0)) / (2.0 * n)
    np.clip(phi_c, 0.0, None, out=phi_c)
    np.clip(phi_a, 0.0, None, out=phi_a)
    p_hat = phi_c / (phi_c + ratio * phi_a)
    if mode == "quantum":
        u = (1.0 - 2.0 * p_hat) / contrast
    else:
        u = (2.0 * p_hat - 1.0) / contrast
    arccos = np.count_nonzero(np.abs(u) > 1.0) / n
    np.clip(u, -1.0, 1.0, out=u)
    if mode == "quantum":
        tau = np.arccos(u) / fringe.delta_omega
    else:
        tau = (np.arccos(u) - fringe.phase_offset) / fringe.omega_optical
    return tau, flux, arccos, float(SPEED_OF_LIGHT * (tau.max() - tau.min()) / g)


def _kept_samples(tau):
    """The samples of a full trace that ``reconstruct`` keeps, and their stride."""
    stride = -(-tau.size // 4096)
    return tau[::stride], stride


def test_blocked_reconstruction_is_bitwise_the_unblocked_trace():
    # The reference builds each oscillator block by block as reconstruct
    # does, then clips, inverts and counts clamps on the whole trace at
    # once; the blocked stages must give the same bits, in the kept samples
    # (strides 1, 16, 17 and 56, so kept samples fall at every offset in a
    # block) and in the peak-to-peak taken from the trace's extremes.
    t_exp = 1.0
    sc, sa = constant_pair_of_streams(10_000, t_exp)
    a0 = 10_000 / t_exp
    fringe = ClassicalFringeSpec(omega_optical=2 * math.pi * SPEED_OF_LIGHT / 1550e-9,
                                 phase_offset=-math.pi / 2.0, arm_intensity_ratio=0.25)
    pair = replace(PAIR, visibility_v0=0.8)
    lengths = (1000, _TRACE_BLOCK, _TRACE_BLOCK + 1, 7 * _TRACE_BLOCK // 2)
    for n in lengths:
        # Overdriven, so both the flux and the arccos clamps fire; the top
        # component sits just under n / 100 Hz, so at 100 samples per
        # period the trace holds n samples.
        comps = (
            ComponentEstimate(f_hat=(n - 0.5) / 100, theta_hat=0.3, a_hat_c=1.1 * a0,
                              a_hat_a=-0.9 * a0),
            ComponentEstimate(f_hat=0.37, theta_hat=-1.2, a_hat_c=0.4 * a0, a_hat_a=-0.5 * a0),
        )
        for ratio in (1.0, 1.7):
            for g in (1, 2):
                runs = (
                    ("quantum", 0.8, pair,
                     reconstruct(sc, sa, ratio, pair, GeometryFactor(g), comps)),
                    ("classical", fringe.visibility, fringe,
                     reconstruct(sc, sa, ratio, fringe, GeometryFactor(g), comps)),
                )
                for mode, contrast, spec, rec in runs:
                    tau, flux, arccos, pp = _unblocked_reference(
                        mode, sc, sa, ratio, contrast, spec, g, comps, n, _rotated_oscillator
                    )
                    key = (n, ratio, g, mode)
                    kept, stride = _kept_samples(tau)
                    assert rec.trace_stride == stride, key
                    assert rec.tau_trace.tobytes() == kept.tobytes(), key
                    assert rec.trace_dt == t_exp / n * stride, key
                    assert 0.0 < rec.flux_clamp_fraction == flux, key
                    assert 0.0 < rec.arccos_clamp_fraction == arccos, key
                    assert rec.displacement_pp == pp, key


def test_rotated_trace_matches_direct_cosine():
    # Three components over two and a half blocks, so the trace holds a
    # final partial block. Either way of forming an oscillator rounds its
    # phase, which reaches 2 pi f_hat t_exp / 2 at the trace ends, by a few
    # eps * 2 pi f_hat t_exp; the bound allows 4 of those per component.
    # With equal streams and a_c = -a_a = m a0 the inversion is
    # tau = arccos(-S / V) / delta_omega of S = sum m cos(phase), so a
    # phase error moves tau by at most |d tau / d S| times sum m * 4 eps
    # 2 pi f_hat t_exp, plus rounding of tau itself (8 eps pi / delta_omega).
    eps = np.finfo(float).eps
    t_exp = 1.0
    n = 5 * _TRACE_BLOCK // 2 + 321
    sc, sa = constant_pair_of_streams(10_000, t_exp)
    a0 = 10_000 / t_exp
    pair = replace(PAIR, visibility_v0=0.8)
    depths = (0.12, 0.1, 0.08)
    freqs = ((n - 0.5) / 100, 377.3, 0.37)
    comps = tuple(
        ComponentEstimate(f_hat=f, theta_hat=theta, a_hat_c=m * a0, a_hat_a=-m * a0)
        for f, theta, m in zip(freqs, (0.3, -2.9, 1.7), depths)
    )
    rec = reconstruct(sc, sa, 1.0, pair, GeometryFactor(2), comps)
    tau, flux, arccos, pp = _unblocked_reference(
        "quantum", sc, sa, 1.0, 0.8, pair, 2, comps, n, _direct_oscillator
    )
    kept, stride = _kept_samples(tau)
    assert rec.trace_stride == stride
    assert flux == arccos == rec.flux_clamp_fraction == rec.arccos_clamp_fraction == 0.0
    s_max = sum(depths) / 0.8
    slope = 1.0 / (0.8 * pair.delta_omega * math.sqrt(1.0 - s_max**2))
    phase_error = sum(m * 4.0 * eps * 2.0 * math.pi * f * t_exp for f, m in zip(freqs, depths))
    bound = slope * phase_error + 8.0 * eps * math.pi / pair.delta_omega
    assert np.max(np.abs(rec.tau_trace - kept)) <= bound
    # Both extremes move by at most bound: pp by 2 c bound / g.
    assert abs(rec.displacement_pp - pp) <= 2.0 * SPEED_OF_LIGHT * bound / 2


def test_reconstruction_holds_no_array_of_the_trace_length(counting_pools):
    # A two-line 2^22-sample trace (64 blocks) is evaluated whole, on the
    # calling thread, and peaks under a quarter of the 8n bytes a
    # full-length float64 trace takes: the block buffers, the rotation
    # tables and the 4096 kept samples are all it holds.
    t_exp = 1.0
    n = 1 << 22
    sc, sa = constant_pair_of_streams(10_000, t_exp)
    a0 = 10_000 / t_exp
    comps = (
        ComponentEstimate(f_hat=(n - 0.5) / 100, theta_hat=0.3, a_hat_c=0.1 * a0,
                          a_hat_a=-0.1 * a0),
        ComponentEstimate(f_hat=3.7, theta_hat=-1.2, a_hat_c=0.05 * a0, a_hat_a=-0.04 * a0),
    )
    tracemalloc.start()
    try:
        rec = reconstruct(sc, sa, 1.0, PAIR, GeometryFactor(2), comps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.trace_stride == 1024 and rec.tau_trace.size == 4096
    assert peak < 8 * n / 4, peak
    assert counting_pools == []


def test_a_trace_whose_fluxes_vanish_is_refused_without_a_thread(counting_pools):
    # The slow line, -1.9 a0 sin(pi t / t_exp), drives both fluxes below
    # zero where sin > 1 / 1.9, from t = 0.18 t_exp on, so the trace is
    # refused there, on the calling thread: alone, a one-line model that
    # clips, and beside a silent fast line that stretches the trace over
    # four blocks.
    t_exp = 1.0
    sc, sa = constant_pair_of_streams(10_000, t_exp)
    a0 = 10_000 / t_exp
    slow = ComponentEstimate(f_hat=0.5, theta_hat=math.pi / 2, a_hat_c=1.9 * a0, a_hat_a=1.9 * a0)
    fast = ComponentEstimate(f_hat=(4 * _TRACE_BLOCK - 0.5) / 100, theta_hat=0.0, a_hat_c=0.0,
                             a_hat_a=0.0)
    threads = threading.active_count()
    for comps in ([slow], [fast, slow]):
        with pytest.raises(AnalysisError, match="fluxes vanish"):
            reconstruct(sc, sa, 1.0, PAIR, GeometryFactor(2), comps)
    assert counting_pools == [] and threading.active_count() == threads


def test_classical_reconstruction_closed_form_single_tone():
    t_exp = 1.0
    n = 10_000
    m = 0.3
    rng = np.random.default_rng(78)
    s1 = stream_from_times(rng.uniform(0, t_exp, n), t_exp, "singles1")
    s2 = stream_from_times(rng.uniform(0, t_exp, n), t_exp, "singles2")
    a0 = n / t_exp
    comp = ComponentEstimate(f_hat=1.0, theta_hat=0.0, a_hat_c=m * a0, a_hat_a=-m * a0)
    fringe = ClassicalFringeSpec(omega_optical=2 * math.pi * SPEED_OF_LIGHT / 1550e-9,
                                 phase_offset=-math.pi / 2.0)
    rec = reconstruct(s1, s2, 1.0, fringe, GeometryFactor(2), [comp])
    expected_pp = SPEED_OF_LIGHT * 2.0 * math.asin(m) / (fringe.omega_optical * 2)
    assert abs(rec.displacement_pp - expected_pp) < 1e-10 * expected_pp
    assert rec.mode == "classical"


# ----- spectrum table round trip -----


def seeded_quantum_run(seed=500, t_exp=1.0):
    signal = VibrationSignal.pure_tone(
        frequency=10.0, amplitude_pp=20e-9, dc_offset_delay=quadrature_delay(PAIR)
    )
    channel = ChannelModel(rate_c=190e3, rate_a=190e3)
    return simulate_quantum_run(PAIR, signal, channel, t_exp=t_exp, seed=seed)


def test_spectrum_csv_round_trip():
    run = seeded_quantum_run()
    est = scan_spectrum(run.coincidences, run.anticoincidences, 1.0, f_max=120.0)
    header, *rows = est.to_csv().splitlines()
    assert header == "f_hz,re_y,im_y,abs_y,kappa"
    table = np.array([[float(v) for v in line.split(",")] for line in rows])
    freqs, y = table[:, 0], table[:, 1] + 1j * table[:, 2]
    assert np.array_equal(freqs, est.frequencies)
    assert np.array_equal(table[:, 1], est.projections.real)
    assert np.array_equal(table[:, 2], est.projections.imag)
    assert np.all(table[:, 4] == est.threshold_kappa)
    assert _group_detections(freqs, np.abs(y), table[0, 4]) == est.detected


def _edge_doubles():
    tiny = sys.float_info.min
    return np.array([
        0.0, -0.0, 5e-324, -5e-324, 1e-323, tiny, np.nextafter(tiny, 0), np.nextafter(tiny, 1),
        np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), np.nextafter(1e16, 0), 1e16,
        np.nextafter(1e16, 2e16), sys.float_info.max, -sys.float_info.max, 2.0**-1074 * 3,
        0.1, 1e23, -1.5e300, 2.0**1023, 2.0**-1022, 1e-5, 9999999999999998.0,
    ])


def test_spectrum_csv_is_the_per_row_repr_table():
    # The table at the 21 kHz scan's size, edge doubles injected into every
    # column, against the row-by-row layout it replaces.
    n = 183_334
    rng = np.random.default_rng(33)
    freqs = np.arange(n) * grid_spacing(5.0)
    y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(-8, 9, n)
    edges = _edge_doubles()
    at = rng.choice(n, size=(4, edges.size), replace=False)
    freqs[at[0]] = edges
    y.real[at[1]] = edges
    y.imag[at[2]] = edges
    y[at[3]] = edges + 1j * edges[::-1]
    est = SpectrumEstimate(freqs, y, 534.1093458269248, 1e-3, ())
    kappa = repr(float(est.threshold_kappa))
    lines = ["f_hz,re_y,im_y,abs_y,kappa"]
    for f, v in zip(est.frequencies, est.projections):
        lines.append(
            "%r,%r,%r,%r,%s" % (float(f), float(v.real), float(v.imag), abs(complex(v)), kappa)
        )
    assert est.to_csv() == "\n".join(lines) + "\n"


def test_reconstruction_json_text_is_json_dumps():
    rng = np.random.default_rng(34)
    tau = rng.standard_normal(4096) * 1e-15
    tau[:24] = _edge_doubles()
    comp = ComponentEstimate(10.0, -0.0, 5e-324, -1e16)
    rec = ReconstructedSignal(
        "quantum", (comp,), 1.9e5, 1.9e5, 1.0, 0.9, 2, 1.0, tau, 1e-3, 3, 2e-8, 0.0, -0.0
    )
    for r in (rec, replace(rec, tau_trace=tau[:1]), replace(rec, tau_trace=tau[:0])):
        assert r.json_text() == json.dumps(r.to_json(), indent=2, sort_keys=True) + "\n"
    assert json.loads(rec.json_text())["trace"]["tau"] == tau.tolist()


def test_reconstruction_json_trace_stride(tmp_path):
    t_exp = 10.0
    n = 40_000
    rng = np.random.default_rng(79)
    sc = stream_from_times(rng.uniform(0, t_exp, n), t_exp)
    sa = stream_from_times(rng.uniform(0, t_exp, n), t_exp, "anticoincidence")
    a0 = n / t_exp
    comp = ComponentEstimate(10.0, 0.0, 0.1 * a0, -0.1 * a0)
    rec = reconstruct(sc, sa, 1.0, PAIR, GeometryFactor(2), [comp])
    # 10,000 trace samples, every third kept: ceil(10000 / 4096) = 3.
    assert rec.trace_stride == 3
    assert rec.tau_trace.size == 3334
    assert rec.trace_dt == t_exp / 10_000 * 3
    path = tmp_path / "recon.json"
    doc = rec.to_json(path)
    assert doc["trace"]["stride"] == 3
    assert doc["trace"]["tau"] == rec.tau_trace.tolist()
    assert doc["trace"]["dt"] == rec.trace_dt
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    parsed = json.loads(path.read_text())
    assert parsed["mode"] == "quantum"
    assert parsed["components"][0]["f_hat"] == 10.0


# ----- end-to-end pipelines -----


def test_quantum_pipeline_recovers_tone_and_is_deterministic():
    truth_f, truth_pp = 10.0, 20e-9
    results = []
    for _ in range(2):
        run = seeded_quantum_run(seed=611)
        out = pipeline(
            run.coincidences,
            run.anticoincidences,
            fringe=PAIR,
            geometry=GeometryFactor(2),
            options=AnalysisOptions(f_max=200.0),
        )
        results.append(out)
    first, second = results
    assert first.detected and second.detected
    rec = first.reconstruction
    assert rec.mode == "quantum"
    assert len(rec.components) >= 1
    comp = max(rec.components, key=lambda c: abs(c.a_hat_c))
    # 6 sigma on frequency, roughly 3 sigma on amplitude for this depth.
    assert abs(comp.f_hat - truth_f) < 0.2
    assert abs(rec.displacement_pp - truth_pp) < 4e-9
    assert second.reconstruction.displacement_pp == rec.displacement_pp
    assert np.array_equal(second.spectrum.projections, first.spectrum.projections)


def test_quantum_pipeline_reports_no_detection_when_silent():
    signal = VibrationSignal(components=(), dc_offset_delay=quadrature_delay(PAIR))
    channel = ChannelModel(rate_c=2000.0, rate_a=2000.0)
    run = simulate_quantum_run(PAIR, signal, channel, t_exp=1.0, seed=90210)
    out = pipeline(
        run.coincidences,
        run.anticoincidences,
        fringe=PAIR,
        geometry=GeometryFactor(2),
        options=AnalysisOptions(f_max=200.0),
    )
    assert not out.detected
    assert out.reconstruction is None
    assert out.spectrum.detected == ()


def test_classical_pipeline_recovers_tone():
    truth_f, truth_pp = 10.0, 50e-9
    fringe = ClassicalFringeSpec(omega_optical=2 * math.pi * SPEED_OF_LIGHT / 1550e-9,
                                 phase_offset=-math.pi / 2.0)
    signal = VibrationSignal.pure_tone(frequency=truth_f, amplitude_pp=truth_pp)
    channel = ChannelModel(singles_rate=300e3)
    run = simulate_classical_run(fringe, signal, channel, t_exp=1.0, seed=77)
    out = pipeline(
        run.port1,
        run.port2,
        fringe=fringe,
        geometry=GeometryFactor(2),
        options=AnalysisOptions(f_max=200.0),
    )
    assert out.detected
    rec = out.reconstruction
    comp = max(rec.components, key=lambda c: abs(c.a_hat_c))
    assert abs(comp.f_hat - truth_f) < 0.2
    assert abs(rec.displacement_pp - truth_pp) < 0.05 * truth_pp


def test_component_dedup_keeps_the_stronger_refinement():
    t_exp = 1.0
    f_true = 10.25
    sc = modulated_stream(20_000, f_true, 0.5, 0.0, t_exp)
    sa = modulated_stream(20_000, f_true, 0.5, math.pi, t_exp, "anticoincidence")
    grid = frequency_grid(t_exp, 50.0)
    y = combined_spectrum(sc, sa, 1.0, grid)
    fake = SpectrumEstimate(
        frequencies=grid,
        projections=y,
        threshold_kappa=0.0,
        p_fa=1e-3,
        detected=(9.6, 10.8),  # two seeds straddling the same line
    )
    comps = _estimate_components(sc, sa, 1.0, fake)
    assert len(comps) == 1
    # The untapered objective carries a small negative-frequency-image
    # bias (order 1/(2 pi f0 t_exp) of a bin), so the check is looser
    # than the optimizer tolerance itself.
    assert abs(comps[0].f_hat - f_true) < 2e-3


@pytest.mark.parametrize("strengths, kept", [
    ((1.0, 3.0, 2.0), (10.1,)),  # the middle seed beats both neighbours
    ((3.0, 2.0, 1.0), (10.0, 10.2)),  # the first is kept; the third is not near it
    ((1.0, 2.0, 3.0), (10.2,)),  # each seed replaces the one before it
    ((2.0, 2.0, 2.0), (10.0, 10.2)),  # a tie keeps the earlier seed
])
def test_component_dedup_walks_a_chain_of_close_seeds(monkeypatch, strengths, kept):
    # Three seeds 0.1 Hz apart, each within 0.25 df = 0.15 Hz of the next but
    # the first and third 0.2 Hz apart. Each refinement is compared with the
    # last one kept, and the stronger by |a_hat_c| + |a_hat_a| stays.
    stream = TimestampStream("coincidence", np.zeros(0, dtype=np.int64), TICK, 1.0)
    by_seed = {
        f: ComponentEstimate(f, 0.0, 0.5 * a, -0.5 * a)
        for f, a in zip((10.0, 10.1, 10.2), strengths)
    }
    monkeypatch.setattr(qvibe.estimate, "estimate_component", lambda c, a, r, f: by_seed[f])
    grid = frequency_grid(1.0, 20.0)
    fake = SpectrumEstimate(grid, np.zeros(grid.size, complex), 0.0, 1e-3, (10.2, 10.0, 10.1))
    comps = _estimate_components(stream, stream, 1.0, fake)
    assert tuple(c.f_hat for c in comps) == kept
