"""Exact event-sum projection, independent of the program's back ends.

The pipeline's combined spectrum is documented as the exact event sum

    y_f = (1/t_exp) sum_C w(t) e^(-2j pi f t) - ratio (1/t_exp) sum_A w(t) e^(-2j pi f t)

with t the exposure-centred event time and w(t) = cos^2(pi t / t_exp).
This module evaluates that sum bin by bin with plain numpy, so a grid
back end (direct, phasor recursion, chirp-z, or a future NUFFT) can be
checked against it.
"""

from __future__ import annotations

import math

import numpy as np

# A bin counts as inexact when it departs from the exact sum by more than
# this share of the detection threshold kappa.
INEXACT_RTOL = 1e-6

# Bins checked per spectrum, spread evenly over the whole grid (DC to
# f_max), so no part of the band is left out.
SAMPLE_BINS = 64


def centered_times(stream) -> np.ndarray:
    """Event times in seconds, shifted so the exposure midpoint is zero."""
    return stream.ticks.astype(float) * stream.tick_duration - stream.t_exp / 2.0


def exact_projection(stream, freqs) -> np.ndarray:
    """Hann-weighted event sum of one stream at each frequency."""
    t = centered_times(stream)
    w = np.cos(math.pi * t / stream.t_exp) ** 2
    return np.array(
        [np.dot(w, np.exp((-2j * math.pi * float(f)) * t)) for f in np.asarray(freqs)],
        dtype=complex,
    ) / stream.t_exp


def exact_combined(stream_c, stream_a, ratio: float, freqs) -> np.ndarray:
    return exact_projection(stream_c, freqs) - ratio * exact_projection(stream_a, freqs)


def sample_bins(n_bins: int, n_sample: int = SAMPLE_BINS) -> np.ndarray:
    return np.unique(np.linspace(0, n_bins - 1, n_sample).round().astype(np.int64))


def inexact_mask(y_program, y_exact, kappa: float) -> np.ndarray:
    return np.abs(np.asarray(y_program) - np.asarray(y_exact)) > INEXACT_RTOL * kappa


def projection_check(estimate, case) -> tuple[int, int]:
    """(inexact bins, bins checked) for one projection case.

    The program's ``combined_spectrum`` runs on its full scan grid, since
    the grid size selects its back end, and is compared on sampled bins.
    """
    freqs = estimate.frequency_grid(case.stream_c.t_exp, case.f_max)
    y = estimate.combined_spectrum(case.stream_c, case.stream_a, case.ratio, freqs)
    kappa = estimate.detection_threshold(
        case.stream_c, case.stream_a, case.ratio, "hann", case.p_fa, freqs.size
    )
    idx = sample_bins(freqs.size)
    exact = exact_combined(case.stream_c, case.stream_a, case.ratio, freqs[idx])
    return int(np.count_nonzero(inexact_mask(y[idx], exact, kappa))), int(idx.size)
