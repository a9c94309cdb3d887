"""Spectral estimation and waveform reconstruction from raw timestamps.

The pipeline works directly on event times, never on a rate histogram:

1. project both streams onto a uniform frequency grid with a Hann taper
   and combine them as y_f = p_f(C) - ratio * p_f(A), which cancels the
   common mode (mean flux and accidental background); one grid transform
   folds both streams onto a power-of-two number of bins per grid period,
   from the grid size rounded up, chosen by cost from the grid size and
   the event count, bins their moments, combines them and takes one real
   FFT per series term, whose mirror image gives the grid bins above half
   the fold; each term's FFT is multiplied by its real row of series
   coefficients, and an odd term then by -i, before it is added; the
   series is the phasor's Taylor series economised onto Chebyshev
   polynomials, so it needs fewer terms for the same accuracy, and the
   last grid's coefficient table is kept; each stream is one part
   (t, w) of event times and signed weights, A's window weights times
   -ratio, and the transform's values are the event sums themselves, up
   to a truncation below 1e-13 of sum |w| / t_exp (see ``_project_grid``,
   ``_series_table`` and ``_fold_size``); on a large scan a worker thread
   bins each term while the caller transforms the one before, which
   leaves every value bit for bit as it is (see ``_grid_terms``),
2. threshold |y_f| against a constant-false-alarm level computed from
   the events themselves, from the window weights the projection used,
3. collapse contiguous above-threshold bins to candidate frequencies and
   refine each by maximising the untapered projection magnitude, a power
   series in the frequency offset whose event moments are summed once
   per stream and candidate, per time segment about the segment's centre,
   so each pass over a long stream stays in cache (see ``_offset_moments``;
   for two long streams, A's moments are summed on a worker thread while
   the caller sums C's): a zooming grid search scores the series on
   65-point grids of the bracket until the step is at most 1e-4 of a
   grid step, so the refined frequency holds that tolerance at every
   frequency and the search has no iteration count to run out of (see
   ``estimate_component``),
4. read the phase of the combined projection and each stream's signed
   amplitude at the refined frequency from the same two series, with no
   further pass over the events,
5. rebuild both flux traces, form the normalised probability trace, and
   invert the fringe for the delay waveform, block by block, holding no
   array of the trace's length: the delay is monotone in the inverse-cosine
   argument, so the displacement's peak-to-peak comes from that argument's
   two extremes, and only those and the delay samples the result keeps
   are inverted. For one line that nothing clips, those extremes come in
   closed form, the continuous trace's, and only the kept samples are
   evaluated. Each component's oscillator is a rotating phasor: one
   table of its in-block phase advance, turned by the cosine and sine of
   one start phase per block, so the trace takes no cosine per sample
   (see ``reconstruct``).
   One inversion serves both channels: it reads the fringe's polarity,
   contrast, phase offset and omega from the spec it is given (see
   ``qvibe.core``).

``pipeline`` runs all five steps on an exposure of either channel; the
fringe spec, not a second code path, says which channel it is.

Projection convention: event times are shifted by -t_exp/2 before
projecting, so the Hann taper w(t) = cos^2(pi t / t_exp) actually tapers
to zero at the stream edges and component phases refer to the exposure
midpoint.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import operator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    ClassicalFringeSpec,
    GeometryFactor,
    PhotonPairSpec,
    SPEED_OF_LIGHT,
)
from .errors import AnalysisError, ConfigError
from .simulate import TimestampStream, _cos_range, _trace_samples, _worker

GRID_SPACING_FACTOR = 0.6


def window_weights(t_centered: np.ndarray, t_exp: float, window: str) -> np.ndarray:
    if window == "hann":
        return np.cos(math.pi * t_centered / t_exp) ** 2
    if window == "rectangular":
        return np.ones_like(t_centered)
    raise ConfigError(f"unknown window {window!r}")


def grid_spacing(t_exp: float) -> float:
    """Scan-grid frequency spacing for an exposure of t_exp seconds."""
    return GRID_SPACING_FACTOR / t_exp


_MAX_GRID_BINS = 1 << 21


def _grid_bins(t_exp: float, f_max: float) -> int:
    """The bin count of ``frequency_grid(t_exp, f_max)``, refused as that grid is."""
    if not 0 < f_max < math.inf:
        raise ConfigError("f_max must be positive and finite")
    m = math.floor(f_max / grid_spacing(t_exp)) + 1
    if m > _MAX_GRID_BINS:
        raise ConfigError(
            f"f_max = {f_max} Hz needs {m} scan bins at t_exp = {t_exp} s;"
            f" at most {_MAX_GRID_BINS} are allowed"
        )
    return m


def frequency_grid(t_exp: float, f_max: float) -> np.ndarray:
    """Uniform scan grid 0, df, 2 df, ... covering [0, f_max].

    At most _MAX_GRID_BINS = 2^21 bins (f_max up to about 1.26e6 / t_exp).
    A scan holds about 290 bytes per bin (tracemalloc, a few thousand
    events): about 130 of grid, transform and spectrum arrays and 160 of
    series table, 20 rows at the smallest fold (``_series_table``). That
    is about 580 MiB at the cap, which is the largest power of two that
    stays within 1 GiB; a larger grid raises ConfigError.
    """
    return np.arange(_grid_bins(t_exp, f_max)) * grid_spacing(t_exp)


def project_timestamps(stream: TimestampStream, frequency, window: str = "hann"):
    """Windowed projection p_f = (1/t_exp) sum_i w(t_i') exp(-2j pi f t_i').

    ``frequency`` may be a scalar or an array. The result is the event
    sum itself, not an approximation: a scalar or an arbitrary array is
    summed directly, and a uniform grid k * df starting at 0 goes through
    a binned Taylor transform whose truncation stays below 1e-13 of
    sum |w| / t_exp, the same size as the rounding of the event phases.
    """
    freqs = np.asarray(frequency, dtype=float)
    p = _project([_weighted_times(stream, window)], stream.t_exp, freqs)
    return complex(p) if freqs.ndim == 0 else p


def _weighted_times(stream: TimestampStream, window: str):
    t = stream.centered_times()
    return t, window_weights(t, stream.t_exp, window)


def _weighted_parts(stream_c, stream_a, ratio: float, window: str) -> list:
    """The checked pair as projection parts (t, w): C's window weights, A's times -ratio."""
    _check_pair(stream_c, stream_a, ratio)
    (t_c, w_c), (t_a, w_a) = (_weighted_times(s, window) for s in (stream_c, stream_a))
    w_a *= -ratio
    return [(t_c, w_c), (t_a, w_a)]


def _project(parts, t_exp: float, freqs: np.ndarray) -> np.ndarray:
    """Sum over ``parts`` (t, w) of the projection of times t, weights w, at ``freqs``.

    A uniform grid k * df from 0 goes through one grid transform over all
    parts (``_project_grid``); any other frequencies take the direct event
    sum of each part.
    """
    df = _uniform_from_zero(freqs)
    if df is not None:
        return _project_grid(parts, t_exp, df, freqs.size)
    direct = [_project_direct(t, w, t_exp, freqs) for t, w in parts]
    return sum(direct[1:], direct[0])


def _project_direct(
    t: np.ndarray, w: np.ndarray, t_exp: float, freqs: np.ndarray
) -> np.ndarray:
    chunk = max(1, int(4e6 // max(t.size, 1)))
    flat = freqs.reshape(-1)
    res = np.empty(flat.size, dtype=complex)
    for start in range(0, flat.size, chunk):
        f = flat[start : start + chunk]
        res[start : start + chunk] = np.exp(-2j * math.pi * np.outer(f, t)) @ w
    return (res / t_exp).reshape(freqs.shape)


def _project_grid(parts, t_exp: float, df: float, m: int) -> np.ndarray:
    """Exact sum over parts of the projection on the grid k * df, k < m.

    ``parts`` is a sequence of (t, w): centred event times and their signed
    weights, the window weights times the factor the part enters with.
    Every grid phasor has period 1/df, so the events are folded onto n
    bins per period, a power of two from m rounded up that ``_fold_size``
    picks by cost from m and the event count. For an event in bin c at
    offset u in [-1/2, 1/2) bin widths from the bin centre,

        e^(-2j pi k df t) = e^(-2j pi k (c + 1/2) / n) sum_p c_kp u^p,

    a polynomial in u of ``_series_table``'s Q terms, within about 1e-14
    of the phasor for every k < m. Term p is then the rfft X_p of the
    per-bin moments sum w u^p, binned over all parts before the one rfft,
    so two streams with equal bins and weights w, -w cancel to exactly 0
    (see ``_grid_terms``). The binning of a term overlaps the previous
    term's rfft on a worker thread when both cost at least _OVERLAP_S a
    term by the fold cost model. The folded events are released before
    the final phase multiply, which holds the largest m-bin temporaries.
    """
    events = sum(t.size for t, _ in parts)
    n = _fold_size(m, events)
    # An empty part adds nothing, and np.bincount would bin it as integers.
    folded = [_fold(t, w, df * n, n) for t, w in parts if t.size]
    if not folded:
        return np.zeros(m, dtype=complex)
    overlap = min(_TERM_EVENT_S * events, _TERM_FFT_S * n * math.log2(n)) >= _OVERLAP_S
    out = _grid_terms(folded, m, n, overlap)
    del folded
    return out * np.exp((-1j * math.pi / n) * np.arange(m)) / t_exp


def _fold(t: np.ndarray, w: np.ndarray, scale: float, n: int):
    """(bins, u, w): t * scale folded onto n bins, and each offset u from its bin centre."""
    u = t * scale
    cell = np.floor(u)
    u -= cell
    u -= 0.5
    bins = cell.astype(np.int64)
    del cell
    bins &= n - 1  # n is a power of two, so & (n - 1) is mod n, negative cells included
    return bins, u, np.asarray(w, dtype=float)


def _grid_terms(folded, m: int, n: int, overlap: bool) -> np.ndarray:
    """sum_p c_kp X_p[k], k < m, for the folded parts (bins, u, w), before the bin phase.

    Term p bins w u^p per part (one in-place moment update and one
    np.bincount each) and adds the parts' bins in order; the rfft, mirror
    and combine follow. With ``overlap`` a worker thread bins term p + 1
    while the calling thread combines term p: the worker runs every
    binning in turn and the caller every combine, on the same arrays in
    the same order, so the sum is bit for bit the serial one.

    The moments are real, so a bin n/2 < k < m past the rfft's last one
    reads X_p[k] = conj(X_p[n - k]): the rfft writes the head of one
    buffer, and those bins are mirrored into its tail; a grid of at most
    n/2 + 1 bins has no tail and reads the rfft's bins in place.
    c_kp is s_kp for even p and -i s_kp for odd p, with s_kp real (row p
    of the table): each term's bins are multiplied by s_kp in one complex
    multiply, an odd term's then by -i, which is exact (it swaps the real
    and imaginary parts and negates one), and no complex coefficient is
    formed.
    """
    moments = [np.empty(u.size) for _, u, _ in folded]  # w u^p per part, p >= 1

    def binned(p: int) -> np.ndarray:
        if p:
            for (_, u, w), moment in zip(folded, moments):
                np.multiply(w if p == 1 else moment, u, out=moment)
        weights = moments if p else [w for _, _, w in folded]
        return functools.reduce(
            operator.iadd,
            [np.bincount(bins, x, minlength=n) for (bins, _, _), x in zip(folded, weights)],
        )

    out = np.zeros(m, dtype=complex)
    term = np.empty(m, dtype=complex)
    half = n // 2 + 1  # rfft bins
    spectrum = np.empty(max(m, half), dtype=complex)
    # Bins half..m-1 of the tail are conj of bins n-half down to n-m+1.
    head, tail, mirror = spectrum[:half], spectrum[half:m], spectrum[n - half : n - m : -1]
    mirrored = m > half
    table = _series_table(m, n)
    with _worker(overlap) as pool:
        ahead = pool.submit(binned, 0) if pool else None
        for p, s in enumerate(table):
            if pool is None:
                moments_binned = binned(p)
            else:  # term p + 1 is binned on the worker while this thread combines term p
                moments_binned = ahead.result()
                if p + 1 < len(table):
                    ahead = pool.submit(binned, p + 1)
            np.fft.rfft(moments_binned, out=head)
            if mirrored:
                np.conjugate(mirror, out=tail)
            np.multiply(spectrum[:m], s, out=term)
            if p % 2:
                term *= -1j  # (a + ib)(-i) = b - ia, exactly
            out += term
    return out


def _series_terms(theta: float, lead: float = 1.0, tol: float = 1e-14) -> int:
    """The first p with lead * theta^p / p! < tol."""
    p, bound = 0, lead  # bound = lead * theta^p / p!
    while bound >= tol:
        p += 1
        bound *= theta / p
    return p


def _economised_terms(theta: float) -> int:
    """Economised grid series terms at reach theta: the first p with 2 (theta/2)^p / p! < 1e-14."""
    return _series_terms(theta / 2.0, 2.0)


def _economisation(kept: int, terms: int) -> np.ndarray:
    """The (kept, terms - kept) matrix that folds u^d, kept <= d < terms, into u^q, q < kept.

    With t = 2u in [-1, 1], t^d = 2^(-d) sum_j w_j C(d, j) T_(d-2j)(t),
    w_j = 2 except w_j = 1 for the T_0 term. Dropping every T_q with
    q >= kept and writing the rest back in monomials (T_q's integer
    coefficients, from T_(q+1) = 2t T_q - T_(q-1)) gives
    t^d ~ 2^(-d) sum_q N_qd t^q with integers N_qd, so
    u^d ~ sum_q N_qd / 2^(2d - q) u^q: entry (q, d - kept) is that
    fraction, rounded once. N_qd is 0 unless q and d have one parity.
    """
    cheb = [[1], [0, 1]]  # monomial coefficients of T_0, T_1, ...
    while len(cheb) < kept:
        a, b = cheb[-1], cheb[-2]
        cheb.append([2 * c for c in [0, *a]])
        for i, c in enumerate(b):
            cheb[-1][i] -= c
    fold = np.zeros((kept, terms - kept))
    for d in range(kept, terms):
        numer = [0] * kept
        for j in range(d // 2 + 1):
            q = d - 2 * j
            if q < kept:
                weight = math.comb(d, j) * (2 if q else 1)
                for i, c in enumerate(cheb[q]):
                    numer[i] += weight * c
        for q, c in enumerate(numer):
            fold[q, d - kept] = c / (1 << (2 * d - q))  # exact integers, one rounding
    return fold


_TABLE_BYTES = 32 << 20
_table: tuple[tuple[int, int], np.ndarray | None] = ((0, 0), None)  # the last kept (m, n) table


def _series_table(m: int, n: int) -> np.ndarray:
    """Signed series coefficients of the m-bin grid transform at fold n: a (Q, m) array.

    Row p holds the real s_kp; c_kp, the coefficient of u^p in a polynomial
    of degree Q - 1 that stays within about 1e-14 of e^(-2j pi k u / n) on
    |u| <= 1/2 for every k < m, is s_kp for even p and -i s_kp for odd p,
    so the grid transform multiplies an odd term by -i after its row.
    The Taylor series z_k^p / p!, z_k = -2j pi k / n, needs
    D = ``_series_terms(theta)`` terms for that, theta = pi (m - 1) / n
    being the largest |z_k u|; it is computed by the recurrence
    s_kp = s_k(p-1) * (+-2 pi k / n) / p. Its terms p >= Q are then folded
    into the first Q by ``_economisation`` (Lanczos economisation), which
    leaves the truncated Chebyshev series of that polynomial in t = 2u. A
    Chebyshev series of e^(-i x t), |x| <= theta, converges like
    2 (theta/2)^p / p! (its coefficients are Bessel values J_p(x); see
    Ruiz-Antolin & Townsend, SIAM J. Sci. Comput. 40, 2018), so
    Q = ``_economised_terms(theta)``: 18 terms instead of 23 at
    theta = 2.2, 14 instead of 17 at 1.02, and at most 20 instead of 27
    (theta near pi). Where Q = D nothing is folded, and the rows are the
    recurrence's Taylor coefficients bit for bit.

    One table is kept, the last one built of at most _TABLE_BYTES, and one
    assignment replaces it, so threads need no lock: a scan keeps one grid,
    and a table over _TABLE_BYTES is built for each call.
    """
    global _table
    key, table = _table
    if key == (m, n):
        return table
    theta = math.pi * (m - 1) / n
    terms, kept = _series_terms(theta), _economised_terms(theta)
    table, dropped = np.empty((kept, m)), np.empty((terms - kept, m))
    rows = [*table, *dropped]
    rate = (2.0 * math.pi / n) * np.arange(m)  # |z_k|
    step = np.empty(m)
    rows[0].fill(1.0)
    for p in range(1, terms):
        # Times z_k / p = -i rate_k / p: -i (-i s) = -s, so s flips sign on even p.
        np.multiply(rate, (1.0 if p % 2 else -1.0) / p, out=step)
        np.multiply(rows[p - 1], step, out=rows[p])
    # Scaled row additions, not a matrix product: BLAS would allocate its
    # buffers for a few multiply-adds per entry.
    for row, fold in zip(table, _economisation(kept, terms)):
        for c, degree in zip(fold, dropped):
            if c:
                np.multiply(degree, c, out=step)
                row += step
    table.flags.writeable = False
    if table.nbytes <= _TABLE_BYTES:
        _table = ((m, n), table)
    return table


# Cost of one series term of _project_grid, in seconds: a fixed per-term
# cost, one per event (the moment update and bincount) and one per
# n log2 n (the rfft and the n-bin buffers). Fitted by relative least
# squares to best-of-3+ times of _project_grid (two streams, Hann weights,
# warm series tables) at every fold from m rounded up to 2^15, on 2 cores
# with Python 3.11 and numpy 2.4: 334 bins with 1.5k, 2k, 4k, 20k and 190k
# events, 1001 bins with 600k, 4000 bins with 10k and 50k, 183,334 bins
# with 1M. Folds of 2^16 bins were timed too but left out of the fit:
# their n-bin buffers outgrow the cache and cost more than n log2 n says.
# For example 334 bins and 2k events took 0.38 ms at n = 2^10 (14 terms)
# and 0.52 ms at 2^9 (17 terms, mirrored); with 190k events 18.9 ms at
# 2^10 and 11.2 ms at 2^14 (8 terms). Only the ratios of the three
# constants steer the choice. They rank a large grid's folds as timed too:
# 183,334 bins with 1M events took 306 ms at 2^18 (18 terms) and 333 ms
# at 2^19 (14 terms).
_TERM_S, _TERM_EVENT_S, _TERM_FFT_S = 7.5e-6, 5.6e-9, 7.3e-10
_MAX_COST_FOLD = 1 << 16

# A grid transform bins each term on a worker thread while the caller takes
# the previous term's rfft (``_grid_terms``) only if both halves cost at
# least _OVERLAP_S a term by the model above: the overlap saves at most the
# shorter half, and a thread costs its start and a hand-off per term.
# Scans timed on 2 cores, best of 5, serial against overlapped: 334 bins
# with 2k events (7.5 us a term by the model) 0.45 against 1.8-2.7 ms;
# the README quick start, 334 bins with 190k events (0.17 ms) 13.4
# against 16.5 ms; 66,667 bins with 200k events (1.1 ms) 83 against 50
# ms; the sweep grid, 183,334 bins with 1M events (3.4 ms) 302 against
# 196 ms.
_OVERLAP_S = 1e-3


@functools.lru_cache(maxsize=256)
def _fold_table(m: int) -> tuple[tuple[int, int, float], ...]:
    """(n, terms(n), _TERM_FFT_S * n log2 n) for each fold weighed at m bins."""
    smallest = 1 << (m - 1).bit_length()
    folds = [smallest]
    while folds[-1] < max(2 * smallest, _MAX_COST_FOLD):
        folds.append(2 * folds[-1])
    return tuple(
        (n, _economised_terms(math.pi * (m - 1) / n), _TERM_FFT_S * n * math.log2(n))
        for n in folds
    )


def _fold_size(m: int, events: int) -> int:
    """Bins per grid period for an m-bin grid transform over ``events`` events.

    The power of two n at or above m, and at most max(2 n_m, 2^16) with n_m
    the smallest, that minimises
    terms(n) * (_TERM_S + _TERM_EVENT_S * events + _TERM_FFT_S * n log2 n),
    terms(n) being the economised series length at theta = pi (m - 1) / n
    (``_economised_terms``, the row count of ``_series_table``); of equal
    costs the smaller fold wins. A larger fold costs a longer rfft per term
    but needs fewer terms, which pays off when the events outnumber the
    bins; the smallest fold, below 2m, pays off when the rfft dominates.
    """
    per_term = _TERM_S + _TERM_EVENT_S * events
    return min(_fold_table(m), key=lambda fold: fold[1] * (per_term + fold[2]))[0]


def _uniform_from_zero(freqs: np.ndarray) -> float | None:
    """Return the grid step if freqs is a uniform grid starting at 0."""
    if freqs.ndim != 1 or freqs.size < 4 or freqs[0] != 0.0:
        return None
    df = freqs[1]
    if df <= 0:
        return None
    # The grid transform evaluates at k * df, so accept only rounding-level
    # departures from it; anything else, NaN included, takes the direct sum.
    k_df = np.arange(freqs.size) * df
    if np.all(np.abs(freqs - k_df) <= 1e-15 * k_df):  # df > 0, so k_df >= 0
        return float(df)
    return None


def _check_pair(stream_c: TimestampStream, stream_a: TimestampStream, ratio: float) -> None:
    if not 0 < ratio < math.inf:
        raise ConfigError(f"ratio must be positive and finite, got {ratio}")
    if stream_c.t_exp != stream_a.t_exp or stream_c.tick_duration != stream_a.tick_duration:
        raise ConfigError("streams must share t_exp and tick_duration")


def combined_spectrum(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    ratio: float,
    frequencies: np.ndarray,
    window: str = "hann",
) -> np.ndarray:
    """Common-mode-cancelling spectrum y_f = p_f(C) - ratio * p_f(A).

    On a uniform grid from 0 both streams go through one grid transform,
    their binned moments combined before each FFT.
    """
    parts = _weighted_parts(stream_c, stream_a, ratio, window)
    return _project(parts, stream_c.t_exp, np.asarray(frequencies, dtype=float))


def detection_threshold(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    ratio: float,
    window: str,
    p_fa: float,
    n_bins: int,
) -> float:
    """Constant-false-alarm magnitude threshold for an n_bins grid scan.

    Splits the family-wise false-alarm budget p_fa evenly over the bins
    (per-bin level 1 - (1 - p_fa)^(1/M)) and converts it to a magnitude
    through the Rayleigh tail of the projection noise, whose power is
    estimated from the observed events: sum w^2(C) + ratio^2 sum w^2(A).
    For a rectangular window that power estimate reduces to the plain
    counts N_C + ratio^2 N_A.
    """
    parts = _weighted_parts(stream_c, stream_a, ratio, window)
    return _threshold(parts, stream_c.t_exp, p_fa, n_bins)


def _threshold(parts, t_exp: float, p_fa: float, n_bins: int) -> float:
    """``detection_threshold`` for ``_weighted_parts`` (t, w): noise power sum w^2 over both."""
    if not 0 < p_fa < 1:
        raise ConfigError("p_fa must lie in (0, 1)")
    if n_bins < 1:
        raise ConfigError("n_bins must be >= 1")
    power = sum(float(np.sum(w * w)) for _, w in parts)
    if not sum(w.size for _, w in parts):
        raise AnalysisError("cannot set a threshold from two empty streams")
    # Per-bin false-alarm level, computed in log space for small p_fa.
    alpha_1 = -math.expm1(math.log1p(-p_fa) / n_bins)
    return math.sqrt(-math.log(alpha_1)) * math.sqrt(power) / t_exp


def _group_detections(
    freqs: np.ndarray, magnitude: np.ndarray, kappa: float
) -> tuple[float, ...]:
    """Collapse contiguous above-threshold runs to their peak frequencies."""
    mask = magnitude > kappa
    if freqs.size and freqs[0] == 0.0:
        mask[0] = False  # DC carries the mean flux, never a candidate
    hits = np.flatnonzero(mask)
    runs = np.split(hits, np.flatnonzero(np.diff(hits) != 1) + 1)
    return tuple(float(freqs[run[np.argmax(magnitude[run])]]) for run in runs if run.size)


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Grid scan output: projections, threshold, and candidate seeds."""

    frequencies: np.ndarray
    projections: np.ndarray
    threshold_kappa: float
    p_fa: float
    detected: tuple[float, ...]

    def to_csv(self) -> str:
        """The table as CSV text, one line per grid bin after the header."""
        lines = ["f_hz,re_y,im_y,abs_y,kappa"]
        kappa = repr(float(self.threshold_kappa))
        for f, y in zip(self.frequencies, self.projections):
            lines.append(
                "%r,%r,%r,%r,%s" % (float(f), float(y.real), float(y.imag), abs(complex(y)), kappa)
            )
        return "\n".join(lines) + "\n"


def scan_spectrum(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    ratio: float,
    p_fa: float = 1e-3,
    f_max: float = 50e3,
) -> SpectrumEstimate:
    """Full Hann-tapered grid scan: spectrum, threshold, and detected candidates.

    The spectrum is ``combined_spectrum`` on ``frequency_grid(t_exp, f_max)``
    and the threshold ``detection_threshold`` for that grid, both with the
    Hann window: the scan makes the calls those two make (``_weighted_parts``,
    then ``_project`` and ``_threshold``), with each stream's window weights
    computed once for both.
    """
    t_exp = stream_c.t_exp
    freqs = frequency_grid(t_exp, f_max)
    parts = _weighted_parts(stream_c, stream_a, ratio, "hann")
    kappa = _threshold(parts, t_exp, p_fa, freqs.size)
    y = _project(parts, t_exp, freqs)
    detected = _group_detections(freqs, np.abs(y), kappa)
    return SpectrumEstimate(
        frequencies=freqs,
        projections=y,
        threshold_kappa=kappa,
        p_fa=p_fa,
        detected=detected,
    )


_SEGMENT_EVENTS = 1 << 15

# Stream A's refinement moments run on a worker thread while the caller sums
# C's only if both streams hold more events than one full segment. One
# refinement timed on 2 cores, best of 7, serial against overlapped: 20k
# events a stream 2.5 against 3.1 ms, 35k 5.0 against 4.8 ms, 95k 7.5
# against 5.9 ms, 500k (the 21 kHz sweep point) 53 against 31 ms.
_OVERLAP_EVENTS = _SEGMENT_EVENTS


def _segment_count(events: int) -> int:
    """Time segments for the refinement moments of streams of up to ``events`` events.

    One segment per 2^15 events or part of it, so what one segment's
    moment passes read (times, phasors and two buffers, 40 bytes an event,
    1.3 MB) stays in a 4 MiB L2 cache; a stream of up to 2^15 events keeps
    one segment. A 500k-event stream's moments took 34 ms at 2^14 or 2^15
    events a segment, 37 ms at 2^13, 39 ms at 2^16 and 50 ms as one segment
    (best of 8, the phasor's cosine and sine included).
    """
    return max(1, -(-events // _SEGMENT_EVENTS))


def _segment_centres(h: float, segments: int) -> np.ndarray:
    """Centres (2j + 1 - segments) g of ``segments`` equal parts of [-h, h], g = h / segments."""
    return (2.0 * np.arange(segments) + (1 - segments)) * (h / segments)


def _offset_moments(
    stream: TimestampStream, f_seed: float, delta_f: float, segments: int
) -> np.ndarray:
    """Moments M_jp = sum_i e^(-2j pi f_seed t_i) ((t_i - c_j)/g)^p of one stream, per segment.

    The exposure [-h, h), h = t_exp / 2, is cut into ``segments`` equal
    parts of half-width g = h / segments and centre c_j, and row j sums
    over the events of part j. The moments are the coefficients, times p!,
    of the power series in f - f_seed of the untapered event sum
    S(f) = sum_i e^(-2j pi f t_i) (see ``_offset_series``). With
    |t - c_j| <= g, term p is bounded by (2 pi delta_f g)^p / p! per event
    for |f - f_seed| <= delta_f; the moments stop once that falls below
    1e-16, so the series is the event sum to rounding. One segment is the
    series about the exposure midpoint (23 terms at delta_f = 0.6 / t_exp,
    29 at 1 / t_exp); 16 segments need 11 terms at 0.6 / t_exp. Each
    moment is one pass of a matrix-vector product over one segment's
    events, so a segment of ``_segment_count``'s size is read from cache
    once per term instead of the whole stream from memory. The phasor's
    cosine and sine are taken one segment at a time too, into buffers of
    the longest segment's length.
    """
    h = stream.t_exp / 2.0
    g = h / segments
    n_terms = _series_terms(2.0 * math.pi * delta_f * g, tol=1e-16)
    moments = np.empty((segments, n_terms), dtype=complex)
    t = stream.centered_times()
    # Times are sorted; part j holds (2j - segments) g <= t < (2j + 2 - segments) g.
    edges = np.searchsorted(t, (2.0 * np.arange(1, segments) - segments) * g)
    bounds = [0, *edges.tolist(), t.size]
    longest = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    s_buf, power_buf = np.empty(longest), np.empty(longest)
    # Real (k, 2) view of one segment's phasor e^(-2j pi f_seed t), so each
    # moment is one matrix-vector product.
    re_im = np.empty((longest, 2))
    rows = moments.view(float).reshape(segments, n_terms, 2)
    for j, (c, lo, hi) in enumerate(zip(_segment_centres(h, segments), bounds, bounds[1:])):
        k = hi - lo
        phasor = re_im[:k]
        phase = np.multiply(t[lo:hi], -2.0 * math.pi * f_seed, out=power_buf[:k])
        np.cos(phase, out=phasor[:, 0])
        np.sin(phase, out=phasor[:, 1])
        s = np.subtract(t[lo:hi], c, out=s_buf[:k])
        s /= g
        power = power_buf[:k]
        power.fill(1.0)
        for p in range(n_terms):
            if p:
                power *= s
            rows[j, p] = power @ phasor
    return moments


def _offset_series(moments: np.ndarray, f_seed: float, h: float):
    """S(f) = sum_j e^(-2j pi (f - f_seed) c_j) sum_p M_jp / p! (-2j pi g (f - f_seed))^p.

    ``moments`` are one stream's ``_offset_moments``, or a linear
    combination of two streams' moments over the same segments for the
    combined projection; g = h / segments and c_j are the segments'
    half-width and centres. Each segment's polynomial is evaluated by
    Horner's rule. The returned series takes a scalar or an array of
    frequencies.
    """
    segments, n_terms = moments.shape
    g = h / segments
    centres = _segment_centres(h, segments)
    coefs = moments / np.array([math.factorial(p) for p in range(n_terms)], dtype=float)

    def series(f):
        d = np.asarray(f, dtype=float) - f_seed
        column = (segments,) + (1,) * d.ndim
        z = (-2j * math.pi * g) * d
        y = np.zeros(column, dtype=complex)
        for p in range(n_terms - 1, -1, -1):  # highest power first
            y = y * z + coefs[:, p].reshape(column)
        shift = np.exp((-2j * math.pi) * np.multiply.outer(centres, d))
        return np.sum(y * shift, axis=0)

    return series


_SEARCH_POINTS = 65


def _argmax_on_bracket(magnitude, lo: float, hi: float, tol: float) -> float:
    """Point of largest ``magnitude`` in [lo, hi], found on a grid of step <= tol.

    ``magnitude`` scores an array of frequencies at once. It is evaluated
    on _SEARCH_POINTS evenly spaced points of the bracket; the search then
    zooms onto the two grid steps around the best point, which shrinks
    the step at least 32-fold, and repeats until the step is at most tol.
    The first grid covers the whole bracket, so the result is its global
    maximum, not the nearest local one, as long as that grid's step
    resolves the peaks (refinement uses 1/32 of delta_f = 0.6/t_exp, far
    finer than a line's 1/t_exp-wide main lobe). There is no iteration
    count to run out of: for tol > 0 the number of grids is fixed by
    (hi - lo) / tol, three at tol = 1e-4 (hi - lo) / 2.
    """
    intervals = _SEARCH_POINTS - 1
    step = (hi - lo) / intervals
    while True:
        f = np.linspace(lo, hi, _SEARCH_POINTS)
        k = int(np.argmax(magnitude(f)))
        if step <= tol:
            return float(f[k])
        lo, hi = f[max(k - 1, 0)], f[min(k + 1, intervals)]
        # The nominal step, not (hi - lo) / intervals, so rounding cannot stall the zoom.
        step *= 2.0 / intervals


@dataclass(frozen=True)
class ComponentEstimate:
    f_hat: float
    theta_hat: float
    a_hat_c: float
    a_hat_a: float
    refined: bool = True


def estimate_component(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    ratio: float,
    f_seed: float,
) -> ComponentEstimate:
    """Refined frequency, phase and signed amplitudes of the line near f_seed.

    Each stream's moment series (``_offset_moments``) is summed once; the
    rest costs no pass over the events. When both streams hold more than
    _OVERLAP_EVENTS events, A's moments are summed on a worker thread
    while the caller sums C's; the pool is closed before the moments are
    used, errors included, and the result is the serial one bit for bit.

    * refinement maximises the untapered combined magnitude
      |S_C(f) - ratio S_A(f)| over [f_seed - delta_f, f_seed + delta_f],
      delta_f = ``grid_spacing(t_exp)``, one scan-grid step, by a zooming
      grid search on the series (``_argmax_on_bracket``): three grids of
      65 points, the last with a step of at most delta_f / 32768, so
      f_hat is within 1e-4 delta_f of the frequency of the bracket's
      largest value, at any line frequency. The search has no iteration
      count and cannot fail to converge. A seed at or below delta_f from
      DC cannot be bracketed and keeps its frequency: ``refined`` is
      False and f_hat = f_seed; every other seed is refined.
    * at f_hat, theta_hat = arg(S_C - ratio S_A), in (-pi, pi]; a zero
      combined projection leaves it undefined (AnalysisError).
    * each stream's signed amplitude is
      a_hat = (2 / t_exp) Re(e^(i theta_hat) conj S(f_hat))
      = (2 / t_exp) sum_i cos(2 pi f_hat t_i' + theta_hat); its sign
      carries the stream's modulation polarity relative to theta_hat.
    """
    t_exp = stream_c.t_exp
    delta_f = grid_spacing(t_exp)
    _check_pair(stream_c, stream_a, ratio)
    h = t_exp / 2.0
    segments = _segment_count(max(len(stream_c), len(stream_a)))
    overlap = min(len(stream_c), len(stream_a)) > _OVERLAP_EVENTS
    with _worker(overlap) as pool:
        args = (f_seed, delta_f, segments)
        moments_a = pool.submit(_offset_moments, stream_a, *args) if pool else None
        m_c = _offset_moments(stream_c, *args)
        m_a = moments_a.result() if pool else _offset_moments(stream_a, *args)
    refined = f_seed > delta_f
    f_hat = f_seed
    if refined:
        y = _offset_series(m_c - ratio * m_a, f_seed, h)
        f_hat = _argmax_on_bracket(
            lambda f: np.abs(y(f)), f_seed - delta_f, f_seed + delta_f, 1e-4 * delta_f
        )
    s_c = complex(_offset_series(m_c, f_seed, h)(f_hat))
    s_a = complex(_offset_series(m_a, f_seed, h)(f_hat))
    y_hat = s_c - ratio * s_a
    if y_hat == 0:
        raise AnalysisError("zero combined projection, phase undefined")
    theta = cmath.phase(y_hat)
    rotation = cmath.exp(1j * theta)
    a_c = 2.0 * (rotation * s_c.conjugate()).real / t_exp
    a_a = 2.0 * (rotation * s_a.conjugate()).real / t_exp
    return ComponentEstimate(float(f_hat), theta, a_c, a_a, refined)


# ----- reconstruction -----


@dataclass(frozen=True, eq=False)
class ReconstructedSignal:
    """Delay and displacement waveform rebuilt from component estimates.

    ``v0`` is the fringe contrast used in the inversion: the pair
    visibility in quantum mode, the reference-fringe visibility in
    classical mode. Clamp fractions record how often the flux traces or
    the inverse-cosine argument had to be clipped into range; they stay
    well below 1% in sane operating regimes. ``tau_trace`` holds every
    ``trace_stride``-th sample of the delay trace, at most
    _MAX_JSON_TRACE_POINTS of them, ``trace_dt`` apart; the full trace is
    never held (see ``reconstruct``).
    """

    mode: str
    components: tuple[ComponentEstimate, ...]
    a0_c: float
    a0_a: float
    ratio: float
    v0: float
    geometry_g: int
    t_exp: float
    tau_trace: np.ndarray
    trace_dt: float
    trace_stride: int
    displacement_pp: float
    flux_clamp_fraction: float
    arccos_clamp_fraction: float

    def to_json(self, path: str | Path | None = None):
        """The record as a JSON-ready dict, also written to ``path`` if given."""
        doc = {
            "mode": self.mode,
            "g": self.geometry_g,
            "t_exp": self.t_exp,
            "ratio": self.ratio,
            "v0": self.v0,
            "a0_c": self.a0_c,
            "a0_a": self.a0_a,
            "displacement_pp": self.displacement_pp,
            "flux_clamp_fraction": self.flux_clamp_fraction,
            "arccos_clamp_fraction": self.arccos_clamp_fraction,
            "components": [asdict(c) for c in self.components],
            "trace": {
                "dt": self.trace_dt,
                "stride": self.trace_stride,
                "tau": [float(v) for v in self.tau_trace],
            },
        }
        if path is not None:
            Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return doc


_TRACE_BLOCK = 1 << 16  # samples evaluated per pass of the blocked trace
_MAX_JSON_TRACE_POINTS = 4096


def _line_extremes(components, a0_c, a0_a, ratio, slope, t_first, t_last):
    """[u_max, u_min] of a one-line trace in closed form, or None where the
    samples are needed: several lines, or a line that may be clipped.

    With one line both fluxes are a0 + a cos(phi), phi = 2 pi f_hat t +
    theta_hat. Where a0 > |a| for both, neither flux is clipped, and P_hat,
    a ratio of two positive functions linear in cos(phi), is monotone in
    it, so u is too. u's extremes are then the images of the range of
    cos(phi) over the phase interval from t_first to t_last
    (``qvibe.simulate._cos_range``), taken by the trace loop's element-wise
    steps: the continuous trace's extremes, which the samples reach only
    where one falls on a peak. If both lie in [-1, 1], no sample is clipped.
    """
    c, *others = components
    if others or not (a0_c > abs(c.a_hat_c) and a0_a > abs(c.a_hat_a)):
        return None
    phases = sorted(2.0 * math.pi * c.f_hat * t + c.theta_hat for t in (t_first, t_last))
    cos_phi = np.array(_cos_range(*phases))
    phi_c = a0_c + c.a_hat_c * cos_phi
    u = (phi_c / ((a0_a + c.a_hat_a * cos_phi) * ratio + phi_c) * 2.0 - 1.0) / slope
    return np.array([u.max(), u.min()]) if np.all(np.abs(u) <= 1.0) else None


def reconstruct(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    ratio: float,
    fringe: PhotonPairSpec | ClassicalFringeSpec,
    geometry: GeometryFactor,
    components,
) -> ReconstructedSignal:
    """Invert the fringe P = (1 + polarity contrast cos(omega tau + phase_offset)) / 2.

    Rebuilds the two flux traces from the components, clips them at zero,
    forms P_hat = phi_c / (phi_c + ratio phi_a) and inverts the fringe,

        tau_hat(t) = (arccos((2 P_hat(t) - 1) / (polarity contrast)) - phase_offset) / omega,

    clipping the inverse-cosine argument into [-1, 1] and reporting both
    clipping rates. ``fringe`` supplies the five values: a PhotonPairSpec
    for the pair channel (its Gaussian envelope is ignored, which near
    quadrature rescales the fringe by under 1e-3), or the analyst's
    reference ClassicalFringeSpec for the classical channel (if the
    channel has drifted from the reference, the inversion inherits the
    mismatch). The trace holds 100 samples per period of the highest
    component, as ``qvibe.simulate._trace_samples`` sets for the true
    waveform too. The samples are evaluated in blocks of _TRACE_BLOCK up
    to the clipped inverse-cosine argument u, so no array of the trace's
    length is held. tau is a monotone function of u (arccos falls,
    omega > 0), so its extremes are the images of u's smallest and
    largest values: only those two and the samples the result keeps
    (every stride-th, at most _MAX_JSON_TRACE_POINTS) are inverted, and
    displacement_pp = c (tau_max - tau_min) / g. For one line that no
    sample can clip, u's extremes are the continuous trace's, in closed
    form (``_line_extremes``), and only the kept samples are evaluated, as
    a trace of ceil(n / stride) samples stride dt apart (dt below reads
    stride dt). Otherwise all n samples are evaluated, and u's extremes
    are the samples'. Within a block, sample j of a component's
    oscillator is

        cos(phase0 + 2 pi f_hat j dt)
            = cos(phase0) cos(2 pi f_hat j dt) - sin(phase0) sin(2 pi f_hat j dt),

    phase0 = 2 pi f_hat t0 + theta_hat at the block's first sample t0: the
    cos and sin tables are built once per component, and each block costs
    two scalar trig calls per component instead of one cosine per sample.
    Both forms round the phase, which reaches 2 pi f_hat t_exp / 2, by a
    few eps times it; the oscillators agree to that.
    """
    components = tuple(components)
    if not components:
        raise ValueError("reconstruction needs at least one component")
    _check_pair(stream_c, stream_a, ratio)
    contrast = fringe.contrast
    if not 0 < contrast <= 1:
        raise ConfigError("fringe contrast must lie in (0, 1]")
    t_exp = stream_c.t_exp
    a0_c = len(stream_c) / t_exp
    a0_a = len(stream_a) / t_exp
    if a0_c + a0_a == 0:
        raise AnalysisError("both streams empty, nothing to reconstruct")
    n = _trace_samples(max(c.f_hat for c in components), t_exp)
    dt = t_exp / n
    stride = max(1, -(-n // _MAX_JSON_TRACE_POINTS))
    slope = fringe.polarity * contrast
    ends = _line_extremes(components, a0_c, a0_a, ratio, slope, -t_exp / 2.0, t_exp / 2.0 - dt)
    # With u's extremes known, only the kept samples are evaluated, each kept.
    count, step, keep = (n, dt, stride) if ends is None else (-(-n // stride), stride * dt, 1)
    size = min(count, _TRACE_BLOCK)
    # Per component, cos and sin of 2 pi f_hat j step for j < size: the phase
    # advance within a block, the same for every block.
    j = np.arange(size, dtype=float)
    rotations = []
    for c in components:
        advance = (2.0 * math.pi * c.f_hat * step) * j
        rotations.append((c, np.cos(advance), np.sin(advance)))
    kept = np.empty(-(-count // keep))  # u at samples 0, keep, 2 keep, ...
    phi_c, phi_a, osc, tmp = (np.empty(size) for _ in range(4))
    flux_clamped = arccos_clamped = 0
    u_min, u_max = math.inf, -math.inf
    for start in range(0, count, size):
        k = min(size, count - start)
        pc, pa, o, tm = phi_c[:k], phi_a[:k], osc[:k], tmp[:k]
        # The block's first sample, as linspace(0, t_exp, n, endpoint=False) - t_exp / 2 has it.
        t0 = start * step - t_exp / 2.0
        pc.fill(a0_c)
        pa.fill(a0_a)
        for c, cos_j, sin_j in rotations:
            # cos(phase0 + 2 pi f_hat j step), one scalar phase per block and component.
            phase0 = 2.0 * math.pi * c.f_hat * t0 + c.theta_hat
            np.multiply(cos_j[:k], math.cos(phase0), out=o)
            np.multiply(sin_j[:k], math.sin(phase0), out=tm)
            o -= tm
            np.multiply(o, c.a_hat_c, out=tm)
            pc += tm
            np.multiply(o, c.a_hat_a, out=tm)
            pa += tm
        # Clipping a block with nothing out of range would change no value.
        for phi in (pc, pa):
            negative = int(np.count_nonzero(phi < 0))
            if negative:
                flux_clamped += negative
                np.clip(phi, 0.0, None, out=phi)
        denom = np.multiply(pa, ratio, out=tm)
        denom += pc
        if np.any(denom == 0.0):
            raise AnalysisError("reconstructed fluxes vanish somewhere; probability undefined")
        u = np.divide(pc, denom, out=pc)  # P_hat, then the inverse-cosine argument
        u *= 2.0
        u -= 1.0
        u /= slope
        outside = int(np.count_nonzero(np.abs(u, out=tm) > 1.0))
        if outside:
            arccos_clamped += outside
            np.clip(u, -1.0, 1.0, out=u)
        u_min, u_max = min(u_min, u.min()), max(u_max, u.max())
        first = -(-start // keep)  # the first kept sample at or after start
        kept[first : -(-(start + k) // keep)] = u[first * keep - start :: keep]
    ends = np.array([u_max, u_min]) if ends is None else ends
    # The kept samples and both extremes go through the same contiguous
    # element-wise steps, so each is the value a full-length inversion gives.
    for values in (kept, ends):
        np.arccos(values, out=values)
        values -= fringe.phase_offset
        values /= fringe.omega
    return ReconstructedSignal(
        mode=fringe.mode,
        components=components,
        a0_c=a0_c,
        a0_a=a0_a,
        ratio=ratio,
        v0=contrast,
        geometry_g=geometry.g,
        t_exp=t_exp,
        tau_trace=kept,
        trace_dt=dt * stride,
        trace_stride=stride,
        displacement_pp=float(SPEED_OF_LIGHT * (ends[1] - ends[0]) / geometry.g),
        flux_clamp_fraction=flux_clamped / (2.0 * n),
        arccos_clamp_fraction=arccos_clamped / n,
    )


# ----- end-to-end drivers -----


@dataclass(frozen=True)
class AnalysisOptions:
    p_fa: float = 1e-3
    f_max: float = 50e3

    def __post_init__(self) -> None:
        if not 0 < self.p_fa < 1:
            raise ConfigError(f"p_fa must lie in (0, 1), got {self.p_fa}")
        if not 0 < self.f_max < math.inf:
            raise ConfigError(f"f_max must be positive and finite, got {self.f_max}")


@dataclass(frozen=True)
class PipelineResult:
    spectrum: SpectrumEstimate
    reconstruction: ReconstructedSignal | None

    @property
    def detected(self) -> bool:
        return self.reconstruction is not None


def _estimate_components(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    ratio: float,
    spectrum: SpectrumEstimate,
) -> tuple[ComponentEstimate, ...]:
    df = grid_spacing(stream_c.t_exp)
    estimates = [estimate_component(stream_c, stream_a, ratio, f) for f in spectrum.detected]
    # Two seeds occasionally refine onto the same line; keep the stronger,
    # the earlier of two equally strong (max returns its first argument).
    deduped: list[ComponentEstimate] = []
    for est in sorted(estimates, key=lambda c: c.f_hat):
        if deduped and abs(est.f_hat - deduped[-1].f_hat) < 0.25 * df:
            deduped[-1] = max(deduped[-1], est, key=lambda c: abs(c.a_hat_c) + abs(c.a_hat_a))
        else:
            deduped.append(est)
    return tuple(deduped)


def pipeline(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    *,
    fringe: PhotonPairSpec | ClassicalFringeSpec,
    geometry: GeometryFactor,
    ratio: float = 1.0,
    options: AnalysisOptions = AnalysisOptions(),
) -> PipelineResult:
    """Scan, refine and reconstruct one exposure of either channel.

    The streams are the coincidence and anti-coincidence streams with a
    PhotonPairSpec ``fringe``, or the port-1 and port-2 streams with the
    reference ClassicalFringeSpec; everything but the fringe inversion is
    the same analysis.
    """
    spectrum = scan_spectrum(stream_c, stream_a, ratio, options.p_fa, options.f_max)
    comps = _estimate_components(stream_c, stream_a, ratio, spectrum)
    if not comps:
        return PipelineResult(spectrum=spectrum, reconstruction=None)
    recon = reconstruct(stream_c, stream_a, ratio, fringe, geometry, comps)
    return PipelineResult(spectrum=spectrum, reconstruction=recon)
