"""Spectral estimation and waveform reconstruction from raw timestamps.

The pipeline works directly on event times, never on a rate histogram:

1. project both streams onto a uniform frequency grid with a Hann taper
   and combine them as y_f = p_f(C) - ratio * p_f(A), which cancels the
   common mode (mean flux and accidental background); one grid transform
   folds both streams, in place, onto a power-of-two number of bins per
   grid period, chosen by counted work from the grid size and the event
   count alone, so the same on every machine: the grid size rounded up or
   a larger power, or the one just below the grid size while the series
   stays within its accuracy there, the grid then reading each bin past
   the fold periodically, bin k as bin k minus the fold; it bins their
   moments, combines them and takes one real FFT per series term, a small
   grid's terms a group per call, whose mirror image gives the bins above
   half the fold;
   each term's FFT is multiplied by its real row of series coefficients,
   and an odd term then by -i, before it is added; the series is the
   phasor's Taylor series economised onto Chebyshev polynomials, so it
   needs fewer terms for the same accuracy, and the last grid's
   coefficient table and bin phase are kept; each stream is one part
   (t, w) of event times and signed weights, A's window weights times
   -ratio, and the transform's values are the event sums themselves, up
   to a truncation below 1e-13 of sum |w| / t_exp (see ``_project_grid``,
   ``_series_table`` and ``_fold_size``); the moments are binned a batch
   of terms at a time over segments of about 2^15 events cut where the
   bin changes, so each segment is read from cache for every term of the
   batch after the first, and each bin gets the sum one bincount of its
   stream would give (see ``_grid_terms``); a scan of two long streams
   (``simulate._threaded_pair``) makes A's part and fold on a worker
   thread while the caller makes C's, and that worker then bins each
   batch of terms while the caller transforms the one before, which
   leaves every value bit for bit as it is (see ``scan_spectrum`` and
   ``_grid_terms``),
2. threshold |y_f| against a constant-false-alarm level computed from
   the events themselves, from the window weights the projection used,
3. collapse contiguous above-threshold bins to candidate frequencies and
   refine each by maximising the untapered projection magnitude, a power
   series in the frequency offset whose event moments are summed once
   per stream and candidate, per time segment about the segment's centre,
   so each pass over a long stream stays in cache (see ``_offset_moments``;
   for two long streams, by the scan's rule, A's moments are summed on a
   worker thread while the caller sums C's): a zooming grid search
   scores the series on 65-point grids of the bracket until the step is
   at most 1e-4 of a grid step, so the refined frequency holds that
   tolerance at every frequency and the search has no iteration count to
   run out of (see ``estimate_component``),
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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import (
    ClassicalFringeSpec,
    GeometryFactor,
    PhotonPairSpec,
    SPEED_OF_LIGHT,
)
from .errors import AnalysisError, ConfigError
from .floatrepr import float_lines
from .simulate import (
    TimestampStream, _cos_range, _side_by_side, _threaded_pair, _trace_samples, _worker,
)
from .streamio import _CHUNK_LINES

GRID_SPACING_FACTOR = 0.6


def window_weights(t_centered: np.ndarray, t_exp: float, window: str) -> np.ndarray:
    if window == "hann":
        return np.cos(math.pi * t_centered / t_exp) ** 2
    if window == "rectangular":
        return np.ones_like(t_centered)
    raise ConfigError(f"unknown window {window!r}")


def grid_spacing(t_exp: float) -> float:
    """Scan-grid frequency spacing for an exposure of t_exp seconds.

    An exposure too short for a finite spacing (below about 3.3e-309 s)
    is a ConfigError: its grid would read 0 * inf.
    """
    if GRID_SPACING_FACTOR / t_exp < math.inf:
        return GRID_SPACING_FACTOR / t_exp
    raise ConfigError(f"t_exp must leave the scan grid spacing 0.6 / t_exp finite, got {t_exp!r} s")


_MAX_GRID_BINS = 1 << 21


def _grid_bins(t_exp: float, f_max: float, band: str = "f_max") -> int:
    """The bin count of ``frequency_grid(t_exp, f_max)``, refused as that grid is;
    a refusal of too many bins calls f_max ``band``."""
    if not 0 < f_max < math.inf:
        raise ConfigError("f_max must be positive and finite")
    m = math.floor(f_max / grid_spacing(t_exp)) + 1
    if m > _MAX_GRID_BINS:
        raise ConfigError(
            f"{band} = {f_max} Hz needs {m} scan bins at t_exp = {t_exp} s;"
            f" at most {_MAX_GRID_BINS} are allowed"
        )
    return m


def frequency_grid(t_exp: float, f_max: float) -> np.ndarray:
    """Uniform scan grid 0, df, 2 df, ... covering [0, f_max].

    At most _MAX_GRID_BINS = 2^21 bins (f_max up to about 1.26e6 / t_exp).
    Where the grid transform bins one term a batch, as from 2^19 bins on,
    a scan holds about 240 bytes per bin (tracemalloc, a few thousand
    events, a slope fitted from 2^17 and 2^18 bins with one term a batch):
    160 of series table, 20 rows at m rounded up (``_series_table``), 16
    of bin phase, 8 of the one term's row of moments, and about 56 of
    grid, transform and spectrum arrays. That is about 480 MiB at the cap,
    which takes that fold, since the one below it lies past theta =
    3 pi / 2; a larger grid raises ConfigError. A smaller grid's batches
    hold more terms, up to 4 MiB of rows (``_grid_terms``), 64 bytes a bin
    at 2^16 bins; a worker that bins them holds a second such buffer. The
    group buffer of term spectra, of max(m, n/2 + 1) bins each at fold n,
    holds the one spectrum counted above where a spectrum has over 8,192
    bins (every grid of over 8,192 bins), and at most 256 KiB where it
    holds more. A grid that takes the fold below m holds up to 24 rows,
    about 264 bytes a bin, and has at most 1.5 * 2^20 + 1 bins, about
    400 MiB.
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


def _weighted_parts(stream_c, stream_a, ratio: float, window: str, pool=None) -> list:
    """The checked pair as projection parts (t, w): C's window weights, A's times -ratio.

    Given a one-worker ``pool``, A's part is made there while the caller
    makes C's (``_side_by_side``).
    """
    _check_pair(stream_c, stream_a, ratio)

    def part(scaled):
        stream, scale = scaled
        t, w = _weighted_times(stream, window)
        if scale is not None:
            w *= scale
        return t, w

    return list(_side_by_side(pool, part, [(stream_c, None), (stream_a, -ratio)]))


def _project(parts, t_exp: float, freqs: np.ndarray, pool=None) -> np.ndarray:
    """Sum over ``parts`` (t, w) of the projection of times t, weights w, at ``freqs``.

    A uniform grid k * df from 0 goes through one grid transform over all
    parts (``_project_grid``, which ``pool`` is passed to); any other
    frequencies take the direct event sum of each part.
    """
    df = _uniform_from_zero(freqs)
    if df is not None:
        return _project_grid(parts, t_exp, df, freqs.size, pool)
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


def _project_grid(parts, t_exp: float, df: float, m: int, pool=None) -> np.ndarray:
    """Exact sum over parts of the projection on the grid k * df, k < m.

    ``parts`` is a sequence of (t, w): centred event times and their signed
    weights, the window weights times the factor the part enters with. The
    transform takes them: each part is folded in place (``_fold``), so t and
    w hold no times or weights afterwards; a caller that reads them again
    passes copies.
    Every grid phasor has period 1/df, so the events are folded onto n
    bins per period, a power of two that ``_fold_size`` picks by counted
    work from m and the event count alone: m rounded up or above, or the
    power of two just below m where the series stays accurate. For an
    event in bin c at offset u in [-1/2, 1/2) bin widths from the bin
    centre,

        e^(-2j pi k df t) = e^(-2j pi k (c + 1/2) / n) sum_p c_kp u^p,

    a polynomial in u of ``_series_table``'s Q terms, within about 1e-14
    of the phasor for every k < m. Term p is then the rfft X_p of the
    per-bin moments sum w u^p, binned over all parts before the one rfft,
    so two streams with equal bins and weights w, -w cancel to exactly 0;
    X_p has period n in k, so a bin k >= n reads bin k - n (see
    ``_grid_terms``, which bins the moments over segments of the folded
    events). Given a one-worker ``pool``, the worker folds the last part
    while the caller folds the others, and then bins each batch of terms
    while the caller transforms the batch before; without one, the
    transform runs on the calling thread alone.
    """
    n = _fold_size(m, sum(t.size for t, _ in parts))

    def fold(part):
        t, w = part
        # An empty part adds nothing, and np.bincount would bin it as integers.
        return _fold(t, w, df * n, n) if t.size else None

    folded = [f for f in _side_by_side(pool, fold, parts) if f]
    return _grid_terms(folded, m, n, t_exp, pool)


def _fold(t: np.ndarray, w: np.ndarray, scale: float, n: int):
    """(bins, u, w, segments): t * scale folded onto n bins, in place.

    The fold takes the part, two float64 arrays: u, each event's offset
    from its bin centre, is written over t, and ``_grid_terms`` then uses w
    as its running moment, so neither array is worth reading afterwards.
    The int64 cells are a temporary. A part of at most _SEGMENT_EVENTS
    events is one segment and keeps them, as np.bincount takes them; a
    longer part's are cut into segments and rewritten to each segment's
    local bins (``_segments``), then narrowed to 16 bits where every
    segment is at most 2^16 bins wide, else to 32, and freed.
    """
    u = np.multiply(t, scale, out=t)
    cells = np.floor(u, out=np.empty(t.size, dtype=np.int64), casting="unsafe")
    u -= cells  # exact: each cell is floor(u), an integer float
    u -= 0.5
    cells &= n - 1  # n is a power of two, so & (n - 1) is mod n, negative cells included
    if t.size <= _SEGMENT_EVENTS:
        return cells, u, w, [(0, t.size, 0, n)]
    segments = _segments(cells, n)
    narrow = np.uint16 if max(width for *_, width in segments) <= 1 << 16 else np.int32
    return cells.astype(narrow), u, w, segments


# Events per segment of the grid transform's binning and of refinement's
# moment passes (``_segments``, ``_segment_count``), so what one segment's
# passes read stays in cache: 26 bytes an event, 0.9 MB, for the binning
# (narrow and widened bins, u and the running moment w).
_SEGMENT_EVENTS = 1 << 15


def _segments(bins: np.ndarray, n: int) -> list[tuple[int, int, int, int]]:
    """(start, stop, lo, width) of each segment of a part's folded ``bins``.

    The part is cut every _SEGMENT_EVENTS events or a little after, where
    the bin changes, and each segment's bins are rewritten in place to
    (bin - lo) mod n, lo being its first event's bin, all below its
    width. Sorted times on a grid with df t_exp <= 1 fold into at most two
    ascending runs of distinct bins, so each bin's events then lie in one
    segment, in time order, and a segment across the wrap at t = 0 is
    still as narrow as its run of bins.
    """
    segments, start = [], 0
    while start < bins.size:
        stop = _bin_change(bins, start + _SEGMENT_EVENTS)
        local = bins[start:stop]
        lo = int(local[0])
        local -= lo
        local &= n - 1
        segments.append((start, stop, lo, int(local.max()) + 1))
        start = stop
    return segments


def _bin_change(bins: np.ndarray, stop: int) -> int:
    """The first index from ``stop`` whose bin differs from the one before it, or the end."""
    probe = 64
    while stop < bins.size:
        changed = np.flatnonzero(bins[stop : stop + probe] != bins[stop - 1])
        if changed.size:
            return stop + int(changed[0])
        stop, probe = stop + probe, 2 * probe
    return bins.size


# The grid transform bins its terms a batch at a time into rows of n bins,
# at most _BATCH_BYTES of rows a batch, so a segment's events are read from
# cache for every term of the batch after the first. It then transforms a
# batch's rows as many terms at a time as their spectra fit in _GROUP_BYTES,
# or one at a time where one spectrum exceeds half of it: one numpy call per
# group instead of per term, where the calls cost more than their bins.
_BATCH_BYTES = 1 << 22
_GROUP_BYTES = 1 << 18


def _grid_terms(folded, m: int, n: int, t_exp: float, pool) -> np.ndarray:
    """sum_p c_kp X_p[k] e^(-i pi k / n) / t_exp, k < m, for the folded parts.

    The moments are binned a batch of terms at a time (_BATCH_BYTES of
    n-bin rows), segment by segment (``_segments``): for each segment of
    each part, in order, term 0 bins the segment's w and each later term
    multiplies it by u in place before binning it, so w holds the running
    moment w u^p (the parts are consumed: w ends as w u^(Q-1)). Each term
    bins with one np.bincount over the segment's local bins and adds that
    into the row's bins lo..lo + width, wrapping at n.
    Where each bin's events lie in one segment of a part, as on every scan
    grid, each bin thus gets the sum a whole-part np.bincount gives, and
    the parts' sums are added in order, so the rows are bit for bit those
    of one bincount per part and term; elsewhere a bin's sum is added up in
    a different order, within rounding. Given a one-worker ``pool``, the
    worker bins batch b + 1 into the other of two row buffers while the
    calling thread transforms batch b (``_in_turn``), on the same arrays in
    the same order, so the sum is bit for bit the serial one; the last
    batch is then one term, so the worker waits for one term's transform
    at the end, and batch 0 is binned by both threads, a part each.

    The rows are transformed a group of G terms at a time, G being as many
    max(m, n/2 + 1)-bin spectra as fit in _GROUP_BYTES (all 14 terms of a
    334-bin grid at fold 1024; one term on the quick-start and sweep
    grids), in one (G, max(m, n/2 + 1)) complex buffer: one rfft of the G
    rows, then each step below once for the group, and last the G spectra
    are added to the sum one by one in p order, so each bin takes its
    additions in term order and the sum is bit for bit that of one term
    at a time. The moments are real, so a bin n/2 < k < n past the rfft's
    last one reads X_p[k] = conj(X_p[n - k]): the rfft writes the head of
    each spectrum, and those bins are mirrored into its tail; a grid of at
    most n/2 + 1 bins has no tail and reads the rfft's bins in place. A
    fold below m reads each bin n <= k < m as bin k - n, which lies in the
    head since m - 1 <= 3n/2 (``_fold_table``). c_kp is s_kp for even p
    and -i s_kp for odd p, with s_kp real (row p of the table): the
    group's bins are multiplied in place by its rows of s_kp in one
    complex multiply, its odd terms' then by -i, which is exact (it swaps
    the real and imaginary parts and negates one), and no complex
    coefficient is formed. The bin phase e^(-i pi k / n) is kept with the
    table. Besides the parts, the transform holds the table, the m-bin sum,
    the row buffers and the group buffer: at most _GROUP_BYTES, or one
    spectrum where a spectrum exceeds half of that. A group's multiply
    casts its real table rows to complex in temporaries of up to three
    times their size (on 334 bins at fold 1024, 14 terms: 225 kB).
    """
    if not folded:
        return np.zeros(m, dtype=complex)
    table, phase = _series_table(m, n)  # built before the m-bin buffers below
    size = max(1, _BATCH_BYTES // (8 * n))
    edges = [*range(0, len(table), size), len(table)]
    if pool and len(table) - edges[-2] > 1:  # a last batch of one term, so the worker waits least
        edges.insert(-1, len(table) - 1)
    batches = [range(lo, hi) for lo, hi in zip(edges, edges[1:])]
    buffers = [np.empty((len(batches[0]), n)) for _ in range(min(len(batches), 1 + bool(pool)))]
    # np.bincount takes intp bins, so narrowed ones are widened into these.
    longest = max((stop - start for bins, *_, segments in folded if bins.dtype != np.intp
                   for start, stop, _, _ in segments), default=0)
    wides = [np.empty(longest, dtype=np.intp) for _ in buffers]

    def binned(b: int, parts=slice(None), into: int | None = None) -> np.ndarray:
        """Batch b's rows of the moments of folded[parts], in buffer ``into``, b mod 2 by default."""
        terms, into = batches[b], b % len(buffers) if into is None else into
        rows, wide = buffers[into][: len(terms)], wides[into]
        rows.fill(0.0)
        for bins, u, w, segments in folded[parts]:
            for start, stop, lo, width in segments:
                local = bins[start:stop]
                if local.dtype != np.intp:  # narrowed bins are widened once a batch
                    local = wide[: stop - start]
                    np.copyto(local, bins[start:stop])
                u_s, w_s = u[start:stop], w[start:stop]
                head = min(width, n - lo)
                for row, p in zip(rows, terms):
                    if p:
                        w_s *= u_s
                    sums = np.bincount(local, w_s, minlength=width)
                    if head == n:  # a whole fold
                        row += sums
                        continue
                    part = row[lo : lo + head]
                    part += sums[:head]
                    if head < width:  # the segment's bins wrap past n - 1 to 0
                        part = row[: width - head]
                        part += sums[head:]
        return rows

    out = np.zeros(m, dtype=complex)
    half, top = n // 2 + 1, min(m, n)  # rfft bins, and the bins below the period
    group = min(len(batches[0]), _term_group(m, n))
    spectra = np.empty((group, max(m, half)), dtype=complex)
    for terms, rows in zip(batches, _in_turn(binned, len(batches), pool)):
        for g in range(0, len(terms), group):
            p = terms[g : g + group]
            spectrum = spectra[: len(p)]
            np.fft.rfft(rows[g : g + len(p)], axis=1, out=spectrum[:, :half])
            if top > half:  # bins half..top-1 are conj of bins n-half down to n-top+1
                np.conjugate(spectrum[:, n - half : n - top : -1], out=spectrum[:, half:top])
            if m > n:  # X_p has period n
                spectrum[:, n:m] = spectrum[:, : m - n]
            term = spectrum[:, :m]
            term *= table[p.start : p.stop]
            term[(p.start + 1) % 2 :: 2] *= -1j  # odd p: (a + ib)(-i) = b - ia, exactly
            for row in term:
                out += row
    out *= phase
    out /= t_exp
    return out


def _term_group(m: int, n: int) -> int:
    """Terms ``_grid_terms`` transforms per group at most: the m-bin grid's
    spectra at fold n, max(m, n/2 + 1) complex bins each, that fit in
    _GROUP_BYTES, and at least one."""
    return max(1, _GROUP_BYTES // (16 * max(m, n // 2 + 1)))


def _in_turn(binned, batches: int, pool):
    """Each batch's rows, ``binned(b)``, in turn. Given a pool, batch b + 1 is
    binned on its worker while the caller transforms batch b, and batch 0 is
    binned side by side: the last part's rows on the worker, into the second
    buffer, the others' here, then added, (C + 0) + (A + 0) being C + A.

    A pool comes with two parts and two batches at least: it is opened only
    for two streams of over _PAIR_THREAD_EVENTS events each, so neither part
    is empty, and ``_grid_terms`` then splits a last batch of one term off a
    series of at least 4 terms, the fewest any grid of 4 bins or more takes.
    """
    if pool is None:
        yield from map(binned, range(batches))
        return
    last = pool.submit(binned, 0, slice(-1, None), 1)
    rows = binned(0, slice(-1), 0)
    rows += last.result()
    for b in range(1, batches):
        ahead = pool.submit(binned, b)
        yield rows
        rows = ahead.result()
    yield rows


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


# The largest pair any grid of up to 2^18 bins takes at any fold the rule
# weighs (a 5 s scan reaches 2^18 bins at 31 kHz): 2^18 bins at fold 2^18,
# 20 rows of table and the phase, 176 bytes a bin, 44 MiB. Grids below
# m = 2^18 hold fewer bytes, even at the fold below m with up to 24 rows.
_TABLE_BYTES = (1 << 18) * (20 * 8 + 16)
_table: tuple[tuple[int, int], tuple | None] = ((0, 0), None)  # the last kept (m, n) tables


def _series_table(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed series coefficients of the m-bin grid transform at fold n, a (Q, m)
    array, and its bin phase e^(-i pi k / n), k < m.

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
    theta = 2.2, 14 instead of 17 at 1.02, 20 instead of 27 near pi, and
    at most 24 at a fold below m, where theta reaches 3 pi / 2. Where
    Q = D nothing is folded, and the rows are the recurrence's Taylor
    coefficients bit for bit.

    One pair of arrays is kept, the last one built of at most _TABLE_BYTES
    together, and one assignment replaces it, so threads need no lock: a
    scan keeps one grid, and a pair over _TABLE_BYTES is built for each
    call.
    """
    global _table
    key, tables = _table
    if key == (m, n):
        return tables
    phase = np.exp((-1j * math.pi / n) * np.arange(m))  # its temporaries go before the table's
    theta = math.pi * (m - 1) / n
    terms, kept = _series_terms(theta), _economised_terms(theta)
    table, degree = np.empty((kept, m)), np.empty(m)  # degree: the dropped row being made
    rate = (2.0 * math.pi / n) * np.arange(m)  # |z_k|
    step = np.empty(m)
    table[0].fill(1.0)
    fold = _economisation(kept, terms)
    for p in range(1, terms):
        # Times z_k / p = -i rate_k / p: -i (-i s) = -s, so s flips sign on even p.
        np.multiply(rate, (1.0 if p % 2 else -1.0) / p, out=step)
        np.multiply(table[p - 1] if p <= kept else degree, step, out=table[p] if p < kept else degree)
        # Each dropped degree is folded into the kept rows as it is made, so
        # each row takes its additions in degree order: scaled row additions,
        # not a matrix product, since BLAS would allocate its buffers for a
        # few multiply-adds per entry.
        for q, c in enumerate(fold[:, p - kept] if p >= kept else ()):
            if c:
                np.multiply(degree, c, out=step)
                table[q] += step
    table.flags.writeable = phase.flags.writeable = False
    tables = (table, phase)
    if table.nbytes + phase.nbytes <= _TABLE_BYTES:
        _table = ((m, n), tables)
    return tables


# Work of one series term of _project_grid, counted in events: one per event
# (the moment update and the segment bincounts), _TERM_EVENTS for the term's
# fixed work, and _FFT_EVENTS per n log2 n for its rfft and n-bin buffers.
# BENCH_41.json times the folds this picks against its alternatives.
_TERM_EVENTS, _FFT_EVENTS = 2_500, 0.18
_MAX_COST_FOLD = 1 << 16


@functools.lru_cache(maxsize=256)
def _fold_table(m: int) -> tuple[tuple[int, int], ...]:
    """(n, terms(n)) for each fold weighed at m bins."""
    smallest = 1 << (m - 1).bit_length()
    below = smallest // 2
    # Below m, theta = pi (m - 1) / n up to 3 pi / 2 keeps the table within 1e-14.
    folds = [below] if below and 2 * (m - 1) <= 3 * below else []
    folds.append(smallest)
    while folds[-1] < max(2 * smallest, _MAX_COST_FOLD):
        folds.append(2 * folds[-1])
    return tuple((n, _economised_terms(math.pi * (m - 1) / n)) for n in folds)


def _fold_size(m: int, events: int) -> int:
    """Bins per grid period for an m-bin grid transform over ``events`` events.

    The power of two n from n_m / 2 to max(2 n_m, 2^16), n_m being m
    rounded up to a power of two, that minimises the counted work
    terms(n) * (events + _TERM_EVENTS + _FFT_EVENTS * n log2 n),
    terms(n) being the economised series length at theta = pi (m - 1) / n
    (``_economised_terms``, the row count of ``_series_table``); of equal
    work the smaller fold wins. n_m / 2 lies below m and is weighed only
    where theta <= 3 pi / 2, m - 1 <= 1.5 n, which keeps the series within
    1e-14 (beyond it the table's rounding grows past that); the transform
    then reads bin k >= n as bin k - n. A larger fold takes a longer rfft
    per term but needs fewer terms, which pays off when the events
    outnumber the bins; the smaller folds pay off when the rfft dominates.
    The rule depends on m and the event count alone, so a scan's fold, and
    with it its rounding, is the same on every machine.
    """

    def work(fold):
        n, terms = fold
        return terms * (events + _TERM_EVENTS + _FFT_EVENTS * n * math.log2(n))

    return min(_fold_table(m), key=work)[0]


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
    counts N_C + ratio^2 N_A. A ratio that makes the power overflow is a
    ConfigError.
    """
    parts = _weighted_parts(stream_c, stream_a, ratio, window)
    return _threshold(parts, stream_c.t_exp, p_fa, n_bins)


def _threshold(parts, t_exp: float, p_fa: float, n_bins: int) -> float:
    """``detection_threshold`` for ``_weighted_parts`` (t, w): noise power sum w^2 over both."""
    if not 0 < p_fa < 1:
        raise ConfigError("p_fa must lie in (0, 1)")
    if n_bins < 1:
        raise ConfigError("n_bins must be >= 1")
    with np.errstate(over="ignore"):  # refused below instead
        power = sum(float(np.sum(w * w)) for _, w in parts)
    if not sum(w.size for _, w in parts):
        raise AnalysisError("cannot set a threshold from two empty streams")
    if power == math.inf:
        raise ConfigError("ratio makes the noise power sum w^2(C) + ratio^2 sum w^2(A) overflow")
    # Per-bin false-alarm level, computed in log space for small p_fa. Where
    # it underflows to 0 its log is taken in closed form: -log1p(-p_fa) /
    # n_bins is then far below 1, and 1 - e^(-x) = x to rounding.
    alpha_1 = -math.expm1(math.log1p(-p_fa) / n_bins)
    if alpha_1 > 0:
        log_alpha = math.log(alpha_1)
    else:
        log_alpha = math.log(-math.log1p(-p_fa)) - math.log(n_bins)
    return math.sqrt(-log_alpha) * math.sqrt(power) / t_exp


def _group_detections(
    freqs: np.ndarray, magnitude: np.ndarray, kappa: float
) -> tuple[float, ...]:
    """Collapse contiguous above-threshold runs to their peak frequencies."""
    mask = magnitude > kappa
    if freqs.size and freqs[0] == 0.0:
        mask[0] = False  # DC carries the mean flux, never a candidate
    hits = np.flatnonzero(mask)
    if not hits.size:  # a signal-free scan, with no run to split
        return ()
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

    def csv_blocks(self) -> Iterator[bytes]:
        """The table as ASCII CSV: the header, then _CHUNK_LINES grid bins a block.

        Each bin's line is f, re y, im y, |y| and kappa, each float spelled as
        ``repr`` spells it. |y| is ``hypot(re, im)``, which is Python's
        ``abs(complex)``; ``np.abs`` can differ from it in the last bit.
        """
        yield b"f_hz,re_y,im_y,abs_y,kappa\n"
        kappa = b",%s\n" % repr(float(self.threshold_kappa)).encode()
        for lo in range(0, self.frequencies.size, _CHUNK_LINES):
            f = self.frequencies[lo : lo + _CHUNK_LINES]
            y = self.projections[lo : lo + _CHUNK_LINES]
            columns = (f, y.real, y.imag, np.hypot(y.real, y.imag))
            yield float_lines(columns, (b",", b",", b",", kappa))

    def to_csv(self) -> str:
        """The table as CSV text, one line per grid bin after the header."""
        return b"".join(self.csv_blocks()).decode()


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
    then ``_threshold`` and ``_project``), with each stream's window weights
    computed once for both. When the pair is worth a thread
    (``simulate._threaded_pair``), the scan opens one worker: A's part and
    fold are made there while the caller makes C's, and the same worker
    then bins each batch of series terms while the caller transforms the
    batch before (``_project_grid``). Otherwise the scan runs on the
    calling thread alone.
    """
    t_exp = stream_c.t_exp
    freqs = frequency_grid(t_exp, f_max)
    with _worker(_threaded_pair(len(stream_c), len(stream_a))) as pool:
        parts = _weighted_parts(stream_c, stream_a, ratio, "hann", pool)
        kappa = _threshold(parts, t_exp, p_fa, freqs.size)
        y = _project(parts, t_exp, freqs, pool)
    detected = _group_detections(freqs, np.abs(y), kappa)
    return SpectrumEstimate(
        frequencies=freqs,
        projections=y,
        threshold_kappa=kappa,
        p_fa=p_fa,
        detected=detected,
    )


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
    rest costs no pass over the events. When the pair is worth a thread
    (``simulate._threaded_pair``), A's moments are summed on a worker thread
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
    with _worker(_threaded_pair(len(stream_c), len(stream_a))) as pool:
        m_c, m_a = _side_by_side(
            pool, lambda s: _offset_moments(s, f_seed, delta_f, segments), (stream_c, stream_a)
        )
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
        if path is not None:
            Path(path).write_text(self.json_text())
        return self._record(self.tau_trace.tolist())

    def json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=2, sort_keys=True)`` and a newline.

        The trace's floats are spelled by ``float_lines`` and spliced into the
        layout ``json.dumps`` gives the rest of the record.
        """
        text = json.dumps(self._record([]), indent=2, sort_keys=True)
        if self.tau_trace.size:
            items = float_lines([self.tau_trace], [b",\n      "], nonfinite=json.dumps)
            tau = '"tau": [\n      %s\n    ]' % items[: -len(b",\n      ")].decode()
            text = text.replace('"tau": []', tau, 1)
        return text + "\n"

    def _record(self, tau: list) -> dict:
        return {
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
                "tau": tau,
            },
        }


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
