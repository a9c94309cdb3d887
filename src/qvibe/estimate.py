"""Spectral estimation and waveform reconstruction from raw timestamps.

The pipeline works directly on event times, never on a rate histogram:

1. project both streams onto a uniform frequency grid with a Hann taper
   and combine them as y_f = p_f(C) - ratio * p_f(A), which cancels the
   common mode (mean flux and accidental background); the grid values
   are the event sums themselves, up to a series truncation below 1e-13
   of sum |w| / t_exp (see ``project_timestamps``),
2. threshold |y_f| against a constant-false-alarm level computed from
   the event counts themselves,
3. collapse contiguous above-threshold bins to candidate frequencies and
   refine each by maximising the untapered projection magnitude,
4. estimate a phase from the combined projection and per-stream signed
   amplitudes at the refined frequency,
5. rebuild both flux traces, form the normalised probability trace, and
   invert the fringe for the delay and displacement waveforms.

Projection convention: event times are shifted by -t_exp/2 before
projecting, so the Hann taper w(t) = cos^2(pi t / t_exp) actually tapers
to zero at the stream edges and component phases refer to the exposure
midpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

from .core import (
    ClassicalFringeSpec,
    GeometryFactor,
    PhotonPairSpec,
    SPEED_OF_LIGHT,
)
from .errors import AnalysisError, ConfigError, StreamFormatError
from .simulate import TimestampStream, _trace_samples

GRID_SPACING_FACTOR = 0.6

_WINDOWS = ("hann", "rectangular")


def window_weights(t_centered: np.ndarray, t_exp: float, window: str) -> np.ndarray:
    if window == "hann":
        return np.cos(math.pi * t_centered / t_exp) ** 2
    if window == "rectangular":
        return np.ones_like(t_centered)
    raise ConfigError(f"unknown window {window!r}")


def grid_spacing(t_exp: float) -> float:
    """Scan-grid frequency spacing for an exposure of t_exp seconds."""
    return GRID_SPACING_FACTOR / t_exp


def frequency_grid(t_exp: float, f_max: float) -> np.ndarray:
    """Uniform scan grid 0, df, 2 df, ... covering [0, f_max]."""
    if not f_max > 0:
        raise ConfigError("f_max must be positive")
    df = grid_spacing(t_exp)
    m = int(math.floor(f_max / df)) + 1
    return np.arange(m) * df


def project_timestamps(stream: TimestampStream, frequency, window: str = "hann"):
    """Windowed projection p_f = (1/t_exp) sum_i w(t_i') exp(-2j pi f t_i').

    ``frequency`` may be a scalar or an array. The result is the event
    sum itself, not an approximation: a scalar or an arbitrary array is
    summed directly, and a uniform grid k * df starting at 0 goes through
    a binned Taylor transform whose truncation stays below 1e-13 of
    sum |w| / t_exp, the same size as the rounding of the event phases.
    """
    t = stream.centered_times()
    w = window_weights(t, stream.t_exp, window)
    freqs = np.asarray(frequency, dtype=float)
    if freqs.ndim == 0:
        phase = (-2j * math.pi * float(freqs)) * t
        return complex(np.sum(w * np.exp(phase)) / stream.t_exp)
    df = _uniform_from_zero(freqs)
    if df is None:
        return _project_direct(t, w, stream.t_exp, freqs)
    return _project_grid(t, w, stream.t_exp, df, freqs.size)


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


def _project_grid(
    t: np.ndarray, w: np.ndarray, t_exp: float, df: float, m: int
) -> np.ndarray:
    """Exact projections on the grid k * df, k < m, from binned moments.

    Every grid phasor has period 1/df, so the events are folded onto n
    bins per period, n the power of two at or above 2m. For an event in
    bin c at offset u in [-1/2, 1/2) bin widths from the bin centre,

        e^(-2j pi k df t) = e^(-2j pi k (c + 1/2) / n) sum_p (z_k u)^p / p!

    with z_k = -2j pi k / n. Term p is then the rfft of the per-bin
    moments sum w u^p. Since |z_k u| <= theta = pi (m - 1) / n <= pi / 2,
    the series stops at the first p with theta^p / p! < 1e-14 (at most
    20 terms), which bounds the truncation per event by about 1e-14 |w|.
    """
    n = 1 << (2 * m - 1).bit_length()
    x = t * (df * n)
    cell = np.floor(x)
    u = x - cell - 0.5
    bins = cell.astype(np.int64) % n
    # Sorted events fill each bin in one run (two or more if the exposure
    # spans several periods); bincount adds runs that share a bin.
    starts = np.flatnonzero(np.diff(bins, prepend=-1))
    occupied = bins[starts]
    z = (-2j * math.pi / n) * np.arange(m)
    theta = math.pi * (m - 1) / n
    out = np.zeros(m, dtype=complex)
    coef = np.ones(m, dtype=complex)  # z^p / p!
    moment = np.array(w, dtype=float)  # w u^p
    p, bound = 0, 1.0  # bound = theta^p / p!
    while bound >= 1e-14:
        if p:
            coef *= z / p
            moment *= u
        binned = np.bincount(occupied, np.add.reduceat(moment, starts), minlength=n)
        out += coef * np.fft.rfft(binned)[:m]
        p += 1
        bound *= theta / p
    return out * np.exp(z / 2.0) / t_exp


def _uniform_from_zero(freqs: np.ndarray) -> float | None:
    """Return the grid step if freqs is a uniform grid starting at 0."""
    if freqs.ndim != 1 or freqs.size < 4 or freqs[0] != 0.0:
        return None
    df = freqs[1]
    if df <= 0:
        return None
    # The grid transform evaluates at k * df, so accept only rounding-level
    # departures from it; anything else takes the direct sum.
    if np.allclose(freqs, np.arange(freqs.size) * df, rtol=1e-15, atol=0.0):
        return float(df)
    return None


def _check_compatible(s1: TimestampStream, s2: TimestampStream) -> None:
    if s1.t_exp != s2.t_exp or s1.tick_duration != s2.tick_duration:
        raise ConfigError("streams must share t_exp and tick_duration")


def combined_spectrum(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    ratio: float,
    frequencies: np.ndarray,
    window: str = "hann",
) -> np.ndarray:
    """Common-mode-cancelling spectrum y_f = p_f(C) - ratio * p_f(A)."""
    if not ratio > 0:
        raise ConfigError("ratio must be positive")
    _check_compatible(stream_c, stream_a)
    pc = project_timestamps(stream_c, frequencies, window)
    pa = project_timestamps(stream_a, frequencies, window)
    return pc - ratio * pa


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
    if not 0 < p_fa < 1:
        raise ConfigError("p_fa must lie in (0, 1)")
    if n_bins < 1:
        raise ConfigError("n_bins must be >= 1")
    if not ratio > 0:
        raise ConfigError("ratio must be positive")
    _check_compatible(stream_c, stream_a)
    if len(stream_c) == 0 and len(stream_a) == 0:
        raise AnalysisError("cannot set a threshold from two empty streams")
    t_exp = stream_c.t_exp
    power = 0.0
    for stream, scale in ((stream_c, 1.0), (stream_a, ratio)):
        w = window_weights(stream.centered_times(), t_exp, window)
        power += scale * scale * float(np.sum(w * w))
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
    if hits.size == 0:
        return ()
    seeds = []
    run_start = 0
    for i in range(1, hits.size + 1):
        if i == hits.size or hits[i] != hits[i - 1] + 1:
            run = hits[run_start:i]
            seeds.append(float(freqs[run[np.argmax(magnitude[run])]]))
            run_start = i
    return tuple(seeds)


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Grid scan output: projections, threshold, and candidate seeds."""

    frequencies: np.ndarray
    projections: np.ndarray
    threshold_kappa: float
    p_fa: float
    window: str
    detected: tuple[float, ...]

    def to_csv(self, path) -> None:
        """Write the table to a path, or to anything with write_text."""
        lines = ["f_hz,re_y,im_y,abs_y,kappa"]
        kappa = repr(float(self.threshold_kappa))
        for f, y in zip(self.frequencies, self.projections):
            lines.append(
                "%r,%r,%r,%r,%s" % (float(f), float(y.real), float(y.imag), abs(complex(y)), kappa)
            )
        target = path if hasattr(path, "write_text") else Path(path)
        target.write_text("\n".join(lines) + "\n")


def read_spectrum_csv(path: str | Path) -> SpectrumEstimate:
    """Re-parse a spectrum table written by SpectrumEstimate.to_csv."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "f_hz,re_y,im_y,abs_y,kappa":
        raise StreamFormatError(f"{path}: not a spectrum table")
    freqs, projs, kappa = [], [], 0.0
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            raise StreamFormatError(f"{path}: line {i}: expected 5 columns")
        try:
            freqs.append(float(parts[0]))
            projs.append(complex(float(parts[1]), float(parts[2])))
            kappa = float(parts[4])
        except ValueError as exc:
            raise StreamFormatError(f"{path}: line {i}: {exc}") from None
    f = np.asarray(freqs)
    y = np.asarray(projs)
    return SpectrumEstimate(
        frequencies=f,
        projections=y,
        threshold_kappa=kappa,
        p_fa=math.nan,
        window="hann",
        detected=_group_detections(f, np.abs(y), kappa),
    )


def scan_spectrum(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    ratio: float,
    p_fa: float = 1e-3,
    f_max: float = 50e3,
    window: str = "hann",
) -> SpectrumEstimate:
    """Full grid scan: spectrum, threshold, and detected candidates."""
    freqs = frequency_grid(stream_c.t_exp, f_max)
    y = combined_spectrum(stream_c, stream_a, ratio, freqs, window)
    kappa = detection_threshold(stream_c, stream_a, ratio, window, p_fa, freqs.size)
    detected = _group_detections(freqs, np.abs(y), kappa)
    return SpectrumEstimate(
        frequencies=freqs,
        projections=y,
        threshold_kappa=kappa,
        p_fa=p_fa,
        window=window,
        detected=detected,
    )


@dataclass(frozen=True)
class RefinedFrequency:
    f_hat: float
    converged: bool


def refine_frequency(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    ratio: float,
    f_seed: float,
    delta_f: float | None = None,
    maxiter: int = 100,
) -> RefinedFrequency:
    """Maximise the untapered |y_f| within one grid step of the seed.

    Uses bounded derivative-free scalar minimisation of -|y_f| with
    absolute tolerance 1e-4 of the grid spacing. A seed at or below one
    grid step from DC cannot be bracketed and raises AnalysisError; an
    optimiser that fails to converge inside ``maxiter`` returns the seed
    frequency flagged as unconverged.
    """
    t_exp = stream_c.t_exp
    if delta_f is None:
        delta_f = grid_spacing(t_exp)
    if f_seed <= delta_f:
        raise AnalysisError(f"seed {f_seed} Hz is within one grid step of DC")
    _check_compatible(stream_c, stream_a)
    tc = stream_c.centered_times()
    ta = stream_a.centered_times()

    def neg_magnitude(f: float) -> float:
        yc = np.exp((-2j * math.pi * f) * tc).sum()
        ya = np.exp((-2j * math.pi * f) * ta).sum()
        return -abs(yc - ratio * ya) / t_exp

    res = minimize_scalar(
        neg_magnitude,
        bounds=(f_seed - delta_f, f_seed + delta_f),
        method="bounded",
        options={"xatol": 1e-4 * delta_f, "maxiter": maxiter},
    )
    if not res.success:
        return RefinedFrequency(f_hat=float(f_seed), converged=False)
    return RefinedFrequency(f_hat=float(res.x), converged=True)


def estimate_phase(
    stream_c: TimestampStream, stream_a: TimestampStream, ratio: float, f_hat: float
) -> float:
    """Phase of the combined untapered projection at f_hat, in (-pi, pi]."""
    y = project_timestamps(stream_c, f_hat, "rectangular") - ratio * project_timestamps(
        stream_a, f_hat, "rectangular"
    )
    if y == 0:
        raise AnalysisError("zero combined projection, phase undefined")
    return float(np.angle(y))


def estimate_amplitudes(stream: TimestampStream, f_hat: float, theta_hat: float) -> tuple[float, float]:
    """Mean flux a0 and signed modulation amplitude a_hat of one stream.

    a0 = N / t_exp; a_hat = (2 / t_exp) sum_i cos(2 pi f_hat t_i' + theta_hat).
    The sign of a_hat carries the stream's modulation polarity relative
    to the combined phase estimate.
    """
    t = stream.centered_times()
    a0 = t.size / stream.t_exp
    a_hat = 2.0 * float(np.sum(np.cos(2.0 * math.pi * f_hat * t + theta_hat))) / stream.t_exp
    return a0, a_hat


def calibrate_ratio(
    stream_c: TimestampStream, stream_a: TimestampStream, known_p: float
) -> float:
    """Infer rate_c / rate_a from a calibration run at known probability.

    With the fringe held at a known coincidence probability p, the count
    ratio N_C / N_A estimates ratio * p / (1 - p).
    """
    if not 0 < known_p < 1:
        raise ConfigError("known_p must lie in (0, 1)")
    if len(stream_a) == 0:
        raise AnalysisError("calibration needs a non-empty anti-coincidence stream")
    return (len(stream_c) * (1.0 - known_p)) / (len(stream_a) * known_p)


# ----- reconstruction -----


@dataclass(frozen=True)
class ComponentEstimate:
    f_hat: float
    theta_hat: float
    a_hat_c: float
    a_hat_a: float
    refined: bool = True


@dataclass(frozen=True, eq=False)
class ReconstructedSignal:
    """Delay and displacement waveform rebuilt from component estimates.

    ``v0`` is the fringe contrast used in the inversion: the pair
    visibility in quantum mode, the reference-fringe visibility in
    classical mode. Clamp fractions record how often the flux traces or
    the inverse-cosine argument had to be clipped into range; they stay
    well below 1% in sane operating regimes.
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
    displacement_pp: float
    flux_clamp_fraction: float
    arccos_clamp_fraction: float

    def displacement_trace(self) -> np.ndarray:
        """Mean-removed displacement in metres at the trace sampling."""
        tau = self.tau_trace
        return SPEED_OF_LIGHT * (tau - tau.mean()) / self.geometry_g

    def trace_times(self) -> np.ndarray:
        return np.arange(self.tau_trace.size) * self.trace_dt

    def to_json(self, path: str | Path | None = None, max_trace_points: int = 4096):
        stride = max(1, -(-self.tau_trace.size // max_trace_points))
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
            "components": [
                {
                    "f_hat": c.f_hat,
                    "theta_hat": c.theta_hat,
                    "a_hat_c": c.a_hat_c,
                    "a_hat_a": c.a_hat_a,
                    "refined": c.refined,
                }
                for c in self.components
            ],
            "trace": {
                "dt": self.trace_dt * stride,
                "stride": stride,
                "tau": [float(v) for v in self.tau_trace[::stride]],
            },
        }
        if path is not None:
            Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return doc


def _flux_traces(
    components: tuple[ComponentEstimate, ...],
    a0_c: float,
    a0_a: float,
    t_exp: float,
    points_per_period: int,
):
    f_top = max(c.f_hat for c in components)
    n = _trace_samples(f_top, t_exp, points_per_period)
    t_centered = np.linspace(0.0, t_exp, n, endpoint=False) - t_exp / 2.0
    phi_c = np.full(n, a0_c)
    phi_a = np.full(n, a0_a)
    for c in components:
        osc = np.cos(2.0 * math.pi * c.f_hat * t_centered + c.theta_hat)
        phi_c += c.a_hat_c * osc
        phi_a += c.a_hat_a * osc
    clamped = int(np.count_nonzero(phi_c < 0)) + int(np.count_nonzero(phi_a < 0))
    np.clip(phi_c, 0.0, None, out=phi_c)
    np.clip(phi_a, 0.0, None, out=phi_a)
    return phi_c, phi_a, clamped / (2.0 * n), t_exp / n


def _common_checks(components, ratio: float, v0: float) -> tuple[ComponentEstimate, ...]:
    components = tuple(components)
    if not components:
        raise ValueError("reconstruction needs at least one component")
    if not ratio > 0:
        raise ConfigError("ratio must be positive")
    if not 0 < v0 <= 1:
        raise ConfigError("fringe contrast must lie in (0, 1]")
    return components


def _probability_trace(phi_c, phi_a, ratio):
    denom = phi_c + ratio * phi_a
    if np.any(denom == 0.0):
        raise AnalysisError("reconstructed fluxes vanish somewhere; probability undefined")
    return phi_c / denom


def reconstruct(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    ratio: float,
    v0: float,
    pair: PhotonPairSpec,
    geometry: GeometryFactor,
    components,
    points_per_period: int = 100,
) -> ReconstructedSignal:
    """Invert the quantum fringe for the delay waveform.

    tau_hat(t) = arccos((1 - 2 P_hat(t)) / v0) / delta_omega, with the
    inverse-cosine argument clipped into [-1, 1] and the clipping rate
    reported. The Gaussian fringe envelope is ignored here; at operating
    delays near quadrature it rescales the fringe by under 1e-3.
    """
    components = _common_checks(components, ratio, v0)
    _check_compatible(stream_c, stream_a)
    t_exp = stream_c.t_exp
    a0_c = len(stream_c) / t_exp
    a0_a = len(stream_a) / t_exp
    if a0_c + a0_a == 0:
        raise AnalysisError("both streams empty, nothing to reconstruct")
    phi_c, phi_a, flux_clamped, dt = _flux_traces(
        components, a0_c, a0_a, t_exp, points_per_period
    )
    p_hat = _probability_trace(phi_c, phi_a, ratio)
    u = (1.0 - 2.0 * p_hat) / v0
    n_clip = int(np.count_nonzero(np.abs(u) > 1.0))
    np.clip(u, -1.0, 1.0, out=u)
    tau = np.arccos(u) / pair.delta_omega
    x = SPEED_OF_LIGHT * (tau - tau.mean()) / geometry.g
    return ReconstructedSignal(
        mode="quantum",
        components=components,
        a0_c=a0_c,
        a0_a=a0_a,
        ratio=ratio,
        v0=v0,
        geometry_g=geometry.g,
        t_exp=t_exp,
        tau_trace=tau,
        trace_dt=dt,
        displacement_pp=float(x.max() - x.min()),
        flux_clamp_fraction=flux_clamped,
        arccos_clamp_fraction=n_clip / u.size,
    )


def classical_reconstruct(
    stream_1: TimestampStream,
    stream_2: TimestampStream,
    ratio: float,
    fringe_ref: ClassicalFringeSpec,
    geometry: GeometryFactor,
    components,
    points_per_period: int = 100,
) -> ReconstructedSignal:
    """Invert the classical fringe using a reference fringe model.

    The reference carries the visibility and phase offset assumed by the
    analyst (typically those of the clean instrument); if the channel
    has drifted from the reference, the inversion inherits the mismatch.
    """
    v_ref = fringe_ref.visibility
    components = _common_checks(components, ratio, v_ref)
    _check_compatible(stream_1, stream_2)
    t_exp = stream_1.t_exp
    a0_1 = len(stream_1) / t_exp
    a0_2 = len(stream_2) / t_exp
    if a0_1 + a0_2 == 0:
        raise AnalysisError("both streams empty, nothing to reconstruct")
    phi_1, phi_2, flux_clamped, dt = _flux_traces(
        components, a0_1, a0_2, t_exp, points_per_period
    )
    p_hat = _probability_trace(phi_1, phi_2, ratio)
    u = (2.0 * p_hat - 1.0) / v_ref
    n_clip = int(np.count_nonzero(np.abs(u) > 1.0))
    np.clip(u, -1.0, 1.0, out=u)
    tau = (np.arccos(u) - fringe_ref.phase_offset) / fringe_ref.omega_optical
    x = SPEED_OF_LIGHT * (tau - tau.mean()) / geometry.g
    return ReconstructedSignal(
        mode="classical",
        components=components,
        a0_c=a0_1,
        a0_a=a0_2,
        ratio=ratio,
        v0=v_ref,
        geometry_g=geometry.g,
        t_exp=t_exp,
        tau_trace=tau,
        trace_dt=dt,
        displacement_pp=float(x.max() - x.min()),
        flux_clamp_fraction=flux_clamped,
        arccos_clamp_fraction=n_clip / u.size,
    )


# ----- end-to-end drivers -----


@dataclass(frozen=True)
class AnalysisOptions:
    p_fa: float = 1e-3
    f_max: float = 50e3
    window: str = "hann"
    refine: bool = True
    points_per_period: int = 100

    def __post_init__(self) -> None:
        if self.window not in _WINDOWS:
            raise ConfigError(f"unknown window {self.window!r}")


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
    options: AnalysisOptions,
) -> tuple[ComponentEstimate, ...]:
    df = grid_spacing(stream_c.t_exp)
    estimates: list[ComponentEstimate] = []
    for f_seed in spectrum.detected:
        refined = False
        f_hat = f_seed
        if options.refine:
            try:
                r = refine_frequency(stream_c, stream_a, ratio, f_seed, df)
                f_hat, refined = r.f_hat, r.converged
            except AnalysisError:
                pass  # seed too close to DC, keep it unrefined
        theta = estimate_phase(stream_c, stream_a, ratio, f_hat)
        _, a_c = estimate_amplitudes(stream_c, f_hat, theta)
        _, a_a = estimate_amplitudes(stream_a, f_hat, theta)
        estimates.append(ComponentEstimate(f_hat, theta, a_c, a_a, refined))
    # Two seeds occasionally refine onto the same line; keep the stronger.
    estimates.sort(key=lambda c: c.f_hat)
    deduped: list[ComponentEstimate] = []
    for est in estimates:
        if deduped and abs(est.f_hat - deduped[-1].f_hat) < 0.25 * df:
            if abs(est.a_hat_c) + abs(est.a_hat_a) > abs(deduped[-1].a_hat_c) + abs(
                deduped[-1].a_hat_a
            ):
                deduped[-1] = est
        else:
            deduped.append(est)
    return tuple(deduped)


def quantum_pipeline(
    stream_c: TimestampStream,
    stream_a: TimestampStream,
    *,
    pair: PhotonPairSpec,
    geometry: GeometryFactor,
    ratio: float = 1.0,
    v0: float | None = None,
    options: AnalysisOptions = AnalysisOptions(),
) -> PipelineResult:
    """Scan, refine, and reconstruct an entangled-channel exposure."""
    if v0 is None:
        v0 = pair.visibility_v0
    spectrum = scan_spectrum(
        stream_c, stream_a, ratio, options.p_fa, options.f_max, options.window
    )
    comps = _estimate_components(stream_c, stream_a, ratio, spectrum, options)
    if not comps:
        return PipelineResult(spectrum=spectrum, reconstruction=None)
    recon = reconstruct(
        stream_c, stream_a, ratio, v0, pair, geometry, comps, options.points_per_period
    )
    return PipelineResult(spectrum=spectrum, reconstruction=recon)


def classical_pipeline(
    stream_1: TimestampStream,
    stream_2: TimestampStream,
    *,
    fringe_ref: ClassicalFringeSpec,
    geometry: GeometryFactor,
    ratio: float = 1.0,
    options: AnalysisOptions = AnalysisOptions(),
) -> PipelineResult:
    """Identical pipeline on the two singles streams of the classical channel."""
    spectrum = scan_spectrum(
        stream_1, stream_2, ratio, options.p_fa, options.f_max, options.window
    )
    comps = _estimate_components(stream_1, stream_2, ratio, spectrum, options)
    if not comps:
        return PipelineResult(spectrum=spectrum, reconstruction=None)
    recon = classical_reconstruct(
        stream_1, stream_2, ratio, fringe_ref, geometry, comps, options.points_per_period
    )
    return PipelineResult(spectrum=spectrum, reconstruction=recon)
