"""Interferometer fringe models and the delay/displacement convention.

Two detection models share a common geometry: a relative optical delay
``tau`` between two interferometer arms maps to a detection probability
through a fringe. The quantum fringe applies to coincidence detection of
energy-entangled photon pairs behind a beamsplitter; its period is set by
the pair's internal detuning rather than an optical carrier. The classical
fringe is ordinary single-photon (or intensity) interference with period
set by the optical frequency.

Both specs expose one fringe law through the read-only values ``mode``,
``polarity``, ``phase_offset``, ``contrast``, ``omega`` and ``sigma``:
P(tau) = (1 + polarity * contrast * cos(omega * tau + phase_offset)
* exp(-2 sigma^2 tau^2)) / 2 for the first stream and 1 - P for the
second. One function, ``fringe_probability``, implements it for both
specs, and the estimator inverts it with the envelope taken as one.
``stream_tags`` names the two streams of the channel, in the order the
simulator writes and the estimator reads them.

Conventions used throughout the package:

* delays ``tau`` are in seconds, displacements in metres,
  angular frequencies in rad/s,
* a reflective geometry factor ``g`` converts mirror displacement ``x``
  into delay via ``tau = g * x / c`` (g=2 for retro-reflection),
* probabilities are exact fringe values, never clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError

# Exact SI definition.
SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class PhotonPairSpec:
    """Source parameters of an energy-entangled photon pair.

    Attributes
    ----------
    delta_omega : float
        Angular detuning between the two photon colours, rad/s.
    sigma : float
        Angular width of the Gaussian detuning spread, rad/s. Controls
        the Gaussian envelope of the coincidence fringe.
    visibility_v0 : float
        Baseline fringe visibility in (0, 1].

    As a fringe the coincidence channel falls with the cosine of
    delta_omega * tau at contrast visibility_v0.
    """

    mode: ClassVar[str] = "quantum"
    stream_tags: ClassVar[tuple[str, str]] = ("coincidence", "anticoincidence")
    polarity: ClassVar[float] = -1.0
    phase_offset: ClassVar[float] = 0.0

    delta_omega: float
    sigma: float = 2 * math.pi * 0.5e12
    visibility_v0: float = 1.0

    @property
    def contrast(self) -> float:
        return self.visibility_v0

    @property
    def omega(self) -> float:
        return self.delta_omega

    def __post_init__(self) -> None:
        if not self.delta_omega > 0:
            raise ConfigError("delta_omega must be positive")
        if self.sigma < 0:
            raise ConfigError("sigma must be non-negative")
        if not 0 < self.visibility_v0 <= 1:
            raise ConfigError("visibility_v0 must lie in (0, 1]")


@dataclass(frozen=True)
class ClassicalFringeSpec:
    """Single-photon interference fringe of a classical reference channel.

    ``arm_intensity_ratio`` is the intensity ratio r of arm b to arm a in
    [0, 1]; an excess loss L on arm b corresponds to r = 1 - L. The fringe
    visibility follows as 2 sqrt(r) / (1 + r). As a fringe, port 1 rises
    with the cosine of omega_optical * tau + phase_offset at contrast
    ``visibility``, with no envelope (``sigma`` is 0).
    """

    mode: ClassVar[str] = "classical"
    stream_tags: ClassVar[tuple[str, str]] = ("singles1", "singles2")
    polarity: ClassVar[float] = 1.0
    sigma: ClassVar[float] = 0.0

    omega_optical: float
    arm_intensity_ratio: float = 1.0
    phase_offset: float = 0.0

    def __post_init__(self) -> None:
        if not self.omega_optical > 0:
            raise ConfigError("omega_optical must be positive")
        if not 0 <= self.arm_intensity_ratio <= 1:
            raise ConfigError("arm_intensity_ratio must lie in [0, 1]")

    @property
    def visibility(self) -> float:
        r = self.arm_intensity_ratio
        return 2.0 * math.sqrt(r) / (1.0 + r)

    @property
    def contrast(self) -> float:
        return self.visibility

    @property
    def omega(self) -> float:
        return self.omega_optical


@dataclass(frozen=True)
class GeometryFactor:
    """Delay-per-displacement multiplicity. g=1 transmissive, g=2 retro-reflective."""

    g: int = 2

    def __post_init__(self) -> None:
        if self.g not in (1, 2):
            raise ConfigError(f"geometry factor must be 1 or 2, got {self.g!r}")


def fringe_probability(fringe: PhotonPairSpec | ClassicalFringeSpec, tau):
    """Probability of the first stream of either fringe at relative delay tau.

    P(tau) = (1/2) * (1 + polarity * contrast * cos(omega * tau + phase_offset)
    * exp(-2 sigma^2 tau^2)), the envelope applied only where sigma is not
    zero. The second stream's probability is 1 - P. Accepts a scalar or
    ndarray delay; returns the same shape. The value is an exact
    probability in [0, 1], never clipped.
    """
    tau = np.asarray(tau, dtype=float)
    # The expression above, step by step in place; a 0-d tau gets 0-d
    # buffers, since a ufunc cannot write into a numpy scalar.
    p = np.multiply(fringe.omega, tau, out=np.empty_like(tau))
    p += fringe.phase_offset
    np.cos(p, out=p)
    np.multiply(fringe.contrast, p, out=p)
    if fringe.sigma:
        envelope = np.multiply(fringe.sigma, tau, out=np.empty_like(tau))
        np.square(envelope, out=envelope)
        np.multiply(-2.0, envelope, out=envelope)
        np.exp(envelope, out=envelope)
        p *= envelope
    if fringe.polarity > 0:
        np.add(1.0, p, out=p)
    else:
        np.subtract(1.0, p, out=p)
    p *= 0.5
    return p if p.ndim else float(p)


def quadrature_delay(spec: PhotonPairSpec) -> float:
    """Delay at the half-fringe (maximum slope) point of the quantum fringe."""
    return math.pi / (2.0 * spec.delta_omega)
