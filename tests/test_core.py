import dataclasses
import math

import numpy as np
import pytest

from qvibe.core import (
    ClassicalFringeSpec,
    GeometryFactor,
    PhotonPairSpec,
    SPEED_OF_LIGHT,
    fringe_probability,
    quadrature_delay,
)
from qvibe.errors import ConfigError

DETUNING = 2 * math.pi * 177e12


def test_quadrature_delay_and_fringe_period():
    pair = PhotonPairSpec(delta_omega=DETUNING)
    tau_op = quadrature_delay(pair)
    assert tau_op == pytest.approx(1.4124293785310734e-15, rel=1e-12)
    # full fringe period is 4x the quadrature delay
    assert 2 * math.pi / pair.delta_omega == pytest.approx(4 * tau_op, rel=1e-12)


def test_probability_at_quadrature_is_half():
    pair = PhotonPairSpec(delta_omega=DETUNING, visibility_v0=0.93)
    p = fringe_probability(pair, quadrature_delay(pair))
    assert abs(p - 0.5) < 1e-12


def test_probability_extremes_at_zero_delay():
    pair = PhotonPairSpec(delta_omega=DETUNING, visibility_v0=1.0, sigma=0.0)
    assert fringe_probability(pair, 0.0) == pytest.approx(0.0, abs=1e-15)
    half_period = math.pi / pair.delta_omega
    assert fringe_probability(pair, half_period) == pytest.approx(1.0, abs=1e-12)


def test_envelope_bounds_fringe_contrast():
    pair = PhotonPairSpec(delta_omega=DETUNING, visibility_v0=0.9)
    rng = np.random.default_rng(3)
    tau = rng.uniform(-5e-13, 5e-13, 200)
    p = fringe_probability(pair, tau)
    envelope = 0.5 * 0.9 * np.exp(-2.0 * (pair.sigma * tau) ** 2)
    assert np.all(np.abs(p - 0.5) <= envelope + 1e-15)
    assert np.all((p >= 0) & (p <= 1))


def test_envelope_nearly_flat_at_operating_point():
    # At the quadrature delay the Gaussian envelope term is within 4e-5
    # of unity, which is why the waveform inversion can ignore it.
    pair = PhotonPairSpec(delta_omega=DETUNING)
    tau_op = quadrature_delay(pair)
    assert math.exp(-2.0 * (pair.sigma * tau_op) ** 2) == pytest.approx(1.0, abs=4e-5)


def test_classical_visibility_value():
    fringe = ClassicalFringeSpec(omega_optical=1.2e15, arm_intensity_ratio=0.13)
    assert fringe.visibility == pytest.approx(0.638, abs=1e-3)
    balanced = ClassicalFringeSpec(omega_optical=1.2e15, arm_intensity_ratio=1.0)
    assert balanced.visibility == pytest.approx(1.0, rel=1e-12)


def test_classical_ports_sum_to_one():
    # Port 1 is the fringe's first stream, (1 + V cos(omega tau + phi)) / 2 with
    # no envelope; port 2 is its complement, so the two sum to one at any delay.
    fringe = ClassicalFringeSpec(
        omega_optical=2 * math.pi * SPEED_OF_LIGHT / 1550e-9,
        arm_intensity_ratio=0.4,
        phase_offset=-math.pi / 2,
    )
    tau = np.linspace(-2e-15, 2e-15, 101)
    p1 = fringe_probability(fringe, tau)
    p2 = 1.0 - p1
    closed = 0.5 * (1.0 + fringe.visibility * np.cos(fringe.omega_optical * tau - math.pi / 2))
    assert np.allclose(p1, closed, rtol=0, atol=1e-15)
    assert np.all((p1 >= 0) & (p1 <= 1) & (p2 >= 0) & (p2 <= 1))
    assert p1.max() - p1.min() == pytest.approx(fringe.visibility, rel=1e-3)


def test_classical_fringe_has_no_envelope():
    # sigma is a class value of the classical spec, like its polarity, not a field.
    fringe = ClassicalFringeSpec(omega_optical=1.2e15)
    assert fringe.sigma == 0.0
    assert "sigma" not in {f.name for f in dataclasses.fields(fringe)}
    with pytest.raises(TypeError):
        ClassicalFringeSpec(omega_optical=1.2e15, sigma=1.0)
    period = 2 * math.pi / fringe.omega
    assert fringe_probability(fringe, 1e6 * period) == pytest.approx(1.0, abs=1e-6)


def test_pair_spec_validation():
    with pytest.raises(ConfigError):
        PhotonPairSpec(delta_omega=0.0)
    with pytest.raises(ConfigError):
        PhotonPairSpec(delta_omega=DETUNING, sigma=-1.0)
    with pytest.raises(ConfigError):
        PhotonPairSpec(delta_omega=DETUNING, visibility_v0=0.0)
    with pytest.raises(ConfigError):
        PhotonPairSpec(delta_omega=DETUNING, visibility_v0=1.2)


def test_classical_fringe_validation():
    with pytest.raises(ConfigError):
        ClassicalFringeSpec(omega_optical=0.0)
    with pytest.raises(ConfigError):
        ClassicalFringeSpec(omega_optical=1.2e15, arm_intensity_ratio=1.5)


def test_geometry_factor_validation():
    assert GeometryFactor(1).g == 1
    assert GeometryFactor(2).g == 2
    with pytest.raises(ConfigError):
        GeometryFactor(3)
    with pytest.raises(ConfigError):
        GeometryFactor(0)
