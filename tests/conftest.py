"""Shared fixtures and independent numerical oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from camline import DistortionCoefficients, Intrinsics, SceneConstraints


@pytest.fixture
def default_k() -> Intrinsics:
    return Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)


@pytest.fixture
def zero_d() -> DistortionCoefficients:
    return DistortionCoefficients()


@pytest.fixture
def mild_d() -> DistortionCoefficients:
    return DistortionCoefficients(k1=-1e-8, p1=1e-9, p2=-1e-9)


@pytest.fixture
def sc() -> SceneConstraints:
    return SceneConstraints(c0=2.0, z0=3.0)


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Independent rotation oracle: Rodrigues formula, active right-handed."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    kx, ky, kz = a
    kmat = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * kmat + (1.0 - math.cos(angle)) * (kmat @ kmat)


def rotation_x(theta: float) -> np.ndarray:
    """Pitch factor of ``rotation_xz``: about the lateral (x) axis, camera-to-world."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def rotation_z(lam: float) -> np.ndarray:
    """Roll factor of ``rotation_xz``: about the optical (z) axis, camera-to-world."""
    c, s = math.cos(lam), math.sin(lam)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def line_angle_distance(a: float, b: float) -> float:
    """Distance between two undirected line angles (mod pi)."""
    diff = abs(a - b) % math.pi
    return min(diff, math.pi - diff)
