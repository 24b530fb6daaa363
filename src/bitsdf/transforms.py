"""Small SE(3) helpers on 4x4 homogeneous matrices."""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import ConfigurationError


def make_pose(rotation: Rotation, translation) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = rotation.as_matrix()
    T[:3, 3] = np.asarray(translation, dtype=np.float64)
    return T


def check_rotation(T: np.ndarray, tol: float = 1e-9) -> None:
    """Reject non-rigid transforms: rotation block must be orthonormal with
    determinant +1."""
    R = T[:3, :3]
    if not np.allclose(R @ R.T, np.eye(3), atol=tol):
        raise ConfigurationError("pose rotation is not orthonormal")
    if not np.isclose(np.linalg.det(R), 1.0, atol=tol):
        raise ConfigurationError("pose rotation has determinant != +1")


def yaw_of(T: np.ndarray) -> float:
    """Heading angle (rotation about +z) of the pose, ZYX convention."""
    return Rotation.from_matrix(T[:3, :3]).as_euler("zyx")[0]


def interpolate_pose_yaw(T0: np.ndarray, T1: np.ndarray, t: float) -> np.ndarray:
    """Yaw-only interpolation: translation lerp plus heading-angle lerp along
    the shortest arc; the end pose's roll/pitch is held fixed."""
    y0, y1 = yaw_of(T0), yaw_of(T1)
    dy = (y1 - y0 + np.pi) % (2 * np.pi) - np.pi
    yaw = y0 + t * dy
    tilt = Rotation.from_euler("z", -y1) * Rotation.from_matrix(T1[:3, :3])
    rot = Rotation.from_euler("z", yaw) * tilt
    trans = (1.0 - t) * T0[:3, 3] + t * T1[:3, 3]
    return make_pose(rot, trans)
