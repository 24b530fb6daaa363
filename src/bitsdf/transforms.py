"""Small SE(3) helpers on 4x4 homogeneous matrices."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError

if TYPE_CHECKING:
    from scipy.spatial.transform import Rotation


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
