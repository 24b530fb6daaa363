"""Reconstruction quality metrics against a ground-truth point set.

Accuracy is the mean nearest-neighbor distance from predicted points to the
ground truth, completeness the reverse direction, Chamfer-L1 their average.
Recall/precision/F-score are thresholded at a tolerance in meters and
reported in percent.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigurationError, EvaluationError
from .mesher import TriangleMesh


# sample_mesh computes triangle areas this many triangles at a time.
_AREA_BLOCK = 1 << 14


@dataclass
class MetricsReport:
    accuracy_m: float
    completeness_m: float
    chamfer_l1_m: float
    recall_pct: float
    precision_pct: float
    fscore_pct: float
    threshold_m: float
    n_pred: int
    n_gt: int

    def to_json(self, **extra) -> str:
        d = asdict(self)
        d.update(extra)
        return json.dumps(d, indent=2, sort_keys=True)


def sample_mesh(mesh: TriangleMesh, n: int, seed: int = 0) -> np.ndarray:
    """Draw n points area-uniformly over the mesh surface, reproducibly."""
    if n < 0:
        raise ConfigurationError(f"sample count must be >= 0, got {n}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if n == 0:
        return np.zeros((0, 3))
    if mesh.is_empty or mesh.triangles.shape[0] == 0:
        raise EvaluationError("cannot sample points from an empty mesh")
    v = mesh.vertices
    f = mesh.triangles
    # Each triangle's area is computed alone, so computing them a block at a
    # time gives the same bits with block-sized temporaries.
    areas = np.empty(f.shape[0])
    for at in range(0, f.shape[0], _AREA_BLOCK):
        t = f[at : at + _AREA_BLOCK]
        a = v[t[:, 0]]
        areas[at : at + _AREA_BLOCK] = 0.5 * np.linalg.norm(
            np.cross(v[t[:, 1]] - a, v[t[:, 2]] - a), axis=1)
    total = areas.sum()
    if total <= 0.0:
        raise EvaluationError("mesh has zero total surface area")
    rng = np.random.default_rng(seed)
    tri = rng.choice(f.shape[0], size=n, p=areas / total)
    # Uniform barycentric sampling via the sqrt trick.
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    a, b, c = v[f[tri, 0]], v[f[tri, 1]], v[f[tri, 2]]
    return (1.0 - r1)[:, None] * a + (r1 * (1.0 - r2))[:, None] * b + (
        r1 * r2
    )[:, None] * c


def nn_distances(from_pts: np.ndarray, to_pts: np.ndarray) -> np.ndarray:
    """Exact Euclidean nearest-neighbor distance per query point."""
    to_pts = np.asarray(to_pts, dtype=np.float64).reshape(-1, 3)
    from_pts = np.asarray(from_pts, dtype=np.float64).reshape(-1, 3)
    if to_pts.shape[0] == 0:
        raise EvaluationError("nearest-neighbor target set is empty")
    if from_pts.shape[0] == 0:
        return np.zeros(0)
    # Sliding-midpoint splits (Maneewongvatana & Mount 1999) keep queries
    # that land in holes of a sampled surface fast; the distances are exact.
    tree = cKDTree(to_pts, balanced_tree=False, compact_nodes=False)
    dist, _ = tree.query(from_pts, k=1)
    return dist


def evaluate(pred: np.ndarray, gt: np.ndarray, threshold: float) -> MetricsReport:
    """Full report for predicted vs ground-truth point sets."""
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ConfigurationError(f"threshold must be finite and >= 0, got {threshold}")
    pred = np.asarray(pred, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    if pred.shape[0] == 0 or gt.shape[0] == 0:
        raise EvaluationError("evaluate() needs nonempty point sets")
    d_pred = nn_distances(pred, gt)
    d_gt = nn_distances(gt, pred)
    accuracy = float(np.mean(d_pred))
    completeness = float(np.mean(d_gt))
    recall = 100.0 * float(np.mean(d_gt <= threshold))
    precision = 100.0 * float(np.mean(d_pred <= threshold))
    fscore = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    return MetricsReport(
        accuracy_m=accuracy,
        completeness_m=completeness,
        chamfer_l1_m=(accuracy + completeness) / 2.0,
        recall_pct=recall,
        precision_pct=precision,
        fscore_pct=fscore,
        threshold_m=float(threshold),
        n_pred=pred.shape[0],
        n_gt=gt.shape[0],
    )
