"""Reconstruction quality metrics against a ground-truth point set.

Accuracy is the mean nearest-neighbor distance from predicted points to the
ground truth, completeness the reverse direction, Chamfer-L1 their average.
Recall/precision/F-score are thresholded at a tolerance in meters and
reported in percent.

The predicted points are sampled from the mesh by ``sample_mesh``. Its draw
is defined here, not by a numpy call: one ``rng.random(n)`` uniform per
sample, looked up in the normalized cdf of ``areas / total``, which is what
numpy 2.x ``Generator.choice(p=...)`` does. Areas, the draw and the
barycentric blend work on 1-D coordinate columns, with the operations of
the row-wise ``np.cross``, ``np.linalg.norm`` and blend, so the points are
the same bits.

The nearest-neighbor distances are exact, the bits that scipy's
``cKDTree.query`` returns, so a report is byte-identical with or without
the compiled library. ``nn_distances`` asks the library's
``bitsdf_nearest``, which answers every query: from the cells of a
uniform grid over the targets within two cells of the query, and beyond
them from blocks of those cells, each with the tight box of its targets.
Only where the library is unavailable, cannot allocate its scratch or
finds the targets' extent overflowing does a ``cKDTree`` answer, so scipy
is imported only then.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _native
from .errors import ConfigurationError, EvaluationError
from .mesher import _AREA_BLOCK, TriangleMesh, face_cross


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


def check_sampling(n: int, seed: int) -> None:
    """ConfigurationError unless ``sample_mesh`` can draw n points with seed."""
    if n < 0:
        raise ConfigurationError(f"sample count must be >= 0, got {n}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")


def check_threshold(threshold: float) -> None:
    """ConfigurationError unless ``evaluate`` can score at ``threshold``."""
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ConfigurationError(f"threshold must be finite and >= 0, got {threshold}")


def sample_mesh(mesh: TriangleMesh, n: int, seed: int = 0) -> np.ndarray:
    """Draw n points area-uniformly over the mesh surface, reproducibly.

    A sample's triangle is drawn by one uniform of ``rng.random(n)``,
    looked up in the normalized cdf of ``areas / total`` (what numpy 2.x
    ``Generator.choice(p=...)`` does); two more uniforms place it in the
    triangle."""
    check_sampling(n, seed)
    if n == 0:
        return np.zeros((0, 3))
    if mesh.is_empty or mesh.triangles.shape[0] == 0:
        raise EvaluationError("cannot sample points from an empty mesh")
    vt = np.ascontiguousarray(mesh.vertices.T)
    f = mesh.triangles
    # Each triangle's area is computed alone, so computing them a block at a
    # time gives the same bits with block-sized temporaries. A total that
    # overflows is refused below, so its warnings are not shown.
    areas = np.empty(f.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for at in range(0, f.shape[0], _AREA_BLOCK):
            x, y, z = face_cross(vt, f[at : at + _AREA_BLOCK])
            areas[at : at + _AREA_BLOCK] = 0.5 * np.sqrt(x * x + y * y + z * z)
        total = areas.sum()
    if not 0.0 < total < math.inf:
        raise EvaluationError(
            f"mesh total surface area must be finite and > 0, got {total}")
    rng = np.random.default_rng(seed)
    tri = _choice(rng, areas / total, n)
    # Uniform barycentric sampling via the sqrt trick, a block of samples
    # and one coordinate at a time.
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    out = np.empty((n, 3))
    for at in range(0, n, _AREA_BLOCK):
        s = slice(at, at + _AREA_BLOCK)
        a, b = r1[s], r2[s]
        w0, w1, w2 = 1.0 - a, a * (1.0 - b), a * b
        t = tri[s]
        i0, i1, i2 = f[t, 0], f[t, 1], f[t, 2]
        for k, col in enumerate(vt):
            out[s, k] = w0 * col[i0] + w1 * col[i1] + w2 * col[i2]
    return out


def _choice(rng: np.random.Generator, p: np.ndarray, n: int) -> np.ndarray:
    """The indices that ``rng.choice(p.size, size=n, p=p)`` draws in numpy
    2.x: one uniform of ``rng.random(n)`` per sample, looked up in the
    normalized cdf of p. The lookups are made in sorted order, where each
    starts near where the last one ended."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    u = rng.random(n)
    order = np.argsort(u)
    idx = np.empty(n, np.int64)
    idx[order] = cdf.searchsorted(u[order], side="right")
    return idx


def nn_distances(from_pts: np.ndarray, to_pts: np.ndarray) -> np.ndarray:
    """Exact Euclidean nearest-neighbor distance per query point: the bits
    that ``cKDTree.query`` returns. The compiled library's cell search
    answers every query; a ``cKDTree`` is built only where the library is
    unavailable or its search returns none.

    Raises EvaluationError for an empty target set or a non-finite point."""
    to_pts = np.ascontiguousarray(to_pts, dtype=np.float64).reshape(-1, 3)
    from_pts = np.ascontiguousarray(from_pts, dtype=np.float64).reshape(-1, 3)
    if to_pts.shape[0] == 0:
        raise EvaluationError("nearest-neighbor target set is empty")
    if not (np.isfinite(to_pts).all() and np.isfinite(from_pts).all()):
        raise EvaluationError("nearest-neighbor points must be finite")
    if from_pts.shape[0] == 0:
        return np.zeros(0)
    lib = _native.library()
    if lib is not None:
        # Squared distances. The search computes none, and returns nonzero,
        # where it cannot allocate its scratch or the targets' box overflows.
        dist = np.empty(from_pts.shape[0])
        if not lib.nearest(to_pts.ctypes.data, to_pts.shape[0], from_pts.ctypes.data,
                           from_pts.shape[0], dist.ctypes.data):
            return np.sqrt(dist, out=dist)
    from scipy.spatial import cKDTree

    # Sliding-midpoint splits (Maneewongvatana & Mount 1999) keep queries
    # that land in holes of a sampled surface fast.
    tree = cKDTree(to_pts, balanced_tree=False, compact_nodes=False)
    return tree.query(from_pts, k=1)[0]


def evaluate(pred: np.ndarray, gt: np.ndarray, threshold: float) -> MetricsReport:
    """Full report for predicted vs ground-truth point sets."""
    check_threshold(threshold)
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
