import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from bitsdf.errors import EvaluationError
from bitsdf.mesher import TriangleMesh
from bitsdf.metrics import evaluate, nn_distances, sample_mesh


def brute_force_nn(from_pts, to_pts):
    return np.array(
        [np.min(np.linalg.norm(to_pts - p, axis=1)) for p in from_pts]
    )


def unit_square_mesh():
    return TriangleMesh(
        vertices=np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
        triangles=np.array([[0, 1, 2], [0, 2, 3]]),
    )


class TestSampleMesh:
    def test_area_uniform(self):
        pts = sample_mesh(unit_square_mesh(), 100_000, seed=1)
        # triangle 1 covers x > y; counts within 3 sigma of a fair split
        n1 = int(np.count_nonzero(pts[:, 0] > pts[:, 1]))
        sigma = np.sqrt(100_000 * 0.25)
        assert abs(n1 - 50_000) < 3 * sigma
        assert np.all((pts >= 0) & (pts <= 1))
        assert np.allclose(pts[:, 2], 0.0)

    def test_n_zero(self):
        assert sample_mesh(unit_square_mesh(), 0).shape == (0, 3)

    def test_seed_determinism(self):
        a = sample_mesh(unit_square_mesh(), 1000, seed=9)
        b = sample_mesh(unit_square_mesh(), 1000, seed=9)
        assert np.array_equal(a, b)

    def test_blocked_areas_match_whole_mesh(self):
        # More triangles than one area block: the samples equal those drawn
        # with every area computed in one pass.
        rng = np.random.default_rng(4)
        v = rng.normal(size=(3000, 3))
        f = rng.integers(0, 3000, size=(40_000, 3))
        areas = 0.5 * np.linalg.norm(
            np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]), axis=1)
        gen = np.random.default_rng(3)
        tri = gen.choice(f.shape[0], size=5000, p=areas / areas.sum())
        r1, r2 = np.sqrt(gen.random(5000)), gen.random(5000)
        want = ((1.0 - r1)[:, None] * v[f[tri, 0]] + (r1 * (1.0 - r2))[:, None]
                * v[f[tri, 1]] + (r1 * r2)[:, None] * v[f[tri, 2]])
        got = sample_mesh(TriangleMesh(vertices=v, triangles=f), 5000, seed=3)
        assert np.array_equal(got, want)

    def test_empty_mesh_rejected(self):
        empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(EvaluationError):
            sample_mesh(empty, 10)


class TestNNDistances:
    def test_identical_sets(self):
        pts = np.random.default_rng(0).normal(size=(50, 3))
        assert np.allclose(nn_distances(pts, pts), 0.0)

    def test_direct_minimum(self):
        d = nn_distances(np.array([[0.0, 0, 0]]),
                         np.array([[1.0, 0, 0], [0, 2.0, 0]]))
        assert np.allclose(d, [1.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(500, 3))
        b = rng.normal(size=(500, 3))
        assert np.allclose(nn_distances(a, b), brute_force_nn(a, b), atol=1e-9)

    def test_empty_target(self):
        with pytest.raises(EvaluationError):
            nn_distances(np.zeros((1, 3)), np.zeros((0, 3)))


class TestEvaluate:
    def test_identical_sets(self):
        pts = np.random.default_rng(1).normal(size=(100, 3))
        r = evaluate(pts, pts, threshold=0.1)
        assert r.accuracy_m == 0.0
        assert r.completeness_m == 0.0
        assert r.chamfer_l1_m == 0.0
        assert r.recall_pct == 100.0
        assert r.precision_pct == 100.0
        assert r.fscore_pct == 100.0

    def test_uniform_offset_below_threshold(self):
        # isolated points far apart, all shifted by t/2
        gt = np.array([[0.0, 0, 0], [10, 0, 0], [0, 10, 0], [0, 0, 10]])
        pred = gt + [0.05, 0.0, 0.0]
        r = evaluate(pred, gt, threshold=0.1)
        assert r.recall_pct == 100.0
        assert r.accuracy_m == pytest.approx(0.05)

    def test_hand_computed_five_points(self):
        gt = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0], [4, 0, 0]])
        pred = np.array(
            [[0.0, 0.2, 0], [1, 0, 0], [2, -0.3, 0], [3.6, 0, 0], [10, 0, 0]]
        )
        r = evaluate(pred, gt, threshold=0.25)
        # pred->gt: .2, 0, .3, .4, 6 ; gt->pred: .2, 0, .3, .6, .4
        assert r.accuracy_m == pytest.approx((0.2 + 0 + 0.3 + 0.4 + 6) / 5)
        assert r.completeness_m == pytest.approx((0.2 + 0 + 0.3 + 0.6 + 0.4) / 5)
        assert r.chamfer_l1_m == pytest.approx(
            (r.accuracy_m + r.completeness_m) / 2
        )
        assert r.recall_pct == pytest.approx(40.0)  # 2 of 5 within 0.25
        assert r.precision_pct == pytest.approx(40.0)
        assert r.fscore_pct == pytest.approx(40.0)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(40, 3)), rng.normal(size=(60, 3))
        assert evaluate(a, b, 0.1).accuracy_m == pytest.approx(
            evaluate(b, a, 0.1).completeness_m
        )

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
        R = Rotation.from_euler("xyz", [0.3, -1.1, 2.0]).as_matrix()
        t = np.array([5.0, -2.0, 1.0])
        r0 = evaluate(a, b, 0.5)
        r1 = evaluate(a @ R.T + t, b @ R.T + t, 0.5)
        for f in ("accuracy_m", "completeness_m", "chamfer_l1_m",
                  "recall_pct", "precision_pct", "fscore_pct"):
            assert getattr(r0, f) == pytest.approx(getattr(r1, f), abs=1e-9)

    def test_threshold_monotone(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
        prev_r = prev_p = -1.0
        for t in (0.05, 0.1, 0.5, 1.0, 3.0):
            r = evaluate(a, b, t)
            assert r.recall_pct >= prev_r
            assert r.precision_pct >= prev_p
            prev_r, prev_p = r.recall_pct, r.precision_pct

    def test_zero_threshold_counts_exact_matches_only(self):
        gt = np.array([[0.0, 0, 0], [1, 0, 0]])
        pred = np.array([[0.0, 0, 0], [1, 0, 1e-6]])
        r = evaluate(pred, gt, threshold=0.0)
        assert r.recall_pct == pytest.approx(50.0)
        assert r.precision_pct == pytest.approx(50.0)

    def test_empty_inputs(self):
        with pytest.raises(EvaluationError):
            evaluate(np.zeros((0, 3)), np.zeros((3, 3)), 0.1)

    def test_json_fields(self):
        pts = np.random.default_rng(6).normal(size=(10, 3))
        d = json.loads(evaluate(pts, pts, 0.1).to_json(seed=3))
        assert set(d) >= {
            "accuracy_m", "completeness_m", "chamfer_l1_m", "recall_pct",
            "precision_pct", "fscore_pct", "threshold_m", "n_pred", "n_gt",
        }
        assert d["seed"] == 3
