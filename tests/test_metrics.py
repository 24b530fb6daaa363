import itertools
import json
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from bitsdf import _native
from bitsdf.errors import EvaluationError
from bitsdf.mesher import TriangleMesh
from bitsdf.metrics import _AREA_BLOCK, evaluate, nn_distances, sample_mesh


def brute_force_nn(from_pts, to_pts):
    return np.array(
        [np.min(np.linalg.norm(to_pts - p, axis=1)) for p in from_pts]
    )


def unit_square_mesh():
    return TriangleMesh(
        vertices=np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
        triangles=np.array([[0, 1, 2], [0, 2, 3]]),
    )


def choice_samples(mesh, n, seed):
    """The points of sample_mesh as drawn row-wise, with Generator.choice."""
    v, f = mesh.vertices, mesh.triangles
    areas = 0.5 * np.linalg.norm(
        np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]), axis=1)
    gen = np.random.default_rng(seed)
    tri = gen.choice(f.shape[0], size=n, p=areas / areas.sum())
    r1, r2 = np.sqrt(gen.random(n)), gen.random(n)
    return ((1.0 - r1)[:, None] * v[f[tri, 0]] + (r1 * (1.0 - r2))[:, None]
            * v[f[tri, 1]] + (r1 * r2)[:, None] * v[f[tri, 2]])


def mesh_with_flat_triangles():
    """Triangles in the plane z = 0, and triangles of zero area at z = 1
    first, last and between them: a repeated vertex, three collinear
    vertices, one vertex thrice."""
    rng = np.random.default_rng(8)
    plane = np.column_stack([rng.random((12, 2)), np.zeros(12)])
    line = np.array([[0.0, 0, 1], [1, 0, 1], [2, 0, 1]])
    flat = [[12, 12, 13], [12, 13, 14], [13, 13, 13]]
    f = [flat[0], [0, 1, 2], [3, 4, 5], flat[1], flat[1], [6, 7, 8],
         [9, 10, 11], [2, 5, 8], flat[2]]
    return TriangleMesh(vertices=np.vstack([plane, line]), triangles=np.array(f))


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

    # The last n blends three whole blocks of samples and part of a fourth.
    @pytest.mark.parametrize("n", [1, 7, 5000, 3 * _AREA_BLOCK + 5])
    @pytest.mark.parametrize("seed", [0, 1, 5, 12345])
    @pytest.mark.parametrize("mesh", [
        TriangleMesh(np.array([[0.1, 0.2, 0.3], [1.7, 0.4, -0.2], [0.5, 2.1, 0.9]]),
                     np.array([[0, 1, 2]])),
        mesh_with_flat_triangles(),
    ], ids=["one-triangle", "zero-area-among-positive"])
    def test_draw_matches_choice(self, mesh, n, seed):
        got = sample_mesh(mesh, n, seed)
        assert got.tobytes() == choice_samples(mesh, n, seed).tobytes()

    def test_zero_area_triangle_never_drawn(self):
        # Every point of a zero-area triangle lies at z = 1.
        mesh = mesh_with_flat_triangles()
        for seed in range(5):
            assert np.all(sample_mesh(mesh, 100_000, seed)[:, 2] == 0.0)

    @pytest.mark.parametrize("scale", [1e200, 1e100])
    def test_area_not_finite_rejected(self, scale):
        # At 1e200 the cross product overflows and the area is NaN; at 1e100
        # its squares overflow and the area is infinite.
        mesh = TriangleMesh(np.eye(3) * scale, np.array([[0, 1, 2]] * 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="finite"):
                sample_mesh(mesh, 10)

    def test_peak_memory_bounded_by_blocks(self):
        # Six area blocks and a few samples: the per-triangle arrays are
        # the areas and the draw's probabilities and cdf; the rest is one
        # block's. The bound is the peak measured for the row-wise code
        # that drew with Generator.choice; whole columns peak near 9.5 MB.
        rng = np.random.default_rng(6)
        t = 6 * _AREA_BLOCK + 5
        mesh = TriangleMesh(rng.normal(size=(2000, 3)),
                            rng.integers(0, 2000, size=(t, 3)))
        sample_mesh(mesh, 1000, seed=1)
        tracemalloc.start()
        try:
            sample_mesh(mesh, 1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_281_224


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["query", "target"])
    def test_non_finite_point_rejected(self, side, bad):
        pts = np.random.default_rng(9).normal(size=(20, 3))
        broken = pts.copy()
        broken[7, 1] = bad
        q, t = (broken, pts) if side == "query" else (pts, broken)
        with pytest.raises(EvaluationError, match="finite"):
            nn_distances(q, t)
        with pytest.raises(EvaluationError, match="finite"):
            evaluate(q, t, 0.1)


def lattice(lo, hi, step=1.0):
    """The points of the cubic lattice of ``step`` in [lo, hi]^3."""
    ax = np.arange(lo, hi + step / 2, step)
    return np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)


def box_faces(rng, n, faces):
    """n points uniform on the given faces of the box [0, 10] x [0, 10] x
    [0, 3]; face 2k + s is the one at the low (s = 0) or high (s = 1) end of
    axis k."""
    hi = np.array([10.0, 10.0, 3.0])
    faces = np.asarray(faces)
    pts = rng.uniform(0, 1, (n, 3)) * hi
    face = faces[np.arange(n) % len(faces)]
    pts[np.arange(n), face // 2] = hi[face // 2] * (face % 2)
    return pts


def nn_cases():
    """(name, queries, targets) on which the cell search is checked against
    cKDTree."""
    rng = np.random.default_rng(11)
    pts = rng.integers(0, 21, size=(900, 3)).astype(np.float64)
    octant = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))[np.arange(800) % 8]
    return [
        ("random", rng.normal(size=(4000, 3)), rng.normal(size=(3000, 3))),
        ("random-box", rng.uniform(-5, 5, (2000, 3)), rng.uniform(0, 1, (20_000, 3))
         * [10.0, 10.0, 3.0]),
        ("duplicates", rng.normal(size=(500, 3)),
         np.repeat(rng.normal(size=(7, 3)), 50, axis=0)),
        ("single", rng.normal(size=(300, 3)) * 4.0, np.array([[0.25, -1.5, 3.0]])),
        ("plane", rng.normal(size=(2000, 3)),
         np.column_stack([rng.normal(size=(3000, 2)), np.full(3000, 0.5)])),
        ("line", rng.normal(size=(2000, 3)),
         np.column_stack([np.full(3000, -1.0), rng.normal(size=3000), np.zeros(3000)])),
        # 11^3 targets: the cells are one lattice step wide, so targets and
        # queries lie on cell faces, and queries between lattice points tie.
        ("lattice", lattice(-2.0, 12.0, 0.5), lattice(0.0, 10.0)),
        ("lattice-subset", lattice(-1.0, 21.0), pts),
        ("far", rng.normal(size=(1000, 3)) * 5.0 + [20.0, 0.0, -8.0],
         rng.uniform(0, 1, (5000, 3))),
        # Queries 1.5-5.5 m outside a 1 m box, in each of the eight octants.
        ("octants", 0.5 + octant * rng.uniform(2, 6, (800, 3)),
         rng.uniform(0, 1, (4000, 3))),
        # Queries on all six faces of a box, targets on only three of them:
        # the queries on the other three lie metres from every target.
        ("three-faces", box_faces(rng, 3000, range(6)), box_faces(rng, 20_000, range(3))),
        ("line-far", rng.normal(size=(2000, 3)) * [30.0, 30.0, 1.0],
         np.column_stack([np.full(3000, 2.0), np.full(3000, -1.0),
                          rng.uniform(0, 1, 3000)])),
        # Targets spanning less than 2^-1000: the grid is one cell.
        ("one-cell", np.vstack([rng.normal(size=(500, 3)) * 1e-303,
                                rng.normal(size=(500, 3))]),
         rng.uniform(0, 1, (2000, 3)) * 1e-303),
        # Targets spanning about 1e-160, so h < 2^-500: no bound settles a
        # query, and the block rings run until they cover the grid.
        ("tiny-extent", rng.normal(size=(1500, 3)) * [1e-160, 1e-160, 3e-160],
         rng.normal(size=(2000, 3)) * 1e-160),
        # A long, thin row of blocks, and queries beyond one end of it that
        # read ring after ring of blocks along it.
        ("long-thin", np.vstack([rng.uniform(0, 1, (1000, 3)) * [1.0, 0.6, 0.6]
                                 + [100.0, -0.05, -0.05],
                                 rng.uniform(0, 1, (500, 3)) * [30.0, 1.0, 1.0]
                                 + [101.0, -0.25, -0.25]]),
         rng.uniform(0, 1, (3000, 3)) * [100.0, 0.5, 0.5]),
    ]


@pytest.fixture(params=["compiled", "no-library"])
def nn_path(request, tmp_path, monkeypatch):
    """Nearest neighbours by the compiled cell search, or with the library
    unavailable, as where there is no C compiler."""
    if request.param == "compiled":
        if _native.library() is None:
            if shutil.which(_native.CC):
                pytest.fail("a C compiler is present but _fuse.c did not build")
            pytest.skip("no C compiler")
    else:
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(_native, "CC", str(tmp_path / "no-such-cc"))
        assert _native.library() is None
    return request.param


class TestNNExact:
    @pytest.mark.parametrize("case", nn_cases(), ids=lambda c: c[0])
    def test_bits_of_ckdtree(self, nn_path, case):
        _, q, t = case
        want = cKDTree(t).query(q, k=1)[0]
        assert np.array_equal(nn_distances(q, t), want)

    @pytest.mark.parametrize("case", nn_cases(), ids=lambda c: c[0])
    def test_library_settles_every_query(self, case, monkeypatch):
        # The compiled search answers every query itself, far ones too, so
        # nn_distances builds no tree where the library is present.
        lib = _native.library()
        if lib is None:
            pytest.skip("no compiled library")
        _, q, t = case
        want = cKDTree(t).query(q, k=1)[0]
        sq = np.empty(len(q))
        assert lib.nearest(t.ctypes.data, len(t), q.ctypes.data, len(q), sq.ctypes.data) == 0
        assert np.array_equal(np.sqrt(sq), want)

        def no_tree(*args, **kwargs):
            pytest.fail("nn_distances built a cKDTree with the library present")

        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
        assert np.array_equal(nn_distances(q, t), want)

    def test_extent_overflow_answered_by_tree(self):
        # A box whose extent overflows has no cells: the library computes
        # nothing and returns m, and a cKDTree answers every query.
        lib = _native.library()
        if lib is None:
            pytest.skip("no compiled library")
        t = np.array([[-1e308, 0.0, 0.0], [1e308, 1.0, 0.0]])
        q = np.array([[-1e308, 2.0, 0.0], [5.0, 0.0, 0.0], [1e308, 0.0, 3.0]])
        sq = np.empty(len(q))
        assert lib.nearest(t.ctypes.data, len(t), q.ctypes.data, len(q), sq.ctypes.data) == 3
        assert np.array_equal(nn_distances(q, t), cKDTree(t).query(q, k=1)[0])


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
