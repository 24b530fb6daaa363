import shutil
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from bitsdf import _native
from bitsdf.errors import ConfigurationError
from bitsdf.grid import FULL_MASK, SIGN_OCCUPIED, new_grid, popcount_array, to_records
from bitsdf.integrator import (
    FrameStats,
    IntegrationParams,
    ScanFrame,
    integrate_frame,
    integrate_point,
    motion_compensate,
)
from bitsdf.kernels import build_kernel_bank
from bitsdf.oracle import brute_force_field, compare
from bitsdf.transforms import make_pose


@pytest.fixture(scope="module")
def bank():
    return build_kernel_bank(shadow_radius=3)


def interpolate_pose_yaw(T0, T1, t):
    """Yaw-only pose interpolation, one pose at a time: translation lerp plus
    a heading lerp along the shortest arc (ZYX yaw), with the end pose's
    roll and pitch held fixed."""
    def yaw_of(T):
        return Rotation.from_matrix(T[:3, :3]).as_euler("zyx")[0]

    y0, y1 = yaw_of(T0), yaw_of(T1)
    dy = (y1 - y0 + np.pi) % (2 * np.pi) - np.pi
    tilt = Rotation.from_euler("z", -y1) * Rotation.from_matrix(T1[:3, :3])
    rot = Rotation.from_euler("z", y0 + t * dy) * tilt
    return make_pose(rot, (1.0 - t) * T0[:3, 3] + t * T1[:3, 3])


def identity_pose():
    return np.eye(4)


def fresh_grid(n=41, voxel_size=0.1, h_max=255, t_occ=2):
    return new_grid((n, n, n), voxel_size, h_max=h_max, t_occ=t_occ)


def use_path(path, monkeypatch):
    """Fuse with the compiled pass ("c") or with the numpy code that runs
    where it cannot be built ("numpy")."""
    if path == "numpy":
        monkeypatch.setattr(_native, "_lib", False)
    elif _native.fuse_pass() is None:
        if shutil.which(_native.CC):
            pytest.fail("a C compiler is present but _fuse.c did not build")
        pytest.skip("no C compiler")


@pytest.fixture
def numpy_path(monkeypatch):
    use_path("numpy", monkeypatch)


class TestParams:
    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            IntegrationParams(compensation="pitch")


class TestMotionCompensate:
    def test_none_is_identity(self):
        scan = ScanFrame(points=np.random.default_rng(0).normal(size=(10, 3)),
                         pose=identity_pose())
        out = motion_compensate(scan, "none")
        assert np.array_equal(out.points, scan.points)

    def test_zero_motion_is_identity(self):
        pose = make_pose(Rotation.from_euler("z", 0.3), (1, 2, 3))
        pts = np.random.default_rng(1).normal(size=(20, 3))
        scan = ScanFrame(points=pts, pose=pose, prev_pose=pose.copy())
        for mode in ("yaw", "se3"):
            out = motion_compensate(scan, mode)
            assert np.allclose(out.points, pts, atol=1e-12)

    def test_pure_translation_midpoint(self):
        # 1 m of +x motion over the sweep; the t=0.5 point shifts half of it
        prev = make_pose(Rotation.identity(), (0, 0, 0))
        cur = make_pose(Rotation.identity(), (1, 0, 0))
        pts = np.array([[2.0, 0.0, 0.0], [5.0, 1.0, -1.0]])
        scan = ScanFrame(points=pts, pose=cur, prev_pose=prev,
                         timestamps=[0.5, 0.5])
        for mode in ("yaw", "se3"):
            out = motion_compensate(scan, mode)
            assert np.allclose(out.points, pts - [0.5, 0.0, 0.0])

    def test_heading_change_yaw_matches_se3(self):
        # Per-point headings must follow each point's own timestamp, also when
        # the shortest arc crosses +-pi.
        pts = np.random.default_rng(2).normal(size=(15, 3))
        ts = np.linspace(0.0, 1.0, 15)
        for y0, y1 in ((0.2, 0.9), (np.pi - 0.1, -np.pi + 0.15)):
            prev = make_pose(Rotation.from_euler("z", y0), (0.5, -1.0, 0.2))
            cur = make_pose(Rotation.from_euler("z", y1), (1.5, 0.5, 0.3))
            scan = ScanFrame(points=pts, pose=cur, prev_pose=prev, timestamps=ts)
            yaw = motion_compensate(scan, "yaw").points
            se3 = motion_compensate(scan, "se3").points
            assert np.allclose(yaw, se3, atol=1e-12)
            per_point = np.array([
                (np.linalg.inv(cur) @ interpolate_pose_yaw(prev, cur, t)
                 @ np.append(p, 1.0))[:3]
                for p, t in zip(pts, ts)
            ])
            assert np.allclose(yaw, per_point, atol=1e-12)
            assert not np.allclose(yaw, pts, atol=1e-3)  # real motion

    def test_default_timestamps_are_point_order(self):
        prev = make_pose(Rotation.identity(), (0, 0, 0))
        cur = make_pose(Rotation.identity(), (1, 0, 0))
        pts = np.zeros((3, 3))
        out = motion_compensate(ScanFrame(points=pts, pose=cur, prev_pose=prev),
                                "se3")
        # t = 0, 0.5, 1 -> shifts -1, -0.5, 0 along x
        assert np.allclose(out.points[:, 0], [-1.0, -0.5, 0.0])

    def test_missing_prev_pose(self):
        scan = ScanFrame(points=np.zeros((2, 3)), pose=identity_pose())
        with pytest.raises(ConfigurationError):
            motion_compensate(scan, "se3")

    def test_rotation_validated(self):
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(ConfigurationError):
            ScanFrame(points=np.zeros((1, 3)), pose=bad)


class TestIntegratePoint:
    def test_center_stamp_distances(self, bank):
        g = fresh_grid()
        p = np.array([2.05, 2.05, 2.05])  # voxel (20,20,20)
        assert integrate_point(g, bank, p, p - [1, 0, 0],
                               IntegrationParams()) == "applied"
        assert popcount_array(g.mask)[20, 20, 20] == 0
        assert popcount_array(g.mask)[23, 20, 20] == 3
        assert popcount_array(g.mask)[20, 25, 20] == 5

    def test_and_idempotence(self, bank):
        params = IntegrationParams()
        p = np.array([2.05, 2.05, 2.05])
        g1 = fresh_grid()
        integrate_point(g1, bank, p, p - [1, 0, 0], params)
        once_mask = g1.mask.copy()
        once_hits = g1.hits.copy()
        integrate_point(g1, bank, p, p - [1, 0, 0], params)
        assert np.array_equal(g1.mask, once_mask)
        assert np.array_equal(g1.hits, once_hits * 2)

    def test_boundary_discard(self, bank):
        g = fresh_grid()
        p = np.array([0.55, 2.05, 2.05])  # voxel (5,.,.): neighborhood leaves grid
        before = g.mask.copy()
        assert integrate_point(g, bank, p, p - [1, 0, 0],
                               IntegrationParams()) == "discarded"
        assert np.array_equal(g.mask, before)

    def test_degenerate_direction_discard(self, bank):
        g = fresh_grid()
        p = np.array([2.05, 2.05, 2.05])
        assert integrate_point(g, bank, p, p - [0.001, 0, 0],
                               IntegrationParams()) == "discarded"

    def test_sign_requires_threshold(self, bank):
        g = fresh_grid(t_occ=2)
        p = np.array([2.05, 2.05, 2.05])
        params = IntegrationParams()
        integrate_point(g, bank, p, p - [1, 0, 0], params)
        assert g.sign[20, 20, 20] != SIGN_OCCUPIED  # one hit < T
        integrate_point(g, bank, p, p - [1, 0, 0], params)
        assert g.sign[20, 20, 20] == SIGN_OCCUPIED


def random_frame(rng, n=200):
    pts = rng.uniform(1.2, 2.9, size=(n, 3))
    return ScanFrame(points=pts, pose=identity_pose())


class TestIntegrateFrame:
    def test_empty_scan(self, bank):
        g = fresh_grid()
        stats = integrate_frame(g, bank, ScanFrame(points=np.zeros((0, 3)),
                                                   pose=identity_pose()),
                                IntegrationParams())
        assert stats == FrameStats(0, 0, 0, stats.elapsed_ms)
        assert np.all(g.mask == FULL_MASK)

    def test_order_independence(self, bank):
        rng = np.random.default_rng(11)
        scan = random_frame(rng)
        g1 = fresh_grid()
        integrate_frame(g1, bank, scan, IntegrationParams())
        perm = rng.permutation(scan.points.shape[0])
        g2 = fresh_grid()
        integrate_frame(g2, bank,
                        ScanFrame(points=scan.points[perm], pose=scan.pose),
                        IntegrationParams())
        assert np.array_equal(g1.mask, g2.mask)
        assert np.array_equal(g1.hits, g2.hits)
        assert np.array_equal(g1.sign, g2.sign)

    def test_thread_count_invariance(self, bank):
        scan = random_frame(np.random.default_rng(12), n=500)
        grids = []
        for threads in (1, 4):
            g = fresh_grid()
            integrate_frame(g, bank, scan, IntegrationParams(), threads=threads)
            grids.append(g)
        assert np.array_equal(grids[0].mask, grids[1].mask)
        assert np.array_equal(grids[0].hits, grids[1].hits)
        assert np.array_equal(grids[0].sign, grids[1].sign)

    def test_monotone_distances_across_frames(self, bank):
        rng = np.random.default_rng(13)
        g = fresh_grid()
        prev = popcount_array(g.mask)
        prev_sign = g.sign.copy()
        for _ in range(5):
            integrate_frame(g, bank, random_frame(rng, 100), IntegrationParams())
            cur = popcount_array(g.mask)
            assert np.all(cur <= prev)
            # occupied never reverts to free
            assert not np.any((prev_sign == SIGN_OCCUPIED) & (g.sign != SIGN_OCCUPIED))
            prev = cur
            prev_sign = g.sign.copy()

    def test_thresholds_fixed_across_frames(self, bank):
        rng = np.random.default_rng(16)
        g = fresh_grid(h_max=3, t_occ=2)
        for _ in range(6):
            integrate_frame(g, bank, random_frame(rng, 100), IntegrationParams())
        assert (g.h_max, g.t_occ) == (3, 2)
        assert g.hits.max() == 3
        assert np.array_equal(g.sign == SIGN_OCCUPIED, g.hits >= 2)

    def test_voxels_written_counts_changed_masks(self, bank):
        g = fresh_grid()
        scan = random_frame(np.random.default_rng(17), n=300)
        before = g.mask.copy()
        stats = integrate_frame(g, bank, scan, IntegrationParams())
        changed = np.count_nonzero(g.mask != before)
        assert changed > 0
        assert stats.voxels_written == changed
        again = integrate_frame(g, bank, scan, IntegrationParams())
        assert again.voxels_written == 0

    def test_bounded_work(self, bank):
        g = fresh_grid()
        scan = random_frame(np.random.default_rng(14), n=50)
        stats = integrate_frame(g, bank, scan, IntegrationParams())
        applied = stats.points_in - stats.points_discarded
        assert stats.voxels_written <= applied * 21**3

    def test_downsample(self, bank):
        scan = random_frame(np.random.default_rng(15), n=100)
        g = fresh_grid()
        stats = integrate_frame(g, bank, scan, IntegrationParams(downsample=4))
        assert stats.points_in == 25

    def test_downsample_reduces_latency(self, bank):
        scan = random_frame(np.random.default_rng(16), n=20_000)
        t_full = min(
            integrate_frame(fresh_grid(), bank, scan, IntegrationParams()).elapsed_ms
            for _ in range(2)
        )
        t_half = min(
            integrate_frame(fresh_grid(), bank, scan,
                            IntegrationParams(downsample=2)).elapsed_ms
            for _ in range(2)
        )
        assert t_half < t_full

    def test_first_return_per_voxel(self, bank):
        p = np.array([[2.05, 2.05, 2.05], [2.06, 2.06, 2.06]])  # same voxel
        scan = ScanFrame(points=p, pose=identity_pose())
        g = fresh_grid(t_occ=1)
        integrate_frame(g, bank, scan,
                        IntegrationParams(first_return_per_voxel=True))
        assert g.hits[20, 20, 20] == 1

    def test_transform_applied(self, bank):
        pose = make_pose(Rotation.identity(), (1.0, 0.0, 0.0))
        scan = ScanFrame(points=np.array([[1.05, 2.05, 2.05]]), pose=pose)
        g = fresh_grid()
        integrate_frame(g, bank, scan, IntegrationParams())
        assert popcount_array(g.mask)[20, 20, 20] == 0


class TestFrameHitAggregation:
    """Many returns on one voxel in a single frame must leave the hits that
    one sequential h += h < h_max step per return would."""

    @staticmethod
    def one_voxel_scan(n):
        # n returns in voxel (20, 20, 20), split over two azimuth bins
        pts = 2.05 + np.linspace(-0.04, 0.04, n)[:, None] * [1.0, 0.0, 0.0]
        return ScanFrame(points=pts, pose=identity_pose())

    @staticmethod
    def sequential(bank, scan, params, grid):
        for p in scan.points:
            integrate_point(grid, bank, p, scan.pose[:3, 3], params)
        return grid

    @pytest.mark.parametrize("h_max, n, expected", [(3, 10, 3), (255, 300, 255)])
    def test_saturates(self, bank, h_max, n, expected):
        params = IntegrationParams()
        scan = self.one_voxel_scan(n)
        g = fresh_grid(h_max=h_max)
        stats = integrate_frame(g, bank, scan, params)
        assert stats.points_discarded == 0
        assert g.hits[20, 20, 20] == expected
        assert g.sign[20, 20, 20] == SIGN_OCCUPIED
        ref = self.sequential(bank, scan, params, fresh_grid(h_max=h_max))
        assert np.array_equal(g.hits, ref.hits)
        assert np.array_equal(g.sign, ref.sign)
        assert np.array_equal(g.mask, ref.mask)

    def test_count_above_h_max_is_kept(self, bank):
        params = IntegrationParams()
        scan = self.one_voxel_scan(10)
        g, ref = fresh_grid(h_max=3), fresh_grid(h_max=3)
        g.hits[20, 20, 20] = ref.hits[20, 20, 20] = 9
        integrate_frame(g, bank, scan, params)
        assert g.hits[20, 20, 20] == 9
        self.sequential(bank, scan, params, ref)
        assert np.array_equal(g.hits, ref.hits)
        assert np.array_equal(g.sign, ref.sign)


@pytest.mark.parametrize("shadow_model", ["hemisphere", "cone"])
def test_frame_path_matches_oracle(shadow_model):
    # One frame of 10k returns on a 32^3 grid, where only 12^3 centre voxels
    # keep the K^3 block inside: centres repeat many times and hits saturate.
    # Cone shadows differ in size from bin to bin.
    rng = np.random.default_rng(43)
    dims, vs = (32, 32, 32), 0.1
    sensor = np.array([1.63, 1.58, 1.61])
    pts = rng.uniform(9 * vs, 23 * vs, size=(10_000, 3))
    pts = pts[np.linalg.norm(pts - sensor, axis=1) >= vs]
    pose = make_pose(Rotation.identity(), sensor)
    bank = build_kernel_bank(size=21, shadow_radius=3, shadow_model=shadow_model)
    grid = new_grid(dims, vs, h_max=30, t_occ=2)
    stats = integrate_frame(grid, bank, ScanFrame(points=pts - sensor, pose=pose),
                            IntegrationParams())
    oracle = brute_force_field(pts, pts - sensor, dims, vs, (0, 0, 0),
                               shadow_radius=3, shadow_model=shadow_model,
                               h_max=30, t_occ=2)
    assert 0 < stats.points_discarded < stats.points_in
    assert oracle.hits.max() == 30
    diff = compare(grid, oracle)
    assert diff.empty, diff.to_text()


@pytest.mark.parametrize("path", ["c", "numpy"])
@pytest.mark.parametrize("size", [1, 3, 41])
def test_kernel_sizes_match_oracle(size, path, monkeypatch):
    # Every odd kernel size is fused as the oracle says, up to K = 41 whose
    # outer offsets lie beyond the 32-cell mask.
    use_path(path, monkeypatch)
    rng = np.random.default_rng(44)
    dims, vs, r = (48, 48, 48), 0.1, size // 2
    sensor = np.array([2.43, 2.38, 2.41])
    pts = rng.uniform(19 * vs, 29 * vs, size=(1_000, 3))
    pts = pts[np.linalg.norm(pts - sensor, axis=1) >= vs]
    bank = build_kernel_bank(size=size, shadow_radius=min(3, r))
    grid = new_grid(dims, vs, h_max=30, t_occ=2)
    scan = ScanFrame(points=pts - sensor, pose=make_pose(Rotation.identity(), sensor))
    stats = integrate_frame(grid, bank, scan, IntegrationParams())
    oracle = brute_force_field(pts, pts - sensor, dims, vs, (0, 0, 0),
                               half_extent=r, shadow_radius=min(3, r),
                               h_max=30, t_occ=2)
    assert stats.points_discarded < stats.points_in
    diff = compare(grid, oracle)
    assert diff.empty, diff.to_text()


class TestNumpyPath:
    """Frame checks that run on the default path, the compiled pass wherever
    it builds, repeated on the numpy code that fuses where it does not."""

    @pytest.mark.parametrize("shadow_model", ["hemisphere", "cone"])
    def test_frame_path_matches_oracle(self, numpy_path, shadow_model):
        test_frame_path_matches_oracle(shadow_model)

    def test_voxels_written_counts_changed_masks(self, numpy_path, bank):
        TestIntegrateFrame().test_voxels_written_counts_changed_masks(bank)

    def test_first_return_per_voxel(self, numpy_path, bank):
        TestIntegrateFrame().test_first_return_per_voxel(bank)


class TestFrameHitAggregationNumpy(TestFrameHitAggregation):
    @pytest.fixture(autouse=True)
    def _numpy(self, numpy_path):
        pass


def test_compiled_pass_memory(monkeypatch):
    # No (returns x shadow ball) temporaries: one 5,000-return frame at
    # shadow radius 10 (4,169 ball offsets) stays far below 32 MiB.
    use_path("c", monkeypatch)
    rng = np.random.default_rng(45)
    sensor = np.array([3.23, 3.18, 3.21])
    pts = rng.uniform(1.0, 5.4, size=(5_000, 3))
    pts = pts[np.linalg.norm(pts - sensor, axis=1) >= 0.1]
    bank = build_kernel_bank(shadow_radius=10)
    grid = fresh_grid(n=64)
    scan = ScanFrame(points=pts - sensor, pose=make_pose(Rotation.identity(), sensor))
    tracemalloc.start()
    try:
        stats = integrate_frame(grid, bank, scan, IntegrationParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.points_discarded == 0
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestNativeBuild:
    def test_missing_compiler_falls_back(self, bank, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(46)
        scans = [random_frame(rng, 300) for _ in range(2)]
        ref = fresh_grid()
        for scan in scans:
            integrate_frame(ref, bank, scan, IntegrationParams())
        capsys.readouterr()
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(_native, "CC", str(tmp_path / "no-such-cc"))
        g = fresh_grid()
        for scan in scans:
            integrate_frame(g, bank, scan, IntegrationParams())
        assert _native._lib is False
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert to_records(g).tobytes() == to_records(ref).tobytes()

    def test_cache_keyed_by_source(self, tmp_path, monkeypatch, capsys):
        cc = _native.CC
        if shutil.which(cc) is None:
            pytest.skip("no C compiler")
        src, cache = tmp_path / "_fuse.c", tmp_path / "cache"
        src.write_bytes(_native.SOURCE.read_bytes())
        built = _native.build(src, cache, cc)
        # Built once per source: the cached library needs no compiler.
        assert _native.build(src, cache, str(tmp_path / "no-such-cc")) == built
        # After an edit the cached library is stale and is not loaded.
        src.write_bytes(src.read_bytes() + b"\n/* edited */\n")
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "SOURCE", src)
        monkeypatch.setattr(_native, "CACHE_DIR", cache)
        monkeypatch.setattr(_native, "CC", str(tmp_path / "no-such-cc"))
        assert _native.fuse_pass() is None
        assert "no-such-cc" in capsys.readouterr().err
        rebuilt = _native.build(src, cache, cc)
        assert rebuilt != built
        assert sorted(cache.iterdir()) == sorted([built, rebuilt])

    def test_mismatched_bank_rejected(self, monkeypatch):
        use_path("c", monkeypatch)
        bank = build_kernel_bank(shadow_radius=3)
        bank.distance_kernel = bank.distance_kernel[:, :, :5].copy()
        with pytest.raises(ConfigurationError):
            integrate_point(fresh_grid(), bank, [2.05] * 3, [1.0, 2.0, 2.0],
                            IntegrationParams())
