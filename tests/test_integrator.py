import ctypes
import os
import re
import shutil
import subprocess
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation, Slerp

from bitsdf import _native, integrator
from bitsdf.errors import ConfigurationError
from bitsdf.grid import FULL_MASK, SIGN_OCCUPIED, new_grid, to_records
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


def interpolate_pose_se3(T0, T1, t):
    """SE(3) pose interpolation, one pose at a time: translation lerp plus a
    rotation slerp."""
    rots = Rotation.from_matrix(np.stack([T0[:3, :3], T1[:3, :3]]))
    return make_pose(Slerp([0.0, 1.0], rots)(t), (1.0 - t) * T0[:3, 3] + t * T1[:3, 3])


def identity_pose():
    return np.eye(4)


def fresh_grid(n=41, voxel_size=0.1, h_max=255, t_occ=2):
    return new_grid((n, n, n), voxel_size, h_max=h_max, t_occ=t_occ)


def use_path(path, monkeypatch):
    """Fuse with the compiled pass ("c", whose row stamp is AVX-512F where
    the CPU has it), with its portable row stamp forced ("portable"), or
    with the numpy code that runs where it cannot be built ("numpy")."""
    if path == "numpy":
        monkeypatch.setattr(_native, "_lib", False)
        return
    lib = _native.library()
    if lib is None:
        if shutil.which(_native.CC):
            pytest.fail("a C compiler is present but _fuse.c did not build")
        pytest.skip("no C compiler")
    if path == "portable":
        monkeypatch.setattr(_native, "_lib", replace(lib, path="portable"))


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
        out = motion_compensate(scan.points, None, None, scan.pose, "none")
        assert np.array_equal(out, scan.points)

    def test_zero_motion_is_identity(self):
        pose = make_pose(Rotation.from_euler("z", 0.3), (1, 2, 3))
        pts = np.random.default_rng(1).normal(size=(20, 3))
        for mode in ("yaw", "se3"):
            out = motion_compensate(pts, None, pose.copy(), pose, mode)
            assert np.allclose(out, pts, atol=1e-12)

    def test_pure_translation_midpoint(self):
        # 1 m of +x motion over the sweep; the t=0.5 point shifts half of it
        prev = make_pose(Rotation.identity(), (0, 0, 0))
        cur = make_pose(Rotation.identity(), (1, 0, 0))
        pts = np.array([[2.0, 0.0, 0.0], [5.0, 1.0, -1.0]])
        for mode in ("yaw", "se3"):
            out = motion_compensate(pts, np.array([0.5, 0.5]), prev, cur, mode)
            assert np.allclose(out, pts - [0.5, 0.0, 0.0])

    def test_heading_change_yaw_matches_se3(self):
        # Per-point headings must follow each point's own timestamp, also when
        # the shortest arc crosses +-pi.
        pts = np.random.default_rng(2).normal(size=(15, 3))
        ts = np.linspace(0.0, 1.0, 15)
        for y0, y1 in ((0.2, 0.9), (np.pi - 0.1, -np.pi + 0.15)):
            prev = make_pose(Rotation.from_euler("z", y0), (0.5, -1.0, 0.2))
            cur = make_pose(Rotation.from_euler("z", y1), (1.5, 0.5, 0.3))
            yaw = motion_compensate(pts, ts, prev, cur, "yaw")
            se3 = motion_compensate(pts, ts, prev, cur, "se3")
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
        out = motion_compensate(pts, None, prev, cur, "se3")
        # t = 0, 0.5, 1 -> shifts -1, -0.5, 0 along x
        assert np.allclose(out[:, 0], [-1.0, -0.5, 0.0])

    def test_missing_prev_pose(self):
        with pytest.raises(ConfigurationError):
            motion_compensate(np.zeros((2, 3)), None, None, identity_pose(), "se3")

    def test_rotation_validated(self):
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(ConfigurationError):
            ScanFrame(points=np.zeros((1, 3)), pose=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_point_rejected(self, bad):
        pts = np.ones((3, 3))
        pts[1, 2] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            ScanFrame(points=pts, pose=identity_pose())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_timestamp_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="timestamps must be finite"):
            ScanFrame(points=np.ones((3, 3)), pose=identity_pose(),
                      timestamps=[0.0, bad, 1.0])


class TestIntegratePoint:
    def test_center_stamp_distances(self, bank):
        g = fresh_grid()
        p = np.array([2.05, 2.05, 2.05])  # voxel (20,20,20)
        assert integrate_point(g, bank, p, p - [1, 0, 0],
                               IntegrationParams()) == "applied"
        assert np.bitwise_count(g.mask)[20, 20, 20] == 0
        assert np.bitwise_count(g.mask)[23, 20, 20] == 3
        assert np.bitwise_count(g.mask)[20, 25, 20] == 5

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
        grids, stats = [], []
        for threads in (1, 4):
            g = fresh_grid()
            st = integrate_frame(g, bank, scan, IntegrationParams(), threads=threads)
            grids.append(g)
            stats.append((st.points_in, st.points_discarded, st.voxels_written))
        assert np.array_equal(grids[0].mask, grids[1].mask)
        assert np.array_equal(grids[0].hits, grids[1].hits)
        assert np.array_equal(grids[0].sign, grids[1].sign)
        assert stats[0] == stats[1]

    @pytest.mark.parametrize("threads", [0, -3, 2.7, "2", True, None])
    def test_bad_thread_count_rejected(self, bank, threads):
        g = fresh_grid()
        with pytest.raises(ConfigurationError, match="threads"):
            integrate_frame(g, bank, random_frame(np.random.default_rng(12), 10),
                            IntegrationParams(), threads=threads)
        assert np.all(g.mask == FULL_MASK)

    def test_monotone_distances_across_frames(self, bank):
        rng = np.random.default_rng(13)
        g = fresh_grid()
        prev = np.bitwise_count(g.mask)
        prev_sign = g.sign.copy()
        for _ in range(5):
            integrate_frame(g, bank, random_frame(rng, 100), IntegrationParams())
            cur = np.bitwise_count(g.mask)
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

    @pytest.mark.parametrize("timed", [True, False], ids=["times", "no-times"])
    @pytest.mark.parametrize("mode", ["yaw", "se3"])
    def test_downsample_then_deskew(self, bank, mode, timed):
        # Each kept return is deskewed at its own time or, in a scan without
        # times, at times spread over the kept returns, not over the scan.
        rng = np.random.default_rng(18)
        prev = make_pose(Rotation.from_euler("z", 0.1), (1.8, 1.9, 2.0))
        cur = make_pose(Rotation.from_euler("zyx", (0.6, 0.05, -0.04)),
                        (2.2, 2.1, 2.05))
        pts = rng.uniform(-0.8, 0.8, size=(120, 3))
        ts = rng.uniform(0.0, 1.0, size=120) if timed else None
        g = fresh_grid()
        stats = integrate_frame(
            g, bank, ScanFrame(points=pts, pose=cur, timestamps=ts, prev_pose=prev),
            IntegrationParams(compensation=mode, downsample=3))
        kept = pts[::3]
        interpolate = interpolate_pose_yaw if mode == "yaw" else interpolate_pose_se3

        def by_hand(times):
            deskewed = np.array([
                (np.linalg.inv(cur) @ interpolate(prev, cur, t) @ np.append(p, 1.0))[:3]
                for p, t in zip(kept, times)])
            ref = fresh_grid()
            st = integrate_frame(ref, bank, ScanFrame(points=deskewed, pose=cur),
                                 IntegrationParams())
            return (to_records(ref).tobytes(),
                    (st.points_in, st.points_discarded, st.voxels_written))

        got = (to_records(g).tobytes(),
               (stats.points_in, stats.points_discarded, stats.voxels_written))
        assert got == by_hand(ts[::3] if timed else np.linspace(0.0, 1.0, len(kept)))
        assert stats.points_in == 40 and stats.voxels_written > 0
        # The times matter: no deskew, or times spread over the whole scan,
        # give another grid.
        other = np.ones(len(kept)) if timed else np.linspace(0.0, 1.0, len(pts))[::3]
        assert by_hand(other)[0] != got[0]

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
        assert np.bitwise_count(g.mask)[20, 20, 20] == 0


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


def band_pass(grid, bank, centers, bins, p0, p1):
    """One call of the compiled pass with one band, the z planes [p0, p1) of
    ``grid``, over the returns at ``centers`` sorted as integrator._prepare
    sorts them; returns the pass's changed-voxel count."""
    cflat = centers @ np.array([1, grid.dims[0], grid.dims[0] * grid.dims[1]])
    order = np.argsort(cflat)
    return integrator._fuse_compiled(grid, bank, _native.library(), cflat[order],
                                     bins[order], np.array([p0, p1]))


class TestPlaneSplit:
    """The compiled pass split into bands of z planes, one per worker."""

    # nx * ny = 1,073: band edges fall inside the 64-voxel words of the
    # changed-voxel bitmap.
    DIMS = (37, 29, 47)

    @pytest.fixture(autouse=True)
    def _compiled(self, monkeypatch):
        use_path("c", monkeypatch)

    def test_band_writes_only_its_planes(self, bank):
        rng = np.random.default_rng(60)
        r = bank.half_extent
        centers = rng.integers(r, np.array(self.DIMS) - r, size=(300, 3))
        bins = rng.integers(0, bank.shadow.shape[0], size=300)
        whole = new_grid(self.DIMS, 0.1, h_max=4, t_occ=2)
        written = band_pass(whole, bank, centers, bins, 0, self.DIMS[2])
        cut = 23
        split = new_grid(self.DIMS, 0.1, h_max=4, t_occ=2)
        fresh = to_records(split).reshape(self.DIMS[::-1])
        low = band_pass(split, bank, centers, bins, 0, cut)
        assert to_records(split).reshape(self.DIMS[::-1])[cut:].tobytes() == (
            fresh[cut:].tobytes())
        high = band_pass(split, bank, centers, bins, cut, self.DIMS[2])
        assert to_records(split).tobytes() == to_records(whole).tobytes()
        assert low > 0 and high > 0
        assert low + high == written

    @pytest.mark.parametrize("frame", ["random", "floor"])
    def test_split_matches_one_thread_and_numpy(self, bank, monkeypatch, frame):
        # More workers than this host may have cores: the parts are set by
        # the thread count and the planes, not by the machine.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        rng = np.random.default_rng(61)
        nx, ny, nz = self.DIMS
        lo = np.array([1.0, 1.0, 1.0])
        hi = np.array([nx, ny, nz]) * 0.1 - 1.0
        pts = rng.uniform(lo, hi, size=(600, 3))
        if frame == "floor":
            # Every center on one plane: each band cut splits every block.
            pts[:, 2] = 2.35
        sensor = np.array([1.9, 1.5, 2.0])
        scans = [ScanFrame(points=pts[i::2] - sensor,
                           pose=make_pose(Rotation.identity(), sensor))
                 for i in range(2)]
        plane_cuts, parts = integrator._plane_cuts, []

        def counting(*args):
            cuts = plane_cuts(*args)
            parts.append(len(cuts) - 1)
            return cuts

        monkeypatch.setattr(integrator, "_plane_cuts", counting)

        def fused(threads):
            g = new_grid(self.DIMS, 0.1, h_max=3, t_occ=2)
            stats = [integrate_frame(g, bank, scan, IntegrationParams(), threads=threads)
                     for scan in scans]
            return (to_records(g).tobytes(),
                    [(st.points_in, st.points_discarded, st.voxels_written)
                     for st in stats])

        results = {threads: fused(threads) for threads in (1, 2, 3, 8)}
        assert parts == [1, 1, 2, 2, 3, 3, 8, 8]
        monkeypatch.setattr(_native, "_lib", False)
        results["numpy"] = fused(3)
        assert all(st[2] > 0 for st in results[1][1])
        for key, result in results.items():
            assert result == results[1], key


class TestRowStamps:
    """The compiled pass's AVX-512 and portable row stamps against each
    other and against the numpy code, on the plane-split grid, whose z
    plane (1,073 voxels) is not a whole number of 64-voxel bitmap words.
    Kernels above 21 grow the grid by the difference so their blocks fit;
    K = 35 stamps its rows in two chunks (32 + 3 words)."""

    @staticmethod
    def frames(k, kind):
        dims = np.array(TestPlaneSplit.DIMS) + max(0, k - 21)
        rng = np.random.default_rng(70 + k)
        vs, r = 0.1, k // 2
        # Centers fill the voxels whose block fits, plus a margin of
        # returns that are discarded.
        pts = rng.uniform((r - 2) * vs, (dims - r + 2) * vs, size=(400, 3))
        if kind == "plane":
            # Every center on one z plane, at the grid's last valid one.
            pts[:, 2] = (dims[2] - 1 - r + 0.5) * vs
        sensor = dims * vs / 2 + 0.013
        pose = make_pose(Rotation.identity(), sensor)
        return tuple(dims), [ScanFrame(points=pts[i::2] - sensor, pose=pose)
                             for i in range(2)]

    @pytest.mark.parametrize("kind", ["random", "plane"])
    @pytest.mark.parametrize("shadow_model", ["hemisphere", "cone"])
    @pytest.mark.parametrize("k", [7, 21, 35])
    def test_paths_agree(self, monkeypatch, k, shadow_model, kind):
        bank = build_kernel_bank(size=k, shadow_radius=3, shadow_model=shadow_model)
        dims, scans = self.frames(k, kind)
        results = {}
        for path, threads in (("c", 2), ("portable", 2), ("portable", 1), ("numpy", 1)):
            with monkeypatch.context() as m:
                use_path(path, m)
                ran = integrator.fusion_path()
                g = new_grid(dims, 0.1, h_max=3, t_occ=2)
                stats = [integrate_frame(g, bank, scan, IntegrationParams(),
                                         threads=threads)
                         for scan in scans]
            results[ran, threads] = (
                to_records(g).tobytes(),
                [(st.points_in, st.points_discarded, st.voxels_written)
                 for st in stats])
        print(f"compiled pass on this host: {_native.library().path}")
        assert all(0 < st[1] < st[0] and st[2] > 0
                   for st in results["portable", 1][1])
        for key, result in results.items():
            assert result == results["portable", 1], key


def prepare_reference(grid, bank, pts_map, sensor, first_return_per_voxel):
    """The prepare as it was written on (n, 3) arrays: flat centers and bins
    of the returns to stamp, sorted by center, and the count kept."""
    r = bank.half_extent
    dims = np.array(grid.dims)
    rays = pts_map - sensor
    centers = np.floor((pts_map - grid.origin[np.newaxis, :])
                       / grid.voxel_size).astype(np.int64)
    ok = np.linalg.norm(rays, axis=1) >= grid.voxel_size
    ok &= np.all((centers >= r) & (centers <= dims - 1 - r), axis=1)
    centers, dirs = centers[ok], rays[ok]
    az = np.arctan2(dirs[:, 1], dirs[:, 0])
    az = np.where(az < 0.0, az + 2.0 * np.pi, az)
    el = np.arcsin(np.clip(dirs[:, 2] / np.linalg.norm(dirs, axis=1), -1.0, 1.0))
    b_a = np.clip((az / (2.0 * np.pi) * bank.b_az).astype(np.int64), 0, bank.b_az - 1)
    b_e = np.clip(((el + np.pi / 2) / np.pi * bank.b_el).astype(np.int64),
                  0, bank.b_el - 1)
    bins = b_a * bank.b_el + b_e
    cflat = centers @ np.array([1, dims[0], dims[0] * dims[1]])
    if first_return_per_voxel:
        _, order = np.unique(cflat, return_index=True)
    else:
        order = np.argsort(cflat, kind="stable")
    return int(np.count_nonzero(ok)), cflat[order], bins[order]


class TestPrepare:
    """integrator._prepare, on per-axis components, keeps, orders and bins
    returns exactly as the (n, 3) formulas do."""

    VS = 0.125  # a power of two: voxel faces and ray lengths are exact

    @pytest.fixture
    def grid(self):
        return new_grid((40, 36, 30), self.VS, origin=(-1.5, -0.75, -2.0))

    @staticmethod
    def inputs(grid, rng):
        vs, lo = TestPrepare.VS, grid.origin
        hi = lo + np.array(grid.dims) * vs
        sensor = lo + np.array([19.3, 17.6, 14.2]) * vs
        parts = [rng.uniform(lo - vs, hi + vs, size=(3000, 3))]
        # On voxel faces, including the first and last faces a center may
        # take (r and dims - 1 - r) and those just outside.
        faces = rng.integers(-1, np.array(grid.dims) + 1, size=(600, 3))
        parts.append(lo + faces * vs)
        # Rays exactly one voxel long (kept), and just shorter (dropped).
        units = np.eye(3)[rng.integers(0, 3, size=300)] * rng.choice([-1, 1], (300, 1))
        parts += [sensor + units * vs, sensor + units * np.nextafter(vs, 0)]
        # Rays along +z and -z: the elevation bins at the poles.
        d = rng.uniform(0.2, 1.6, size=(200, 1))
        parts += [sensor + d * [0, 0, 1], sensor - d * [0, 0, 1]]
        return np.concatenate(parts), sensor

    @pytest.mark.parametrize("first", [False, True])
    def test_matches_n3_formulas(self, grid, bank, first):
        rng = np.random.default_rng(80)
        pts, sensor = self.inputs(grid, rng)
        near, outside, cflat, bins = integrator._prepare(grid, bank, pts, sensor, first)
        n_ok = len(pts) - near - outside
        ref = prepare_reference(grid, bank, pts, sensor, first)
        assert n_ok == ref[0]
        assert np.array_equal(cflat, ref[1])
        assert np.array_equal(bins, ref[2])
        # Every kind of input reaches the checks it is meant for.
        assert 0 < n_ok < len(pts)
        assert {0, bank.b_el - 1} <= set((bins % bank.b_el).tolist())

    def test_edge_cases_decided(self, grid, bank):
        r, vs = bank.half_extent, self.VS
        center = np.array([r, r + 1, grid.dims[2] - 1 - r])
        p = grid.origin + center * vs  # on the faces of a valid center
        sensor = p - [vs, 0, 0]  # exactly one voxel away
        pts = np.array([p, p - [vs / 2, 0, 0], p + [0, 0, vs]])
        near, outside, cflat, bins = integrator._prepare(grid, bank, pts, sensor, False)
        # The second is closer than one voxel, the third one plane too high.
        assert (near, outside) == (1, 1)
        nx, ny, _ = grid.dims
        assert cflat.tolist() == [center[0] + nx * (center[1] + ny * center[2])]
        assert bins.tolist() == [bank.flat_bin(0, bank.b_el // 2)]

    def test_discards_counted_by_reason(self, grid, bank):
        vs, r = self.VS, bank.half_extent
        nx, ny, nz = grid.dims

        def at(cells):  # voxel centers
            return grid.origin + (np.array(cells) + 0.5) * vs

        sensor = at([r, 20, 15])
        # Within one voxel of the sensor; the last one's cell, x = r - 1,
        # is out of bounds too, and it counts as near.
        near = sensor + np.array([[0, 0, 0], [0.5, 0, 0], [0, -0.9, 0],
                                  [0, 0, 0.99], [-0.6, 0, 0]]) * vs
        # Inside the grid with a block that leaves it, then outside it.
        outside = at([[r - 1, 12, 15], [nx - r, 20, 15], [20, r - 1, 15],
                      [20, ny - r, 15], [20, 20, r - 1], [20, 20, nz - r],
                      [0, 0, 0], [-1, 5, 5], [5, -3, 5], [5, 5, nz],
                      [nx + 4, 5, 5]])
        kept = at([[15 + i, 20, 12] for i in range(11)])
        pts = np.concatenate([near, outside, kept])
        stats = integrator._fuse(grid, bank, pts, sensor, IntegrationParams())
        assert (stats.discarded_near, stats.discarded_bounds) == (5, 11)
        assert stats.points_discarded == 16
        assert stats.points_in - stats.points_discarded == 11


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
        assert _native.library() is None
        assert "no-such-cc" in capsys.readouterr().err
        rebuilt = _native.build(src, cache, cc)
        assert rebuilt != built
        assert sorted(cache.iterdir()) == sorted([built, rebuilt])

    def test_cache_keyed_by_flags(self, tmp_path, monkeypatch):
        cc = _native.CC
        if shutil.which(cc) is None:
            pytest.skip("no C compiler")
        built = _native.build(_native.SOURCE, tmp_path, cc)
        # A change of flags builds a new library; the old one is not loaded.
        monkeypatch.setattr(_native, "CFLAGS", (*_native.CFLAGS, "-DBITSDF_FLAG"))
        rebuilt = _native.build(_native.SOURCE, tmp_path, cc)
        assert rebuilt != built
        assert sorted(tmp_path.iterdir()) == sorted([built, rebuilt])

    def test_source_compiles_without_warnings(self, tmp_path):
        cc = _native.CC
        if shutil.which(cc) is None:
            pytest.skip("no C compiler")
        # The flags the library is built with, so what ships is checked.
        result = subprocess.run(
            [cc, *_native.CFLAGS, "-Wall", "-Wextra", "-Wshadow", "-Werror", "-o",
             str(tmp_path / "_fuse.so"), str(_native.SOURCE)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("struct", ["grid", "frame", "classify", "emit"])
    def test_mirror_matches_struct(self, struct, tmp_path):
        # Each struct of the compiled grid entries is declared once, in
        # _fuse.c; its _native mirror must name its fields in the same order,
        # each a pointer, an int64, a double, a double[3] or the nested struct
        # grid as there.
        mirror = getattr(_native, struct.capitalize())
        body = re.search(rf"struct {struct} \{{(.*?)\}};", _native.SOURCE.read_text(),
                         re.S).group(1)
        types = {"int64_t": ctypes.c_int64, "double": ctypes.c_double,
                 "struct grid": _native.Grid}
        declared = []
        for decl in body.split(";")[:-1]:
            base = re.match(r"\s*(struct \w+|\w+)", decl).group(1)
            for piece in decl.split(","):
                name, size = re.search(r"(\w+)(?:\[(\d+)\])?\s*$", piece).groups()
                kind = ctypes.c_void_p if "*" in piece else types[base]
                declared.append((name, kind * int(size) if size else kind))
        assert mirror._fields_ == declared
        cc = _native.CC
        if shutil.which(cc) is None:
            pytest.skip("no C compiler")
        # The same size and offsets as the compiler lays the struct out.
        names = [name for name, _ in declared]
        probe = tmp_path / "probe.c"
        probe.write_text(
            '#include <stddef.h>\n#include <stdio.h>\n#include "_fuse.c"\n'
            f'int main(void) {{\n    printf("%zu", sizeof(struct {struct}));\n'
            + "".join(f'    printf(" %zu", offsetof(struct {struct}, {n}));\n'
                      for n in names)
            + "    return 0;\n}\n")
        subprocess.run([cc, "-pthread", "-I", str(_native.SOURCE.parent), "-o",
                        str(tmp_path / "probe"), str(probe)], check=True)
        laid_out = subprocess.run([str(tmp_path / "probe")], capture_output=True,
                                  text=True, check=True).stdout.split()
        assert list(map(int, laid_out)) == [
            ctypes.sizeof(mirror), *(getattr(mirror, n).offset for n in names)]

    def test_mismatched_bank_rejected(self, monkeypatch):
        # The bank is checked where it is made, so neither fusion path ever
        # reads a bank whose arrays do not match its sizes.
        bank = build_kernel_bank(size=7, shadow_radius=3)
        ball = bank.shadow_ball
        bad = [
            {"distance_kernel": np.asfortranarray(bank.distance_kernel[:, :, :5])},
            {"distance_kernel": np.ascontiguousarray(bank.distance_kernel.T)},
            {"distance_kernel": bank.distance_kernel.astype(np.int64)},
            {"size": 9},
            {"size": 6},
            {"b_el": 0},
            {"shadow": bank.shadow[1:]},
            {"shadow": bank.shadow[:, :-1]},
            {"shadow": np.asfortranarray(bank.shadow)},
            {"shadow_ball": ball.astype(np.int32)},
            {"shadow_ball": np.where(ball == 3, 4, ball)},
        ]
        for path in ("c", "numpy"):
            with monkeypatch.context() as m:
                use_path(path, m)
                for change in bad:
                    with pytest.raises(ConfigurationError):
                        replace(bank, **change)
                grid = fresh_grid()
                assert integrate_point(grid, replace(bank), [2.05] * 3,
                                       [1.0, 2.0, 2.0], IntegrationParams()) == "applied"
