"""Fuse posed scans into the voxel grid.

Per scan: optional downsampling and motion compensation, then the transform
to the map frame. All returns of the scan are then fused in one pass:

1. Prepare, vectorized: drop returns closer than one voxel to the sensor or
   whose K^3 neighborhood leaves the grid, pick each return's
   azimuth-elevation bin from its map-frame ray, and sort the returns by
   center voxel.
2. One compiled call (``_fuse.c``, built on first use by ``_native``) walks
   the sorted returns once. Per return it ANDs the distance kernel onto
   every word of the K^3 block of masks around the center, marks each voxel
   whose mask that changes in a bitmap of the frame (so ``voxels_written``
   counts distinct voxels), and adds one hit to each voxel of the return's
   shadow, saturating at the grid's h_max, marking the voxel occupied once
   its count reaches the grid's t_occ.

Where the C file cannot be built, the same work runs in numpy: an in-place
AND per return, a diff of the frame's bounding box before and after, and
one batched hit update per frame. It gives the same grid at roughly three
times the cost per return.

AND is commutative and idempotent and the saturating add is monotone, so
the grid does not depend on the order of the returns. Fusion is
single-threaded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation, Slerp

from . import _native
from .errors import ConfigurationError
from .grid import SIGN_OCCUPIED, VoxelGrid, world_to_voxel_array
from .kernels import KernelBank, bin_index_array
from .transforms import check_rotation

COMPENSATION_MODES = ("none", "yaw", "se3")


@dataclass
class ScanFrame:
    """One LiDAR sweep: points in the sensor frame plus the end-of-sweep pose
    (4x4, map frame). ``prev_pose`` is the pose at the start of the sweep and
    is only needed for motion compensation. ``timestamps`` are normalized to
    [0, 1] over the sweep; when absent they default to point order."""

    points: np.ndarray
    pose: np.ndarray
    timestamps: np.ndarray | None = None
    prev_pose: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.pose = np.asarray(self.pose, dtype=np.float64)
        check_rotation(self.pose)
        if self.prev_pose is not None:
            self.prev_pose = np.asarray(self.prev_pose, dtype=np.float64)
            check_rotation(self.prev_pose)
        if self.timestamps is not None:
            self.timestamps = np.asarray(self.timestamps, dtype=np.float64).ravel()
            if self.timestamps.shape[0] != self.points.shape[0]:
                raise ConfigurationError("timestamp count does not match point count")


@dataclass
class IntegrationParams:
    """Per-scan options; the occupancy thresholds belong to the grid."""

    compensation: str = "none"
    downsample: int = 1
    first_return_per_voxel: bool = False

    def __post_init__(self):
        if self.compensation not in COMPENSATION_MODES:
            raise ConfigurationError(
                f"compensation must be one of {COMPENSATION_MODES}"
            )
        if self.downsample < 1:
            raise ConfigurationError("downsample factor must be >= 1")


@dataclass
class FrameStats:
    """Counts for one fused scan. ``points_discarded`` counts the returns
    dropped by the sensor-distance and bounds checks (not those dropped by
    ``first_return_per_voxel``). ``voxels_written`` is the number of distinct
    voxels whose distance mask changed in the frame; a voxel that several
    returns lower counts once."""

    points_in: int = 0
    points_discarded: int = 0
    voxels_written: int = 0
    elapsed_ms: float = 0.0


def _scan_times(scan: ScanFrame) -> np.ndarray:
    if scan.timestamps is not None:
        return scan.timestamps
    n = scan.points.shape[0]
    return np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(n)


def motion_compensate(scan: ScanFrame, mode: str) -> ScanFrame:
    """Deskew: move each point to where it would have been observed from the
    end-of-sweep sensor frame, interpolating prev_pose -> pose at the point's
    normalized timestamp. mode "none" is the identity."""
    if mode not in COMPENSATION_MODES:
        raise ConfigurationError(f"unknown compensation mode {mode!r}")
    if mode == "none" or scan.points.shape[0] == 0:
        return scan
    if scan.prev_pose is None:
        raise ConfigurationError("motion compensation requires prev_pose")

    ts = np.clip(_scan_times(scan), 0.0, 1.0)
    T0, T1 = scan.prev_pose, scan.pose
    trans = (1.0 - ts)[:, None] * T0[:3, 3] + ts[:, None] * T1[:3, 3]
    if mode == "se3":
        rots = Slerp(
            [0.0, 1.0], Rotation.from_matrix(np.stack([T0[:3, :3], T1[:3, :3]]))
        )(ts)
    else:  # yaw-only: lerp heading along the shortest arc, keep end tilt
        y0 = Rotation.from_matrix(T0[:3, :3]).as_euler("zyx")[0]
        y1 = Rotation.from_matrix(T1[:3, :3]).as_euler("zyx")[0]
        dy = (y1 - y0 + np.pi) % (2 * np.pi) - np.pi
        tilt = Rotation.from_euler("z", -y1) * Rotation.from_matrix(T1[:3, :3])
        # (n, 1): one z angle per point; a flat (n,) array would be read
        # as a single rotation about n axes.
        rots = Rotation.from_euler("z", (y0 + ts * dy)[:, None]) * tilt

    mats = rots.as_matrix()  # (n, 3, 3)
    p_map = np.einsum("nij,nj->ni", mats, scan.points) + trans
    # Express in the end-of-sweep sensor frame.
    p_end = (p_map - T1[:3, 3]) @ T1[:3, :3]
    return ScanFrame(
        points=p_end, pose=scan.pose, timestamps=scan.timestamps,
        prev_pose=scan.prev_pose,
    )


def _fuse(grid, bank, pts_map, sensor, params) -> tuple[int, int]:
    """Fuse map-frame returns seen from ``sensor``. Returns the number of
    returns inside the bounds and the number of distinct voxels whose mask
    changed."""
    r = bank.half_extent
    dims = np.array(grid.dims)
    rays = pts_map - sensor
    centers = world_to_voxel_array(grid, pts_map)
    ok = np.linalg.norm(rays, axis=1) >= grid.voxel_size
    ok &= np.all((centers >= r) & (centers <= dims - 1 - r), axis=1)
    n_ok = int(np.count_nonzero(ok))
    if n_ok == 0:
        return 0, 0
    centers = centers[ok]
    b_a, b_e = bin_index_array(rays[ok], bank.b_az, bank.b_el)
    bins = b_a * bank.b_el + b_e
    # Flat indices in the grid's memory order, x fastest.
    strides = np.array([1, dims[0], dims[0] * dims[1]])
    cflat = centers @ strides
    # Stamp in voxel order for cache locality; the result does not depend
    # on the order. np.unique's first indices are already in voxel order.
    if params.first_return_per_voxel:
        _, order = np.unique(cflat, return_index=True)
    else:
        order = np.argsort(cflat, kind="stable")
    centers, bins, cflat = centers[order], bins[order], cflat[order]

    fuse_pass = _native.fuse_pass()
    if fuse_pass is None:
        return n_ok, _fuse_numpy(grid, bank, centers, bins, cflat, strides)
    # The C pass indexes these arrays unchecked; VoxelGrid checks its own.
    if (bank.distance_kernel.shape != (bank.size,) * 3
            or bank.shadow.shape != (bank.b_az * bank.b_el, len(bank.shadow_ball))
            or np.abs(bank.shadow_ball).max(initial=0) > r):
        raise ConfigurationError("kernel bank arrays do not match their sizes")
    # The pass reads C-ordered (nz, ny, nx) arrays: the transposed views of
    # the x-fastest grid, with the kernel transposed to match.
    seen = np.zeros(grid.num_voxels // 64 + 2, dtype=np.uint64)
    written = fuse_pass(
        grid.mask.T, grid.hits.T, grid.sign.T, seen, dims[::-1].copy(),
        np.ascontiguousarray(bank.distance_kernel.T), bank.size,
        cflat, bins, cflat.size,
        bank.shadow, bank.shadow_ball @ strides, bank.shadow.shape[1],
        grid.h_max, grid.t_occ,
    )
    return n_ok, written


def _fuse_numpy(grid, bank, centers, bins, cflat, strides) -> int:
    """The work of ``_fuse.c`` in numpy, for platforms where it cannot be
    built: the mask stamp, the changed-voxel count and the hits."""
    r = bank.half_extent
    # Mask stamp: an in-place AND of the distance kernel onto each return's
    # K^3 block; the frame's bounding box is compared before and after.
    mask, kernel = grid.mask, bank.distance_kernel
    lo = centers.min(axis=0) - r
    hi = centers.max(axis=0) + r + 1
    box = mask[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
    before = box.copy()
    for cx, cy, cz in centers.tolist():
        sub = mask[cx - r : cx + r + 1, cy - r : cy + r + 1, cz - r : cz + r + 1]
        np.bitwise_and(sub, kernel, out=sub)
    written = int(np.count_nonzero(box != before))

    # Hits: count the frame's shadow hits n per voxel, then add them as n
    # steps of h += h < h_max would: h stays when h >= h_max, else it
    # becomes min(h + n, h_max). int64 keeps n > 255 from wrapping. Each
    # return covers the ball offsets its bin's row of the shadow table marks.
    # Unnamed, the (returns, ball) sums are freed before np.unique sorts.
    idx, n = np.unique(
        (cflat[:, None] + bank.shadow_ball @ strides)[bank.shadow[bins]],
        return_counts=True,
    )
    # Flat views in memory order (a plain reshape(-1) would write a copy).
    hits = grid.hits.T.reshape(-1)
    h = hits[idx].astype(np.int64)
    h = np.where(h >= grid.h_max, h, np.minimum(h + n, grid.h_max))
    hits[idx] = h
    grid.sign.T.reshape(-1)[idx[h >= grid.t_occ]] = SIGN_OCCUPIED
    return written


def integrate_point(
    grid: VoxelGrid,
    bank: KernelBank,
    p_map,
    sensor_pos,
    params: IntegrationParams,
) -> str:
    """Fuse one map-frame return; returns "applied" or "discarded"."""
    p_map = np.asarray(p_map, dtype=np.float64).reshape(1, 3)
    sensor_pos = np.asarray(sensor_pos, dtype=np.float64)
    applied, _ = _fuse(grid, bank, p_map, sensor_pos, params)
    return "applied" if applied else "discarded"


def integrate_frame(
    grid: VoxelGrid,
    bank: KernelBank,
    scan: ScanFrame,
    params: IntegrationParams,
    threads: int = 1,
) -> FrameStats:
    """Fuse one scan: downsample, deskew, move to the map frame, then fuse
    every return in one pass (see the module docstring) under the grid's
    h_max and t_occ. Fusion runs on one thread; ``threads`` is accepted so
    that existing configurations keep working, and does not change the work
    or the result."""
    t0 = time.perf_counter()
    stats = FrameStats()
    pts = scan.points
    if pts.shape[0] == 0:
        return stats

    if params.downsample > 1:
        keep = slice(None, None, params.downsample)
        scan = ScanFrame(
            points=pts[keep], pose=scan.pose,
            timestamps=None if scan.timestamps is None else scan.timestamps[keep],
            prev_pose=scan.prev_pose,
        )
    scan = motion_compensate(scan, params.compensation)

    pts_map = scan.points @ scan.pose[:3, :3].T + scan.pose[:3, 3]
    stats.points_in = pts_map.shape[0]
    applied, stats.voxels_written = _fuse(grid, bank, pts_map, scan.pose[:3, 3], params)
    stats.points_discarded = stats.points_in - applied
    stats.elapsed_ms = (time.perf_counter() - t0) * 1e3
    return stats
