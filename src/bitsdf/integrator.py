"""Fuse posed scans into the voxel grid.

Per scan: optional downsampling and motion compensation, then the transform
to the map frame. All returns of the scan are then fused in one pass:

1. Prepare, vectorized on the x, y and z components of the returns: drop
   returns closer than one voxel to the sensor or whose K^3 neighborhood
   leaves the grid, sort the rest by center voxel, and pick each kept
   return's azimuth-elevation bin from its map-frame ray.
2. The compiled pass (``_fuse.c``, built on first use by ``_native``) stamps
   the masks plane by plane. For each z plane it ANDs the kernel's slice
   onto every word of the block rows of the returns whose K^3 block reaches
   that plane (a contiguous run of the sorted returns), so its working set
   is one plane and the kernel. It marks each voxel whose mask that changes
   in a bitmap of the plane, counted and cleared once the plane is done (so
   ``voxels_written`` counts distinct voxels). Rows are stamped with
   AVX-512F where the CPU has it, chosen once per process, and with a portable
   loop elsewhere; both give the same grid. Then it adds one hit to each
   voxel of each return's shadow, saturating at the grid's h_max, marking
   the voxel occupied once its count reaches the grid's t_occ.

With ``threads`` above 1 the pass is split by ownership of z planes, the
slowest axis in memory: the planes are cut into bands that hold about the
same number of (return, plane) pairs, one per worker, and each worker runs
the pass over the returns whose blocks reach its band, which it finds in
the sorted returns itself, writing masks, hits, signs and changed-voxel
bits of its own planes only. The bands are disjoint, so the workers need no
locks, and each voxel sees the same updates in the same order for any
thread count. The whole frame is one call of the compiled library with one
argument, the C ``struct frame``, filled by member name through its ctypes
mirror ``_native.Frame`` around the ``struct grid`` that
``_native.grid_view`` fills: it runs the first band on the calling thread
and starts and joins a thread of its own for each other band.

Where the C file cannot be built, the same work runs in numpy on one
thread, whatever ``threads`` says: an in-place AND per return, a diff of the
frame's bounding box before and after, and one batched hit update per
frame. It gives the same grid at more than ten times the cost per return.

AND is commutative and idempotent and the saturating add is monotone, so
the grid does not depend on the order of the returns.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import _native
from .errors import ConfigurationError
from .grid import SIGN_OCCUPIED, VoxelGrid
from .kernels import KernelBank, bin_index_array
from .transforms import check_pose

COMPENSATION_MODES = ("none", "yaw", "se3")


@dataclass
class ScanFrame:
    """One LiDAR sweep: points in the sensor frame plus the end-of-sweep pose
    (4x4, map frame). ``prev_pose`` is the pose at the start of the sweep and
    is only needed for motion compensation. ``timestamps`` are normalized to
    [0, 1] over the sweep; when absent, deskew spreads times evenly over
    the points kept after downsampling, in point order. Checked when made,
    points and timestamps included (each must be finite), and each pose must
    be a rigid 4x4 transform with last row (0, 0, 0, 1): fusion reads the
    scan unchecked."""

    points: np.ndarray
    pose: np.ndarray
    timestamps: np.ndarray | None = None
    prev_pose: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise ConfigurationError("scan points must be finite")
        self.pose = np.asarray(self.pose, dtype=np.float64)
        check_pose(self.pose)
        if self.prev_pose is not None:
            self.prev_pose = np.asarray(self.prev_pose, dtype=np.float64)
            check_pose(self.prev_pose)
        if self.timestamps is not None:
            self.timestamps = np.asarray(self.timestamps, dtype=np.float64).ravel()
            if self.timestamps.shape[0] != self.points.shape[0]:
                raise ConfigurationError("timestamp count does not match point count")
            if not np.all(np.isfinite(self.timestamps)):
                raise ConfigurationError("scan timestamps must be finite")


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


@dataclass(frozen=True)
class FrameStats:
    """Counts for one fused scan. ``points_in`` counts the returns kept by
    downsampling; ``discarded_downsample`` those it dropped.
    ``points_discarded`` counts the returns dropped by the sensor-distance
    and bounds checks: ``discarded_near`` those closer than one voxel to the
    sensor, and ``discarded_bounds`` the others, whose K^3 block leaves the
    grid. ``discarded_duplicate`` counts the returns that passed both checks
    but were not stamped because ``first_return_per_voxel`` keeps only the
    first return of each center voxel. ``discarded_nonfinite``, set by
    run_fuse, counts the scan file's rows dropped as not finite before any of
    this. ``voxels_written`` is the number of distinct voxels whose distance
    mask changed in the frame; a voxel that several returns lower counts
    once. ``elapsed_ms`` is the whole frame's time; ``prepare_ms`` that of
    the vectorized prepare (bounds, sort, bins), and ``pass_ms`` that of the
    stamp: the plane cuts and the call of the compiled pass, with its
    workers, or the numpy code where it cannot be built."""

    points_in: int = 0
    points_discarded: int = 0
    voxels_written: int = 0
    elapsed_ms: float = 0.0
    prepare_ms: float = 0.0
    pass_ms: float = 0.0
    discarded_near: int = 0
    discarded_bounds: int = 0
    discarded_downsample: int = 0
    discarded_duplicate: int = 0
    discarded_nonfinite: int = 0


def motion_compensate(points, times, prev_pose, pose, mode: str) -> np.ndarray:
    """Deskew: move each point (n, 3) to where it would have been observed
    from the end-of-sweep sensor frame, interpolating prev_pose -> pose at
    the point's normalized time; with ``times`` None, the times are spread
    evenly over the points in their order. mode "none" is the identity."""
    if mode not in COMPENSATION_MODES:
        raise ConfigurationError(f"unknown compensation mode {mode!r}")
    if mode == "none" or len(points) == 0:
        return points
    if prev_pose is None:
        raise ConfigurationError("motion compensation requires prev_pose")
    from scipy.spatial.transform import Rotation, Slerp

    ts = np.clip(np.linspace(0.0, 1.0, len(points)) if times is None else times,
                 0.0, 1.0)
    T0, T1 = prev_pose, pose
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
    p_map = np.einsum("nij,nj->ni", mats, points) + trans
    # Express in the end-of-sweep sensor frame.
    return (p_map - T1[:3, 3]) @ T1[:3, :3]


def fusion_path() -> str:
    """The path that fuses frames in this process: "avx512" or "portable"
    (the compiled pass, named by its row stamp) or "numpy"."""
    lib = _native.library()
    return lib.path if lib else "numpy"


def check_threads(threads) -> int:
    """``threads`` as a worker count: an integer of at least 1, else
    ConfigurationError."""
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ConfigurationError(f"threads must be an integer >= 1, got {threads!r}")
    return int(threads)


def _prepare(grid, bank, pts_map, sensor, first_return_per_voxel):
    """The returns of ``pts_map`` (map frame, seen from ``sensor``) that
    fusion applies: at least one voxel from the sensor, with the K^3 block
    around their center voxel inside the grid. Returns how many are dropped
    as too near and how many of the others as outside the bounds, and the
    flat center index (x fastest) and shadow bin of each one to stamp,
    sorted by center; with ``first_return_per_voxel``, only the first return
    of each center voxel is stamped.

    Each axis is handled on its own components: the ray, the floored
    center voxel (checked against the bounds before the cast) and the
    norm, computed once and reused for the elevation bin. Bins are computed
    only for the returns kept, after sorting."""
    r, vs = bank.half_extent, grid.voxel_size
    rx, ry, rz = (pts_map[:, a] - sensor[a] for a in range(3))
    cells = [np.floor((pts_map[:, a] - grid.origin[a]) / vs) for a in range(3)]
    # The sum in np.linalg.norm's order, so the same bits.
    norms = np.sqrt(rx * rx + ry * ry + rz * rz)
    ok = norms >= vs
    near = len(ok) - int(np.count_nonzero(ok))
    for c, n in zip(cells, grid.dims):
        ok &= (c >= r) & (c <= n - 1 - r)
    keep = np.flatnonzero(ok)
    nx, ny, _ = grid.dims
    cx, cy, cz = (c[keep].astype(np.int64) for c in cells)
    cflat = cx + nx * (cy + ny * cz)
    # Stamp in voxel order for cache locality; the result does not depend
    # on the order. np.unique's first indices are already in voxel order.
    if first_return_per_voxel:
        _, order = np.unique(cflat, return_index=True)
    else:
        order = np.argsort(cflat, kind="stable")
    cflat, stamped = cflat[order], keep[order]
    b_a, b_e = bin_index_array(rx[stamped], ry[stamped], rz[stamped],
                               norms[stamped], bank.b_az, bank.b_el)
    return near, len(ok) - near - len(keep), cflat, bank.flat_bin(b_a, b_e)


def _fuse(grid, bank, pts_map, sensor, params, threads=1) -> FrameStats:
    """Fuse map-frame returns seen from ``sensor``; returns the frame's
    counts, prepare_ms and pass_ms (elapsed_ms is left 0)."""
    t0 = time.perf_counter()
    near, outside, cflat, bins = _prepare(grid, bank, pts_map, sensor,
                                          params.first_return_per_voxel)
    t1 = time.perf_counter()
    written = 0
    if len(cflat):
        lib = _native.library()
        if lib is None:
            written = _fuse_numpy(grid, bank, cflat, bins)
        else:
            nx, ny, nz = grid.dims
            cuts = _plane_cuts(cflat // (nx * ny), nz, bank.size,
                               min(threads, os.cpu_count() or 1, nz))
            written = _fuse_compiled(grid, bank, lib, cflat, bins, cuts)
    t2 = time.perf_counter()
    return FrameStats(
        points_in=len(pts_map), points_discarded=near + outside,
        voxels_written=written, prepare_ms=(t1 - t0) * 1e3,
        pass_ms=(t2 - t1) * 1e3, discarded_near=near, discarded_bounds=outside,
        discarded_duplicate=len(pts_map) - near - outside - len(cflat))


def _fuse_compiled(grid, bank, lib, cflat, bins, cuts) -> int:
    """Run ``lib``'s frame entry over the sorted returns on the bands of z
    planes between ``cuts`` (int64, as ``_plane_cuts`` gives); each band
    finds the returns whose blocks reach its planes. Returns the changed-voxel
    count. The ``struct frame`` holds the grid's ``struct grid`` and the
    kernel bank's arrays, which the pass reads unchecked: VoxelGrid and
    KernelBank check them when they are made."""
    nx, ny, _ = grid.dims
    ball = bank.shadow_ball @ np.array([1, nx, nx * ny])
    # Bare addresses of arrays that the arguments and locals here keep alive
    # through the call.
    frame = _native.Frame(
        grid=_native.grid_view(grid), cuts=cuts.ctypes.data,
        bands=len(cuts) - 1, kernel=bank.distance_kernel.ctypes.data,
        k=bank.size, cflat=cflat.ctypes.data, bins=bins.ctypes.data,
        n=len(cflat), shadow=bank.shadow.ctypes.data, ball=ball.ctypes.data,
        m=len(ball), h_max=grid.h_max, t_occ=grid.t_occ,
        avx512=lib.path == "avx512")
    written = lib.fuse(frame)
    if written < 0:
        raise MemoryError("cannot allocate a z plane's changed-voxel bitmap")
    return written


def _plane_cuts(planes, nz, k, workers) -> np.ndarray:
    """Cuts 0 = c_0 < ... < c_w = nz of the z planes into at most ``workers``
    bands that hold about the same number of (return, plane) pairs, given the
    center plane of each return and the kernel size K: a return's block
    covers the K planes around its center."""
    if workers == 1:
        return np.array([0, nz])
    pairs = np.convolve(np.bincount(planes, minlength=nz), np.ones(k, np.int64),
                        mode="same")
    cum = np.cumsum(pairs)
    inner = np.searchsorted(cum, cum[-1] * np.arange(1, workers) / workers) + 1
    return np.unique(np.concatenate(([0], inner, [nz])))


def _fuse_numpy(grid, bank, cflat, bins) -> int:
    """The work of ``_fuse.c`` in numpy, for platforms where it cannot be
    built: the mask stamp, the changed-voxel count and the hits."""
    r = bank.half_extent
    nx, ny, _ = grid.dims
    centers = np.stack([cflat % nx, cflat // nx % ny, cflat // (nx * ny)], axis=1)
    strides = np.array([1, nx, nx * ny])
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
    stats = _fuse(grid, bank, p_map, sensor_pos, params)
    return "discarded" if stats.points_discarded else "applied"


def integrate_frame(
    grid: VoxelGrid,
    bank: KernelBank,
    scan: ScanFrame,
    params: IntegrationParams,
    threads: int = 1,
) -> FrameStats:
    """Fuse one scan: downsample, deskew, move to the map frame, then fuse
    every return in one pass (see the module docstring) under the grid's
    h_max and t_occ. The compiled pass runs on min(threads, CPU count,
    z planes) workers that each own a band of z planes; the numpy fallback
    runs on one. The grid and the stats do not depend on ``threads``, which
    must be an integer of at least 1 (ConfigurationError otherwise)."""
    threads = check_threads(threads)
    if len(scan.points) == 0:
        return FrameStats()
    t0 = time.perf_counter()
    keep = slice(None, None, params.downsample)
    times = None if scan.timestamps is None else scan.timestamps[keep]
    pts = motion_compensate(scan.points[keep], times, scan.prev_pose, scan.pose,
                            params.compensation)
    pts_map = pts @ scan.pose[:3, :3].T + scan.pose[:3, 3]
    stats = _fuse(grid, bank, pts_map, scan.pose[:3, 3], params, threads)
    return replace(stats, elapsed_ms=(time.perf_counter() - t0) * 1e3,
                   discarded_downsample=len(scan.points) - len(pts))
