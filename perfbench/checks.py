"""Correctness checks for one benchmark round.

Every check compares the program's output with a computation made here from
the generated inputs and the documented rules, or with a property the method
must have. None compares against a stored copy of earlier output. Each raises
CheckFailed with the first disagreement it finds.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

FULL = np.uint32(0xFFFFFFFF)
CSV_HEADER = "x,y,z,sdf,hits,sign"


class CheckFailed(Exception):
    pass


def _fail_if(cond, msg):
    if cond:
        raise CheckFailed(msg)


def _observed(mask, hits):
    return ~((mask == FULL) & (hits == 0))


# ---------------------------------------------------------------------------
# grid


def check_roundtrip(fused, loaded):
    """The snapshot written by fuse loads back to the fused grid exactly."""
    _fail_if(tuple(fused.dims) != tuple(loaded.dims), "snapshot dims differ")
    _fail_if(fused.voxel_size != loaded.voxel_size, "snapshot voxel size differs")
    _fail_if(not np.array_equal(fused.origin, loaded.origin), "snapshot origin differs")
    _fail_if((fused.h_max, fused.t_occ) != (loaded.h_max, loaded.t_occ),
             "snapshot h_max/t_occ differ")
    for name in ("mask", "sign", "hits"):
        a, b = getattr(fused, name), getattr(loaded, name)
        bad = np.count_nonzero(a != b)
        _fail_if(bad, f"snapshot {name} differs from the fused grid in {bad} voxels")


def check_invariants(grid, t_occ, h_max):
    """Masks are low-bit runs, hits saturate at h_max, and a voxel is
    occupied (sign 0) exactly when its hits reach t_occ."""
    _fail_if((grid.t_occ, grid.h_max) != (t_occ, h_max),
             f"grid t_occ/h_max {grid.t_occ}/{grid.h_max} != {t_occ}/{h_max}")
    m = grid.mask
    bad = np.count_nonzero(m & (m + np.uint32(1)))
    _fail_if(bad, f"{bad} masks are not low-bit runs")
    bad = np.count_nonzero(grid.hits > h_max)
    _fail_if(bad, f"{bad} hit counts exceed h_max {h_max}")
    bad = np.count_nonzero(grid.sign > 1)
    _fail_if(bad, f"{bad} sign bytes outside {{0, 1}}")
    bad = np.count_nonzero((grid.sign == 0) != (grid.hits >= t_occ))
    _fail_if(bad, f"{bad} voxels have sign != (hits >= t_occ)")


def applied_centers(points_map, sensor, dims, voxel_size, origin, half_extent):
    """Documented fusion rule: a return's center voxel is
    floor((p - origin) / voxel_size); the return is applied when it is at
    least one voxel from the sensor and its whole K^3 neighborhood lies in
    the grid. Returns (centers, applied)."""
    centers = np.floor((points_map - origin) / voxel_size).astype(np.int64)
    r = half_extent
    hi = np.asarray(dims) - 1 - r
    applied = np.all((centers >= r) & (centers <= hi), axis=1)
    applied &= np.linalg.norm(points_map - sensor, axis=1) >= voxel_size
    return centers, applied


def check_discards(expected, reported, on_max_face):
    """Per frame, the program discarded exactly the returns the documented
    rule discards, and every discarded return lies on a bounds_max face
    (the padding fault). ``expected`` and ``reported`` are per-frame discard
    counts; ``on_max_face`` is per-frame (discard mask, max-face mask)."""
    _fail_if(len(expected) != len(reported),
             f"{len(reported)} frames fused, {len(expected)} expected")
    for i, (e, r) in enumerate(zip(expected, reported)):
        _fail_if(e != r, f"frame {i}: program discarded {r} returns, rule says {e}")
    for i, (discard, max_face) in enumerate(on_max_face):
        bad = np.count_nonzero(discard & ~max_face)
        _fail_if(bad, f"frame {i}: {bad} returns discarded off the bounds_max faces")


def distance_cube(half_extent):
    """ceil(|offset|) over the K^3 cube, capped at 32 bits."""
    r = half_extent
    o = np.arange(-r, r + 1)
    ox, oy, oz = np.meshgrid(o, o, o, indexing="ij")
    return np.minimum(np.ceil(np.sqrt(ox**2 + oy**2 + oz**2)), 32).astype(np.int64)


def expected_popcounts(dims, centers, voxels, half_extent):
    """Truncated distance at each voxel: the minimum ceiled offset norm to an
    applied center within the K^3 cube around it, 32 when there is none."""
    is_center = np.zeros(dims, dtype=bool)
    is_center[centers[:, 0], centers[:, 1], centers[:, 2]] = True
    r = half_extent
    padded = np.pad(is_center, r)
    cube = distance_cube(r)
    out = np.empty(len(voxels), dtype=np.int64)
    for i, (x, y, z) in enumerate(voxels):
        win = padded[x : x + 2 * r + 1, y : y + 2 * r + 1, z : z + 2 * r + 1]
        out[i] = cube[win].min() if win.any() else 32
    return out


def sample_voxels(dims, centers, n, rng, half_extent):
    """Half uniform over the grid, half within the K^3 cube of a random
    applied center, so the sample covers both far and near voxels."""
    dims = np.asarray(dims)
    uni = rng.integers(0, dims, size=(n // 2, 3))
    if len(centers):
        pick = centers[rng.integers(0, len(centers), size=n - n // 2)]
        near = pick + rng.integers(-half_extent, half_extent + 1, size=pick.shape)
        near = np.clip(near, 0, dims - 1)
        uni = np.concatenate([uni, near])
    return uni


def check_popcounts(grid, voxels, expected):
    got = np.bitwise_count(grid.mask[voxels[:, 0], voxels[:, 1], voxels[:, 2]])
    bad = np.nonzero(got.astype(np.int64) != expected)[0]
    if bad.size:
        v = tuple(int(c) for c in voxels[bad[0]])
        raise CheckFailed(
            f"{bad.size} of {len(voxels)} sampled voxels have the wrong distance; "
            f"voxel {v}: popcount {int(got[bad[0]])}, expected {int(expected[bad[0]])}"
        )


# ---------------------------------------------------------------------------
# mesh


def surface_distance(points, lo, hi):
    """Distance from each point to the boundary surface of the box."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    c, h = (lo + hi) / 2.0, (hi - lo) / 2.0
    q = np.abs(points - c) - h
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(q.max(axis=1), 0.0)
    return np.abs(outside + inside)


def check_mesh_near_surface(mesh, lo, hi, voxel_size, tol_voxels):
    _fail_if(mesh.vertices.shape[0] == 0, "mesh is empty")
    _fail_if(mesh.triangles.shape[0] == 0, "mesh has no triangles")
    _fail_if(mesh.triangles.min() < 0 or mesh.triangles.max() >= len(mesh.vertices),
             "triangle index out of range")
    d = surface_distance(mesh.vertices, lo, hi)
    worst = int(np.argmax(d))
    _fail_if(d[worst] > tol_voxels * voxel_size,
             f"vertex {worst} lies {d[worst] / voxel_size:.2f} voxels from the room "
             f"surface (limit {tol_voxels})")
    if mesh.normals is not None:
        # Unit length, or zero on a vertex with only degenerate triangles.
        n = np.linalg.norm(mesh.normals, axis=1)
        bad = np.count_nonzero((np.abs(n - 1.0) > 1e-9) & (n != 0.0))
        _fail_if(bad, f"{bad} vertex normals are neither unit length nor zero")


# ---------------------------------------------------------------------------
# evaluation


def nn_distances(query, target):
    """Exact nearest-neighbor distances. The tree is built unbalanced and
    uncompacted: on predictions with holes this stays fast where the default
    build does not, and the query is exact either way."""
    tree = cKDTree(target, balanced_tree=False, compact_nodes=False)
    return tree.query(query, k=1)[0]


def check_nn_sample(dist, query, target, idx):
    """Per-query distances agree with brute force on the sampled queries."""
    for i in idx:
        ref = math.sqrt(float(np.min(np.sum((target - query[i]) ** 2, axis=1))))
        _fail_if(abs(dist[i] - ref) > 1e-12 * max(1.0, ref),
                 f"query {i}: distance {float(dist[i])!r}, brute force {ref!r}")


def eval_figures(d_pred, d_gt, threshold):
    acc, comp = float(np.mean(d_pred)), float(np.mean(d_gt))
    recall = 100.0 * float(np.mean(d_gt <= threshold))
    precision = 100.0 * float(np.mean(d_pred <= threshold))
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"accuracy_m": acc, "completeness_m": comp,
            "chamfer_l1_m": (acc + comp) / 2.0, "recall_pct": recall,
            "precision_pct": precision, "fscore_pct": f}


def check_report(report, figures, n_pred, n_gt):
    _fail_if((report.n_pred, report.n_gt) != (n_pred, n_gt),
             f"report counts {report.n_pred}/{report.n_gt} != {n_pred}/{n_gt}")
    for name, want in figures.items():
        got = getattr(report, name)
        _fail_if(not abs(got - want) <= 1e-9,
                 f"report {name} = {got!r}, recomputed {want!r}")


# ---------------------------------------------------------------------------
# CSV export


def check_csv(path, grid, include, rows_to_check):
    """Row count matches the selection taken from the snapshot, and each
    checked row decodes back to its voxel's center, sdf, hits and sign."""
    if include == "observed":
        sel = _observed(grid.mask, grid.hits)
    else:
        sel = grid.sign == 0
    want_rows = int(np.count_nonzero(sel))
    with open(path, "rb") as f:
        data = f.read()
    n_lines = data.count(b"\n")
    _fail_if(not data.startswith((CSV_HEADER + "\n").encode()), "CSV header wrong")
    _fail_if(n_lines - 1 != want_rows,
             f"CSV has {n_lines - 1} rows, snapshot selects {want_rows}")
    rows = data.split(b"\n", 1)[1].split(b"\n")
    vs, origin = grid.voxel_size, grid.origin
    for i in rows_to_check:
        fields = rows[i].split(b",")
        _fail_if(len(fields) != 6, f"CSV row {i} has {len(fields)} fields")
        x, y, z, sdf = (float(v) for v in fields[:4])
        hits, sign = int(fields[4]), int(fields[5])
        p = np.array([x, y, z])
        idx = np.floor((p - origin) / vs).astype(np.int64)
        _fail_if(np.any(idx < 0) or np.any(idx >= grid.dims),
                 f"CSV row {i} lies outside the grid")
        ix, iy, iz = (int(v) for v in idx)
        center = origin + (idx + 0.5) * vs
        _fail_if(np.max(np.abs(center - p)) > 1e-9,
                 f"CSV row {i} is not a voxel center")
        _fail_if(not sel[ix, iy, iz], f"CSV row {i} voxel is not selected")
        m = int(grid.mask[ix, iy, iz])
        s = int(grid.sign[ix, iy, iz])
        want_sdf = (-1.0 if s == 0 else 1.0) * m.bit_count() * vs
        _fail_if(abs(sdf - want_sdf) > 1e-12, f"CSV row {i} sdf {sdf} != {want_sdf}")
        _fail_if(hits != int(grid.hits[ix, iy, iz]), f"CSV row {i} hits differ")
        _fail_if(sign != s, f"CSV row {i} sign differs")
