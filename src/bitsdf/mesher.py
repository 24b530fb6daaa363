"""Zero-isosurface extraction from the signed voxel field.

Classic 256-case marching cubes over the lattice of voxel centers. Cells with
any unobserved corner are skipped so no surface is hallucinated at the
observation frontier. A corner is "inside" when its signed distance is below
the iso level, or equals it on an occupied voxel; contact voxels (occupied,
zero distance) therefore anchor vertices exactly on their centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._mc_tables import (
    CORNER_OFFSETS,
    EDGE_AXIS,
    EDGE_BASE,
    EDGE_TABLE,
    TRI_TABLE,
)
from .grid import SIGN_OCCUPIED, VoxelGrid, signed_distance_field


@dataclass
class TriangleMesh:
    vertices: np.ndarray  # (v, 3) float64, world meters
    triangles: np.ndarray  # (f, 3) int64
    normals: np.ndarray | None = None  # (v, 3) unit vectors when present

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] == 0


def empty_mesh() -> TriangleMesh:
    return TriangleMesh(
        vertices=np.zeros((0, 3)), triangles=np.zeros((0, 3), dtype=np.int64)
    )


def extract_mesh(grid: VoxelGrid, iso: float = 0.0) -> TriangleMesh:
    """Deterministic marching cubes at the given iso level (meters)."""
    nx, ny, nz = grid.dims
    if min(nx, ny, nz) < 2:
        return empty_mesh()

    field, observed = signed_distance_field(grid)
    inside = (field < iso) | ((field == iso) & (grid.sign == SIGN_OCCUPIED))

    # Cube index and validity per cell (one cell per lower lattice corner),
    # x fastest like the grid.
    cells = (nx - 1, ny - 1, nz - 1)
    cube = np.zeros(cells, dtype=np.uint8, order="F")
    valid = np.ones(cells, dtype=bool, order="F")
    for c, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        sl = (
            slice(dx, nx - 1 + dx),
            slice(dy, ny - 1 + dy),
            slice(dz, nz - 1 + dz),
        )
        cube |= inside[sl].astype(np.uint8) << c
        valid &= observed[sl]

    active = valid & (EDGE_TABLE[cube] != 0)
    # Active cells found in memory order, then put in np.nonzero (C) order,
    # which fixes the order of the triangles.
    flat = np.flatnonzero(active.T)
    if flat.size == 0:
        return empty_mesh()
    cyz, cx = np.divmod(flat, nx - 1)
    cz, cy = np.divmod(cyz, ny - 1)
    order = np.argsort((cx * (ny - 1) + cy) * (nz - 1) + cz)
    cx, cy, cz = cx[order], cy[order], cz[order]
    rows = TRI_TABLE[cube[cx, cy, cz]]  # (m, 16)

    # Gather triangles as canonical lattice-edge keys:
    # key = ((ex*ny + ey)*nz + ez)*3 + axis.
    tri_keys = []
    for k in range(0, 15, 3):
        sel = rows[:, k] >= 0
        if not np.any(sel):
            continue
        keys3 = np.empty((int(np.count_nonzero(sel)), 3), dtype=np.int64)
        for j in range(3):
            e = rows[sel, k + j]
            ex = cx[sel] + EDGE_BASE[e, 0]
            ey = cy[sel] + EDGE_BASE[e, 1]
            ez = cz[sel] + EDGE_BASE[e, 2]
            keys3[:, j] = ((ex * ny + ey) * nz + ez) * 3 + EDGE_AXIS[e]
        tri_keys.append(keys3)
    if not tri_keys:
        return empty_mesh()
    all_keys = np.concatenate(tri_keys)
    uniq, inverse = np.unique(all_keys, return_inverse=True)
    triangles = inverse.reshape(-1, 3).astype(np.int64)

    # Interpolate one vertex per unique lattice edge.
    axis = uniq % 3
    rest = uniq // 3
    ez = rest % nz
    rest //= nz
    ey = rest % ny
    ex = rest // ny
    base = np.stack([ex, ey, ez], axis=1)
    step = np.eye(3, dtype=np.int64)[axis]
    other = base + step
    v1 = field[base[:, 0], base[:, 1], base[:, 2]]
    v2 = field[other[:, 0], other[:, 1], other[:, 2]]
    denom = v2 - v1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom != 0.0, (iso - v1) / denom, 0.0)
    t = np.clip(t, 0.0, 1.0)
    p1 = grid.origin + (base + 0.5) * grid.voxel_size
    p2 = grid.origin + (other + 0.5) * grid.voxel_size
    vertices = p1 + t[:, None] * (p2 - p1)
    return TriangleMesh(vertices=vertices, triangles=triangles)


def vertex_normals(mesh: TriangleMesh) -> TriangleMesh:
    """Attach area-weighted vertex normals (unit length). Vertices with no
    incident non-degenerate triangle keep a zero normal."""
    if mesh.is_empty:
        return TriangleMesh(mesh.vertices, mesh.triangles, np.zeros((0, 3)))
    v = mesh.vertices
    f = mesh.triangles
    face_n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    acc = np.zeros_like(v)
    for j in range(3):
        np.add.at(acc, f[:, j], face_n)
    norms = np.linalg.norm(acc, axis=1)
    nz = norms > 0.0
    acc[nz] /= norms[nz, None]
    return TriangleMesh(mesh.vertices, mesh.triangles, acc)
