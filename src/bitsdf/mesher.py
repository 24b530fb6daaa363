"""Iso-surface extraction from the signed voxel field.

Classic 256-case marching cubes over the lattice of voxel centers. Cells with
any unobserved corner are skipped so no surface is hallucinated at the
observation frontier. A corner is "inside" when its signed distance is below
the iso level, or equals it on an occupied voxel; contact voxels (occupied,
zero distance) therefore anchor vertices exactly on their centers.

No float field is built for the grid. A voxel's signed distance is
``grid.signed_distances`` of its mask popcount ``d`` (0..32) and sign, and
within one sign it is monotone in ``d``. So the inside test is exact on the
integers: ``d >= a`` on occupied voxels and ``d < b`` on the others, with
``a`` and ``b`` counted once per call over ``d = 0..32``; at iso 0 it is
simply "occupied".

Cells are classified one z-slab of about grid._SLAB_VOXELS voxels (whole z
planes, at least one) at a time, on the grid's C-ordered ``.T`` views, where
a slab is one contiguous block.
Each voxel becomes ``inside | unobserved << 8`` (uint16), and three shifted
ORs, along x, then y, then z, give each cell a 16-bit code whose bit
``dx + 2*dy + 4*dz`` is corner (dx, dy, dz)'s inside bit and whose bit
``8 + dx + 2*dy + 4*dz`` its unobserved bit. A cell is active exactly when
its code is in 1..254: every corner observed and the cube mixed. The case
table is permuted once, at import, from the classic corner order to this
binary code. Only active cells, their triangles and their edges are stored
beyond the slab, so extra memory is O(slab + surface).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_BASE, TRI_TABLE
from .errors import ConfigurationError
from .grid import (
    _SLAB_VOXELS,
    MAX_DISTANCE_CELLS,
    SIGN_FREE,
    SIGN_OCCUPIED,
    VoxelGrid,
    signed_distances,
)

# The case table by binary corner code: for each code, the 3 cube edges of
# each of its 5 triangle slots (-1 past its triangles), and its triangle
# count. Classic corner c is bit dx + 2*dy + 4*dz of the binary code.
_BIT_OF_CORNER = (CORNER_OFFSETS @ np.array([1, 2, 4])).tolist()
_TRI_BY_CODE = TRI_TABLE[
    sum(((np.arange(256) >> bit) & 1) << c for c, bit in enumerate(_BIT_OF_CORNER))
][:, :15].reshape(256, 5, 3)
_NTRI_BY_CODE = np.count_nonzero(_TRI_BY_CODE[:, :, 0] >= 0, axis=1)


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


def _active_cells(grid: VoxelGrid, iso: float):
    """Active cells, in np.nonzero order of the cell lattice, as their lower
    corners' x-major voxel indices ((x*ny + y)*nz + z) and binary corner
    codes."""
    nx, ny, nz = grid.dims
    d = np.arange(MAX_DISTANCE_CELLS + 1)
    a = np.count_nonzero(signed_distances(d, SIGN_OCCUPIED, grid.voxel_size) > iso)
    b = np.count_nonzero(signed_distances(d, SIGN_FREE, grid.voxel_size) < iso)
    mask, sign, hits = grid.mask.T, grid.sign.T, grid.hits.T  # (nz, ny, nx), C order
    plane_cells = (ny - 1) * (nx - 1)
    planes = max(1, _SLAB_VOXELS // (nx * ny))
    found = []
    for z0 in range(0, nz - 1, planes):
        z1 = min(z0 + planes, nz - 1) + 1  # voxel planes z0..z1-1 hold cells z0..z1-2
        pc = np.bitwise_count(mask[z0:z1])
        occupied = sign[z0:z1] == SIGN_OCCUPIED
        inside = (occupied & (pc >= a)) | (~occupied & (pc < b))
        # Unobserved: all mask bits set (popcount 32) and no hits.
        v = ((pc == MAX_DISTANCE_CELLS) & (hits[z0:z1] == 0)).astype(np.uint16)
        v <<= 8
        v |= inside
        # Corner (dx, dy, dz)'s bits go up by dx + 2*dy + 4*dz.
        w = v[:, :, 1:] << 1
        w |= v[:, :, :-1]
        v = w[:, 1:] << 2
        v |= w[:, :-1]
        w = v[1:] << 4
        w |= v[:-1]
        v = w.reshape(-1)
        v -= 1  # active codes 1..254 become 0..253
        flat = np.flatnonzero(v < 254)
        cz, cyx = np.divmod(flat, plane_cells)
        cy, cx = np.divmod(cyx, nx - 1)
        # Cell index and code in one int64, to put cells in order with one sort.
        found.append((((cx * ny + cy) * nz + cz + z0) << 8) | (v[flat] + 1))
    found = np.sort(np.concatenate(found))
    return found >> 8, (found & 0xFF).astype(np.uint8)


def _triangle_keys(cell, code, dims):
    """(t, 3) canonical lattice-edge keys ((ex*ny + ey)*nz + ez)*3 + axis of
    the cells' triangles, slot by slot of the case table, cells in order
    within a slot."""
    _, ny, nz = dims
    eb = EDGE_BASE.astype(np.int64)
    # An edge's key is its cell's index times 3 plus a constant of the edge.
    off = ((eb[:, 0] * ny + eb[:, 1]) * nz + eb[:, 2]) * 3 + EDGE_AXIS
    has = _NTRI_BY_CODE[code] > np.arange(5)[:, None]  # (5, m), slot-major
    rows = (code.astype(np.intp) * 5 + np.arange(5)[:, None])[has]
    cells = np.broadcast_to(cell, has.shape)[has]
    keys = off[_TRI_BY_CODE.reshape(-1, 3)[rows]]
    keys += (cells * 3)[:, None]
    return keys


def extract_mesh(grid: VoxelGrid, iso: float = 0.0) -> TriangleMesh:
    """Deterministic marching cubes at the given iso level (meters).

    Raises ConfigurationError for a non-finite iso."""
    if not math.isfinite(iso):
        raise ConfigurationError(f"iso must be finite, got {iso}")
    nx, ny, nz = grid.dims
    if min(nx, ny, nz) < 2:
        return empty_mesh()
    cell, code = _active_cells(grid, iso)
    if cell.size == 0:
        return empty_mesh()
    uniq, inverse = np.unique(_triangle_keys(cell, code, grid.dims), return_inverse=True)
    return TriangleMesh(
        vertices=_edge_vertices(grid, uniq, iso),
        triangles=inverse.reshape(-1, 3).astype(np.int64, copy=False),
    )


def _edge_vertices(grid: VoxelGrid, keys, iso: float):
    """The iso crossing on each lattice edge, by linear interpolation of the
    signed distances at its ends."""
    nx, ny, nz = grid.dims
    axis = keys % 3
    rest = keys // 3
    ez = rest % nz
    rest //= nz
    ey = rest % ny
    ex = rest // ny
    base = np.stack([ex, ey, ez], axis=1)
    step = np.eye(3, dtype=np.int64)[axis]
    other = base + step

    def field(p):
        i = (p[:, 2] * ny + p[:, 1]) * nx + p[:, 0]
        pc = np.bitwise_count(grid.mask.T.reshape(-1)[i])
        return signed_distances(pc, grid.sign.T.reshape(-1)[i], grid.voxel_size)

    v1 = field(base)
    v2 = field(other)
    denom = v2 - v1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom != 0.0, (iso - v1) / denom, 0.0)
    t = np.clip(t, 0.0, 1.0)
    p1 = grid.origin + (base + 0.5) * grid.voxel_size
    p2 = grid.origin + (other + 0.5) * grid.voxel_size
    return p1 + t[:, None] * (p2 - p1)


def vertex_normals(mesh: TriangleMesh) -> TriangleMesh:
    """Attach area-weighted vertex normals (unit length). Vertices with no
    incident non-degenerate triangle keep a zero normal."""
    if mesh.is_empty:
        return TriangleMesh(mesh.vertices, mesh.triangles, np.zeros((0, 3)))
    v = mesh.vertices
    f = mesh.triangles
    face_n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    # Each vertex sums its corner-0 faces, then corner-1, then corner-2
    # faces, in face order.
    corners = f.T.reshape(-1)
    acc = np.stack(
        [np.bincount(corners, weights=np.tile(face_n[:, a], 3), minlength=len(v))
         for a in range(3)],
        axis=1,
    )
    norms = np.linalg.norm(acc, axis=1)
    nz = norms > 0.0
    acc[nz] /= norms[nz, None]
    return TriangleMesh(mesh.vertices, mesh.triangles, acc)
