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
a slab is one contiguous block. Each cell gets a code whose bit
``dx + 2*dy + 4*dz`` is corner (dx, dy, dz)'s inside bit, and is active
exactly when its eight corners are observed and the code is in 1..254 (the
cube is mixed). The case table is permuted once, at import, from the
classic corner order to this binary code. Only active cells, their
triangles and their edges are stored beyond the slab, so extra memory is
O(slab + surface).

The grid-sized and the surface-sized step run in the compiled library that
``_native`` builds from ``_fuse.c``, where it can be built, each called
with one struct filled by member name around ``_native.grid_view(grid)``:

- ``bitsdf_classify_cells`` (``struct classify``: the slab's planes, the
  inside thresholds and two scratch arrays) walks a slab plane by plane.
  It turns each voxel plane into one byte per cell lower corner holding
  the inside and unobserved bits of the cell's four corners in that plane,
  combines two such planes into the codes of the cells between them, and
  writes each active cell as ``(x-major index << 8) | code``. The byte
  planes of the last voxel plane carry over to the next slab.
- ``bitsdf_emit_mesh`` (``struct emit``: the active cells and codes, the
  case table, the iso level, the bitmap and the outputs) goes from the
  active cells to the mesh. It sets
  the bit of each triangle edge's lattice-edge key in a bitmap of the edges
  between the first and the last active cell, gives each triangle corner
  the rank of its key from the popcounts of the bitmap words before and in
  its own word, and writes one vertex per set bit, in bit order.

Elsewhere the same steps run in numpy: each voxel becomes
``inside | unobserved << 8`` (uint16), and three shifted ORs, along x, then
y, then z, give each cell a 16-bit code whose high byte is its corners'
unobserved bits; the triangles' edge keys are ranked by ``np.unique``, and
the vertices are interpolated on the unique keys. Both give the same bytes
(the library is built with ``-ffp-contract=off``, so each float operation
rounds as numpy's does), and every scratch buffer of the compiled steps is
a numpy array that the caller allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
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
# Contiguous, as the compiled library reads them.
_BIT_OF_CORNER = (CORNER_OFFSETS @ np.array([1, 2, 4])).tolist()
_TRI_BY_CODE = np.ascontiguousarray(TRI_TABLE[
    sum(((np.arange(256) >> bit) & 1) << c for c, bit in enumerate(_BIT_OF_CORNER))
][:, :15].reshape(256, 5, 3))
_NTRI_BY_CODE = np.count_nonzero(_TRI_BY_CODE[:, :, 0] >= 0, axis=1)
# The number of distinct cube edges among each code's triangles.
_NEDGE_BY_CODE = np.array([np.unique(t[t >= 0]).size for t in _TRI_BY_CODE])

# face_cross is computed this many triangles at a time (and
# metrics.sample_mesh blends this many samples at a time), so that a block's
# temporaries stay in cache.
_AREA_BLOCK = 1 << 14


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


def _active_cells(grid: VoxelGrid, iso: float, lib):
    """Active cells, in np.nonzero order of the cell lattice, as their lower
    corners' x-major voxel indices ((x*ny + y)*nz + z) and binary corner
    codes; classified by ``lib``, the compiled library, or by numpy where
    it is None."""
    nx, ny, nz = grid.dims
    d = np.arange(MAX_DISTANCE_CELLS + 1)
    a = np.count_nonzero(signed_distances(d, SIGN_OCCUPIED, grid.voxel_size) > iso)
    b = np.count_nonzero(signed_distances(d, SIGN_FREE, grid.voxel_size) < iso)
    planes = max(1, _SLAB_VOXELS // (nx * ny))
    slabs = [(z0, min(z0 + planes, nz - 1)) for z0 in range(0, nz - 1, planes)]
    if lib is None:
        found = [_slab_cells(grid, z0, z1, a, b) for z0, z1 in slabs]
    else:
        # Two planes of corner quads, carried from slab to slab, and room
        # for every cell of a slab.
        quads = np.empty(2 * ny * nx, np.uint8)
        out = np.empty(min(planes, nz - 1) * (ny - 1) * (nx - 1), np.int64)
        args = _native.Classify(grid=_native.grid_view(grid), a=a, b=b,
                                quads=quads.ctypes.data, out=out.ctypes.data)
        found = []
        for z0, z1 in slabs:
            args.z0, args.z1 = z0, z1
            found.append(out[:lib.classify_cells(args)].copy())
    # Cell index and code in one int64, to put cells in order with one sort.
    found = np.sort(np.concatenate(found))
    return found >> 8, (found & 0xFF).astype(np.uint8)


def _slab_cells(grid: VoxelGrid, z0: int, z1: int, a: int, b: int):
    """The active cells of cell planes z0..z1-1 in numpy, as
    ``(x-major index << 8) | code`` in (z, y, x) order; a voxel is inside
    when its popcount is at least ``a`` on an occupied voxel, or below
    ``b`` on the others."""
    _, ny, nz = grid.dims
    # Voxel planes z0..z1 hold cells z0..z1-1; (nz, ny, nx) views, C order.
    mask, sign, hits = (f.T[z0 : z1 + 1] for f in (grid.mask, grid.sign, grid.hits))
    pc = np.bitwise_count(mask)
    occupied = sign == SIGN_OCCUPIED
    inside = (occupied & (pc >= a)) | (~occupied & (pc < b))
    # Unobserved: all mask bits set (popcount 32) and no hits.
    v = ((pc == MAX_DISTANCE_CELLS) & (hits == 0)).astype(np.uint16)
    v <<= 8
    v |= inside
    # Corner (dx, dy, dz)'s bits go up by dx + 2*dy + 4*dz.
    w = v[:, :, 1:] << 1
    w |= v[:, :, :-1]
    v = w[:, 1:] << 2
    v |= w[:, :-1]
    w = v[1:] << 4
    w |= v[:-1]
    w -= 1  # active codes 1..254 become 0..253
    cz, cy, cx = np.nonzero(w < 254)
    return (((cx * ny + cy) * nz + cz + z0) << 8) | (w[cz, cy, cx] + 1)


def _edge_offsets(dims):
    """The key of each cube edge of cell 0: an edge's key is its cell's
    x-major index times 3 plus this constant of the edge."""
    _, ny, nz = dims
    eb = EDGE_BASE.astype(np.int64)
    return ((eb[:, 0] * ny + eb[:, 1]) * nz + eb[:, 2]) * 3 + EDGE_AXIS


def _triangle_keys(cell, code, dims):
    """(t, 3) canonical lattice-edge keys ((ex*ny + ey)*nz + ez)*3 + axis of
    the cells' triangles, slot by slot of the case table, cells in order
    within a slot."""
    has = _NTRI_BY_CODE[code] > np.arange(5)[:, None]  # (5, m), slot-major
    rows = (code.astype(np.intp) * 5 + np.arange(5)[:, None])[has]
    cells = np.broadcast_to(cell, has.shape)[has]
    keys = _edge_offsets(dims)[_TRI_BY_CODE.reshape(-1, 3)[rows]]
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
    lib = _native.library()
    cell, code = _active_cells(grid, iso, lib)
    if cell.size == 0:
        return empty_mesh()
    if lib is not None:
        return _emit_mesh(lib, grid, cell, code, iso)
    uniq, inverse = np.unique(_triangle_keys(cell, code, grid.dims),
                              return_inverse=True)
    return TriangleMesh(
        vertices=_edge_vertices(grid, uniq, iso),
        triangles=inverse.reshape(-1, 3).astype(np.int64, copy=False),
    )


def _emit_mesh(lib, grid: VoxelGrid, cell, code, iso: float) -> TriangleMesh:
    """The mesh of the sorted active cells by ``lib``: the bytes of
    ``_triangle_keys``, ``np.unique`` and ``_edge_vertices``, with no array
    of keys."""
    _, ny, nz = grid.dims
    # A cell's edges start at its corners, so its keys lie from its own
    # index times 3 to before its far corner's index plus one, times 3.
    lo = cell[0] * 3
    words = ((cell[-1] + (ny + 1) * nz + 2) * 3 - lo + 63) // 64
    bits = np.zeros(words, np.uint64)
    base = np.empty(words, np.int64)
    offsets = _edge_offsets(grid.dims)
    triangles = np.empty((int(_NTRI_BY_CODE[code].sum()), 3), np.int64)
    # Room for a vertex per distinct cube edge of each cell's triangles.
    vertices = np.empty((int(_NEDGE_BY_CODE[code].sum()), 3))
    n = lib.emit_mesh(_native.Emit(
        grid=_native.grid_view(grid), cell=cell.ctypes.data, code=code.ctypes.data,
        m=cell.size, tri=_TRI_BY_CODE.ctypes.data, ntri=_NTRI_BY_CODE.ctypes.data,
        edge=offsets.ctypes.data, iso=iso, bits=bits.ctypes.data, words=words,
        base=base.ctypes.data, triangles=triangles.ctypes.data,
        vertices=vertices.ctypes.data))
    # A copy, so that the buffer of room for every cell's edges is freed first.
    return TriangleMesh(vertices=vertices[:n].copy(), triangles=triangles)


def _edge_vertices(grid: VoxelGrid, keys, iso: float):
    """The iso crossing on each lattice edge, by linear interpolation of the
    signed distances at its ends."""
    nx, ny, _ = grid.dims
    axis = keys % 3
    ex, ey, ez = np.unravel_index(keys // 3, grid.dims)
    # Flat x-fastest indices of each edge's two ends.
    i1 = (ez * ny + ey) * nx + ex
    i2 = i1 + np.array([1, nx, nx * ny])[axis]
    mask, sign = grid.mask.ravel(order="F"), grid.sign.ravel(order="F")
    v1, v2 = (signed_distances(np.bitwise_count(mask[i]), sign[i], grid.voxel_size)
              for i in (i1, i2))
    denom = v2 - v1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom != 0.0, (iso - v1) / denom, 0.0)
    t = np.clip(t, 0.0, 1.0)
    base = np.stack([ex, ey, ez], axis=1)
    p1 = grid.origin + (base + 0.5) * grid.voxel_size
    p2 = grid.origin + (base + np.eye(3, dtype=np.int64)[axis] + 0.5) * grid.voxel_size
    return p1 + t[:, None] * (p2 - p1)


def face_cross(vt, f):
    """The cross product (v1 - v0) x (v2 - v0) of each triangle (v0, v1, v2)
    of ``f``, as its x, y and z columns, from the (3, v) coordinate columns
    ``vt`` of the vertices. The operations are np.cross's, so the bits are
    those of np.cross on the (t, 3) rows."""
    i0, i1, i2 = f.T
    a, b = [], []
    for col in vt:
        c0 = col[i0]
        a.append(col[i1] - c0)
        b.append(col[i2] - c0)
    (ax, ay, az), (bx, by, bz) = a, b
    return ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx


def vertex_normals(mesh: TriangleMesh) -> TriangleMesh:
    """Attach area-weighted vertex normals (unit length). Vertices with no
    incident non-degenerate triangle keep a zero normal."""
    if mesh.is_empty:
        return TriangleMesh(mesh.vertices, mesh.triangles, np.zeros((0, 3)))
    f = mesh.triangles
    vt = np.ascontiguousarray(mesh.vertices.T)
    face_n = np.empty((3, f.shape[0]))
    for at in range(0, f.shape[0], _AREA_BLOCK):
        for n, col in zip(face_n, face_cross(vt, f[at : at + _AREA_BLOCK])):
            n[at : at + _AREA_BLOCK] = col
    # Each vertex sums its corner-0 faces, then corner-1, then corner-2
    # faces, in face order.
    corners = f.T.reshape(-1)
    acc = np.stack(
        [np.bincount(corners, weights=np.tile(n, 3), minlength=len(mesh.vertices))
         for n in face_n],
        axis=1,
    )
    norms = np.linalg.norm(acc, axis=1)
    nz = norms > 0.0
    acc[nz] /= norms[nz, None]
    return TriangleMesh(mesh.vertices, mesh.triangles, acc)
