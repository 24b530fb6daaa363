"""Dense voxel grid: storage, indexing, distance decoding, signed queries.

Each voxel is an 8-byte record: a 32-bit distance mask (a contiguous low-bit
run whose population count is the truncated distance in voxel cells), a sign
flag (0 = occupied, 1 = free) and an 8-bit saturating hit counter. A fresh
voxel has all mask bits set, sign free, zero hits; that state is treated as
"unobserved".

Internally the three fields live in separate numpy arrays of shape
(nx, ny, nz) so the integrator can use whole-array bit operations. They are
stored x fastest (Fortran order), the order of the serialized records, whose
linear index is ix + nx*(iy + ny*iz): saving and loading copy them
sequentially, and a z-slab of the grid is one contiguous block. A flat view
is ``a.ravel(order="F")`` or ``a.T.reshape(-1)``; ``a.reshape(-1)`` copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, CorruptionError, ResourceError

FULL_MASK = 0xFFFFFFFF
MAX_DISTANCE_CELLS = 32

SIGN_OCCUPIED = 0
SIGN_FREE = 1

BYTES_PER_VOXEL = 8

# Serialized voxel record: mask (4, little-endian), sign (1), hits (1),
# 2 reserved zero bytes.
VOXEL_DTYPE = np.dtype(
    [("mask", "<u4"), ("sign", "u1"), ("hits", "u1"), ("reserved", "<u2")]
)

DEFAULT_MEMORY_CAP = 8 << 30  # bytes of voxel payload

_FIELD_DTYPES = {"mask": np.dtype(np.uint32), "sign": np.dtype(np.uint8),
                 "hits": np.dtype(np.uint8)}


@dataclass(frozen=True)
class VoxelGrid:
    """Fixed-size axis-aligned voxel grid; structure and occupancy rule are
    fixed at construction, voxel contents are updated in place by the
    integrator."""

    dims: tuple[int, int, int]
    voxel_size: float
    origin: np.ndarray
    # Each of shape dims, x fastest (order="F").
    mask: np.ndarray  # uint32
    sign: np.ndarray  # uint8
    hits: np.ndarray  # uint8
    # Occupancy rule, written to the snapshot header: hits saturate at
    # h_max, and a voxel is occupied once its hits reach t_occ.
    h_max: int
    t_occ: int

    def __post_init__(self):
        # The compiled fusion pass and the snapshot code index the arrays
        # as flat x-fastest buffers, unchecked.
        for name, dtype in _FIELD_DTYPES.items():
            a = getattr(self, name)
            if a.dtype != dtype or a.shape != self.dims or not a.flags.f_contiguous:
                raise ConfigurationError(
                    f"grid {name} must be a {dtype} array of shape {self.dims} "
                    f"in Fortran order (x fastest), got a {a.dtype} array of "
                    f"shape {a.shape}, Fortran order {a.flags.f_contiguous}"
                )

    @property
    def num_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz


def new_grid(
    dims,
    voxel_size: float,
    origin=(0.0, 0.0, 0.0),
    memory_cap: int = DEFAULT_MEMORY_CAP,
    h_max: int = 255,
    t_occ: int = 2,
) -> VoxelGrid:
    """Allocate a fresh grid with every voxel unobserved, whose voxels
    count at most ``h_max`` hits and turn occupied at ``t_occ``.

    Raises ConfigurationError for degenerate dims/voxel_size or thresholds
    outside 1 <= t_occ <= h_max <= 255, and ResourceError when the voxel
    payload would exceed ``memory_cap``.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ConfigurationError(f"grid dims must be three positive counts, got {dims}")
    if not voxel_size > 0.0:
        raise ConfigurationError(f"voxel_size must be positive, got {voxel_size}")
    if not 1 <= t_occ <= h_max <= 255:
        raise ConfigurationError(f"need 1 <= T ({t_occ}) <= H_max ({h_max}) <= 255")
    payload = dims[0] * dims[1] * dims[2] * BYTES_PER_VOXEL
    if payload > memory_cap:
        raise ResourceError(
            f"grid payload {payload} bytes exceeds memory cap {memory_cap}"
        )
    return VoxelGrid(
        dims=dims,
        voxel_size=float(voxel_size),
        origin=np.asarray(origin, dtype=np.float64).copy(),
        mask=np.full(dims, FULL_MASK, dtype=np.uint32, order="F"),
        sign=np.full(dims, SIGN_FREE, dtype=np.uint8, order="F"),
        hits=np.zeros(dims, dtype=np.uint8, order="F"),
        h_max=int(h_max),
        t_occ=int(t_occ),
    )


def memory_bytes(grid: VoxelGrid) -> int:
    """Voxel payload size: nx*ny*nz*8 bytes."""
    return grid.num_voxels * BYTES_PER_VOXEL


def world_to_voxel(grid: VoxelGrid, p):
    """Map a world point to integer voxel indices; None when out of bounds."""
    idx = np.floor((np.asarray(p, dtype=np.float64) - grid.origin) / grid.voxel_size)
    ix, iy, iz = (int(v) for v in idx)
    nx, ny, nz = grid.dims
    if 0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz:
        return ix, iy, iz
    return None


def world_to_voxel_array(grid: VoxelGrid, points: np.ndarray) -> np.ndarray:
    """Vectorized floor indexing; no bounds check (callers filter)."""
    return np.floor(
        (points - grid.origin[np.newaxis, :]) / grid.voxel_size
    ).astype(np.int64)


def is_run_mask(mask) -> bool:
    """True iff mask is a contiguous low-bit run (including 0 and all-ones)."""
    m = int(mask) & FULL_MASK
    return (m & (m + 1)) & FULL_MASK == 0


def decode_distance(mask, checked: bool = True) -> int:
    """Population count of a run mask = truncated distance in voxel cells."""
    m = int(mask) & FULL_MASK
    if checked and not is_run_mask(m):
        raise CorruptionError(f"distance mask {m:#010x} is not a low-bit run")
    return m.bit_count()


def run_mask(k: int) -> int:
    """Run mask with k active low bits, k in [0, 32]."""
    if not 0 <= k <= 32:
        raise ConfigurationError(f"run length {k} outside [0, 32]")
    return FULL_MASK >> (32 - k) if k > 0 else 0


def is_observed(grid: VoxelGrid, ix, iy, iz) -> bool:
    return not (
        grid.mask[ix, iy, iz] == FULL_MASK and grid.hits[ix, iy, iz] == 0
    )


def signed_distance(grid: VoxelGrid, ix, iy, iz):
    """Signed distance in meters at a voxel, or None when unobserved.

    Negative inside occupied space. Indices must be in bounds (IndexError
    otherwise, negative indices rejected explicitly).
    """
    nx, ny, nz = grid.dims
    if not (0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz):
        raise IndexError(f"voxel index ({ix},{iy},{iz}) outside dims {grid.dims}")
    if not is_observed(grid, ix, iy, iz):
        return None
    d = decode_distance(grid.mask[ix, iy, iz])
    sigma = -1.0 if grid.sign[ix, iy, iz] == SIGN_OCCUPIED else 1.0
    return sigma * d * grid.voxel_size


def observed_array(mask: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """Boolean array marking voxels touched by at least one integration,
    from their masks and hit counts (any matching shapes)."""
    return ~((mask == FULL_MASK) & (hits == 0))


def popcount_array(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks).astype(np.int32)


def signed_distance_field(grid: VoxelGrid):
    """Dense (field, observed) pair; field entries for unobserved voxels are
    +32*voxel_size placeholders and must be gated by the observed array."""
    dist = popcount_array(grid.mask).astype(np.float64) * grid.voxel_size
    sigma = np.where(grid.sign == SIGN_OCCUPIED, -1.0, 1.0)
    return sigma * dist, observed_array(grid.mask, grid.hits)


def to_records(grid: VoxelGrid) -> np.ndarray:
    """Flatten to serialized voxel records in linear-index order
    (ix + nx*(iy + ny*iz)), which is the arrays' memory order."""
    rec = np.zeros(grid.num_voxels, dtype=VOXEL_DTYPE)
    rec["mask"] = grid.mask.ravel(order="F")
    rec["sign"] = grid.sign.ravel(order="F")
    rec["hits"] = grid.hits.ravel(order="F")
    return rec


def from_records(
    rec: np.ndarray, dims, voxel_size, origin, h_max=255, t_occ=2
) -> VoxelGrid:
    dims = tuple(int(d) for d in dims)
    if rec.shape[0] != dims[0] * dims[1] * dims[2]:
        raise CorruptionError(
            f"record count {rec.shape[0]} does not match dims {dims}"
        )
    try:
        g = new_grid(dims, voxel_size, origin, h_max=h_max, t_occ=t_occ)
    except ConfigurationError as e:
        raise CorruptionError(f"bad grid header: {e}") from None
    g.mask[...] = rec["mask"].reshape(dims, order="F")
    g.sign[...] = rec["sign"].reshape(dims, order="F")
    g.hits[...] = rec["hits"].reshape(dims, order="F")
    return g


def grids_equal(a: VoxelGrid, b: VoxelGrid) -> bool:
    return (
        a.dims == b.dims
        and a.voxel_size == b.voxel_size
        and np.array_equal(a.origin, b.origin)
        and np.array_equal(a.mask, b.mask)
        and np.array_equal(a.sign, b.sign)
        and np.array_equal(a.hits, b.hits)
    )
