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

import math
import numbers
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

# Records are encoded and decoded, the CSV export selects voxels and the
# mesher classifies cells, one slab of about this many voxels at a time.
_SLAB_VOXELS = 1 << 18

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
        # The compiled library (fusion and meshing) and the snapshot code
        # index the arrays as flat x-fastest buffers, unchecked, and fusion
        # writes them; the library reads the header unchecked too.
        check_grid(self.dims, self.voxel_size, self.origin, math.inf, self.h_max, self.t_occ)
        if np.asarray(self.origin).dtype != np.float64:
            raise ConfigurationError(f"grid origin must be float64, got {self.origin!r}")
        for name, dtype in _FIELD_DTYPES.items():
            a = getattr(self, name)
            if (a.dtype != dtype or a.shape != self.dims or not a.flags.f_contiguous
                    or not a.flags.writeable):
                raise ConfigurationError(
                    f"grid {name} must be a writeable {dtype} array of shape "
                    f"{self.dims} in Fortran order (x fastest), got a {a.dtype} "
                    f"array of shape {a.shape}, Fortran order "
                    f"{a.flags.f_contiguous}, writeable {a.flags.writeable}"
                )

    @property
    def num_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz


def check_geometry(voxel_size, **points) -> None:
    """Raise ConfigurationError unless ``voxel_size`` is finite and positive
    and each named point is three finite coordinates."""
    if not 0.0 < voxel_size < math.inf:
        raise ConfigurationError(
            f"voxel_size must be finite and positive, got {voxel_size}")
    for name, point in points.items():
        if np.shape(point) != (3,) or not np.all(np.isfinite(point)):
            raise ConfigurationError(
                f"grid {name} must be three finite coordinates, got {point}")


def _is_int(value) -> bool:
    """Whether value is an integer: a Python or numpy int, not a bool and
    not a float, even a whole one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_grid(dims, voxel_size, origin, memory_cap, h_max, t_occ) -> dict:
    """The grid header, normalized as VoxelGrid takes it (int dims, float
    voxel size, a copy of the origin, int h_max and t_occ), once the grid
    it describes passes new_grid's checks."""
    dims = tuple(dims)
    if len(dims) != 3 or not all(_is_int(d) and d >= 1 for d in dims):
        raise ConfigurationError(f"grid dims must be three positive integers, got {dims}")
    dims = tuple(int(d) for d in dims)
    check_geometry(voxel_size, origin=origin)
    if not (_is_int(t_occ) and _is_int(h_max) and 1 <= t_occ <= h_max <= 255):
        raise ConfigurationError(
            f"need integers 1 <= T ({t_occ!r}) <= H_max ({h_max!r}) <= 255")
    payload = dims[0] * dims[1] * dims[2] * BYTES_PER_VOXEL
    if payload > memory_cap:
        raise ResourceError(
            f"grid payload {payload} bytes exceeds memory cap {memory_cap}"
        )
    return dict(dims=dims, voxel_size=float(voxel_size),
                origin=np.array(origin, dtype=np.float64), h_max=int(h_max),
                t_occ=int(t_occ))


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

    Raises ConfigurationError for dims that are not three positive integers,
    a voxel_size that is not finite and positive, an origin that is not
    finite, or thresholds that are not integers 1 <= t_occ <= h_max <= 255,
    and ResourceError when the voxel payload would exceed ``memory_cap``.
    """
    header = check_grid(dims, voxel_size, origin, memory_cap, h_max, t_occ)
    dims = header["dims"]
    return VoxelGrid(
        mask=np.full(dims, FULL_MASK, dtype=np.uint32, order="F"),
        sign=np.full(dims, SIGN_FREE, dtype=np.uint8, order="F"),
        hits=np.zeros(dims, dtype=np.uint8, order="F"),
        **header,
    )


def memory_bytes(grid: VoxelGrid) -> int:
    """Voxel payload size: nx*ny*nz*8 bytes."""
    return grid.num_voxels * BYTES_PER_VOXEL


def is_run_mask(mask) -> bool:
    """True iff mask is a contiguous low-bit run (including 0 and all-ones)."""
    m = int(mask) & FULL_MASK
    return (m & (m + 1)) & FULL_MASK == 0


def decode_distance(mask) -> int:
    """Population count of a run mask = truncated distance in voxel cells."""
    m = int(mask) & FULL_MASK
    if not is_run_mask(m):
        raise CorruptionError(f"distance mask {m:#010x} is not a low-bit run")
    return m.bit_count()


def run_mask(k: int) -> int:
    """Run mask with k active low bits, k in [0, 32]."""
    if not 0 <= k <= 32:
        raise ConfigurationError(f"run length {k} outside [0, 32]")
    return FULL_MASK >> (32 - k) if k > 0 else 0


def signed_distance(grid: VoxelGrid, ix, iy, iz):
    """Signed distance in meters at a voxel, or None when unobserved.

    Negative inside occupied space. Indices must be in bounds (IndexError
    otherwise, negative indices rejected explicitly).
    """
    nx, ny, nz = grid.dims
    if not (0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz):
        raise IndexError(f"voxel index ({ix},{iy},{iz}) outside dims {grid.dims}")
    if not observed_array(grid.mask[ix, iy, iz], grid.hits[ix, iy, iz]):
        return None
    d = decode_distance(grid.mask[ix, iy, iz])
    return float(signed_distances(d, grid.sign[ix, iy, iz], grid.voxel_size))


def signed_distances(popcounts, signs, voxel_size: float):
    """Signed distance in meters of voxels with the given mask population
    counts and sign bytes (any matching shapes): the popcount times the
    voxel size, negated on occupied voxels. Every signed distance the
    program reports or meshes is computed here, so all of them agree to the
    bit."""
    sigma = np.where(np.asarray(signs) == SIGN_OCCUPIED, -1.0, 1.0)
    return sigma * (np.asarray(popcounts, dtype=np.float64) * voxel_size)


def observed_array(mask: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """Boolean array marking voxels touched by at least one integration,
    from their masks and hit counts (any matching shapes)."""
    return ~((mask == FULL_MASK) & (hits == 0))


def voxel_fault(grid: VoxelGrid) -> str | None:
    """The first fault among the grid's voxels in record order, or None
    when there is none. A voxel is at fault when its mask is not a low-bit
    run, when its sign is not SIGN_OCCUPIED exactly when its hits reach
    t_occ, or when its hits exceed h_max; a voxel with several faults is
    reported by the first of these. Fusion never writes such a voxel, but a
    snapshot is loaded without these checks."""
    m, s, h = (getattr(grid, name).ravel(order="F") for name in _FIELD_DTYPES)
    # A run plus one shares no bit with it; one uint32 temporary, in place.
    bad = m + 1
    bad &= m
    bad = bad != 0
    bad |= s != np.where(h >= grid.t_occ, np.uint8(SIGN_OCCUPIED), np.uint8(SIGN_FREE))
    bad |= h > grid.h_max
    i = int(np.argmax(bad))
    if not bad[i]:
        return None
    x, y, z = (int(c) for c in np.unravel_index(i, grid.dims, order="F"))
    if not is_run_mask(m[i]):
        what = f"mask {int(m[i]):#010x} is not a low-bit run"
    elif s[i] != (SIGN_OCCUPIED if h[i] >= grid.t_occ else SIGN_FREE):
        what = f"sign {s[i]} disagrees with {h[i]} hits at t_occ {grid.t_occ}"
    else:
        what = f"{h[i]} hits exceed h_max {grid.h_max}"
    return f"voxel ({x}, {y}, {z}): {what}"


def to_records(grid: VoxelGrid) -> np.ndarray:
    """Flatten to serialized voxel records in linear-index order
    (ix + nx*(iy + ny*iz)), which is the arrays' memory order. The records
    are filled one slab of _SLAB_VOXELS at a time, so each slab's fields are
    written while it is in cache."""
    rec = np.empty(grid.num_voxels, dtype=VOXEL_DTYPE)
    flat = {name: getattr(grid, name).ravel(order="F") for name in _FIELD_DTYPES}
    for at in range(0, rec.size, _SLAB_VOXELS):
        slab = rec[at : at + _SLAB_VOXELS]
        for name, a in flat.items():
            slab[name] = a[at : at + _SLAB_VOXELS]
        slab["reserved"] = 0
    return rec


def from_records(
    records, dims, voxel_size, origin, h_max=255, t_occ=2
) -> VoxelGrid:
    """The grid whose serialized voxel records, in linear-index order, are
    the consecutive record arrays that ``records`` yields (a snapshot read
    one slab at a time). The header is checked before any array is made;
    one that new_grid would reject raises CorruptionError, and so does a
    record count that does not match dims. Each slab's fields are copied
    straight into the grid's arrays, so decoding allocates the grid and
    nothing the size of it."""
    try:
        header = check_grid(dims, voxel_size, origin, DEFAULT_MEMORY_CAP, h_max, t_occ)
    except ConfigurationError as e:
        raise CorruptionError(f"bad grid header: {e}") from None
    dims = header["dims"]
    n = dims[0] * dims[1] * dims[2]
    flat = {name: np.empty(n, dtype=dtype) for name, dtype in _FIELD_DTYPES.items()}
    at = 0
    for slab in records:
        end = at + slab.shape[0]
        if end > n:
            raise CorruptionError(f"more than {n} records for dims {dims}")
        for name, a in flat.items():
            a[at:end] = slab[name]
        at = end
    if at != n:
        raise CorruptionError(f"record count {at} does not match dims {dims}")
    return VoxelGrid(**header,
                     **{name: a.reshape(dims, order="F") for name, a in flat.items()})
