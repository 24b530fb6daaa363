"""Precomputed directional kernels.

One shared K^3 distance-mask kernel (the distance encoding depends only on
the Euclidean offset norm) plus one shadow per azimuth-elevation bin. The
shadow models the region behind a LiDAR return: a truncated hemisphere of
radius r_s aligned with the bin direction, or optionally a cone. All shadows
are subsets of one ball of offsets (|o| <= r_s), so the bank stores that ball
once and a bool table with one row per bin marking its shadow; the default
40x40 binning gives 1600 rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import run_mask

DEFAULT_KERNEL_SIZE = 21
DEFAULT_AZIMUTH_BINS = 40
DEFAULT_ELEVATION_BINS = 40
DEFAULT_CONE_HALF_ANGLE_DEG = 30.0

HEMISPHERE = "hemisphere"
CONE = "cone"
SHADOW_MODELS = (HEMISPHERE, CONE)

TWO_PI = 2.0 * math.pi


def bin_index(p, b_az: int, b_el: int) -> tuple[int, int]:
    """Quantize a direction (any nonzero vector) to (azimuth, elevation) bins.

    Azimuth wraps atan2 into [0, 2*pi); the elevation index saturates at
    b_el - 1 for the +z pole. Both indices are clamped into range.
    """
    x, y, z = (float(v) for v in p)
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        raise ConfigurationError("cannot bin a zero-length direction")
    az = math.atan2(y, x)
    if az < 0.0:
        az += TWO_PI
    b_a = int(az / TWO_PI * b_az)
    b_e = int((math.asin(max(-1.0, min(1.0, z / norm))) + math.pi / 2) / math.pi * b_el)
    return min(max(b_a, 0), b_az - 1), min(max(b_e, 0), b_el - 1)


def bin_index_array(dx, dy, dz, norms, b_az: int, b_el: int):
    """Vectorized bin_index over the components of nonzero vectors and
    their Euclidean norms (arrays of one shape)."""
    az = np.arctan2(dy, dx)
    az = np.where(az < 0.0, az + TWO_PI, az)
    el = np.arcsin(np.clip(dz / norms, -1.0, 1.0))
    b_a = np.clip((az / TWO_PI * b_az).astype(np.int64), 0, b_az - 1)
    b_e = np.clip(((el + np.pi / 2) / np.pi * b_el).astype(np.int64), 0, b_el - 1)
    return b_a, b_e


def bin_directions(b_az: int, b_el: int) -> np.ndarray:
    """Unit vectors (b_az * b_el, 3) at the centers of the bins' angular
    ranges, row b_a * b_el + b_e for bin (b_a, b_e): (cos e cos a, cos e sin a,
    sin e), with ``math``'s cosine and sine of each azimuth and elevation."""
    az = [(b_a + 0.5) * TWO_PI / b_az for b_a in range(b_az)]
    el = [(b_e + 0.5) * math.pi / b_el - math.pi / 2 for b_e in range(b_el)]
    cos_a, sin_a = (np.array([f(a) for a in az])[:, None] for f in (math.cos, math.sin))
    cos_e, sin_e = (np.array([f(e) for e in el]) for f in (math.cos, math.sin))
    rows = np.broadcast_arrays(cos_e * cos_a, cos_e * sin_a, sin_e)
    return np.stack(rows, axis=-1).reshape(-1, 3)


def _offset_cube(half_extent: int):
    """All integer offsets of the K^3 cube as an (K^3, 3) array plus their
    Euclidean norms. The squared norms are exact integers, so their square
    roots are the correctly rounded norms."""
    rng = np.arange(-half_extent, half_extent + 1)
    offs = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    sq = rng * rng
    norms = np.sqrt((sq[:, None, None] + sq[:, None] + sq).ravel().astype(np.float64))
    return offs, norms


def _shadow_table(dirs, shadow_radius, model, cone_half_angle_deg, offs, norms):
    """The offsets (m, 3) with |o| <= r_s, in lexicographic cube order, and a
    bool table (len(dirs), m) whose row i marks the shadow behind ``dirs[i]``;
    ``offs, norms`` is ``_offset_cube`` of a half-extent of at least r_s.

    Hemisphere: o . d >= 0. Cone: additionally within ``cone_half_angle_deg``
    of the axis, an angle in (0, 90]. The center offset is always included.
    """
    inside = norms <= shadow_radius
    ball, norms = offs[inside], norms[inside]
    dot = np.asarray(dirs, dtype=np.float64) @ ball.T
    if model == HEMISPHERE:
        table = dot >= 0.0
    else:
        table = dot >= norms * math.cos(math.radians(cone_half_angle_deg))
    table[:, norms == 0.0] = True
    return ball, table


def _check_counts(size, b_az, b_el):
    if size % 2 == 0 or size < 1 or b_az < 1 or b_el < 1:
        raise ConfigurationError("kernel size must be odd and positive and bin "
                                 f"counts at least 1, got {size}, {b_az}, {b_el}")


@dataclass(frozen=True)
class KernelBank:
    """The shared distance kernel and per-bin shadows, checked when made and
    held as read-only views: fusion, compiled or numpy, reads them
    unchecked."""

    size: int
    b_az: int
    b_el: int
    # uint32, (K, K, K), index [dx+R, dy+R, dz+R], x fastest (order="F"):
    # its memory is the C-ordered (z, y, x) kernel that _fuse.c reads.
    distance_kernel: np.ndarray
    shadow_ball: np.ndarray  # (m, 3) int64: offsets with |o| <= r_s, cube order
    shadow: np.ndarray  # bool (b_az * b_el, m), C order: row b_a * b_el + b_e marks its shadow

    def __post_init__(self):
        _check_counts(self.size, self.b_az, self.b_el)
        k, m = self.size, len(self.shadow_ball)
        for name, dtype, shape, order in (
                ("distance_kernel", np.uint32, (k, k, k), "F"),
                ("shadow_ball", np.int64, (m, 3), None),
                ("shadow", np.bool_, (self.b_az * self.b_el, m), "C")):
            a = getattr(self, name)
            if (a.dtype != dtype or a.shape != shape
                    or order and not a.flags[order + "_CONTIGUOUS"]):
                raise ConfigurationError(
                    f"kernel bank {name} must be a {np.dtype(dtype)} array of shape "
                    f"{shape} in {order or 'any'} order, got {a.dtype} {a.shape}")
            view = a.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if np.abs(self.shadow_ball).max(initial=0) > k // 2:
            raise ConfigurationError(
                f"kernel bank shadow ball has an offset beyond {k // 2}")

    @property
    def half_extent(self) -> int:
        return self.size // 2

    def flat_bin(self, b_a, b_e):
        """The ``shadow`` row of bins (b_a, b_e): ints, or arrays of them."""
        return b_a * self.b_el + b_e


def default_shadow_radius(voxel_size: float, half_extent: int = 10) -> int:
    """5 cm physical shadow radius expressed in voxels, at least 1, capped at
    the kernel half-extent; coarse grids get a small radius, fine grids a
    large one."""
    return min(max(1, round(0.05 / voxel_size)), half_extent)


def build_kernel_bank(
    size: int = DEFAULT_KERNEL_SIZE,
    b_az: int = DEFAULT_AZIMUTH_BINS,
    b_el: int = DEFAULT_ELEVATION_BINS,
    shadow_radius: float = 3,
    shadow_model: str = HEMISPHERE,
    cone_half_angle_deg: float = DEFAULT_CONE_HALF_ANGLE_DEG,
) -> KernelBank:
    """Build the full bank; deterministic for identical parameters. Every
    parameter is checked before any array is built."""
    _check_counts(size, b_az, b_el)
    half = size // 2
    if not 0 <= shadow_radius <= half:
        raise ConfigurationError(f"shadow radius {shadow_radius} outside [0, {half}]")
    if not 0.0 < cone_half_angle_deg <= 90.0:
        raise ConfigurationError(
            f"cone half-angle {cone_half_angle_deg} degrees outside (0, 90]")
    if shadow_model not in SHADOW_MODELS:
        raise ConfigurationError(f"unknown shadow model {shadow_model!r}")
    offs, norms = _offset_cube(half)
    runs = np.minimum(np.ceil(norms).astype(np.int64), 32)
    lut = np.array([run_mask(int(k)) for k in range(33)], dtype=np.uint32)
    distance_kernel = np.asfortranarray(lut[runs].reshape(size, size, size))
    shadow_ball, shadow = _shadow_table(
        bin_directions(b_az, b_el), shadow_radius, shadow_model,
        cone_half_angle_deg, offs, norms,
    )
    return KernelBank(size, b_az, b_el, distance_kernel, shadow_ball, shadow)
