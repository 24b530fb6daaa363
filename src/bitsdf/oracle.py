"""Brute-force reference field for small scenes.

Recomputes what the bitmask fast path should produce, from definitions
rather than precomputed kernels: per-voxel truncated distance as the minimum
ceiled Euclidean offset to any applied hit center, shadow membership by a
direct geometric test against the hit's quantized bin direction, occupancy
by threshold on the saturated hit count. Intentionally slow and simple.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BitsdfError, ConfigurationError
from .grid import SIGN_OCCUPIED, VoxelGrid

MAX_ORACLE_VOXELS = 64**3


class OracleGuardError(BitsdfError):
    """Scene exceeds the brute-force tractability guard."""


@dataclass
class OracleField:
    dims: tuple
    voxel_size: float
    origin: np.ndarray
    distance: np.ndarray  # int16, voxel cells, 32 = untouched
    hits: np.ndarray  # int32, saturated at h_max
    occupied: np.ndarray  # bool


def _quantized_direction(d, b_az: int, b_el: int) -> np.ndarray:
    """Bin a ray direction and return the bin-center unit vector; written out
    longhand here on purpose (independent of the kernels module)."""
    x, y, z = (float(v) for v in d)
    norm = math.sqrt(x * x + y * y + z * z)
    az = math.atan2(y, x)
    if az < 0.0:
        az += 2.0 * math.pi
    b_a = min(max(int(az / (2.0 * math.pi) * b_az), 0), b_az - 1)
    b_e = min(
        max(int((math.asin(max(-1.0, min(1.0, z / norm))) + math.pi / 2) / math.pi * b_el), 0),
        b_el - 1,
    )
    a = (b_a + 0.5) * 2.0 * math.pi / b_az
    e = (b_e + 0.5) * math.pi / b_el - math.pi / 2
    return np.array(
        [math.cos(e) * math.cos(a), math.cos(e) * math.sin(a), math.sin(e)]
    )


def brute_force_field(
    hit_points: np.ndarray,
    hit_dirs: np.ndarray,
    dims,
    voxel_size: float,
    origin,
    half_extent: int = 10,
    shadow_radius: float = 3,
    shadow_model: str = "hemisphere",
    cone_half_angle_deg: float = 30.0,
    b_az: int = 40,
    b_el: int = 40,
    h_max: int = 255,
    t_occ: int = 2,
) -> OracleField:
    """Exhaustively recompute the fused field for a list of (point, ray
    direction) hits. Hits whose K^3 neighborhood leaves the grid are
    discarded, matching the fast path."""
    dims = tuple(int(d) for d in dims)
    if dims[0] * dims[1] * dims[2] > MAX_ORACLE_VOXELS:
        raise OracleGuardError(
            f"scene {dims} exceeds the {MAX_ORACLE_VOXELS}-voxel oracle guard"
        )
    origin = np.asarray(origin, dtype=np.float64)
    hit_points = np.asarray(hit_points, dtype=np.float64).reshape(-1, 3)
    hit_dirs = np.asarray(hit_dirs, dtype=np.float64).reshape(-1, 3)

    distance = np.full(dims, 32, dtype=np.int16)
    hits = np.zeros(dims, dtype=np.int32)

    r = half_extent
    rng = np.arange(-r, r + 1)
    ox, oy, oz = np.meshgrid(rng, rng, rng, indexing="ij")
    offs = np.stack([ox.ravel(), oy.ravel(), oz.ravel()], axis=1)
    norms = np.linalg.norm(offs.astype(np.float64), axis=1)
    ceil_dist = np.minimum(np.ceil(norms), 32).astype(np.int16).reshape(
        2 * r + 1, 2 * r + 1, 2 * r + 1
    )

    cos_half = math.cos(math.radians(cone_half_angle_deg))
    for p, d in zip(hit_points, hit_dirs):
        c = np.floor((p - origin) / voxel_size).astype(np.int64)
        if np.any(c < r) or np.any(c > np.array(dims) - 1 - r):
            continue
        sl = tuple(slice(ci - r, ci + r + 1) for ci in c)
        np.minimum(distance[sl], ceil_dist, out=distance[sl])

        dq = _quantized_direction(d, b_az, b_el)
        dot = offs @ dq
        inside = norms <= shadow_radius
        if shadow_model == "hemisphere":
            member = inside & (dot >= 0.0)
        elif shadow_model == "cone":
            member = inside & ((norms == 0.0) | (dot >= norms * cos_half))
        else:
            raise ConfigurationError(f"unknown shadow model {shadow_model!r}")
        member |= norms == 0.0
        # Offsets are distinct, so fancy-index increment has no collisions.
        mo = offs[member] + c
        hits[mo[:, 0], mo[:, 1], mo[:, 2]] += 1

    np.minimum(hits, h_max, out=hits)
    return OracleField(
        dims=dims,
        voxel_size=float(voxel_size),
        origin=origin,
        distance=distance,
        hits=hits,
        occupied=hits >= t_occ,
    )


@dataclass
class DiffReport:
    entries: list = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.entries

    def to_text(self, limit: int = 20) -> str:
        if self.empty:
            return "fields agree on every voxel"
        head = [
            f"voxel {e['index']}: {e['field']} fast={e['fast']} oracle={e['oracle']}"
            for e in self.entries[:limit]
        ]
        more = len(self.entries) - len(head)
        if more > 0:
            head.append(f"... and {more} more")
        return "\n".join(head)

    def to_json(self) -> str:
        return json.dumps({"mismatches": self.entries}, indent=2)


def compare(grid: VoxelGrid, oracle: OracleField) -> DiffReport:
    """Voxel-for-voxel diff of decoded distance, occupancy and hit count."""
    if grid.dims != oracle.dims or not np.isclose(grid.voxel_size, oracle.voxel_size):
        raise ConfigurationError("grid and oracle field configurations differ")
    report = DiffReport()
    pops = np.bitwise_count(grid.mask).astype(np.int32)
    checks = (
        ("distance", pops, oracle.distance.astype(np.int32)),
        ("hits", grid.hits.astype(np.int32), oracle.hits),
        (
            "occupied",
            (grid.sign == SIGN_OCCUPIED).astype(np.int32),
            oracle.occupied.astype(np.int32),
        ),
    )
    for name, fast, ref in checks:
        for ix, iy, iz in zip(*np.nonzero(fast != ref)):
            report.entries.append(
                {
                    "index": (int(ix), int(iy), int(iz)),
                    "field": name,
                    "fast": int(fast[ix, iy, iz]),
                    "oracle": int(ref[ix, iy, iz]),
                }
            )
    return report
