"""Run configuration: YAML-backed, with the keys of the ``fuse`` options
overridable from the CLI.

A grid is specified either directly (dims + origin) or via world bounds, in
which case the dimensions are rounded up and padded by the kernel half-extent
so returns near the bounds keep their full neighborhood in range.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .errors import ConfigurationError
from .grid import DEFAULT_MEMORY_CAP, check_geometry
from .integrator import check_threads
from .kernels import (
    DEFAULT_AZIMUTH_BINS,
    DEFAULT_CONE_HALF_ANGLE_DEG,
    DEFAULT_ELEVATION_BINS,
    DEFAULT_KERNEL_SIZE,
    HEMISPHERE,
    default_shadow_radius,
)


@dataclass
class GridConfig:
    voxel_size: float = 0.1
    bounds_min: list | None = None
    bounds_max: list | None = None
    dims: list | None = None
    origin: list | None = None
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP


@dataclass
class KernelConfig:
    size: int = DEFAULT_KERNEL_SIZE
    azimuth_bins: int = DEFAULT_AZIMUTH_BINS
    elevation_bins: int = DEFAULT_ELEVATION_BINS
    shadow_radius: float | None = None  # voxels; None = 5 cm heuristic
    shadow_model: str = HEMISPHERE
    cone_half_angle_deg: float = DEFAULT_CONE_HALF_ANGLE_DEG


@dataclass
class IntegrationConfig:
    h_max: int = 255  # h_max and t_occ go to new_grid, the rest per scan
    t_occ: int = 2
    compensation: str = "none"
    downsample: int = 1
    first_return_per_voxel: bool = False


@dataclass
class PathsConfig:
    scans: str | None = None
    trajectory: str | None = None
    output_dir: str = "out"
    max_time_gap: float = 0.05  # seconds, scan-to-pose association


@dataclass
class RunConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    threads: int = 1

    def resolved_shadow_radius(self) -> float:
        if self.kernel.shadow_radius is not None:
            return float(self.kernel.shadow_radius)
        return float(
            default_shadow_radius(self.grid.voxel_size, self.kernel.size // 2)
        )

    def resolve_grid(self):
        """Return (dims, origin) in voxels/meters."""
        g = self.grid
        if g.dims is not None:
            if g.origin is None:
                raise ConfigurationError("grid.dims requires grid.origin")
            return tuple(int(d) for d in g.dims), tuple(float(v) for v in g.origin)
        if g.bounds_min is None or g.bounds_max is None:
            raise ConfigurationError(
                "grid needs either dims+origin or bounds_min+bounds_max"
            )
        check_geometry(g.voxel_size, bounds_min=g.bounds_min, bounds_max=g.bounds_max)
        pad = self.kernel.size // 2
        dims = []
        origin = []
        for lo, hi in zip(g.bounds_min, g.bounds_max):
            if hi <= lo:
                raise ConfigurationError(f"empty bounds interval [{lo}, {hi}]")
            dims.append(math.ceil((hi - lo) / g.voxel_size) + 2 * pad)
            origin.append(lo - pad * g.voxel_size)
        return tuple(dims), tuple(origin)


# The YAML values of each type name in a config field's annotation.
_ACCEPTS = {"int": int, "float": (int, float), "bool": bool, "str": str,
            "list": list, "None": type(None)}


def _fits(val, annotation: str) -> bool:
    """Whether ``val`` is of a type the annotation names: a bool is not a
    number, and a list holds numbers."""
    return any(
        isinstance(val, _ACCEPTS[name])
        and (name == "bool" or not isinstance(val, bool))
        and (name != "list" or all(_fits(v, "float") for v in val))
        for name in annotation.split(" | ")
    )


def _apply_section(obj, data, section: str):
    if not isinstance(data, dict):
        raise ConfigurationError(f"config section {section} must be a mapping")
    annotations = {f.name: f.type for f in fields(obj)}
    for key, val in data.items():
        if key not in annotations:
            raise ConfigurationError(f"unknown config key {section}.{key}")
        if not _fits(val, annotations[key]):
            raise ConfigurationError(
                f"config key {section}.{key} must be {annotations[key]}, got {val!r}"
            )
        setattr(obj, key, val)


def config_from_dict(data: dict) -> RunConfig:
    cfg = RunConfig()
    for section in ("grid", "kernel", "integration", "paths"):
        if section in data and data[section] is not None:
            _apply_section(getattr(cfg, section), data[section], section)
    if "threads" in data:
        cfg.threads = check_threads(data["threads"])
    unknown = set(data) - {"grid", "kernel", "integration", "paths", "threads"}
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_bytes()) or {}
    except yaml.YAMLError as e:
        raise ConfigurationError(f"{path}: config is not valid YAML: {e}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: config root must be a mapping")
    return config_from_dict(data)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as f:
        yaml.safe_dump(asdict(cfg), f, sort_keys=True)
