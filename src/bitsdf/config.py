"""Run configuration: YAML-backed, with the keys of the ``fuse`` options
overridable from the CLI. A file's values and the overrides reach a
``RunConfig`` by one path, ``config_from_dict``, which builds each section
with its constructor, so a section's own checks run when the config loads.

A grid is specified by exactly one pair of keys: directly (dims + origin) or
via world bounds (bounds_min + bounds_max), in which case the dimensions are
rounded up and padded by the kernel half-extent so returns near the bounds
keep their full neighborhood in range.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .errors import ConfigurationError
from .grid import DEFAULT_MEMORY_CAP, check_geometry, check_grid
from .integrator import IntegrationParams, check_threads
from .kernels import (
    DEFAULT_AZIMUTH_BINS,
    DEFAULT_CONE_HALF_ANGLE_DEG,
    DEFAULT_ELEVATION_BINS,
    DEFAULT_KERNEL_SIZE,
    HEMISPHERE,
    default_shadow_radius,
)

# libyaml's loader and dumper where PyYAML was built with it, which parse
# and emit the same documents several times faster than the pure-Python ones.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


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
class IntegrationConfig(IntegrationParams):
    """The per-scan options, passed to integrate_frame as they are, and the
    occupancy thresholds, which go to new_grid."""

    h_max: int = 255
    t_occ: int = 2


@dataclass
class PathsConfig:
    scans: str | None = None
    trajectory: str | None = None
    output_dir: str = "out"
    max_time_gap: float = 0.05  # seconds, scan-to-pose association

    def __post_init__(self):
        if not 0 <= self.max_time_gap < math.inf:
            raise ConfigurationError(
                f"paths.max_time_gap must be finite and >= 0, got {self.max_time_gap!r}")


@dataclass
class RunConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    threads: int = 1

    def __post_init__(self):
        self.threads = check_threads(self.threads)

    def resolved_shadow_radius(self) -> float:
        if self.kernel.shadow_radius is not None:
            return float(self.kernel.shadow_radius)
        return float(
            default_shadow_radius(self.grid.voxel_size, self.kernel.size // 2)
        )

    def resolve_grid(self) -> dict:
        """The grid header, normalized as check_grid returns it, once
        new_grid would take it with this config's memory cap."""
        g, ic = self.grid, self.integration
        given = [k for k in ("dims", "origin", "bounds_min", "bounds_max")
                 if getattr(g, k) is not None]
        if given not in (["dims", "origin"], ["bounds_min", "bounds_max"]):
            raise ConfigurationError(
                "grid needs exactly dims + origin or bounds_min + bounds_max, "
                f"got {' + '.join(f'grid.{k}' for k in given) or 'none of them'}")
        if g.dims is not None:
            dims, origin = g.dims, g.origin
        else:
            check_geometry(g.voxel_size, bounds_min=g.bounds_min,
                           bounds_max=g.bounds_max)
            pad = self.kernel.size // 2
            dims, origin = [], []
            for lo, hi in zip(g.bounds_min, g.bounds_max):
                if hi <= lo:
                    raise ConfigurationError(f"empty bounds interval [{lo}, {hi}]")
                cells = (hi - lo) / g.voxel_size
                if not math.isfinite(cells):
                    raise ConfigurationError(
                        f"grid.voxel_size {g.voxel_size} is too small for bounds "
                        f"[{lo}, {hi}]: their voxel count is not finite")
                dims.append(math.ceil(cells) + 2 * pad)
                origin.append(lo - pad * g.voxel_size)
        return check_grid(dims, g.voxel_size, origin, g.memory_cap_bytes,
                          ic.h_max, ic.t_occ)


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


def _section(cls, name: str, values, overrides: dict):
    """Section ``name``, of class ``cls``, from its mapping in the file (None
    for none) with the overrides of its keys set over it."""
    if values is None:
        values = {}
    if not isinstance(values, dict):
        raise ConfigurationError(f"config section {name} must be a mapping")
    annotations = {f.name: f.type for f in fields(cls)}
    values = {**values, **{k: v for k, v in overrides.items() if k in annotations}}
    for key, val in values.items():
        if key not in annotations:
            raise ConfigurationError(f"unknown config key {name}.{key}")
        if not _fits(val, annotations[key]):
            raise ConfigurationError(
                f"config key {name}.{key} must be {annotations[key]}, got {val!r}"
            )
    return cls(**values)


def config_from_dict(data: dict, **overrides) -> RunConfig:
    """The config of a mapping of sections, as a config file holds it, with
    each of ``overrides`` that is not None set over its key: ``threads``, or
    the section key of that field name (``voxel_size`` sets
    ``grid.voxel_size``). An unknown key, a value of the wrong type or one
    that a section's constructor rejects raises ConfigurationError."""
    top = {f.name: f for f in fields(RunConfig)}
    unknown = set(data) - set(top)
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    overrides = {k: v for k, v in overrides.items() if v is not None}
    merged = {**data, **overrides}
    args = {}
    for name, f in top.items():
        if f.default_factory is not MISSING:
            args[name] = _section(f.default_factory, name, data.get(name), overrides)
        elif name in merged:
            args[name] = merged[name]
    return RunConfig(**args)


def load_config(path, **overrides) -> RunConfig:
    """The config in the YAML file at ``path``, with ``overrides`` set over
    it as ``config_from_dict`` sets them."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        data = yaml.load(path.read_bytes(), Loader=_Loader) or {}
    except yaml.YAMLError as e:
        raise ConfigurationError(f"{path}: config is not valid YAML: {e}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: config root must be a mapping")
    return config_from_dict(data, **overrides)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as f:
        yaml.dump(asdict(cfg), f, Dumper=_Dumper, sort_keys=True)
