"""Synthetic scene helpers for tests: a noise-free spinning LiDAR inside an
axis-aligned box room, plus ground-truth surface sampling; and the state of
a grid as a comparable value."""

from __future__ import annotations

import numpy as np

from bitsdf.grid import to_records


def ray_box_exit(origin, dirs, lo, hi):
    """For rays starting inside the box, the point where each exits through
    an interior face."""
    origin = np.asarray(origin, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    with np.errstate(divide="ignore"):
        t_hi = (hi - origin) / dirs
        t_lo = (lo - origin) / dirs
    t = np.where(dirs > 0, t_hi, np.where(dirs < 0, t_lo, np.inf))
    t_exit = t.min(axis=1)
    return origin + dirs * t_exit[:, None]


def spin_directions(n_az, n_el, el_max_deg=80.0):
    """Unit ray directions on an azimuth x elevation fan."""
    az = np.linspace(0.0, 2 * np.pi, n_az, endpoint=False)
    el = np.linspace(-np.radians(el_max_deg), np.radians(el_max_deg), n_el)
    aa, ee = np.meshgrid(az, el, indexing="ij")
    return np.stack(
        [np.cos(ee) * np.cos(aa), np.cos(ee) * np.sin(aa), np.sin(ee)], axis=-1
    ).reshape(-1, 3)


def room_scan(sensor, lo=(0, 0, 0), hi=(10, 10, 3), n_az=200, n_el=100,
              el_max_deg=80.0):
    """One spinning-LiDAR sweep from a sensor position inside the room;
    returns points in the sensor frame (identity orientation)."""
    dirs = spin_directions(n_az, n_el, el_max_deg)
    hits = ray_box_exit(sensor, dirs, lo, hi)
    return hits - np.asarray(sensor, dtype=np.float64)


def box_surface_points(n, lo=(0, 0, 0), hi=(10, 10, 3), seed=0):
    """Ground truth: n points sampled area-uniformly over the 6 interior
    faces of the box."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    ext = hi - lo
    faces = []  # (axis, value) per face
    areas = []
    for axis in range(3):
        other = [a for a in range(3) if a != axis]
        area = ext[other[0]] * ext[other[1]]
        faces += [(axis, lo[axis]), (axis, hi[axis])]
        areas += [area, area]
    areas = np.asarray(areas)
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(faces), size=n, p=areas / areas.sum())
    pts = rng.uniform(lo, hi, size=(n, 3))
    for i, (axis, value) in enumerate(faces):
        pts[pick == i, axis] = value
    return pts


def grid_state(grid):
    """What a snapshot of ``grid`` holds: its header fields and its voxel
    record bytes. Two grids with equal states save to equal files."""
    return (grid.dims, grid.voxel_size, grid.origin.tolist(), grid.h_max,
            grid.t_occ, to_records(grid).tobytes())
