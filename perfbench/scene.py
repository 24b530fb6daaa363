"""Seeded box-room LiDAR sequences for the benchmark.

A sensor walks a closed loop through an axis-aligned room with fixed
(identity) orientation. Its rays follow a spinning 16-channel LiDAR (see
``CHANNEL_ELEVATIONS_DEG``). How many of a sweep's returns land on each room
face is what that sensor sees from the pose's nominal, seed-free position;
the returns themselves are drawn from the sensor's rays at the seeded
position. The count on every face is then the same for every seed. The scene writes only files:
binary PCD sweeps named ``scan_<time>.pcd``, a TUM trajectory, the run YAML
and the ground-truth points (binary PCD) sampled area-uniformly from the
analytic faces. The program under test receives nothing else.

Sensor positions are multiples of 2**-10 m, so a return on a face is stored
exactly in float32 sensor coordinates and maps back exactly onto the face in
the map frame. Which returns sit on a ``bounds_max`` face is therefore exact,
and the benchmark can count the discards that the padding fault causes
without rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

ROOM_LO = (0.0, 0.0, 0.0)
ROOM_HI = (10.0, 10.0, 3.0)
SWEEP_HZ = 10.0
POSITION_QUANTUM = 2.0**-10  # meters; keeps face coordinates exact in float32
EDGE_MARGIN = 1e-3  # meters; returns stay this far from face edges
LOOP_RADIUS = 3.0  # meters, around the room center
POSE_JITTER = 0.10  # meters, seeded per-pose offset in x and y

SENSOR_HEIGHT = 1.5  # meters

# (axis, side) per face; side 0 is the bounds_min face, 1 the bounds_max face.
FACES = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
# The Velodyne VLP-16's published geometry: 16 channels from -15 to +15
# degrees elevation, 2 degrees apart, spinning 360 degrees, mounted level.
CHANNEL_ELEVATIONS_DEG = np.arange(-15.0, 15.5, 2.0)
NOMINAL_AZIMUTH_STEPS = 1800  # 0.2 degrees, the VLP-16's step at 10 Hz


@dataclass(frozen=True)
class SceneSpec:
    """Make-up of one generated sequence."""

    poses: int
    returns_per_sweep: int
    gt_points: int  # about this many; the stratified grid rounds it


@dataclass
class Sweep:
    time: float
    sensor: np.ndarray  # (3,) map-frame position, float64
    points_sensor: np.ndarray  # (n, 3) float32, as written to the PCD
    face: np.ndarray  # (n,) index into FACES per return


@dataclass
class Scene:
    sweeps: list
    gt: np.ndarray  # (m, 3) float32 values, as written, in float64

    def map_points(self, i: int) -> np.ndarray:
        """Sweep i's returns in the map frame, computed from the stored
        float32 values exactly as a reader would (identity rotation)."""
        s = self.sweeps[i]
        return s.points_sensor.astype(np.float64) + s.sensor


def _quantize(pos):
    return np.round(pos / POSITION_QUANTUM) * POSITION_QUANTUM


def nominal_positions(poses: int) -> np.ndarray:
    """Evenly spaced on the loop, before the seeded offset."""
    lo, hi = np.array(ROOM_LO), np.array(ROOM_HI)
    center = (lo + hi) / 2.0
    ang = 2.0 * np.pi * np.arange(poses) / poses
    pos = np.empty((poses, 3))
    pos[:, 0] = center[0] + LOOP_RADIUS * np.cos(ang)
    pos[:, 1] = center[1] + LOOP_RADIUS * np.sin(ang)
    pos[:, 2] = SENSOR_HEIGHT
    return _quantize(pos)


def _jittered(nominal, rng) -> np.ndarray:
    pos = nominal.copy()
    pos[:, :2] += rng.uniform(-POSE_JITTER, POSE_JITTER, size=(len(pos), 2))
    return _quantize(pos)


def _ray_dirs(elevation_deg, azimuth):
    el, az = np.radians(elevation_deg), azimuth
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az),
                     np.sin(el)], axis=-1)


def _face_hits(sensor, dirs, lo, hi):
    """Exit point and face index of rays leaving the box from inside."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(dirs > 0, (hi - sensor) / dirs,
                     np.where(dirs < 0, (lo - sensor) / dirs, np.inf))
    axis = np.argmin(t, axis=1)
    side = (dirs[np.arange(len(dirs)), axis] > 0).astype(np.int64)
    pts = sensor + dirs * t[np.arange(len(dirs)), axis][:, None]
    # Snap the exit coordinate onto the face exactly.
    pts[np.arange(len(dirs)), axis] = np.where(side == 1, hi[axis], lo[axis])
    return pts, axis * 2 + side


def _sweep(sensor, counts, rng):
    lo, hi = np.array(ROOM_LO), np.array(ROOM_HI)
    pts_by_face = [[] for _ in FACES]
    need = np.array(counts)
    while np.any(need > 0):
        dirs = _ray_dirs(rng.choice(CHANNEL_ELEVATIONS_DEG, 65536),
                         rng.uniform(0.0, 2.0 * np.pi, 65536))
        pts, face = _face_hits(sensor, dirs, lo, hi)
        inner = np.all(
            (pts >= lo + EDGE_MARGIN) & (pts <= hi - EDGE_MARGIN)
            | (pts == lo) | (pts == hi), axis=1
        )
        for f in range(len(FACES)):
            if need[f] <= 0:
                continue
            sel = pts[inner & (face == f)][: need[f]]
            pts_by_face[f].append(sel)
            need[f] -= sel.shape[0]
    pts = np.concatenate([np.concatenate(p) for p in pts_by_face])
    face = np.repeat(np.arange(len(FACES)), counts)
    order = rng.permutation(pts.shape[0])  # interleave faces like a real sweep
    return pts[order], face[order]


def box_surface_samples(n: int, rng) -> np.ndarray:
    """About n points over the six interior faces of the room, area-
    proportional and stratified: one uniform point in each cell of a regular
    grid laid on each face. Every seed then covers the faces evenly, and
    figures averaged over the points vary little from seed to seed."""
    lo, hi = np.array(ROOM_LO), np.array(ROOM_HI)
    ext = hi - lo
    total = 2.0 * (ext[0] * ext[1] + ext[1] * ext[2] + ext[2] * ext[0])
    out = []
    for axis, side in FACES:
        u, v = (a for a in range(3) if a != axis)
        per_face = n * ext[u] * ext[v] / total
        nu = max(1, round(float(np.sqrt(per_face * ext[u] / ext[v]))))
        nv = max(1, round(per_face / nu))
        iu, iv = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
        pts = np.empty((nu * nv, 3))
        pts[:, u] = lo[u] + (iu.ravel() + rng.random(nu * nv)) * ext[u] / nu
        pts[:, v] = lo[v] + (iv.ravel() + rng.random(nu * nv)) * ext[v] / nv
        pts[:, axis] = hi[axis] if side else lo[axis]
        out.append(pts)
    return np.concatenate(out)


def face_shares(sensor) -> np.ndarray:
    """Share of the sensor's full ray pattern (every channel at every
    nominal azimuth step) that ends on each face, in FACES order."""
    el, az = np.meshgrid(CHANNEL_ELEVATIONS_DEG,
                         2.0 * np.pi * np.arange(NOMINAL_AZIMUTH_STEPS)
                         / NOMINAL_AZIMUTH_STEPS, indexing="ij")
    dirs = _ray_dirs(el.ravel(), az.ravel())
    _, face = _face_hits(np.asarray(sensor), dirs, np.array(ROOM_LO), np.array(ROOM_HI))
    return np.bincount(face, minlength=len(FACES)) / len(face)


def face_counts(sensor, returns_per_sweep: int) -> list:
    """returns_per_sweep split over the faces by face_shares, by largest
    remainder so the counts sum exactly."""
    want = face_shares(sensor) * returns_per_sweep
    counts = np.floor(want).astype(np.int64)
    short = returns_per_sweep - int(counts.sum())
    counts[np.argsort(counts - want, kind="stable")[:short]] += 1
    return [int(c) for c in counts]


def generate(spec: SceneSpec, seed: int) -> Scene:
    """The whole sequence for one seed; same seed, same scene."""
    pose_rng, sweep_rng, gt_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    nominal = nominal_positions(spec.poses)
    sweeps = []
    for i, sensor in enumerate(_jittered(nominal, pose_rng)):
        counts = face_counts(nominal[i], spec.returns_per_sweep)
        pts, face = _sweep(sensor, counts, sweep_rng)
        sweeps.append(Sweep(
            time=round(1.0 + i / SWEEP_HZ, 6),
            sensor=sensor,
            points_sensor=(pts - sensor).astype(np.float32),
            face=face,
        ))
    gt = box_surface_samples(spec.gt_points, gt_rng).astype(np.float32)
    return Scene(sweeps=sweeps, gt=gt.astype(np.float64))


def write_pcd_binary(points: np.ndarray, path: Path) -> None:
    """PCD v0.7, fields x y z as little-endian float32."""
    pts = np.ascontiguousarray(points, dtype="<f4").reshape(-1, 3)
    n = pts.shape[0]
    header = (
        "# .PCD v0.7\nVERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
        f"COUNT 1 1 1\nWIDTH {n}\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
        f"POINTS {n}\nDATA binary\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(pts.tobytes())


def write_inputs(scene: Scene, out: Path, config: dict) -> Path:
    """Write sweeps, trajectory, ground truth and run YAML under ``out``;
    returns the YAML path. ``config`` holds the grid/kernel/integration
    sections and threads; paths are filled in here."""
    scans = out / "scans"
    scans.mkdir(parents=True, exist_ok=True)
    lines = ["# time tx ty tz qx qy qz qw"]
    for s in scene.sweeps:
        write_pcd_binary(s.points_sensor, scans / f"scan_{s.time:.6f}.pcd")
        tx, ty, tz = (repr(float(v)) for v in s.sensor)
        lines.append(f"{s.time:.6f} {tx} {ty} {tz} 0 0 0 1")
    (out / "poses.txt").write_text("\n".join(lines) + "\n")
    write_pcd_binary(scene.gt, out / "gt_points.pcd")
    cfg = dict(config)
    cfg["grid"] = dict(cfg["grid"], bounds_min=list(ROOM_LO),
                       bounds_max=list(ROOM_HI))
    cfg["paths"] = {"scans": str(scans), "trajectory": str(out / "poses.txt"),
                    "output_dir": str(out / "map")}
    path = out / "run.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path
