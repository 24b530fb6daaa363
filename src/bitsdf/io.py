"""File formats: PCD/PLY/XYZ scans, TUM trajectories, mesh export (PLY/OBJ),
CSV grid export and the "DBTSDF01" binary grid snapshot.

Readers raise FormatError for unrecognized or malformed input and
CorruptionError for truncated or inconsistent payloads; every writer/reader
pair round-trips its own output bit-exactly.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation, Slerp

from .errors import CorruptionError, FormatError
from .grid import (
    SIGN_OCCUPIED,
    VOXEL_DTYPE,
    VoxelGrid,
    from_records,
    observed_array,
    to_records,
)
from .mesher import TriangleMesh
from .transforms import make_pose

SNAPSHOT_MAGIC = b"DBTSDF01"
_SNAPSHOT_HEADER = struct.Struct("<3I4d2B6x")


@dataclass
class ScanData:
    """Points read from one scan file, with optional per-point timestamps
    (normalized or raw, as stored) and the count of dropped non-finite rows."""

    points: np.ndarray
    timestamps: np.ndarray | None
    dropped: int


def _drop_nonfinite(points, timestamps=None):
    ok = np.all(np.isfinite(points), axis=1)
    dropped = int(points.shape[0] - np.count_nonzero(ok))
    ts = timestamps[ok] if timestamps is not None else None
    return ScanData(points=points[ok], timestamps=ts, dropped=dropped)


# ---------------------------------------------------------------------------
# PCD

_PCD_TYPE = {("F", 4): "<f4", ("F", 8): "<f8", ("U", 1): "u1", ("U", 2): "<u2",
             ("U", 4): "<u4", ("I", 1): "i1", ("I", 2): "<i2", ("I", 4): "<i4"}
_TIME_FIELDS = ("time", "t", "timestamp", "stamp")


def _read_pcd(path: Path) -> ScanData:
    raw = path.read_bytes()
    pos = 0
    header = {}
    while True:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise CorruptionError(f"{path}: PCD header never ends")
        line = raw[pos:nl].decode("ascii", errors="replace").strip()
        pos = nl + 1
        if line.startswith("#") or not line:
            continue
        key, _, val = line.partition(" ")
        header[key.upper()] = val
        if key.upper() == "DATA":
            break
    for req in ("FIELDS", "SIZE", "TYPE", "POINTS", "DATA"):
        if req not in header:
            raise FormatError(f"{path}: PCD header missing {req}")
    fields = header["FIELDS"].split()
    sizes = [int(s) for s in header["SIZE"].split()]
    types = header["TYPE"].split()
    if "COUNT" in header:
        counts = [int(c) for c in header["COUNT"].split()]
    else:
        counts = [1] * len(fields)
    n_points = int(header["POINTS"])
    for axis in "xyz":
        if axis not in fields:
            raise FormatError(f"{path}: PCD has no '{axis}' field")

    dtype_fields = []
    for name, size, typ, cnt in zip(fields, sizes, types, counts):
        base = _PCD_TYPE.get((typ, size))
        if base is None:
            raise FormatError(f"{path}: unsupported PCD field type {typ}{size}")
        dtype_fields.append((name, base, (cnt,)) if cnt > 1 else (name, base))
    dtype = np.dtype(dtype_fields)

    data_mode = header["DATA"].lower()
    if data_mode == "ascii":
        body = raw[pos:].decode("ascii", errors="replace")
        try:
            table = np.loadtxt(body.splitlines(), ndmin=2)
        except ValueError as e:
            raise FormatError(f"{path}: malformed ASCII PCD body: {e}") from None
        if table.shape[0] < n_points:
            raise CorruptionError(
                f"{path}: PCD declares {n_points} points, body has {table.shape[0]}"
            )
        col = 0
        columns = {}
        for name, cnt in zip(fields, counts):
            columns[name] = table[:n_points, col]
            col += cnt
        pts = np.stack([columns["x"], columns["y"], columns["z"]], axis=1)
        ts = next((columns[f] for f in _TIME_FIELDS if f in columns), None)
    elif data_mode == "binary":
        need = n_points * dtype.itemsize
        payload = raw[pos : pos + need]
        if len(payload) < need:
            raise CorruptionError(
                f"{path}: binary PCD truncated at byte {pos + len(payload)}"
            )
        rec = np.frombuffer(payload, dtype=dtype, count=n_points)
        pts = np.stack(
            [rec["x"].astype(np.float64), rec["y"].astype(np.float64),
             rec["z"].astype(np.float64)], axis=1
        )
        ts = None
        for f in _TIME_FIELDS:
            if f in rec.dtype.names:
                ts = rec[f].astype(np.float64)
                break
    else:
        raise FormatError(f"{path}: unsupported PCD data mode {data_mode!r}")
    return _drop_nonfinite(pts, ts)


def write_pcd(points: np.ndarray, path, binary: bool = False, timestamps=None):
    """Minimal PCD v0.7 writer (x y z [+ time]); used for synthetic scans and
    round-trip tests."""
    path = Path(path)
    points = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    n = points.shape[0]
    fields, sizes, types = ["x", "y", "z"], ["4"] * 3, ["F"] * 3
    if timestamps is not None:
        fields.append("time")
        sizes.append("4")
        types.append("F")
    header = (
        "# .PCD v0.7 - Point Cloud Data file format\n"
        "VERSION 0.7\n"
        f"FIELDS {' '.join(fields)}\n"
        f"SIZE {' '.join(sizes)}\n"
        f"TYPE {' '.join(types)}\n"
        f"COUNT {' '.join('1' for _ in fields)}\n"
        f"WIDTH {n}\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS {n}\n"
        f"DATA {'binary' if binary else 'ascii'}\n"
    )
    cols = points
    if timestamps is not None:
        cols = np.column_stack([points, np.asarray(timestamps, dtype=np.float32)])
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        if binary:
            f.write(np.ascontiguousarray(cols, dtype="<f4").tobytes())
        else:
            np.savetxt(f, cols.astype(np.float64), fmt="%.9g")


# ---------------------------------------------------------------------------
# PLY

_PLY_TYPE = {"float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
             "uchar": "u1", "uint8": "u1", "char": "i1", "int8": "i1",
             "short": "<i2", "ushort": "<u2", "int": "<i4", "int32": "<i4",
             "uint": "<u4", "uint32": "<u4"}


def _parse_ply_header(raw: bytes, path: Path):
    """Return (format, elements, body offset). Each element is (name, count,
    fields) with one (name, PLY type, shape) field per column group; a list
    property is read as its count followed by three items (triangles)."""
    end = raw.find(b"end_header\n")
    if not raw.startswith(b"ply") or end < 0:
        raise FormatError(f"{path}: not a PLY file")
    body_at = end + len(b"end_header\n")
    text = raw[:end].decode("ascii", errors="replace").splitlines()
    fmt = None
    elements = []
    for line in text[1:]:
        tok = line.split()
        if not tok or tok[0] == "comment":
            continue
        try:
            if tok[0] == "format":
                fmt = tok[1]
            elif tok[0] == "element":
                count = int(tok[2])
                if count < 0:
                    raise CorruptionError(
                        f"{path}: negative PLY element count {count} for {tok[1]}")
                elements.append((tok[1], count, []))
            elif tok[0] == "property":
                if not elements:
                    raise FormatError(f"{path}: PLY property before element")
                if tok[1] == "list":
                    fields = [(tok[4] + "_count", tok[2], ()), (tok[4], tok[3], (3,))]
                else:
                    fields = [(tok[2], tok[1], ())]
                for _, typ, _ in fields:
                    if typ not in _PLY_TYPE:
                        raise FormatError(
                            f"{path}: unsupported PLY property type {typ!r}")
                elements[-1][2].extend(fields)
        except (IndexError, ValueError):
            raise FormatError(f"{path}: malformed PLY header line {line!r}") from None
    if fmt not in ("ascii", "binary_little_endian"):
        raise FormatError(f"{path}: unsupported PLY format {fmt!r}")
    return fmt, elements, body_at


def _read_ply_elements(raw: bytes, path: Path, last: str) -> dict:
    """Decode the PLY body element by element, up to and including ``last``,
    into structured arrays with the header's fields. Binary bodies are read
    with np.frombuffer; ASCII values are read as float64."""
    fmt, elements, pos = _parse_ply_header(raw, path)
    if fmt == "ascii":
        text = raw[pos:].decode("ascii", errors="replace").splitlines()
        rows, pos = [ln.split() for ln in text if ln.strip()], 0
    out = {}
    for name, count, fields in elements:
        if fmt == "ascii":
            dtype = np.dtype([(f, "<f8", shape) for f, _, shape in fields])
            need, have = count, len(rows) - pos
        else:
            dtype = np.dtype([(f, _PLY_TYPE[t], shape) for f, t, shape in fields])
            need, have = count * dtype.itemsize, len(raw) - pos
        if have < need:
            raise CorruptionError(
                f"{path}: PLY body ends inside its {count} {name} entries")
        if fmt == "ascii":
            ncols = dtype.itemsize // 8
            try:
                table = np.array([r[:ncols] for r in rows[pos : pos + count]],
                                 dtype=np.float64).reshape(count, ncols)
                rec = table.view(dtype)[:, 0]
            except ValueError as e:
                raise FormatError(f"{path}: malformed ASCII PLY body: {e}") from None
        else:
            rec = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
        pos += need
        for f, _, shape in fields:
            if shape and np.any(rec[f + "_count"] != 3):
                raise FormatError(f"{path}: PLY list {f!r} holds non-triangles")
        out[name] = rec
        if name == last:
            break
    return out


def _ply_columns(rec, names, path: Path) -> np.ndarray:
    """Stack scalar fields of a decoded PLY element as float64 columns."""
    for n in names:
        if n not in (rec.dtype.names or ()):
            raise FormatError(f"{path}: PLY element lacks {n!r}")
    return np.stack([rec[n].astype(np.float64) for n in names], axis=1)


def _read_ply(path: Path) -> ScanData:
    vertex = _read_ply_elements(path.read_bytes(), path, "vertex").get("vertex")
    if vertex is None:
        raise FormatError(f"{path}: PLY has no vertex element")
    return _drop_nonfinite(_ply_columns(vertex, "xyz", path))


# ---------------------------------------------------------------------------
# scan dispatch

def read_scan(path) -> ScanData:
    """Read a point-cloud file (PCD v0.7, PLY, or whitespace XYZ text)."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"scan file not found: {path}")
    suffix = path.suffix.lower()
    head = path.open("rb").read(16)
    if suffix == ".pcd" or head.startswith(b"# .PCD") or head.startswith(b"VERSION"):
        return _read_pcd(path)
    if suffix == ".ply" or head.startswith(b"ply"):
        return _read_ply(path)
    if suffix in (".xyz", ".txt"):
        try:
            table = np.loadtxt(path, ndmin=2)
        except ValueError as e:
            raise FormatError(f"{path}: malformed XYZ text: {e}") from None
        if table.size == 0:
            return ScanData(np.zeros((0, 3)), None, 0)
        if table.shape[1] < 3:
            raise FormatError(f"{path}: XYZ text needs at least 3 columns")
        return _drop_nonfinite(table[:, :3])
    raise FormatError(f"{path}: unrecognized scan format")


# ---------------------------------------------------------------------------
# trajectories (TUM)

@dataclass
class Trajectory:
    times: np.ndarray  # (n,), strictly increasing seconds
    translations: np.ndarray  # (n, 3)
    rotations: Rotation  # batch of n

    def __len__(self) -> int:
        return self.times.shape[0]

    def pose(self, i: int) -> np.ndarray:
        return make_pose(self.rotations[i], self.translations[i])


def read_trajectory(path) -> Trajectory:
    """TUM format: "t tx ty tz qx qy qz qw" per line, '#' comments allowed."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"trajectory file not found: {path}")
    times, trans, quats = [], [], []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise FormatError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
        try:
            vals = [float(v) for v in parts]
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric field") from None
        q = np.array(vals[4:8])
        norm = np.linalg.norm(q)
        if abs(norm - 1.0) > 1e-3:
            raise FormatError(f"{path}:{lineno}: quaternion norm {norm:.6f} too far from 1")
        times.append(vals[0])
        trans.append(vals[1:4])
        quats.append(q / norm)
    if not times:
        raise FormatError(f"{path}: trajectory has no records")
    times = np.asarray(times)
    if np.any(np.diff(times) <= 0):
        raise FormatError(f"{path}: timestamps are not strictly increasing")
    return Trajectory(
        times=times,
        translations=np.asarray(trans),
        rotations=Rotation.from_quat(np.asarray(quats)),
    )


def lookup_pose(traj: Trajectory, t: float) -> np.ndarray:
    """Pose at time t: translation lerp + rotation slerp between bracketing
    records, clamped at the trajectory ends."""
    times = traj.times
    if t <= times[0]:
        return traj.pose(0)
    if t >= times[-1]:
        return traj.pose(len(traj) - 1)
    j = int(np.searchsorted(times, t, side="right"))
    i = j - 1
    u = (t - times[i]) / (times[j] - times[i])
    rot = Slerp(times[i : j + 1], traj.rotations[i : j + 1])(t)
    trans = (1.0 - u) * traj.translations[i] + u * traj.translations[j]
    return make_pose(rot, trans)


# ---------------------------------------------------------------------------
# mesh writers

MESH_FORMATS = ("ply_binary", "ply_ascii", "obj")


def write_mesh(mesh: TriangleMesh, path, fmt: str = "ply_binary") -> None:
    path = Path(path)
    if fmt == "obj":
        _write_obj(mesh, path)
    elif fmt in ("ply_ascii", "ply_binary"):
        _write_ply(mesh, path, binary=(fmt == "ply_binary"))
    else:
        raise FormatError(f"unknown mesh format {fmt!r}")


# Text writers format at most this many rows per string, so their extra
# memory does not grow with the row count.
_ROWS_PER_CHUNK = 8192


def _format_rows(row_fmt: str, table: np.ndarray):
    """Yield ``row_fmt % row`` for every row of a 2-D table, joined over
    chunks of rows with one ``%`` operation per chunk."""
    for start in range(0, table.shape[0], _ROWS_PER_CHUNK):
        chunk = table[start : start + _ROWS_PER_CHUNK]
        yield row_fmt * chunk.shape[0] % tuple(chunk.ravel().tolist())


def _write_ply(mesh: TriangleMesh, path: Path, binary: bool) -> None:
    nv, nf = mesh.vertices.shape[0], mesh.triangles.shape[0]
    with_normals = mesh.normals is not None
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {nv}",
              "property double x", "property double y", "property double z"]
    if with_normals:
        header += ["property double nx", "property double ny", "property double nz"]
    header += [f"element face {nf}", "property list uchar int vertex_indices",
               "end_header"]
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        verts = mesh.vertices
        if with_normals:
            verts = np.column_stack([mesh.vertices, mesh.normals])
        if binary:
            f.write(np.ascontiguousarray(verts, dtype="<f8").tobytes())
            if nf:
                face_dtype = np.dtype([("n", "u1"), ("idx", "<i4", (3,))])
                faces = np.empty(nf, dtype=face_dtype)
                faces["n"] = 3
                faces["idx"] = mesh.triangles
                f.write(faces.tobytes())
        else:
            vert_fmt = " ".join(["%.17g"] * verts.shape[1]) + "\n"
            for text in _format_rows(vert_fmt, verts):
                f.write(text.encode("ascii"))
            for text in _format_rows("3 %d %d %d\n", mesh.triangles):
                f.write(text.encode("ascii"))


def _write_obj(mesh: TriangleMesh, path: Path) -> None:
    with open(path, "w") as f:
        f.writelines(_format_rows("v %.17g %.17g %.17g\n", mesh.vertices))
        if mesh.normals is not None:
            f.writelines(_format_rows("vn %.17g %.17g %.17g\n", mesh.normals))
        # OBJ indices are 1-based
        f.writelines(_format_rows("f %d %d %d\n", mesh.triangles + 1))


def read_mesh_ply(path) -> TriangleMesh:
    """Read back a PLY mesh written by write_mesh (vertices + faces)."""
    path = Path(path)
    elements = _read_ply_elements(path.read_bytes(), path, "face")
    verts, normals = np.zeros((0, 3)), None
    faces = np.zeros((0, 3), dtype=np.int64)
    if "vertex" in elements:
        vertex = elements["vertex"]
        verts = _ply_columns(vertex, "xyz", path)
        if "nx" in vertex.dtype.names:
            normals = _ply_columns(vertex, ("nx", "ny", "nz"), path)
    if "face" in elements:
        face = elements["face"]
        lists = [n for n in face.dtype.names if face.dtype[n].shape]
        if not lists:
            raise FormatError(f"{path}: PLY face element has no index list")
        faces = face[lists[0]].astype(np.int64)
    return TriangleMesh(vertices=verts, triangles=faces, normals=normals)


# ---------------------------------------------------------------------------
# grid snapshot + CSV

def save_grid(grid: VoxelGrid, path) -> None:
    """Write a DBTSDF01 snapshot: magic, header, voxel records in
    linear-index order. The file is written under a temporary name in the
    same directory and renamed into place, so ``path`` holds either its old
    contents or the whole new snapshot, never part of one."""
    path = Path(path)
    header = _SNAPSHOT_HEADER.pack(
        *grid.dims, grid.voxel_size, *grid.origin, grid.h_max, grid.t_occ
    )
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(SNAPSHOT_MAGIC)
            f.write(header)
            to_records(grid).tofile(f)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_grid(path) -> VoxelGrid:
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(8 + _SNAPSHOT_HEADER.size)
        if head[:8] != SNAPSHOT_MAGIC:
            raise CorruptionError(f"{path}: bad snapshot magic {head[:8]!r}")
        if len(head) < 8 + _SNAPSHOT_HEADER.size:
            raise CorruptionError(f"{path}: snapshot header truncated")
        nx, ny, nz, voxel_size, ox, oy, oz, h_max, t_occ = (
            _SNAPSHOT_HEADER.unpack_from(head, 8))
        if min(nx, ny, nz) < 1 or voxel_size <= 0:
            raise CorruptionError(f"{path}: degenerate snapshot header")
        n = nx * ny * nz
        body = os.fstat(f.fileno()).st_size - len(head)
        if body < n * 8:
            raise CorruptionError(
                f"{path}: snapshot payload short ({body} < {n * 8} bytes)"
            )
        if body > n * 8:
            raise CorruptionError(
                f"{path}: {body - n * 8} trailing bytes after the snapshot payload"
            )
        rec = np.fromfile(f, dtype=VOXEL_DTYPE, count=n)
    return from_records(rec, (nx, ny, nz), voxel_size, (ox, oy, oz), h_max, t_occ)


CSV_HEADER = "x,y,z,sdf,hits,sign"


# The CSV export copies the x-fastest grid into C order one slab of x
# planes at a time: at most this many planes, and about this many voxels.
_SLAB_PLANES = 16
_SLAB_VOXELS = 1 << 18


def _csv_tail(pc: int, sign: int, hits: int, voxel_size: float) -> str:
    """The "sdf,hits,sign" end of a CSV row, with the arithmetic of
    signed_distance_field."""
    sdf = (-1.0 if sign == SIGN_OCCUPIED else 1.0) * (float(pc) * voxel_size)
    return "%.17g,%d,%d\n" % (sdf, hits, sign)


def export_grid_csv(grid: VoxelGrid, path, include: str = "observed") -> int:
    """Dump selected voxels as CSV rows (voxel centers in meters) in
    np.nonzero order; returns the row count. include: "observed" or
    "occupied_only".

    A row has few distinct fields: a center coordinate takes one value per
    index along its axis, and "sdf,hits,sign" depends only on (popcount,
    sign, hits). Each distinct field is formatted once ("%.17g" / "%d").
    The grid is scanned in slabs of x planes, each copied into C order so
    that its selected voxels come out in np.nonzero order, and rows are
    written _ROWS_PER_CHUNK at a time, so extra memory does not grow with
    the row count."""
    if include not in ("observed", "occupied_only"):
        raise FormatError(f"unknown CSV selection {include!r}")
    nx, ny, nz = grid.dims
    # Same float operations, in the same order, as origin + (i + 0.5) * size
    # on the stacked indices, so every string matches a per-row format.
    axes = [
        np.array(["%.17g," % c for c in
                  (grid.origin[a] + (np.arange(n) + 0.5) * grid.voxel_size).tolist()],
                 dtype=object)
        for a, n in enumerate(grid.dims)
    ]
    # Tail of (popcount, sign, hits) at (popcount * 2 + sign) * 256 + hits,
    # formatted when first used. A sign byte above 1, found only in a
    # corrupt snapshot, is formatted per row.
    tails = np.empty(33 * 2 * 256, dtype=object)
    have = np.zeros(tails.size, dtype=bool)
    planes = max(1, min(_SLAB_PLANES, _SLAB_VOXELS // (ny * nz)))
    rows = 0
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for x0 in range(0, nx, planes):
            mask, sign, hits = (np.ascontiguousarray(a[x0 : x0 + planes]).reshape(-1)
                                for a in (grid.mask, grid.sign, grid.hits))
            if include == "observed":
                sel = np.flatnonzero(observed_array(mask, hits))
            else:
                sel = np.flatnonzero(sign == SIGN_OCCUPIED)
            for start in range(0, sel.size, _ROWS_PER_CHUNK):
                idx = sel[start : start + _ROWS_PER_CHUNK]
                pc, s, h = np.bitwise_count(mask[idx]).astype(np.intp), sign[idx], hits[idx]
                iyz, iz = np.divmod(idx, nz)
                ix, iy = np.divmod(iyz, ny)
                key = (pc * 2 + np.minimum(s, 1)) * 256 + h
                for k in np.unique(key[~have[key]]).tolist():
                    tails[k] = _csv_tail(k >> 9, (k >> 8) & 1, k & 0xFF, grid.voxel_size)
                    have[k] = True
                tail = tails[key]
                for i in np.flatnonzero(s > 1).tolist():
                    tail[i] = _csv_tail(int(pc[i]), int(s[i]), int(h[i]), grid.voxel_size)
                table = np.stack([axes[0][ix + x0], axes[1][iy], axes[2][iz], tail], axis=1)
                f.write("".join(table.ravel().tolist()))
            rows += sel.size
    return rows


# ---------------------------------------------------------------------------
# scan/pose association

_FLOAT_STEM = re.compile(r"([-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)\s*$")


def scan_timestamp(path) -> float | None:
    """Timestamp encoded in a scan filename stem (trailing float), if any."""
    m = _FLOAT_STEM.search(Path(path).stem)
    return float(m.group(1)) if m else None
