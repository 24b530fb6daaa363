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
    BYTES_PER_VOXEL,
    SIGN_OCCUPIED,
    VOXEL_DTYPE,
    VoxelGrid,
    from_records,
    observed_array,
    signed_distances,
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


def _input_file(path, what: str) -> Path:
    """``path`` as a Path; FormatError when it is not a file."""
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"{what} file not found: {path}")
    return path


def _drop_nonfinite(points, timestamps=None):
    ok = np.all(np.isfinite(points), axis=1)
    dropped = int(points.shape[0] - np.count_nonzero(ok))
    ts = timestamps[ok] if timestamps is not None else None
    return ScanData(points=points[ok], timestamps=ts, dropped=dropped)


# ---------------------------------------------------------------------------
# PCD and PLY. A header parser returns (format, elements, body offset): format
# "ascii" or "binary_little_endian", and (name, count, fields) per element in
# body order, with one (name, numpy dtype, shape) field per column group.

_TIME_FIELDS = ("time", "t", "timestamp", "stamp")


def _element_count(token: str, path: Path, name: str) -> int:
    """The record count ``token`` declares for element ``name``: ValueError
    if it is not an integer, CorruptionError if it is negative."""
    count = int(token)
    if count < 0:
        raise CorruptionError(f"{path}: negative {name} count {count}")
    return count


_PCD_TYPE = {("F", 4): "<f4", ("F", 8): "<f8", ("U", 1): "u1", ("U", 2): "<u2",
             ("U", 4): "<u4", ("I", 1): "i1", ("I", 2): "<i2", ("I", 4): "<i4"}


def _parse_pcd_header(raw: bytes, path: Path):
    """Return (format, elements, body offset) of a PCD v0.7 file: one
    element, "point", of POINTS records, with one field per FIELDS column,
    of shape (COUNT,) where COUNT > 1."""
    header, pos = {}, 0
    while "DATA" not in header and (nl := raw.find(b"\n", pos)) >= 0:
        tok = raw[pos:nl].decode("ascii", errors="replace").split()
        pos = nl + 1
        if tok and not tok[0].startswith("#"):
            header[tok[0].upper()] = tok[1:]
    for key in ("FIELDS", "SIZE", "TYPE", "POINTS", "DATA"):
        if key not in header:
            raise FormatError(f"{path}: PCD header missing {key}")
    names = header["FIELDS"]
    columns = zip(names, header["SIZE"], header["TYPE"],
                  header.get("COUNT", ["1"] * len(names)), strict=True)
    fields = []
    try:
        for name, size, typ, count in columns:
            dtype = _PCD_TYPE.get((typ, int(size)))
            if dtype is None:
                raise FormatError(f"{path}: unsupported PCD field type {typ}{size}")
            fields.append((name, dtype, (int(count),) if int(count) > 1 else ()))
        points = _element_count(" ".join(header["POINTS"]), path, "point")
    except ValueError:
        raise FormatError(f"{path}: PCD header needs FIELDS, SIZE, TYPE and COUNT "
                          "of one length, and integer SIZE, COUNT and POINTS") from None
    mode = " ".join(header["DATA"])
    fmt = {"ascii": "ascii", "binary": "binary_little_endian"}.get(mode.lower())
    if fmt is None:
        raise FormatError(f"{path}: unsupported PCD data mode {mode!r}")
    return fmt, [("point", points, fields)], pos


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


_PLY_TYPE = {"float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
             "uchar": "u1", "uint8": "u1", "char": "i1", "int8": "i1",
             "short": "<i2", "ushort": "<u2", "int": "<i4", "int32": "<i4",
             "uint": "<u4", "uint32": "<u4"}


def _parse_ply_header(raw: bytes, path: Path):
    """Return (format, elements, body offset) of a PLY file. A list is read
    as a ``<name>_count`` field, then a ``<name>`` field of three items."""
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
                elements.append((tok[1], _element_count(tok[2], path, tok[1]), []))
            elif tok[0] == "property":
                if not elements:
                    raise FormatError(f"{path}: PLY property before element")
                if tok[1] == "list":
                    fields = [(tok[4] + "_count", tok[2], ()), (tok[4], tok[3], (3,))]
                else:
                    fields = [(tok[2], tok[1], ())]
                for name, typ, shape in fields:
                    if typ not in _PLY_TYPE:
                        raise FormatError(
                            f"{path}: unsupported PLY property type {typ!r}")
                    elements[-1][2].append((name, _PLY_TYPE[typ], shape))
        except (IndexError, ValueError):
            raise FormatError(f"{path}: malformed PLY header line {line!r}") from None
    if fmt not in ("ascii", "binary_little_endian"):
        raise FormatError(f"{path}: unsupported PLY format {fmt!r}")
    return fmt, elements, body_at


def _read_elements(raw: bytes, path: Path, parse_header, last=None) -> dict:
    """Decode the body of the file whose header ``parse_header`` reads, up
    to and including element ``last`` (by default all), into structured
    arrays with the header's fields: binary by np.frombuffer, ASCII as
    float64 by one np.loadtxt per element over the non-empty lines. A list
    must hold three items in every record."""
    fmt, elements, pos = parse_header(raw, path)
    body = raw
    if fmt == "ascii":
        text = raw[pos:].decode("ascii", errors="replace").splitlines()
        body, pos = list(filter(str.strip, text)), 0
    out = {}
    for name, count, fields in elements:
        try:
            dtype = np.dtype([(f, "<f8" if fmt == "ascii" else t, shape)
                              for f, t, shape in fields])
        except ValueError as e:
            raise FormatError(f"{path}: bad {name} fields: {e}") from None
        need = count if fmt == "ascii" else count * dtype.itemsize
        if len(body) - pos < need:
            raise CorruptionError(f"{path}: body ends inside its {count} {name} entries")
        if fmt == "ascii":
            ncols = dtype.itemsize // 8
            try:
                table = np.zeros((0, ncols)) if count == 0 else np.loadtxt(
                    body[pos : pos + count], ndmin=2, comments=None,
                    usecols=range(ncols))
                rec = table.view(dtype)[:, 0]
            except ValueError as e:
                raise FormatError(f"{path}: malformed ASCII body: {e}") from None
        else:
            rec = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
        pos += need
        for f, _, shape in fields:
            if shape and f + "_count" in dtype.names and np.any(rec[f + "_count"] != 3):
                raise FormatError(f"{path}: list {f!r} holds non-triangles")
        out[name] = rec
        if name == last:
            break
    return out


def _columns(rec, names, path: Path) -> np.ndarray:
    """Stack scalar fields of a decoded element as float64 columns."""
    for n in names:
        if n not in rec.dtype.names or rec.dtype[n].shape:
            raise FormatError(f"{path}: element lacks a scalar field {n!r}")
    return np.stack([rec[n].astype(np.float64) for n in names], axis=1)


def read_scan(path) -> ScanData:
    """Read a point-cloud file (PCD v0.7, PLY, or whitespace XYZ text). A
    PCD's points or a PLY's vertices give the points, and the first of
    _TIME_FIELDS among their fields the timestamps."""
    path = _input_file(path, "scan")
    raw = path.read_bytes()
    suffix = path.suffix.lower()
    if suffix == ".pcd" or raw.startswith((b"# .PCD", b"VERSION")):
        rec = _read_elements(raw, path, _parse_pcd_header)["point"]
    elif suffix == ".ply" or raw.startswith(b"ply"):
        rec = _read_elements(raw, path, _parse_ply_header, "vertex").get("vertex")
        if rec is None:
            raise FormatError(f"{path}: PLY has no vertex element")
    elif suffix in (".xyz", ".txt"):
        try:
            table = np.loadtxt(raw.decode("ascii", errors="replace").splitlines(),
                               ndmin=2, usecols=range(3))
        except ValueError as e:
            raise FormatError(f"{path}: XYZ text needs 3 numeric columns: {e}") from None
        return _drop_nonfinite(table)
    else:
        raise FormatError(f"{path}: unrecognized scan format")
    time = next((f for f in _TIME_FIELDS if f in rec.dtype.names), None)
    ts = _columns(rec, [time], path)[:, 0] if time else None
    return _drop_nonfinite(_columns(rec, "xyz", path), ts)


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
    path = _input_file(path, "trajectory")
    times, trans, quats = [], [], []
    text = path.read_bytes().decode("utf-8", errors="replace")
    for lineno, line in enumerate(text.splitlines(), start=1):
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
    path = _input_file(path, "mesh")
    elements = _read_elements(path.read_bytes(), path, _parse_ply_header, "face")
    verts, normals = np.zeros((0, 3)), None
    faces = np.zeros((0, 3), dtype=np.int64)
    if "vertex" in elements:
        vertex = elements["vertex"]
        verts = _columns(vertex, "xyz", path)
        if "nx" in vertex.dtype.names:
            normals = _columns(vertex, ("nx", "ny", "nz"), path)
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
    path = _input_file(path, "snapshot")
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
        payload = n * BYTES_PER_VOXEL
        body = os.fstat(f.fileno()).st_size - len(head)
        if body < payload:
            raise CorruptionError(
                f"{path}: snapshot payload short ({body} < {payload} bytes)"
            )
        if body > payload:
            raise CorruptionError(
                f"{path}: {body - payload} trailing bytes after the snapshot payload"
            )
        rec = np.fromfile(f, dtype=VOXEL_DTYPE, count=n)
    return from_records(rec, (nx, ny, nz), voxel_size, (ox, oy, oz), h_max, t_occ)


CSV_HEADER = "x,y,z,sdf,hits,sign"


# The CSV export selects voxels one slab of x planes, of about this many
# voxels, at a time.
_SLAB_VOXELS = 1 << 18


def _csv_tails(pc, sign, hits, voxel_size: float) -> list:
    """The "sdf,hits,sign" ends of the CSV rows of voxels with these
    popcounts, sign bytes and hit counts (equal-length int arrays)."""
    sdf = signed_distances(pc, sign, voxel_size)
    return ["%.17g,%d,%d\n" % row for row in zip(sdf.tolist(), hits.tolist(), sign.tolist())]


def export_grid_csv(grid: VoxelGrid, path, include: str = "observed") -> int:
    """Dump selected voxels as CSV rows (voxel centers in meters) in
    np.nonzero order; returns the row count. include: "observed" or
    "occupied_only".

    A row has few distinct fields: a center coordinate takes one value per
    index along its axis, and "sdf,hits,sign" depends only on (popcount,
    sign, hits). Each distinct field is formatted once ("%.17g" / "%d").
    The grid is scanned in slabs of x planes; only a slab's selection mask
    is copied into C order, so that its selected voxels come out in
    np.nonzero order, and their fields are gathered from the grid. Rows are
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
    planes = max(1, _SLAB_VOXELS // (ny * nz))
    mask, sign, hits = (a.ravel(order="F") for a in (grid.mask, grid.sign, grid.hits))
    rows = 0
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for x0 in range(0, nx, planes):
            if include == "observed":
                chosen = observed_array(grid.mask[x0 : x0 + planes], grid.hits[x0 : x0 + planes])
            else:
                chosen = grid.sign[x0 : x0 + planes] == SIGN_OCCUPIED
            sel = np.flatnonzero(chosen)  # C order: np.nonzero order of the slab
            for start in range(0, sel.size, _ROWS_PER_CHUNK):
                iyz, iz = np.divmod(sel[start : start + _ROWS_PER_CHUNK], nz)
                ix, iy = np.divmod(iyz, ny)
                i = ix + x0 + nx * (iy + ny * iz)  # the voxels' x-fastest flat index
                pc = np.bitwise_count(mask[i]).astype(np.intp)
                s, h = sign[i], hits[i]
                key = (pc * 2 + np.minimum(s, 1)) * 256 + h
                new = np.unique(key[~have[key]])
                tails[new] = _csv_tails(new >> 9, (new >> 8) & 1, new & 0xFF, grid.voxel_size)
                have[new] = True
                tail = tails[key]
                bad = np.flatnonzero(s > 1)
                tail[bad] = _csv_tails(pc[bad], s[bad], h[bad], grid.voxel_size)
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
