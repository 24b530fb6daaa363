import io
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from scipy.spatial.transform import Rotation, Slerp

from bitsdf import grid as bgrid
from bitsdf import io as bio
from bitsdf.errors import CorruptionError, FormatError
from bitsdf.grid import (
    FULL_MASK,
    SIGN_OCCUPIED,
    VOXEL_DTYPE,
    new_grid,
    observed_array,
    run_mask,
)
from bitsdf.integrator import IntegrationParams, integrate_point
from bitsdf.kernels import build_kernel_bank
from bitsdf.mesher import TriangleMesh, vertex_normals
from bitsdf.transforms import make_pose

from _synthetic import grid_state


def cube_mesh():
    v = np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
         [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=np.float64
    )
    f = np.array(
        [[0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7], [0, 1, 5], [0, 5, 4],
         [1, 2, 6], [1, 6, 5], [2, 3, 7], [2, 7, 6], [3, 0, 4], [3, 4, 7]],
        dtype=np.int64,
    )
    return TriangleMesh(vertices=v, triangles=f)


def random_mesh(rng, nv=9000, nf=17000, normals=True):
    """More vertices and faces than one formatting chunk, with values that
    need all 17 significant digits."""
    v = rng.normal(scale=3.0, size=(nv, 3))
    n = rng.normal(size=(nv, 3)) if normals else None
    f = rng.integers(0, nv, size=(nf, 3), dtype=np.int64)
    return TriangleMesh(vertices=v, triangles=f, normals=n)


# Per-row reference writers: the text formats as written one line at a time.

def reference_obj(mesh, path):
    with open(path, "w") as f:
        for v in mesh.vertices:
            f.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        if mesh.normals is not None:
            for n in mesh.normals:
                f.write(f"vn {n[0]:.17g} {n[1]:.17g} {n[2]:.17g}\n")
        for tri in mesh.triangles:
            f.write(f"f {tri[0] + 1} {tri[1] + 1} {tri[2] + 1}\n")


def reference_ply_ascii_body(mesh) -> bytes:
    verts = mesh.vertices
    if mesh.normals is not None:
        verts = np.column_stack([mesh.vertices, mesh.normals])
    f = io.BytesIO()
    np.savetxt(f, verts, fmt="%.17g")
    for tri in mesh.triangles:
        f.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n".encode("ascii"))
    return f.getvalue()


def signed_distance_field(grid):
    """Dense (field, observed) pair: sigma * (popcount * voxel_size), sigma
    -1.0 on occupied voxels and 1.0 elsewhere."""
    dist = np.bitwise_count(grid.mask).astype(np.float64) * grid.voxel_size
    sigma = np.where(grid.sign == SIGN_OCCUPIED, -1.0, 1.0)
    return sigma * dist, observed_array(grid.mask, grid.hits)


def reference_csv(grid, path, include):
    sel = (observed_array(grid.mask, grid.hits) if include == "observed"
           else grid.sign == SIGN_OCCUPIED)
    field, _ = signed_distance_field(grid)
    ix, iy, iz = np.nonzero(sel)
    centers = grid.origin + (np.stack([ix, iy, iz], axis=1) + 0.5) * grid.voxel_size
    with open(path, "w") as f:
        f.write(bio.CSV_HEADER + "\n")
        for (x, y, z), sdf, h, s in zip(
            centers, field[ix, iy, iz], grid.hits[ix, iy, iz], grid.sign[ix, iy, iz]
        ):
            f.write(f"{x:.17g},{y:.17g},{z:.17g},{sdf:.17g},{int(h)},{int(s)}\n")
    return int(ix.size)


class TestReadScanPCD:
    def test_ascii_golden(self, tmp_path):
        p = tmp_path / "a.pcd"
        p.write_text(
            "# .PCD v0.7 - Point Cloud Data file format\n"
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            "WIDTH 3\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 3\nDATA ascii\n"
            "1.0 2.0 3.0\n-4.5 0.25 1e-3\n0 0 0\n"
        )
        data = bio.read_scan(p)
        assert data.points.shape == (3, 3)
        assert np.allclose(data.points[1], [-4.5, 0.25, 1e-3])
        assert data.dropped == 0

    def test_nan_row_dropped(self, tmp_path):
        p = tmp_path / "n.pcd"
        p.write_text(
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            "WIDTH 2\nHEIGHT 1\nPOINTS 2\nDATA ascii\n"
            "1 2 3\nnan 0 0\n"
        )
        data = bio.read_scan(p)
        assert data.points.shape == (1, 3)
        assert data.dropped == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_time_row_dropped(self, tmp_path, bad):
        # A row whose time is not finite goes with its point, and counts
        # among the dropped rows with those whose coordinates are not finite.
        p = tmp_path / "t.pcd"
        pts = np.arange(12.0).reshape(4, 3)
        pts[3, 0] = np.nan
        bio.write_pcd(pts, p, binary=True, timestamps=[0.0, bad, 0.5, 1.0])
        data = bio.read_scan(p)
        assert data.points.tolist() == [[0, 1, 2], [6, 7, 8]]
        assert data.timestamps.tolist() == [0.0, 0.5]
        assert data.dropped == 2

    @pytest.mark.parametrize("field", [0, 3], ids=["x", "time"])
    def test_signaling_nan_row_dropped_without_warning(self, tmp_path, field):
        # A float32 signaling NaN (bits 0x7F800001) casts to float64 without
        # numpy's "invalid value" warning, and its row is dropped and counted.
        p = tmp_path / "s.pcd"
        bio.write_pcd(np.arange(12.0).reshape(4, 3), p, binary=True,
                      timestamps=[0.0, 0.25, 0.5, 1.0])
        raw = bytearray(p.read_bytes())
        at = raw.index(b"DATA binary\n") + len(b"DATA binary\n") + 16 + 4 * field
        raw[at : at + 4] = struct.pack("<I", 0x7F800001)
        p.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = bio.read_scan(p)
        assert data.points.tolist() == [[0, 1, 2], [6, 7, 8], [9, 10, 11]]
        assert data.timestamps.tolist() == [0.0, 0.5, 1.0]
        assert data.dropped == 1

    def test_binary_round_trip(self, tmp_path):
        pts = np.random.default_rng(0).normal(size=(100, 3)).astype(np.float32)
        p = tmp_path / "b.pcd"
        bio.write_pcd(pts, p, binary=True)
        back = bio.read_scan(p)
        assert np.array_equal(back.points, pts.astype(np.float64))

    def test_ascii_with_time_field(self, tmp_path):
        p = tmp_path / "t.pcd"
        ts = np.linspace(0, 1, 5).astype(np.float32)
        bio.write_pcd(np.zeros((5, 3)), p, binary=False, timestamps=ts)
        back = bio.read_scan(p)
        assert back.timestamps is not None
        assert np.allclose(back.timestamps, ts)

    def test_truncated_binary(self, tmp_path):
        pts = np.zeros((10, 3), dtype=np.float32)
        p = tmp_path / "tr.pcd"
        bio.write_pcd(pts, p, binary=True)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(CorruptionError):
            bio.read_scan(p)

    @pytest.mark.parametrize("binary, old, new, error", [
        (False, b"POINTS 3", b"POINTS -1", CorruptionError),
        (True, b"POINTS 3", b"POINTS -1", CorruptionError),
        (False, b"POINTS 3", b"POINTS 2.5", FormatError),
        (False, b"SIZE 4 4 4", b"SIZE 4 x 4", FormatError),
        (False, b"SIZE 4 4 4", b"SIZE 4 4", FormatError),
        (False, b"POINTS 3\n", b"", FormatError),
        (True, b"DATA binary", b"DATA binary_compressed", FormatError),
    ], ids=["negative-ascii", "negative-binary", "fractional-points",
            "size-token", "short-size", "no-points", "compressed"])
    def test_header_faults(self, tmp_path, binary, old, new, error):
        p = tmp_path / "h.pcd"
        bio.write_pcd(np.arange(9.0).reshape(3, 3), p, binary=binary)
        raw = p.read_bytes()
        assert old in raw
        p.write_bytes(raw.replace(old, new, 1))
        with pytest.raises(error):
            bio.read_scan(p)

    def test_ascii_zero_points(self, tmp_path):
        p = tmp_path / "z.pcd"
        bio.write_pcd(np.zeros((0, 3)), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = bio.read_scan(p)
        assert data.points.shape == (0, 3) and data.dropped == 0

    def test_ascii_field_with_count(self, tmp_path):
        p = tmp_path / "c.pcd"
        p.write_text(
            "VERSION 0.7\nFIELDS normal x y z time\nSIZE 4 4 4 4 4\n"
            "TYPE F F F F F\nCOUNT 3 1 1 1 1\nWIDTH 2\nHEIGHT 1\nPOINTS 2\n"
            "DATA ascii\n9 9 9 1 2 3 0.5\n8 8 8 -4.5 0.25 1e-3 0.75\n"
        )
        data = bio.read_scan(p)
        assert np.array_equal(data.points, [[1, 2, 3], [-4.5, 0.25, 1e-3]])
        assert np.array_equal(data.timestamps, [0.5, 0.75])

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "x.weird"
        p.write_bytes(b"garbage")
        with pytest.raises(FormatError):
            bio.read_scan(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            bio.read_scan(tmp_path / "absent.pcd")


class TestPLY:
    def test_mesh_binary_round_trip(self, tmp_path):
        m = cube_mesh()
        p = tmp_path / "c.ply"
        bio.write_mesh(m, p, "ply_binary")
        back = bio.read_mesh_ply(p)
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.triangles, m.triangles)

    def test_mesh_ascii_round_trip(self, tmp_path):
        m = vertex_normals(cube_mesh())
        p = tmp_path / "c_ascii.ply"
        bio.write_mesh(m, p, "ply_ascii")
        back = bio.read_mesh_ply(p)
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.triangles, m.triangles)
        assert np.array_equal(back.normals, m.normals)

    @pytest.mark.parametrize("normals", [False, True])
    def test_ascii_bytes_match_per_row_writer(self, tmp_path, normals):
        rng = np.random.default_rng(8)
        empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        for mesh in (random_mesh(rng, normals=normals), cube_mesh(), empty):
            p = tmp_path / "m.ply"
            bio.write_mesh(mesh, p, "ply_ascii")
            raw = p.read_bytes()
            body = raw[raw.index(b"end_header\n") + len(b"end_header\n"):]
            assert body == reference_ply_ascii_body(mesh)

    def test_empty_mesh_valid_file(self, tmp_path):
        m = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        for fmt in ("ply_binary", "ply_ascii"):
            p = tmp_path / f"e_{fmt}.ply"
            bio.write_mesh(m, p, fmt)
            back = bio.read_mesh_ply(p)
            assert back.vertices.shape[0] == 0
            assert back.triangles.shape[0] == 0

    def test_point_cloud_via_read_scan(self, tmp_path):
        pts = np.random.default_rng(1).normal(size=(50, 3))
        m = TriangleMesh(pts, np.zeros((0, 3), dtype=np.int64))
        p = tmp_path / "pts.ply"
        bio.write_mesh(m, p, "ply_binary")
        back = bio.read_scan(p)
        assert np.array_equal(back.points, pts)

    def test_scan_time_property(self, tmp_path):
        p = tmp_path / "t.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
            "property float y\nproperty float z\nproperty double time\n"
            "end_header\n0 0 0 0.5\n1 2 3 0.75\n"
        )
        data = bio.read_scan(p)
        assert np.array_equal(data.points, [[0, 0, 0], [1, 2, 3]])
        assert np.array_equal(data.timestamps, [0.5, 0.75])

    def test_big_endian_rejected(self, tmp_path):
        p = tmp_path / "be.ply"
        p.write_bytes(
            b"ply\nformat binary_big_endian 1.0\nelement vertex 0\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"element face 0\nproperty list uchar int vertex_indices\n"
            b"end_header\n"
        )
        with pytest.raises(FormatError):
            bio.read_scan(p)

    def test_truncated_ascii_mesh(self, tmp_path):
        p = tmp_path / "tr.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property double x\nproperty double y\nproperty double z\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n"
        )
        with pytest.raises(CorruptionError):
            bio.read_mesh_ply(p)

    def test_unsupported_binary_type(self, tmp_path):
        p = tmp_path / "half.ply"
        p.write_bytes(
            b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            b"property half x\nproperty half y\nproperty half z\n"
            b"end_header\n" + bytes(6)
        )
        for read in (bio.read_scan, bio.read_mesh_ply):
            with pytest.raises(FormatError, match="half"):
                read(p)

    def test_negative_element_count(self, tmp_path):
        p = tmp_path / "neg.ply"
        p.write_bytes(
            b"ply\nformat binary_little_endian 1.0\nelement vertex -1\n"
            b"property double x\nproperty double y\nproperty double z\n"
            b"end_header\n" + np.arange(12.0).tobytes()
        )
        with pytest.raises(CorruptionError, match="negative"):
            bio.read_scan(p)

    def test_truncated_binary_vertices(self, tmp_path):
        m = cube_mesh()
        p = tmp_path / "tr.ply"
        bio.write_mesh(m, p, "ply_binary")
        p.write_bytes(p.read_bytes()[:-40])
        with pytest.raises(CorruptionError):
            bio.read_mesh_ply(p)


class TestOBJ:
    def test_one_based_indices(self, tmp_path):
        p = tmp_path / "m.obj"
        bio.write_mesh(cube_mesh(), p, "obj")
        lines = p.read_text().splitlines()
        faces = [ln for ln in lines if ln.startswith("f ")]
        assert faces[0] == "f 1 3 2"
        assert all(int(tok) >= 1 for ln in faces for tok in ln.split()[1:])

    @pytest.mark.parametrize("normals", [False, True])
    def test_bytes_match_per_row_writer(self, tmp_path, normals):
        rng = np.random.default_rng(7)
        for mesh in (random_mesh(rng, normals=normals), cube_mesh()):
            got, want = tmp_path / "got.obj", tmp_path / "want.obj"
            bio.write_mesh(mesh, got, "obj")
            reference_obj(mesh, want)
            assert got.read_bytes() == want.read_bytes()


class TestXYZ:
    def test_plain_text(self, tmp_path):
        p = tmp_path / "p.xyz"
        p.write_text("0 0 0\n1.5 -2 3\n")
        data = bio.read_scan(p)
        assert np.allclose(data.points, [[0, 0, 0], [1.5, -2, 3]])


class TestTrajectory:
    def test_identity_pose(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("# comment\n0.0 0 0 0 0 0 0 1\n")
        traj = bio.read_trajectory(p)
        assert len(traj) == 1
        assert np.allclose(traj.pose(0), np.eye(4))

    def test_two_records_in_order(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0.0 0 0 0 0 0 0 1\n1.0 2 0 0 0 0 0 1\n")
        traj = bio.read_trajectory(p)
        assert len(traj) == 2
        assert np.allclose(traj.translations[1], [2, 0, 0])

    def test_non_monotone_rejected(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n")
        with pytest.raises(FormatError):
            bio.read_trajectory(p)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0.0 0 0 0 0 0 0 1\n0.5 0 0\n")
        with pytest.raises(FormatError, match=":2"):
            bio.read_trajectory(p)

    @pytest.mark.parametrize("line", [
        "nan 0 0 0 0 0 0 1", "2.0 inf 0 0 0 0 0 1", "2.0 0 nan 0 0 0 0 1",
        "2.0 0 0 0 nan 0 0 1",
    ], ids=["nan-time", "inf-x", "nan-y", "nan-quaternion"])
    def test_non_finite_field_rejected(self, tmp_path, line):
        # A NaN time would pass the strictly-increasing check, whose
        # comparisons with NaN are all false.
        p = tmp_path / "t.txt"
        p.write_text(f"0.0 0 0 0 0 0 0 1\n{line}\n3.0 0 0 0 0 0 0 1\n")
        with pytest.raises(FormatError, match=":2: non-finite"):
            bio.read_trajectory(p)

    def test_off_unit_quaternion_rejected(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0.0 0 0 0 0 0 0 1.5\n")
        with pytest.raises(FormatError):
            bio.read_trajectory(p)

    def test_near_unit_quaternion_renormalized(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text(f"0.0 0 0 0 0 0 0 {1 + 5e-4}\n")
        traj = bio.read_trajectory(p)
        assert np.allclose(traj.pose(0)[:3, :3], np.eye(3))


class TestLookupPose:
    def _traj(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0.0 0 0 0 0 0 0 1\n1.0 2 0 0 0 0 0 1\n")
        return bio.read_trajectory(p)

    def test_exact_record(self, tmp_path):
        traj = self._traj(tmp_path)
        assert np.allclose(bio.lookup_pose(traj, 1.0), traj.pose(1))

    def test_midpoint_lerp(self, tmp_path):
        traj = self._traj(tmp_path)
        assert np.allclose(bio.lookup_pose(traj, 0.5)[:3, 3], [1, 0, 0])

    def test_clamped_before_start(self, tmp_path):
        traj = self._traj(tmp_path)
        assert np.allclose(bio.lookup_pose(traj, -5.0), traj.pose(0))

    def test_one_slerp_matches_per_lookup_slerp(self):
        # The trajectory's one slerp gives, to the bit, the pose that a slerp
        # over just the two bracketing records gives.
        rng = np.random.default_rng(5)
        n = 200
        traj = bio.Trajectory(
            times=np.cumsum(rng.uniform(0.01, 0.2, n)),
            translations=rng.normal(scale=10.0, size=(n, 3)),
            rotations=Rotation.random(n, rng=6),
        )
        times = traj.times
        for t in rng.uniform(times[0], times[-1], 5000):
            j = int(np.searchsorted(times, t, side="right"))
            i = j - 1
            u = (t - times[i]) / (times[j] - times[i])
            want = make_pose(
                Slerp(times[i : j + 1], traj.rotations[i : j + 1])(t),
                (1.0 - u) * traj.translations[i] + u * traj.translations[j],
            )
            assert np.array_equal(bio.lookup_pose(traj, t), want)

    def test_record_stamp_gives_record_pose(self):
        rng = np.random.default_rng(7)
        traj = bio.Trajectory(times=np.arange(6.0), translations=rng.normal(size=(6, 3)),
                              rotations=Rotation.random(6, rng=8))
        for i in range(6):
            assert np.array_equal(bio.lookup_pose(traj, float(i)), traj.pose(i))
        assert np.array_equal(bio.lookup_pose(traj, 9.0), traj.pose(5))

    def test_single_record(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("1.0 2 0 0 0 0 0 1\n")
        traj = bio.read_trajectory(p)
        for t in (0.0, 1.0, 3.0):
            assert np.array_equal(bio.lookup_pose(traj, t), traj.pose(0))


class TestGridSnapshot:
    def _random_grid(self):
        rng = np.random.default_rng(8)
        g = new_grid((9, 7, 5), 0.2, origin=(-1, 0.5, 2), h_max=100, t_occ=3)
        g.mask[...] = np.array(
            [run_mask(k) for k in rng.integers(0, 33, g.num_voxels)],
            dtype=np.uint32,
        ).reshape(g.dims)
        g.hits[...] = rng.integers(0, 256, g.dims)
        g.sign[...] = rng.integers(0, 2, g.dims)
        return g

    def test_round_trip(self, tmp_path):
        g = self._random_grid()
        p = tmp_path / "g.dbtsdf"
        bio.save_grid(g, p)
        g2 = bio.load_grid(p)
        assert grid_state(g2) == grid_state(g)
        assert (g2.h_max, g2.t_occ) == (100, 3)
        # second save is byte-identical
        p2 = tmp_path / "g2.dbtsdf"
        bio.save_grid(g2, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_magic_and_layout(self, tmp_path):
        g = new_grid((2, 2, 2), 0.1)
        p = tmp_path / "g.dbtsdf"
        bio.save_grid(g, p)
        raw = p.read_bytes()
        assert raw[:8] == b"DBTSDF01"
        assert len(raw) == 8 + 52 + 8 * 8

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.dbtsdf"
        p.write_bytes(b"NOTADUMP" + b"\x00" * 64)
        with pytest.raises(CorruptionError):
            bio.load_grid(p)

    def test_zero_dims(self, tmp_path):
        g = new_grid((2, 2, 2), 0.1)
        p = tmp_path / "g.dbtsdf"
        bio.save_grid(g, p)
        raw = bytearray(p.read_bytes())
        raw[8:12] = (0).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError):
            bio.load_grid(p)

    def test_short_payload(self, tmp_path):
        g = new_grid((4, 4, 4), 0.1)
        p = tmp_path / "g.dbtsdf"
        bio.save_grid(g, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(CorruptionError, match="payload short"):
            bio.load_grid(p)

    def test_trailing_bytes(self, tmp_path):
        g = new_grid((4, 4, 4), 0.1)
        p = tmp_path / "g.dbtsdf"
        bio.save_grid(g, p)
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(CorruptionError, match="trailing"):
            bio.load_grid(p)

    @pytest.mark.parametrize("h_max, t_occ", [(255, 0), (3, 9)])
    def test_thresholds_out_of_order(self, tmp_path, h_max, t_occ):
        p = tmp_path / "g.dbtsdf"
        bio.save_grid(new_grid((2, 2, 2), 0.1), p)
        raw = p.read_bytes()
        # h_max and t_occ are bytes 44 and 45 of the header, after the magic
        p.write_bytes(raw[:52] + bytes([h_max, t_occ]) + raw[54:])
        with pytest.raises(CorruptionError, match="T"):
            bio.load_grid(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [20, 28], ids=["voxel-size", "origin"])
    def test_nonfinite_geometry(self, tmp_path, at, value):
        p = tmp_path / "g.dbtsdf"
        bio.save_grid(new_grid((2, 2, 2), 0.1), p)
        raw = p.read_bytes()
        # the voxel size and origin x are the doubles at header bytes 12 and 20
        p.write_bytes(raw[:at] + struct.pack("<d", value) + raw[at + 8:])
        with pytest.raises(CorruptionError, match="finite"):
            bio.load_grid(p)

    @staticmethod
    def _reference_snapshot(g) -> bytes:
        """The snapshot as written from C-ordered (z fastest) arrays: the
        records gathered in linear-index order ix + nx*(iy + ny*iz)."""
        rec = np.zeros(g.num_voxels, dtype=VOXEL_DTYPE)
        for name in ("mask", "sign", "hits"):
            rec[name] = np.ascontiguousarray(getattr(g, name)).ravel(order="F")
        header = struct.pack("<3I4d2B6x", *g.dims, g.voxel_size, *g.origin,
                             g.h_max, g.t_occ)
        return b"DBTSDF01" + header + rec.tobytes()

    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 5, 7), (64, 1, 2)])
    def test_bytes_match_reference_writer(self, tmp_path, dims):
        rng = np.random.default_rng(sum(dims))
        g = new_grid(dims, 0.3, origin=(-0.7, 1.25, 3.0), h_max=9, t_occ=4)
        g.mask[...] = rng.integers(0, 1 << 32, dims, dtype=np.uint32)
        g.hits[...] = rng.integers(0, 256, dims)
        g.sign[...] = rng.integers(0, 2, dims)
        p = tmp_path / "g.dbtsdf"
        bio.save_grid(g, p)
        assert p.read_bytes() == self._reference_snapshot(g)
        loaded = bio.load_grid(p)
        assert grid_state(loaded) == grid_state(g)
        for a in (loaded.mask, loaded.sign, loaded.hits):
            assert a.flags.f_contiguous

    # Dims of fewer voxels than a slab of 64, exactly one slab, one slab plus
    # one voxel, and several slabs with a short last one.
    @pytest.mark.parametrize("dims", [(3, 4, 5), (4, 4, 4), (5, 13, 1), (7, 5, 11)])
    def test_round_trip_by_slabs(self, tmp_path, monkeypatch, dims):
        monkeypatch.setattr(bgrid, "_SLAB_VOXELS", 64)
        rng = np.random.default_rng(sum(dims))
        g = new_grid(dims, 0.3, origin=(-0.7, 1.25, 3.0), h_max=9, t_occ=4)
        g.mask[...] = rng.integers(0, 1 << 32, dims, dtype=np.uint32)
        g.hits[...] = rng.integers(0, 256, dims)
        g.sign[...] = rng.integers(0, 2, dims)
        p, p2 = tmp_path / "g.dbtsdf", tmp_path / "g2.dbtsdf"
        bio.save_grid(g, p)
        assert p.read_bytes() == self._reference_snapshot(g)
        loaded = bio.load_grid(p)
        for name in ("mask", "sign", "hits"):
            assert np.array_equal(getattr(loaded, name), getattr(g, name))
        assert grid_state(loaded) == grid_state(g)
        bio.save_grid(loaded, p2)
        assert p2.read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("change", ["truncate", "grow"])
    def test_payload_changes_after_size_check(self, tmp_path, monkeypatch, change):
        # The file is cut in the middle of the third slab, or gains 3 bytes,
        # after load_grid has checked its size and before the records are
        # read. The cut lies past the 8 KiB that the header read buffers.
        monkeypatch.setattr(bgrid, "_SLAB_VOXELS", 1024)
        p = tmp_path / "g.dbtsdf"
        bio.save_grid(new_grid((16, 16, 16), 0.1), p)
        real = bio.from_records

        def changed_first(*args):
            if change == "truncate":
                os.truncate(p, 60 + (2048 + 32) * 8)
            else:
                with open(p, "ab") as f:
                    f.write(b"abc")
            return real(*args)

        monkeypatch.setattr(bio, "from_records", changed_first)
        match = "ends 256 bytes into" if change == "truncate" else "trailing"
        with pytest.raises(CorruptionError, match=match):
            bio.load_grid(p)

    def test_load_peak_below_payload(self, tmp_path, monkeypatch):
        # Loading allocates the grid's 6 bytes a voxel and one slab of 8-byte
        # records; the default slab holds all 64^3 voxels, so use a smaller one.
        monkeypatch.setattr(bgrid, "_SLAB_VOXELS", 1 << 14)
        g = new_grid((64, 64, 64), 0.1)
        g.hits[::3] = 2
        p = tmp_path / "g.dbtsdf"
        bio.save_grid(g, p)
        payload = g.num_voxels * 8
        tracemalloc.start()
        try:
            loaded = bio.load_grid(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid_state(loaded) == grid_state(g)
        assert peak < payload
        assert peak < 6 * g.num_voxels + 8 * (1 << 14) + (64 << 10)

    def test_failed_write_keeps_old_snapshot(self, tmp_path, monkeypatch):
        p = tmp_path / "g.dbtsdf"
        bio.save_grid(self._random_grid(), p)
        old = p.read_bytes()

        class HalfWritten:
            def __init__(self, rec):
                self.rec = rec

            def tofile(self, f):
                f.write(self.rec.tobytes()[: self.rec.nbytes // 2])
                raise OSError("disk full")

        real = bio.to_records
        monkeypatch.setattr(bio, "to_records", lambda g: HalfWritten(real(g)))
        with pytest.raises(OSError, match="disk full"):
            bio.save_grid(new_grid((4, 4, 4), 0.1), p)
        assert p.read_bytes() == old
        assert [q.name for q in tmp_path.iterdir()] == ["g.dbtsdf"]


class TestCSVExport:
    def test_fresh_grid_zero_rows(self, tmp_path):
        g = new_grid((4, 4, 4), 0.1)
        p = tmp_path / "g.csv"
        assert bio.export_grid_csv(g, p, "observed") == 0
        assert p.read_text().strip() == bio.CSV_HEADER

    def test_occupied_rows_match_shadow_size(self, tmp_path):
        g = new_grid((41, 41, 41), 0.1, t_occ=1)
        bank = build_kernel_bank(shadow_radius=3)
        p_map = np.array([2.05, 2.05, 2.05])
        integrate_point(g, bank, p_map, p_map - [1, 0, 0], IntegrationParams())
        from bitsdf.kernels import bin_index

        b_a, b_e = bin_index((1, 0, 0), 40, 40)
        expected = bank.shadow[bank.flat_bin(b_a, b_e)].sum()
        out = tmp_path / "g.csv"
        assert bio.export_grid_csv(g, out, "occupied_only") == expected

    def test_round_trip_values(self, tmp_path):
        g = new_grid((41, 41, 41), 0.1, t_occ=1)
        bank = build_kernel_bank(shadow_radius=2)
        p_map = np.array([2.05, 2.05, 2.05])
        integrate_point(g, bank, p_map, p_map - [1, 0, 0], IntegrationParams())
        out = tmp_path / "g.csv"
        n = bio.export_grid_csv(g, out, "observed")
        table = np.genfromtxt(out, delimiter=",", names=True)
        assert table.shape[0] == n
        # spot-check the contact voxel row
        row = table[
            (np.abs(table["x"] - 2.05) < 1e-12)
            & (np.abs(table["y"] - 2.05) < 1e-12)
            & (np.abs(table["z"] - 2.05) < 1e-12)
        ]
        assert row.shape[0] == 1
        assert row["sdf"][0] == 0.0
        assert row["sign"][0] == SIGN_OCCUPIED

    @pytest.mark.parametrize("voxel_size", [0.05, 0.1, 0.3])
    def test_bytes_match_per_row_loop(self, tmp_path, voxel_size):
        # More voxels than one scan block, so rows cross block seams.
        rng = np.random.default_rng(int(voxel_size * 100))
        g = new_grid((23, 19, 29), voxel_size, origin=(-1.2345678, -0.987654, -3.21))
        observed = rng.random(g.dims) < 0.4
        runs = np.array([run_mask(k) for k in range(33)], dtype=np.uint32)
        g.mask[observed] = runs[rng.integers(0, 33, observed.sum())]
        g.hits[observed] = rng.integers(0, 256, observed.sum())
        g.sign[...] = rng.integers(0, 2, g.dims)
        # observed with a full mask, or with no hits
        g.mask[0, 0, :3] = FULL_MASK
        g.hits[0, 0, :3] = (1, 255, 0)
        g.mask[0, 0, 2] = 0
        for include in ("observed", "occupied_only"):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            n = bio.export_grid_csv(g, got, include)
            assert n == reference_csv(g, want, include) > 0
            assert got.read_bytes() == want.read_bytes()

    def test_bytes_match_with_corrupt_sign_bytes(self, tmp_path):
        # A loaded snapshot may hold sign bytes other than 0 and 1.
        g = new_grid((6, 5, 4), 0.1, origin=(0.05, -0.2, 1.0))
        g.hits[...] = 1
        g.mask[...] = run_mask(4)
        g.sign[...] = np.arange(g.num_voxels).reshape(g.dims) % 4
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        assert bio.export_grid_csv(g, got, "observed") == reference_csv(g, want, "observed")
        assert got.read_bytes() == want.read_bytes()

    def test_empty_selection_bytes(self, tmp_path):
        g = new_grid((5, 6, 7), 0.1, origin=(-0.3, -0.35, -1.05))
        g.hits[1, 2, 3] = 1  # observed but free: no occupied_only rows
        for include, rows in (("observed", 1), ("occupied_only", 0)):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            assert bio.export_grid_csv(g, got, include) == rows
            reference_csv(g, want, include)
            assert got.read_bytes() == want.read_bytes()

    def test_unknown_selection_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            bio.export_grid_csv(new_grid((2, 2, 2), 0.1), tmp_path / "g.csv", "all")

    def test_memory_does_not_scale_with_grid(self, tmp_path):
        # A dense float64 field of this grid alone would be 64 MB.
        g = new_grid((200, 200, 200), 0.05, origin=(-5.0, -5.0, -1.0))
        flat = np.random.default_rng(3).choice(g.num_voxels, 300, replace=False)
        voxels = np.unravel_index(flat, g.dims)
        g.mask[voxels] = 0
        g.hits[voxels] = 2
        g.sign[voxels] = SIGN_OCCUPIED
        tracemalloc.start()
        try:
            n = bio.export_grid_csv(g, tmp_path / "g.csv", "observed")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n == 300
        assert peak < 4 << 20
