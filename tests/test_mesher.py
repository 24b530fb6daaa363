import math
import shutil
import subprocess
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bitsdf import _native, mesher
from bitsdf._mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_BASE, TRI_TABLE
from bitsdf.errors import ConfigurationError
from bitsdf.grid import (
    FULL_MASK,
    SIGN_OCCUPIED,
    memory_bytes,
    new_grid,
    observed_array,
    run_mask,
)
from bitsdf.integrator import IntegrationParams, ScanFrame, integrate_frame
from bitsdf.kernels import build_kernel_bank
from bitsdf.mesher import TriangleMesh, extract_mesh, vertex_normals


def signed_distance_field(grid):
    """Dense (field, observed) pair: sigma * (popcount * voxel_size), sigma
    -1.0 on occupied voxels and 1.0 elsewhere."""
    dist = np.bitwise_count(grid.mask).astype(np.float64) * grid.voxel_size
    sigma = np.where(grid.sign == SIGN_OCCUPIED, -1.0, 1.0)
    return sigma * dist, observed_array(grid.mask, grid.hits)


def sphere_grid(n=20, voxel_size=0.05, radius=0.25):
    """Hand-built signed field of a sphere centered in the grid."""
    g = new_grid((n, n, n), voxel_size)
    idx = np.indices((n, n, n)).transpose(1, 2, 3, 0)
    centers = (idx + 0.5) * voxel_size
    r = np.linalg.norm(centers - n * voxel_size / 2, axis=-1)
    cells = np.clip(np.ceil(np.abs(r - radius) / voxel_size).astype(int), 0, 32)
    lut = np.array([run_mask(k) for k in range(33)], dtype=np.uint32)
    g.mask[...] = lut[cells]
    inside = r < radius
    g.sign[inside] = SIGN_OCCUPIED
    g.hits[inside] = 5
    g.hits[~inside] = 1
    return g


def reference_mesh(grid, iso=0.0):
    """Marching cubes over C-ordered (z fastest) copies of the grid, one cell
    at a time in np.nonzero order, each cell's triangles filed by their slot
    in the case table, slot by slot: the triangle order the mesher keeps."""
    field, observed = (np.ascontiguousarray(a) for a in signed_distance_field(grid))
    occupied = np.ascontiguousarray(grid.sign == SIGN_OCCUPIED)
    inside = (field < iso) | ((field == iso) & occupied)
    nx, ny, nz = grid.dims
    slots = [[] for _ in range(5)]
    for x, y, z in np.ndindex(nx - 1, ny - 1, nz - 1):
        corners = [(x + dx, y + dy, z + dz) for dx, dy, dz in CORNER_OFFSETS.tolist()]
        if not all(observed[c] for c in corners):
            continue
        row = TRI_TABLE[sum(int(inside[c]) << i for i, c in enumerate(corners))]
        for k in range(0, 15, 3):
            if row[k] >= 0:
                slots[k // 3].append([
                    (((x + EDGE_BASE[e, 0]) * ny + y + EDGE_BASE[e, 1]) * nz
                     + z + EDGE_BASE[e, 2]) * 3 + EDGE_AXIS[e]
                    for e in row[k : k + 3]
                ])
    keys = np.array(sum(slots, []), dtype=np.int64).reshape(-1, 3)
    uniq, inverse = np.unique(keys, return_inverse=True)
    base = np.stack(np.unravel_index(uniq // 3, grid.dims), axis=1)
    other = base + np.eye(3, dtype=np.int64)[uniq % 3]
    v1, v2 = field[tuple(base.T)], field[tuple(other.T)]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(np.where(v2 != v1, (iso - v1) / (v2 - v1), 0.0), 0.0, 1.0)
    p1 = grid.origin + (base + 0.5) * grid.voxel_size
    p2 = grid.origin + (other + 0.5) * grid.voxel_size
    return TriangleMesh(p1 + t[:, None] * (p2 - p1), inverse.reshape(-1, 3))


def edge_multiset(triangles):
    counts = {}
    for t in triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            k = (min(t[a], t[b]), max(t[a], t[b]))
            counts[k] = counts.get(k, 0) + 1
    return counts


class TestExtractMesh:
    def test_fresh_grid_empty(self):
        assert extract_mesh(new_grid((10, 10, 10), 0.1)).is_empty

    def test_single_occupied_voxel_closed(self):
        g = new_grid((7, 7, 7), 0.1)
        g.mask[...] = run_mask(3)  # everything observed free
        g.hits[...] = 1
        g.mask[3, 3, 3] = 0
        g.sign[3, 3, 3] = SIGN_OCCUPIED
        g.hits[3, 3, 3] = 2
        m = extract_mesh(g)
        edges = edge_multiset(m.triangles)
        v, e, f = m.vertices.shape[0], len(edges), m.triangles.shape[0]
        assert v - e + f == 2
        assert set(edges.values()) == {2}  # watertight

    def test_sphere_watertight_and_on_surface(self):
        m = extract_mesh(sphere_grid())
        assert not m.is_empty
        assert set(edge_multiset(m.triangles).values()) == {2}
        r = np.linalg.norm(m.vertices - 0.5, axis=1)
        assert np.all(np.abs(r - 0.25) <= 0.05)  # within one voxel

    def test_unobserved_corners_skipped(self):
        g = new_grid((7, 7, 7), 0.1)
        # occupied voxel with an entirely unobserved neighborhood: no cell
        # has all corners observed, so nothing is emitted
        g.mask[3, 3, 3] = 0
        g.sign[3, 3, 3] = SIGN_OCCUPIED
        g.hits[3, 3, 3] = 2
        assert extract_mesh(g).is_empty

    def test_plane_scene_vertex_deviation(self):
        # fuse a dense planar wall of hits at z = 1.0 observed from above
        vs = 0.05
        g = new_grid((41, 41, 61), vs)
        bank = build_kernel_bank(shadow_radius=2)
        xs = np.arange(0.6, 1.5, vs / 2)
        xx, yy = np.meshgrid(xs, xs)
        pts = np.column_stack(
            [xx.ravel(), yy.ravel(), np.full(xx.size, 1.0 + vs / 2)]
        )
        pose = np.eye(4)
        pose[:3, 3] = (1.0, 1.0, 2.5)  # sensor above, looking down
        scan = ScanFrame(points=pts - pose[:3, 3], pose=pose)
        integrate_frame(g, bank, scan, IntegrationParams())
        m = extract_mesh(g)
        assert not m.is_empty
        # keep vertices near the plane interior, away from rim effects
        sel = np.all(np.abs(m.vertices[:, :2] - 1.0) < 0.3, axis=1)
        dz = m.vertices[sel, 2] - (1.0 + vs / 2)
        # the observed face sits within half a voxel of the plane...
        front = dz > -vs
        assert np.any(front)
        assert np.all(np.abs(dz[front]) <= 0.5 * vs + 1e-12)
        # ...and the only other surface is the shadow's rear boundary,
        # bounded by the shadow radius (2 voxels) plus one cell
        assert np.all(dz[~front] >= -(2 + 1) * vs - 1e-12)

    def test_determinism(self):
        g = sphere_grid()
        a = extract_mesh(g)
        b = extract_mesh(g)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_on_c_ordered_copy(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        runs = np.array([run_mask(k) for k in range(33)], dtype=np.uint32)
        grids = []
        for dims in ((9, 7, 11), (23, 19, 2)):
            g = new_grid(dims, 0.1, origin=(-0.35, 0.2, 1.05))
            g.mask[...] = runs[rng.integers(0, 4, g.dims)]
            g.sign[...] = rng.random(g.dims) < 0.4
            g.hits[...] = rng.random(g.dims) < 0.9  # unobserved holes
            grids.append(g)
        # At iso 0, field == iso on free and occupied voxels of zero distance.
        field, observed = signed_distance_field(grids[0])
        assert np.any(observed & (field == 0.0) & (grids[0].sign == SIGN_OCCUPIED))
        assert np.any(observed & (field == 0.0) & (grids[0].sign != SIGN_OCCUPIED))
        # Iso 0 and +-1 voxel meet field values exactly; +-2.5 voxels do not.
        default_slab = mesher._SLAB_VOXELS
        for grid in grids + [sphere_grid()]:
            nx, ny, _ = grid.dims
            for iso in np.array([0.0, 1.0, -1.0, 2.5, -2.5]) * grid.voxel_size:
                ref = reference_mesh(grid, iso)
                # Slabs of one and two cell planes cross seams.
                for slab in (nx * ny, 2 * nx * ny, default_slab):
                    monkeypatch.setattr(mesher, "_SLAB_VOXELS", slab)
                    m = extract_mesh(grid, iso)
                    assert m.triangles.shape[0] > 100
                    assert np.array_equal(m.triangles, ref.triangles)
                    assert np.array_equal(m.vertices, ref.vertices)

    @pytest.mark.parametrize("iso", [math.nan, math.inf, -math.inf])
    def test_non_finite_iso_rejected(self, iso):
        with pytest.raises(ConfigurationError, match="iso"):
            extract_mesh(sphere_grid(), iso)

    def test_memory_bounded_by_slab_and_surface(self):
        # 4.1 M voxels, observed only in a 24^3 patch holding a sphere.
        g = new_grid((160, 160, 160), 0.05)
        s = sphere_grid(n=24)
        patch = (slice(60, 84),) * 3
        g.mask[patch], g.sign[patch], g.hits[patch] = s.mask, s.sign, s.hits
        tracemalloc.start()
        try:
            m = extract_mesh(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.triangles.shape[0] > 500
        assert peak < memory_bytes(g) / 4

    def test_vertices_on_straddling_edges(self):
        g = sphere_grid()
        m = extract_mesh(g)
        assert np.all(np.isfinite(m.vertices))
        assert m.triangles.max() < m.vertices.shape[0]
        # vertices lie on lattice edges: at least two coordinates coincide
        # with voxel-center planes (multiples of voxel_size offset by half)
        frac = (m.vertices / 0.05) - 0.5
        on_center = np.abs(frac - np.round(frac)) < 1e-9
        assert np.all(on_center.sum(axis=1) >= 2)


def compiled_library():
    """The compiled library; skips the test where there is no C compiler."""
    lib = _native.library()
    if lib is None:
        if shutil.which(_native.CC):
            pytest.fail("a C compiler is present but _fuse.c did not build")
        pytest.skip("no C compiler")
    return lib


def random_grid(rng, dims, voxel_size=0.1, origin=(0.3, -1.2, 0.05)):
    """A grid of arbitrary voxels: masks of 0..4 or 28..32 bits anywhere
    (few of them runs) and some fully random, sign bytes 0, 1, 2 and 255,
    and 0..2 hits, so some voxels are unobserved."""
    g = new_grid(dims, voxel_size, origin=origin)
    n = g.num_voxels
    k = rng.choice([0, 1, 2, 3, 4, 28, 29, 30, 31, 32], size=n)
    bits = rng.random((n, 32)).argsort(axis=1) < k[:, None]  # k random bits
    masks = (bits.astype(np.uint64) << np.arange(32, dtype=np.uint64)).sum(axis=1)
    masks = np.where(rng.random(n) < 0.2, rng.integers(0, 1 << 32, size=n), masks)
    g.mask[...] = masks.astype(np.uint32).reshape(dims, order="F")
    g.sign[...] = rng.choice([0, 1, 2, 255], size=dims)
    g.hits[...] = rng.integers(0, 3, size=dims)
    return g


ISOS = np.array([0.0, 1.0, -1.0, 2.5, -2.5])  # voxels


class TestCompiledSteps:
    """The compiled classification and mesh emission against the numpy code
    that runs where the library cannot be built."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_classification_matches_numpy(self, seed, monkeypatch):
        lib = compiled_library()
        rng = np.random.default_rng(seed)
        default_slab = mesher._SLAB_VOXELS
        for dims in ((9, 7, 11), (23, 19, 2), (2, 13, 17), (6, 2, 9)):
            g = random_grid(rng, dims)
            assert np.any(g.mask & (g.mask + 1))  # masks that are not runs
            nx, ny, _ = dims
            for iso in ISOS * g.voxel_size:
                ref = mesher._active_cells(g, iso, None)
                assert ref[0].size > 0
                # Slabs of one, two and three cell planes cross seams.
                for slab in (nx * ny, 2 * nx * ny, 3 * nx * ny, default_slab):
                    monkeypatch.setattr(mesher, "_SLAB_VOXELS", slab)
                    cell, code = mesher._active_cells(g, iso, lib)
                    assert np.array_equal(cell, ref[0])
                    assert np.array_equal(code, ref[1])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_emit_matches_numpy_steps(self, seed):
        lib = compiled_library()
        rng = np.random.default_rng(seed)
        for dims in ((9, 7, 11), (2, 2, 2), (40, 3, 70)):
            g = random_grid(rng, dims)
            nx, ny, nz = dims
            cells = np.indices((nx - 1, ny - 1, nz - 1)).reshape(3, -1).T
            flat = (cells[:, 0] * ny + cells[:, 1]) * nz + cells[:, 2]
            some = np.sort(rng.choice(flat, size=min(3, flat.size), replace=False))
            # The first and last cells of the lattice bound the bitmap.
            for cell in (flat[:1], flat[-1:], flat[[0, -1]], some, flat):
                code = rng.integers(1, 255, size=cell.size).astype(np.uint8)
                keys = mesher._triangle_keys(cell, code, dims)
                uniq, inverse = np.unique(keys, return_inverse=True)
                # _emit_mesh's room for vertices: each cell's distinct
                # edges, exactly those of one cell.
                room = mesher._NEDGE_BY_CODE[code].sum()
                assert room >= uniq.size
                assert room == uniq.size or cell.size > 1
                for iso in ISOS * g.voxel_size:
                    m = mesher._emit_mesh(lib, g, cell, code, iso)
                    assert m.triangles.tobytes() == inverse.reshape(-1, 3).tobytes()
                    want = mesher._edge_vertices(g, uniq, iso)
                    assert m.vertices.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mesh_bytes_match_numpy(self, seed, monkeypatch):
        compiled_library()
        rng = np.random.default_rng(seed)
        # A fine grid away from the world origin, so that vertex rounding
        # shows.
        grids = [random_grid(rng, (11, 9, 13)), random_grid(rng, (2, 15, 12)),
                 random_grid(rng, (17, 12, 14), 0.05, (-0.37, 1.1, 0.3)),
                 sphere_grid()]
        meshes = {}
        for path in ("compiled", "numpy"):
            if path == "numpy":
                monkeypatch.setattr(_native, "_lib", False)
            meshes[path] = [extract_mesh(g, iso * g.voxel_size)
                            for g in grids for iso in ISOS]
        for a, b in zip(meshes["compiled"], meshes["numpy"]):
            assert a.triangles.tobytes() == b.triangles.tobytes()
            assert a.vertices.tobytes() == b.vertices.tobytes()
        assert sum(m.triangles.shape[0] > 0 for m in meshes["compiled"]) >= 12

    def test_host_tuned_build_meshes_numpy_bytes(self, tmp_path, monkeypatch):
        # -march=native lets the compiler fuse a multiply and an add where
        # the CPU can; the library's flags must keep each rounding numpy's.
        compiled_library()
        monkeypatch.setattr(_native, "CFLAGS", (*_native.CFLAGS, "-march=native"))
        try:
            built = _native.build(_native.SOURCE, tmp_path, _native.CC)
        except subprocess.CalledProcessError as e:
            pytest.skip(f"the compiler does not take -march=native: {e.stderr[:200]}")
        tuned = _native._bind(built)
        rng = np.random.default_rng(3)
        grids = [random_grid(rng, (17, 12, 14), 0.05, (-0.37, 1.1, 0.3)),
                 random_grid(rng, (30, 8, 9), 0.07, (12.3, -4.1, 0.9)), sphere_grid()]
        for g in grids:
            for iso in ISOS * g.voxel_size:
                monkeypatch.setattr(_native, "_lib", tuned)
                a = extract_mesh(g, iso)
                monkeypatch.setattr(_native, "_lib", False)
                b = extract_mesh(g, iso)
                assert a.triangles.shape[0] > 0
                assert a.triangles.tobytes() == b.triangles.tobytes()
                assert a.vertices.tobytes() == b.vertices.tobytes()

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_grids_without_active_cells(self, path, monkeypatch):
        lib = compiled_library() if path == "compiled" else None
        unobserved = new_grid((6, 5, 4), 0.1)
        free = new_grid((6, 5, 4), 0.1)
        free.mask[...], free.hits[...] = run_mask(3), 1
        # Occupied voxels, each beside an unobserved one.
        fringe = new_grid((6, 5, 4), 0.1)
        fringe.mask[::2], fringe.hits[::2], fringe.sign[::2] = 0, 2, SIGN_OCCUPIED
        for g in (unobserved, free, fringe):
            for iso in ISOS * g.voxel_size:
                cell, code = mesher._active_cells(g, iso, lib)
                assert cell.size == 0 and code.size == 0
            if path == "numpy":
                monkeypatch.setattr(_native, "_lib", False)
            assert extract_mesh(g).is_empty
        assert np.all(unobserved.mask == FULL_MASK)

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("bad", [
        {"origin": np.array([0.0, 0.0])}, {"origin": np.array([0.0, np.nan, 0.0])},
        {"origin": np.zeros(3, np.float32)}, {"voxel_size": 0.0},
        {"voxel_size": math.nan}, {"voxel_size": -0.1}, {"voxel_size": math.inf},
        {"h_max": 300}, {"t_occ": 0}, {"h_max": 2, "t_occ": 3}])
    def test_bad_header_rejected(self, path, bad, monkeypatch):
        # The library reads the header unchecked, so a grid cannot be made
        # with one it would misread.
        g = sphere_grid()
        if path == "compiled":
            compiled_library()
        else:
            monkeypatch.setattr(_native, "_lib", False)
        assert not extract_mesh(g).is_empty
        with pytest.raises(ConfigurationError):
            extract_mesh(replace(g, **bad))

    def test_missing_compiler_meshes_same_bytes(self, tmp_path, monkeypatch, capsys):
        g = sphere_grid()
        ref = extract_mesh(g)
        capsys.readouterr()
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(_native, "CC", str(tmp_path / "no-such-cc"))
        m = extract_mesh(g)
        assert _native._lib is False
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "meshing with numpy" in err[0]
        assert m.triangles.tobytes() == ref.triangles.tobytes()
        assert m.vertices.tobytes() == ref.vertices.tobytes()


def test_only_uniform_cubes_have_no_triangles():
    assert [c for c in range(256) if TRI_TABLE[c, 0] < 0] == [0, 255]


class TestVertexNormals:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_add_at_reference(self, seed):
        rng = np.random.default_rng(seed)
        meshes = [extract_mesh(sphere_grid()),
                  TriangleMesh(rng.normal(size=(500, 3)),
                               rng.integers(0, 500, size=(3000, 3)))]
        for m in meshes:
            v, f = m.vertices, m.triangles
            face_n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
            acc = np.zeros_like(v)
            for j in range(3):
                np.add.at(acc, f[:, j], face_n)
            norms = np.linalg.norm(acc, axis=1)
            acc[norms > 0] /= norms[norms > 0, None]
            assert vertex_normals(m).normals.tobytes() == acc.tobytes()

    def test_blocks_match_add_at_reference(self):
        # More triangles than one block of face_cross: the normals equal
        # those summed with every face normal computed in one pass.
        rng = np.random.default_rng(3)
        t = 2 * mesher._AREA_BLOCK + 7
        v, f = rng.normal(size=(4000, 3)), rng.integers(0, 4000, size=(t, 3))
        face_n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        acc = np.zeros_like(v)
        for j in range(3):
            np.add.at(acc, f[:, j], face_n)
        norms = np.linalg.norm(acc, axis=1)
        acc[norms > 0] /= norms[norms > 0, None]
        got = vertex_normals(TriangleMesh(v, f)).normals
        assert got.tobytes() == acc.tobytes()

    def test_single_triangle_plane(self):
        m = TriangleMesh(
            vertices=np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
            triangles=np.array([[0, 1, 2]]),
        )
        out = vertex_normals(m)
        assert np.allclose(np.abs(out.normals[:, 2]), 1.0)
        assert np.allclose(out.normals[:, :2], 0.0)

    def test_sphere_normals_point_outward(self):
        m = vertex_normals(extract_mesh(sphere_grid()))
        radial = m.vertices - 0.5
        radial /= np.linalg.norm(radial, axis=1, keepdims=True)
        alignment = np.abs(np.sum(m.normals * radial, axis=1))
        assert np.mean(alignment) > 0.9

    def test_isolated_vertex_zero_normal(self):
        m = TriangleMesh(
            vertices=np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]]),
            triangles=np.array([[0, 1, 2]]),
        )
        out = vertex_normals(m)
        assert np.allclose(out.normals[3], 0.0)

    def test_empty_mesh(self):
        out = vertex_normals(
            TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        )
        assert out.normals.shape == (0, 3)
