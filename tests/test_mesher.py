import numpy as np
import pytest

from bitsdf._mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_BASE, TRI_TABLE
from bitsdf.grid import SIGN_OCCUPIED, new_grid, run_mask, signed_distance_field
from bitsdf.integrator import IntegrationParams, ScanFrame, integrate_frame
from bitsdf.kernels import build_kernel_bank
from bitsdf.mesher import TriangleMesh, extract_mesh, vertex_normals


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
    def test_matches_reference_on_c_ordered_copy(self, seed):
        rng = np.random.default_rng(seed)
        g = new_grid((9, 7, 11), 0.1, origin=(-0.35, 0.2, 1.05))
        runs = np.array([run_mask(k) for k in range(33)], dtype=np.uint32)
        g.mask[...] = runs[rng.integers(0, 4, g.dims)]
        g.sign[...] = rng.random(g.dims) < 0.4
        g.hits[...] = rng.random(g.dims) < 0.9  # unobserved holes
        for grid in (g, sphere_grid()):
            m, ref = extract_mesh(grid), reference_mesh(grid)
            assert m.triangles.shape[0] > 100
            assert np.array_equal(m.triangles, ref.triangles)
            assert np.array_equal(m.vertices, ref.vertices)

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


class TestVertexNormals:
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
