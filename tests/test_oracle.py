import numpy as np
import pytest

from bitsdf.errors import ConfigurationError
from bitsdf.grid import new_grid
from bitsdf.integrator import IntegrationParams, integrate_point
from bitsdf.kernels import build_kernel_bank
from bitsdf.oracle import OracleGuardError, brute_force_field, compare


class TestBruteForceField:
    def test_no_hits(self):
        of = brute_force_field(
            np.zeros((0, 3)), np.zeros((0, 3)), (32, 32, 32), 0.1, (0, 0, 0)
        )
        assert np.all(of.distance == 32)
        assert not np.any(of.occupied)

    def test_one_hit_matches_distance_mask_popcounts(self):
        dims = (41, 41, 41)
        of = brute_force_field(
            np.array([[2.05, 2.05, 2.05]]), np.array([[1.0, 0, 0]]),
            dims, 0.1, (0, 0, 0), shadow_radius=3, t_occ=1,
        )
        kernel = build_kernel_bank(size=21).distance_kernel
        for off in [(0, 0, 0), (1, 0, 0), (3, 4, 0), (-5, 2, 2), (10, 10, 10)]:
            c = (20 + off[0], 20 + off[1], 20 + off[2])
            expected = int(np.bitwise_count(kernel[tuple(np.add(off, 10))]))
            assert of.distance[c] == expected

    def test_two_hits_min_distance(self):
        dims = (41, 41, 41)
        pts = np.array([[1.85, 2.05, 2.05], [2.25, 2.05, 2.05]])  # 4 voxels apart
        dirs = np.tile([1.0, 0, 0], (2, 1))
        of = brute_force_field(pts, dirs, dims, 0.1, (0, 0, 0))
        assert of.distance[20, 20, 20] == 2  # midpoint voxel

    def test_boundary_hit_discarded(self):
        dims = (41, 41, 41)
        of = brute_force_field(
            np.array([[0.55, 2.05, 2.05]]), np.array([[1.0, 0, 0]]),
            dims, 0.1, (0, 0, 0),
        )
        assert np.all(of.distance == 32)

    def test_guard(self):
        with pytest.raises(OracleGuardError):
            brute_force_field(
                np.zeros((0, 3)), np.zeros((0, 3)), (65, 64, 64), 0.1, (0, 0, 0)
            )


class TestCompare:
    def _fused_pair(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        dims = (64, 64, 64)
        vs = 0.1
        g = new_grid(dims, vs)
        bank = build_kernel_bank(shadow_radius=3)
        params = IntegrationParams()
        pts = rng.uniform(10 * vs + 1e-3, (64 - 11) * vs, size=(n, 3))
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for p, d in zip(pts, dirs):
            integrate_point(g, bank, p, p - d, params)
        of = brute_force_field(pts, dirs, dims, vs, (0, 0, 0),
                               shadow_radius=3, t_occ=2)
        return g, of

    def test_fast_path_equivalence(self):
        g, of = self._fused_pair()
        assert compare(g, of).empty

    def test_injected_fault_detected(self):
        g, of = self._fused_pair(n=50, seed=1)
        from bitsdf.grid import decode_distance, run_mask

        pop = decode_distance(g.mask[32, 32, 32])
        g.mask[32, 32, 32] = run_mask(pop + 1 if pop < 32 else 0)  # corrupt
        report = compare(g, of)
        assert len(report.entries) == 1
        assert report.entries[0]["index"] == (32, 32, 32)
        assert "fast=" in report.to_text()
        assert "mismatches" in report.to_json()

    def test_empty_scene_both_sides(self):
        g = new_grid((32, 32, 32), 0.1)
        of = brute_force_field(
            np.zeros((0, 3)), np.zeros((0, 3)), (32, 32, 32), 0.1, (0, 0, 0)
        )
        assert compare(g, of).empty

    def test_config_mismatch(self):
        g = new_grid((16, 16, 16), 0.1)
        of = brute_force_field(
            np.zeros((0, 3)), np.zeros((0, 3)), (32, 32, 32), 0.1, (0, 0, 0)
        )
        with pytest.raises(ConfigurationError):
            compare(g, of)
