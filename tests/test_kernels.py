import math

import numpy as np
import pytest

from bitsdf import oracle
from bitsdf.errors import ConfigurationError
from bitsdf.kernels import (
    bin_directions,
    bin_index,
    bin_index_array,
    build_kernel_bank,
    build_shadow_mask,
    default_shadow_radius,
)


class TestBinIndex:
    def test_plus_x(self):
        assert bin_index((1, 0, 0), 40, 40) == (0, 20)

    def test_north_pole_clamps(self):
        assert bin_index((0, 0, 1), 40, 40) == (0, 39)

    def test_negative_azimuth_wraps(self):
        assert bin_index((0, -1, 0), 40, 40) == (30, 20)

    def test_zero_vector_rejected(self):
        with pytest.raises(ConfigurationError):
            bin_index((0, 0, 0), 40, 40)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(200, 3))
        b_a, b_e = bin_index_array(*dirs.T, np.linalg.norm(dirs, axis=1), 40, 40)
        for d, a, e in zip(dirs, b_a, b_e):
            assert bin_index(d, 40, 40) == (a, e)


class TestBinDirection:
    def test_unit_norm(self):
        v = bin_directions(40, 40)
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() < 1e-12

    def test_bin_center_angles(self):
        v = bin_directions(40, 40)[0 * 40 + 20]
        az = math.degrees(math.atan2(v[1], v[0]))
        el = math.degrees(math.asin(v[2]))
        assert az == pytest.approx(4.5)
        assert el == pytest.approx(2.25)

    def test_round_trip_all_bins(self):
        dirs = bin_directions(40, 40)
        for b_a in range(40):
            for b_e in range(40):
                assert bin_index(dirs[b_a * 40 + b_e], 40, 40) == (b_a, b_e)

    @pytest.mark.parametrize("b_az, b_el", [(40, 40), (7, 13), (1, 1), (360, 180)])
    def test_equal_to_oracle_bin_centers(self, b_az, b_el):
        # The oracle's shadows are cut along its own bin centers, so the
        # bank's shadow table equals the oracle's only if every component
        # of every center is the same float.
        dirs = bin_directions(b_az, b_el)
        assert dirs.shape == (b_az * b_el, 3)
        centers = [oracle._quantized_direction(d, b_az, b_el) for d in dirs]
        assert np.array(centers).tobytes() == dirs.tobytes()


class TestDistanceMask:
    """The bank's distance kernel: 0 at the center, else a low-bit run of
    ceil(|offset|) bits."""

    R = 10

    @pytest.fixture(scope="class")
    def kernel(self):
        return build_kernel_bank(size=2 * self.R + 1).distance_kernel

    def at(self, kernel, offset):
        return int(kernel[tuple(np.add(offset, self.R))])

    def test_center_zero(self, kernel):
        assert self.at(kernel, (0, 0, 0)) == 0

    def test_unit_offset(self, kernel):
        assert self.at(kernel, (1, 0, 0)) == 0x1

    def test_ceil_of_sqrt5(self, kernel):
        assert self.at(kernel, (1, 2, 0)) == 0x7

    def test_isotropy(self, kernel):
        # invariant under axis permutation and sign flips
        base = self.at(kernel, (1, 2, 3))
        for off in [(3, 2, 1), (-1, 2, -3), (2, -3, 1), (-3, -2, -1)]:
            assert self.at(kernel, off) == base


class TestShadowMask:
    def test_hemisphere_radius_one(self):
        offs = build_shadow_mask((1, 0, 0), 1, "hemisphere")
        got = {tuple(o) for o in offs}
        assert got == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                       (0, 0, -1)}

    def test_radius_zero_keeps_center(self):
        for model in ("hemisphere", "cone"):
            offs = build_shadow_mask((0, 0, 1), 0, model)
            assert [tuple(o) for o in offs] == [(0, 0, 0)]

    def test_cone_subset_of_hemisphere(self):
        d = (1, 0, 0)
        hemi = {tuple(o) for o in build_shadow_mask(d, 2, "hemisphere")}
        cone = {tuple(o) for o in build_shadow_mask(d, 2, "cone", 45.0)}
        assert cone <= hemi
        assert (0, 0, 0) in cone

    def test_reflection_symmetry(self):
        # hemisphere for -d is the origin-reflection of the one for d
        d = np.array([0.3, -0.5, 0.81])
        d /= np.linalg.norm(d)
        fwd = {tuple(o) for o in build_shadow_mask(d, 3, "hemisphere")}
        bwd = {tuple(o) for o in build_shadow_mask(-d, 3, "hemisphere")}
        assert bwd == {tuple(-np.asarray(o)) for o in fwd}

    def test_radius_exceeds_kernel(self):
        with pytest.raises(ConfigurationError):
            build_shadow_mask((1, 0, 0), 11, "hemisphere")


class TestKernelBank:
    def test_default_bank_shape(self):
        bank = build_kernel_bank(shadow_radius=3)
        assert bank.distance_kernel.shape == (21, 21, 21)
        assert bank.distance_kernel.size == 9261
        assert bank.shadow.shape[0] == 1600
        assert bank.distance_kernel[10, 10, 10] == 0

    def test_minimal_bank(self):
        bank = build_kernel_bank(size=3, b_az=1, b_el=1, shadow_radius=1)
        assert bank.distance_kernel.size == 27
        assert bank.distance_kernel[1, 1, 1] == 0

    def test_max_popcount(self):
        bank = build_kernel_bank(shadow_radius=3)
        pops = np.bitwise_count(bank.distance_kernel)
        assert pops.max() == math.ceil(math.sqrt(3) * 10)  # 18

    def test_even_size_rejected(self):
        with pytest.raises(ConfigurationError):
            build_kernel_bank(size=20)

    def test_every_shadow_contains_center(self):
        bank = build_kernel_bank(shadow_radius=2)
        center = np.flatnonzero((bank.shadow_ball == 0).all(axis=1))
        assert center.size == 1
        assert bank.shadow[:, center[0]].all()

    def test_arrays_read_only(self):
        bank = build_kernel_bank(size=5, b_az=4, b_el=4, shadow_radius=2)
        for a in (bank.distance_kernel, bank.shadow_ball, bank.shadow):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0

    def test_determinism(self):
        a = build_kernel_bank(size=9, b_az=8, b_el=8, shadow_radius=2)
        b = build_kernel_bank(size=9, b_az=8, b_el=8, shadow_radius=2)
        assert np.array_equal(a.distance_kernel, b.distance_kernel)
        assert np.array_equal(a.shadow_ball, b.shadow_ball)
        assert np.array_equal(a.shadow, b.shadow)

    @pytest.mark.parametrize(
        "kwargs",
        [{"shadow_radius": 11}, {"shadow_radius": -1},
         {"shadow_radius": 2, "shadow_model": "sphere"},
         *({"shadow_radius": 2, "shadow_model": "cone", "cone_half_angle_deg": a}
           for a in (math.nan, 0, 91, math.inf))],
    )
    def test_bad_shadow_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            build_kernel_bank(**kwargs)

    @pytest.mark.parametrize("model", ["hemisphere", "cone"])
    @pytest.mark.parametrize("radius", [0, 1, 2.5, 4])
    def test_table_rows_match_shadow_mask(self, model, radius):
        bank = build_kernel_bank(size=9, b_az=7, b_el=13, shadow_radius=radius,
                                 shadow_model=model)
        assert bank.shadow.shape == (7 * 13, bank.shadow_ball.shape[0])
        for b, d in enumerate(bin_directions(7, 13)):
            expected = build_shadow_mask(d, radius, model, half_extent=4)
            assert np.array_equal(bank.shadow_ball[bank.shadow[b]], expected)


class TestShadowRadiusHeuristic:
    def test_five_cm_rule(self):
        assert default_shadow_radius(0.05) == 1
        assert default_shadow_radius(0.01) == 5
        assert default_shadow_radius(0.3) == 1  # floor at one voxel
        assert default_shadow_radius(0.001) == 10  # capped at half-extent
