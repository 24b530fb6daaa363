import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitsdf.errors import ConfigurationError, CorruptionError, ResourceError
from bitsdf.grid import (
    FULL_MASK,
    SIGN_FREE,
    SIGN_OCCUPIED,
    VOXEL_DTYPE,
    VoxelGrid,
    decode_distance,
    from_records,
    is_run_mask,
    memory_bytes,
    new_grid,
    run_mask,
    signed_distance,
    to_records,
)

from _synthetic import grid_state


class TestNewGrid:
    def test_single_voxel_initial_state(self):
        g = new_grid((1, 1, 1), 0.1)
        assert g.mask[0, 0, 0] == FULL_MASK
        assert g.sign[0, 0, 0] == SIGN_FREE
        assert g.hits[0, 0, 0] == 0

    def test_payload_bytes(self):
        g = new_grid((100, 100, 100), 0.1)
        assert memory_bytes(g) == 8_000_000

    def test_degenerate_dimension(self):
        with pytest.raises(ConfigurationError):
            new_grid((0, 4, 4), 0.1)

    def test_bad_voxel_size(self):
        with pytest.raises(ConfigurationError):
            new_grid((4, 4, 4), 0.0)

    @pytest.mark.parametrize("voxel_size, origin", [
        (np.nan, (0, 0, 0)), (np.inf, (0, 0, 0)), (0.1, (np.nan, 0, 0)),
        (0.1, (0, -np.inf, 0)), (0.1, (0, 0)),
    ], ids=["nan-size", "inf-size", "nan-origin", "inf-origin", "short-origin"])
    def test_nonfinite_geometry(self, voxel_size, origin):
        with pytest.raises(ConfigurationError, match="finite"):
            new_grid((4, 4, 4), voxel_size, origin)

    def test_memory_cap(self):
        with pytest.raises(ResourceError):
            new_grid((100, 100, 100), 0.1, memory_cap=1_000_000)

    def test_threshold_order(self):
        with pytest.raises(ConfigurationError):
            new_grid((4, 4, 4), 0.1, h_max=3, t_occ=5)

    def test_zero_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            new_grid((4, 4, 4), 0.1, t_occ=0)

    def test_thresholds_are_fixed(self):
        g = new_grid((4, 4, 4), 0.1, h_max=3, t_occ=1)
        assert (g.h_max, g.t_occ) == (3, 1)
        with pytest.raises(AttributeError):
            g.t_occ = 2


class TestDecodeDistance:
    @pytest.mark.parametrize(
        "mask,expected", [(0x0, 0), (FULL_MASK, 32), (0x7, 3)]
    )
    def test_examples(self, mask, expected):
        assert decode_distance(mask) == expected

    def test_non_run_mask_rejected(self):
        assert not is_run_mask(0b101)
        with pytest.raises(CorruptionError):
            decode_distance(0b101)

    def test_mask_and_is_min_exhaustive(self):
        # AND of run masks of lengths k1, k2 decodes to min(k1, k2).
        for k1 in range(33):
            for k2 in range(33):
                assert (
                    decode_distance(run_mask(k1) & run_mask(k2)) == min(k1, k2)
                )

    def test_fresh_grid_decodes_32_everywhere(self):
        g = new_grid((3, 3, 3), 0.2)
        assert all(decode_distance(m) == 32 for m in g.mask.ravel())


class TestSignedDistance:
    def test_contact_voxel(self):
        g = new_grid((2, 2, 2), 0.1)
        g.mask[0, 0, 0] = 0
        g.sign[0, 0, 0] = SIGN_OCCUPIED
        g.hits[0, 0, 0] = 1
        assert signed_distance(g, 0, 0, 0) == 0.0

    def test_free_voxel_positive(self):
        g = new_grid((2, 2, 2), 0.1)
        g.mask[1, 0, 0] = run_mask(3)
        assert signed_distance(g, 1, 0, 0) == pytest.approx(0.3)

    def test_occupied_voxel_negative(self):
        g = new_grid((2, 2, 2), 0.1)
        g.mask[1, 0, 0] = run_mask(2)
        g.sign[1, 0, 0] = SIGN_OCCUPIED
        g.hits[1, 0, 0] = 2
        assert signed_distance(g, 1, 0, 0) == pytest.approx(-0.2)

    def test_untouched_is_unobserved(self):
        g = new_grid((2, 2, 2), 0.1)
        assert signed_distance(g, 0, 0, 0) is None

    def test_out_of_bounds_raises(self):
        g = new_grid((2, 2, 2), 0.1)
        with pytest.raises(IndexError):
            signed_distance(g, 2, 0, 0)
        with pytest.raises(IndexError):
            signed_distance(g, -1, 0, 0)


class TestMemoryBytes:
    @pytest.mark.parametrize(
        "dims,expected",
        [((1, 1, 1), 8), ((100, 100, 100), 8_000_000), ((256, 256, 64), 33_554_432)],
    )
    def test_formula(self, dims, expected):
        assert memory_bytes(new_grid(dims, 1.0)) == expected

    def test_matches_record_allocation(self):
        g = new_grid((6, 5, 4), 0.1)
        assert to_records(g).nbytes == memory_bytes(g)


class TestLayout:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 5, 7), (64, 1, 2)])
    def test_new_grid_is_x_fastest(self, dims):
        g = new_grid(dims, 0.1)
        for a in (g.mask, g.sign, g.hits):
            assert a.shape == dims and a.flags.f_contiguous

    def _fields(self, dims, order="F"):
        return dict(
            mask=np.full(dims, FULL_MASK, dtype=np.uint32, order=order),
            sign=np.full(dims, SIGN_FREE, dtype=np.uint8, order=order),
            hits=np.zeros(dims, dtype=np.uint8, order=order),
        )

    def _grid(self, dims, **fields):
        return VoxelGrid(dims=dims, voxel_size=0.1, origin=np.zeros(3),
                         h_max=255, t_occ=2, **fields)

    def test_hand_built_grid_accepted(self):
        g = self._grid((3, 5, 7), **self._fields((3, 5, 7)))
        assert g.num_voxels == 105

    def test_c_ordered_arrays_rejected(self):
        with pytest.raises(ConfigurationError, match="Fortran order"):
            self._grid((3, 5, 7), **self._fields((3, 5, 7), order="C"))

    def test_read_only_arrays_rejected(self):
        fields = self._fields((3, 5, 7))
        fields["hits"].flags.writeable = False
        with pytest.raises(ConfigurationError, match="hits must be a writeable"):
            self._grid((3, 5, 7), **fields)

    @pytest.mark.parametrize("name", ["mask", "sign", "hits"])
    def test_wrong_shape_or_dtype_rejected(self, name):
        fields = self._fields((3, 5, 7))
        with pytest.raises(ConfigurationError, match=name):
            self._grid((3, 5, 7), **dict(fields, **{name: fields[name][:, :, :6]}))
        with pytest.raises(ConfigurationError, match=name):
            self._grid((3, 5, 7), **dict(fields, **{name: fields[name].astype(np.int64)}))


class TestRecords:
    def test_layout_is_8_bytes(self):
        assert VOXEL_DTYPE.itemsize == 8

    def test_linear_index_order(self):
        g = new_grid((3, 2, 2), 0.1)
        g.mask[1, 0, 0] = run_mask(5)  # linear index 1
        g.mask[0, 1, 0] = run_mask(7)  # linear index 3 (ix + nx*iy)
        g.mask[0, 0, 1] = run_mask(9)  # linear index 6 (nx*ny*iz)
        rec = to_records(g)
        assert rec["mask"][1] == run_mask(5)
        assert rec["mask"][3] == run_mask(7)
        assert rec["mask"][6] == run_mask(9)
        assert np.all(rec["reserved"] == 0)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        g = new_grid((4, 3, 5), 0.25, origin=(1, 2, 3))
        g.mask[...] = np.array(
            [run_mask(k) for k in rng.integers(0, 33, g.num_voxels)],
            dtype=np.uint32,
        ).reshape(g.dims)
        g.hits[...] = rng.integers(0, 255, g.dims)
        g.sign[...] = rng.integers(0, 2, g.dims)
        g2 = from_records(to_records(g), g.dims, g.voxel_size, g.origin)
        assert grid_state(g2) == grid_state(g)

    def test_record_count_mismatch(self):
        g = new_grid((2, 2, 2), 0.1)
        with pytest.raises(CorruptionError):
            from_records(to_records(g)[:-1], g.dims, g.voxel_size, g.origin)


class TestMaskAlgebraProperties:
    @given(k1=st.integers(0, 32), k2=st.integers(0, 32))
    def test_and_decodes_to_min(self, k1, k2):
        assert decode_distance(run_mask(k1) & run_mask(k2)) == min(k1, k2)

    @given(k=st.integers(0, 32))
    def test_run_masks_are_valid_and_invertible(self, k):
        m = run_mask(k)
        assert is_run_mask(m)
        assert decode_distance(m) == k

    @given(m=st.integers(0, FULL_MASK))
    def test_is_run_mask_matches_definition(self, m):
        pop = bin(m).count("1")
        assert is_run_mask(m) == (m == run_mask(pop) and pop <= 32)
