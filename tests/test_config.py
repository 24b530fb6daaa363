from dataclasses import asdict

import pytest
import yaml

from bitsdf.config import RunConfig, config_from_dict, load_config, save_config
from bitsdf.errors import ConfigurationError
from bitsdf.grid import new_grid


class TestResolveGrid:
    def test_bounds_round_up_and_pad(self):
        cfg = config_from_dict({
            "grid": {"voxel_size": 0.3, "bounds_min": [0, 0, 0],
                     "bounds_max": [1.0, 0.9, 0.3]},
        })
        header = cfg.resolve_grid()
        # ceil(1.0/0.3)=4, ceil(0.9/0.3)=3, ceil(0.3/0.3)=1, plus 10 voxels
        # of kernel padding on each side
        assert header["dims"] == (24, 23, 21)
        assert tuple(header["origin"]) == (-3.0, -3.0, -3.0)

    def test_explicit_dims(self):
        cfg = config_from_dict({
            "grid": {"dims": [8, 9, 10], "origin": [1, 2, 3]},
        })
        header = cfg.resolve_grid()
        assert (header["dims"], tuple(header["origin"])) == ((8, 9, 10), (1.0, 2.0, 3.0))

    def test_header_is_what_new_grid_takes(self):
        cfg = config_from_dict({
            "grid": {"voxel_size": 0.25, "dims": [3, 4, 5], "origin": [1, 2, 3]},
            "integration": {"h_max": 9, "t_occ": 4},
        })
        grid = new_grid(**cfg.resolve_grid())
        assert (grid.dims, grid.voxel_size, grid.h_max, grid.t_occ) == (
            (3, 4, 5), 0.25, 9, 4)
        assert grid.origin.tolist() == [1.0, 2.0, 3.0]

    def test_dims_without_origin(self):
        cfg = config_from_dict({"grid": {"dims": [8, 9, 10]}})
        with pytest.raises(ConfigurationError):
            cfg.resolve_grid()

    def test_no_geometry_at_all(self):
        with pytest.raises(ConfigurationError):
            RunConfig().resolve_grid()

    def test_empty_bounds_interval(self):
        cfg = config_from_dict({
            "grid": {"bounds_min": [0, 0, 0], "bounds_max": [1, 0, 1]},
        })
        with pytest.raises(ConfigurationError):
            cfg.resolve_grid()

    # Each grid is specified by exactly one pair of keys: any other set of
    # them is refused, and the message names the keys that were given.
    @pytest.mark.parametrize("keys, named", [
        ({"origin": [5, 5, 5]}, "grid.origin + grid.bounds_min + grid.bounds_max"),
        ({"dims": [8, 8, 8]}, "grid.dims + grid.bounds_min + grid.bounds_max"),
        ({"dims": [8, 8, 8], "origin": [5, 5, 5]},
         "grid.dims + grid.origin + grid.bounds_min + grid.bounds_max"),
        ({"bounds_min": None}, "got grid.bounds_max"),
    ], ids=["origin-beside-bounds", "dims-beside-bounds", "both-pairs",
            "bounds-min-only"])
    def test_one_grid_spec(self, keys, named):
        cfg = config_from_dict({
            "grid": {"bounds_min": [0, 0, 0], "bounds_max": [1, 1, 1], **keys},
        })
        with pytest.raises(ConfigurationError) as e:
            cfg.resolve_grid()
        assert named in str(e.value)


class TestShadowRadius:
    def test_explicit_wins(self):
        cfg = config_from_dict({"kernel": {"shadow_radius": 7}})
        assert cfg.resolved_shadow_radius() == 7.0

    def test_heuristic_tracks_voxel_size(self):
        cfg = config_from_dict({"grid": {"voxel_size": 0.05}})
        assert cfg.resolved_shadow_radius() == 1.0
        cfg.grid.voxel_size = 0.01
        assert cfg.resolved_shadow_radius() == 5.0


class TestValidation:
    @pytest.mark.parametrize("text", ["abc", "0", "-3", "2.7", "true", "'2'"])
    def test_bad_threads(self, tmp_path, text):
        p = tmp_path / "c.yaml"
        p.write_text(f"threads: {text}\n")
        with pytest.raises(ConfigurationError, match="threads"):
            load_config(p)

    @pytest.mark.parametrize("key, value", [("compensation", "bogus"),
                                            ("downsample", 0)])
    def test_bad_integration_value(self, tmp_path, key, value):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump({"integration": {key: value}}))
        with pytest.raises(ConfigurationError, match=key):
            load_config(p)

    def test_threads(self):
        assert config_from_dict({"threads": 3}).threads == 3

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="grid.voxel"):
            config_from_dict({"grid": {"voxel": 0.1}})

    def test_unknown_section(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"gird": {}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "none.yaml")

    def test_non_mapping_root(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("- just\n- a list\n")
        with pytest.raises(ConfigurationError):
            load_config(p)


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        cfg = config_from_dict({
            "grid": {"voxel_size": 0.2, "bounds_min": [0, 0, 0],
                     "bounds_max": [4, 4, 2]},
            "kernel": {"shadow_radius": 2, "shadow_model": "cone"},
            "integration": {"t_occ": 3, "compensation": "yaw"},
            "threads": 4,
        })
        p = tmp_path / "c.yaml"
        save_config(cfg, p)
        assert load_config(p) == cfg
        # The unused pair of grid keys is saved as nulls, which count as unset.
        assert yaml.safe_load(p.read_text())["grid"]["dims"] is None
        assert load_config(p).resolve_grid()["dims"] == cfg.resolve_grid()["dims"]

    def test_same_text_as_safe_dump(self, tmp_path):
        cfg = config_from_dict({
            "grid": {"voxel_size": 0.05, "bounds_min": [-0.5, -0.5, -0.5],
                     "bounds_max": [10.5, 10.5, 3.5]},
            "paths": {"scans": "/data/run 1/scans", "trajectory": "a: b #c",
                      "output_dir": "out/" + "x" * 120},
            "threads": 2,
        })
        p = tmp_path / "c.yaml"
        save_config(cfg, p)
        assert p.read_text() == yaml.safe_dump(asdict(cfg), sort_keys=True)

    def test_long_escaped_string(self, tmp_path):
        # A string that must be double-quoted and folded over lines: libyaml
        # may fold it at other points than the pure-Python emitter, but it
        # loads back to the same value.
        cfg = RunConfig()
        cfg.paths.output_dir = "r\u00e9sultats\t/" * 20
        p = tmp_path / "c.yaml"
        save_config(cfg, p)
        assert load_config(p) == cfg
