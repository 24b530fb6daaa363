import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from bitsdf import _native
from bitsdf import cli as cli_module
from bitsdf import io as bio
from bitsdf.cli import cli, fuse, main, run_fuse
from bitsdf.config import KernelConfig, load_config
from bitsdf.errors import (
    BitsdfError,
    ConfigurationError,
    CorruptionError,
    EvaluationError,
    FormatError,
    ResourceError,
)
from bitsdf.grid import new_grid
from bitsdf.oracle import OracleGuardError

from _synthetic import room_scan


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small spinning-LiDAR sequence in a 4 x 4 x 2 m room plus TUM poses."""
    root = tmp_path_factory.mktemp("seq")
    scans = root / "scans"
    scans.mkdir()
    lo, hi = (0, 0, 0), (4.0, 4.0, 2.0)
    times = np.linspace(0.0, 0.9, 10)
    with open(root / "poses.txt", "w") as f:
        f.write("# time tx ty tz qx qy qz qw\n")
        for i, t in enumerate(times):
            x = 1.0 + 0.2 * i
            f.write(f"{t:.6f} {x:.6f} 1.5 1.0 0 0 0 1\n")
            pts = room_scan((x, 1.5, 1.0), lo, hi, n_az=60, n_el=20)
            bio.write_pcd(pts.astype(np.float32), scans / f"scan_{t:.6f}.pcd",
                          binary=True)
    cfg = {
        "grid": {
            "voxel_size": 0.1,
            "bounds_min": [0.0, 0.0, 0.0],
            "bounds_max": [4.0, 4.0, 2.0],
        },
        "kernel": {"shadow_radius": 2},
        "integration": {"t_occ": 1},
        "paths": {
            "scans": str(scans),
            "trajectory": str(root / "poses.txt"),
            "output_dir": str(root / "out"),
        },
    }
    cfg_path = root / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    # fuse once up front so every test can rely on root/out existing
    run_fuse(load_config(cfg_path), echo=lambda *_: None)
    return root, cfg_path


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args):
    # The child does not inherit pytest's `pythonpath`: put this checkout's
    # src first on its PYTHONPATH so an uninstalled tree imports bitsdf.
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, env=env,
    )


def run_main(*args):
    return run_python("-m", "bitsdf.cli", *args)


def triangle_ply(directory):
    """A one-triangle mesh file in ``directory``."""
    from bitsdf.mesher import TriangleMesh

    path = directory / "triangle.ply"
    bio.write_mesh(TriangleMesh(np.eye(3), np.array([[0, 1, 2]])), path,
                   "ply_binary")
    return path


def point_xyz(directory):
    """A one-point ground truth file in ``directory``."""
    path = directory / "gt.xyz"
    path.write_text("0 0 0\n")
    return path


def config_into(dataset, out_dir):
    """A copy of the dataset's config that writes into ``out_dir``."""
    _, cfg_path = dataset
    cfg = yaml.safe_load(cfg_path.read_text())
    cfg["paths"]["output_dir"] = str(out_dir)
    path = out_dir.parent / f"{out_dir.name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def record_calls(monkeypatch, *targets):
    """The list to which each call of a (module, function name) of
    ``targets`` appends that name; the calls still run."""
    calls = []

    def recording(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for module, name in targets:
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    return calls


def fail_in_process(monkeypatch, capsys, *args):
    """The exit code and standard error of ``bitsdf *args``, run through
    ``main`` in this process, for a command that must fail."""
    monkeypatch.setattr(sys, "argv", ["bitsdf", *map(str, args)])
    with pytest.raises(SystemExit) as exited:
        main()
    return exited.value.code, capsys.readouterr().err


class TestFuse:
    def test_happy_path(self, dataset):
        root, cfg_path = dataset
        result = CliRunner().invoke(
            cli, ["fuse", "--config", str(cfg_path), "--json"]
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["frames"] == 10
        assert summary["fusion_path"] in ("avx512", "portable", "numpy")
        assert (root / "out" / "map.dbtsdf").exists()
        stats = (root / "out" / "frame_stats.csv").read_text().splitlines()
        assert stats[0] == ("frame,points_in,points_discarded,voxels_written,"
                            "elapsed_ms,prepare_ms,pass_ms,discarded_near,"
                            "discarded_bounds,discarded_downsample,"
                            "discarded_duplicate,discarded_nonfinite")
        assert len(stats) == 11
        # The pass and the prepare are parts of the frame's time.
        for line in stats[1:]:
            fields = line.split(",")
            elapsed, prepare, pass_ms = map(float, fields[4:7])
            assert 0 < prepare + pass_ms <= elapsed
            # The discards split by reason add up to the discards.
            near, outside = map(int, fields[7:9])
            assert near + outside == int(fields[2])

    def test_discards_of_downsample_and_duplicates(self, dataset, tmp_path):
        # Every third return is kept, and only the first return of each
        # center voxel is stamped.
        root, cfg_path = dataset
        cfg = yaml.safe_load(cfg_path.read_text())
        runs = {}
        for first in (False, True):
            cfg["integration"].update(downsample=3, first_return_per_voxel=first)
            cfg["paths"]["output_dir"] = str(tmp_path / str(first))
            path = tmp_path / f"{first}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            result = CliRunner().invoke(cli, ["fuse", "--config", str(path), "--json"])
            assert result.exit_code == 0, result.output
            lines = (tmp_path / str(first) / "frame_stats.csv").read_text().splitlines()
            rows = [dict(zip(lines[0].split(","), map(float, line.split(","))))
                    for line in lines[1:]]
            runs[first] = json.loads(result.stdout), rows
        sizes = [len(bio.read_scan(p).points) for p in sorted((root / "scans").iterdir())]
        for first, (summary, rows) in runs.items():
            assert [r["points_in"] for r in rows] == [-(-n // 3) for n in sizes]
            assert [r["discarded_downsample"] for r in rows] == [
                n - -(-n // 3) for n in sizes]
            for key in ("discarded_downsample", "discarded_duplicate"):
                assert summary[key] == sum(r[key] for r in rows)
        # Dropping duplicates leaves the other counts as they were.
        (_, every), (summary, firsts) = runs[False], runs[True]
        for a, b in zip(every, firsts):
            for key in ("points_in", "points_discarded", "discarded_near",
                        "discarded_bounds", "discarded_downsample"):
                assert a[key] == b[key]
            assert a["discarded_duplicate"] == 0
        assert summary["discarded_duplicate"] > 0

    def test_nonfinite_rows_counted(self, dataset, tmp_path):
        # One scan holds one NaN row: read_scan drops it, and the run counts
        # it in frame_stats.csv and in the --json summary.
        root, _ = dataset
        scans = tmp_path / "scans"
        shutil.copytree(root / "scans", scans)
        first = sorted(scans.iterdir())[0]
        pts = bio.read_scan(first).points
        pts[5] = np.nan
        bio.write_pcd(pts, first, binary=True)
        cfg = config_into(dataset, tmp_path / "out")
        result = CliRunner().invoke(cli, ["fuse", "--config", str(cfg), "--scans",
                                          str(scans), "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["discarded_nonfinite"] == 1
        lines = (tmp_path / "out" / "frame_stats.csv").read_text().splitlines()
        column = [line.split(",")[-1] for line in lines]
        assert column == ["discarded_nonfinite", "1"] + ["0"] * 9

    @pytest.mark.parametrize("mode", ["yaw", "se3"])
    def test_nonfinite_time_row_dropped(self, dataset, tmp_path, mode):
        # A deskewed run of scans with a per-point time field, one time of
        # the second scan NaN: the row is dropped and counted, and the other
        # times still spread over the sweep.
        root, _ = dataset
        scans = tmp_path / "scans"
        scans.mkdir()
        for i, path in enumerate(sorted((root / "scans").iterdir())[:2]):
            pts = bio.read_scan(path).points
            ts = np.linspace(0.0, 0.1, len(pts))
            if i == 1:
                ts[7] = np.nan
            bio.write_pcd(pts, scans / path.name, binary=True, timestamps=ts)
        cfg = config_into(dataset, tmp_path / "out")
        result = CliRunner().invoke(cli, ["fuse", "--config", str(cfg), "--scans",
                                          str(scans), "--compensation", mode,
                                          "--json"])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.stdout)
        assert (summary["frames"], summary["discarded_nonfinite"]) == (2, 1)

    @pytest.mark.parametrize("mode", ["yaw", "se3"])
    def test_compensation_fuses_every_frame(self, dataset, tmp_path, mode):
        # Frame 0 has no start-of-sweep pose; it must not stop the run.
        _, cfg_path = dataset
        result = CliRunner().invoke(
            cli, ["fuse", "--config", str(cfg_path), "--compensation", mode,
                  "--output-dir", str(tmp_path), "--json"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["frames"] == 10

    def test_skipped_scan_warns_on_stderr(self, dataset, tmp_path):
        # scan_5.000000 is 4.1 s from the last pose, past max_time_gap
        root, cfg_path = dataset
        scans = tmp_path / "scans"
        scans.mkdir()
        first = sorted((root / "scans").iterdir())[0]
        for name in (first.name, "scan_5.000000.pcd"):
            (scans / name).write_bytes(first.read_bytes())
        result = CliRunner().invoke(
            cli, ["fuse", "--config", str(cfg_path), "--scans", str(scans),
                  "--output-dir", str(tmp_path / "out"), "--json"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["frames"] == 1
        assert "warning: scan scan_5.000000.pcd" in result.stderr

    def test_skipped_scan_is_not_read(self, dataset, tmp_path):
        # scan_9.000000 is 8.1 s from the last pose and is not a PCD: it is
        # skipped before it is read, so it cannot stop the run.
        root, cfg_path = dataset
        scans = tmp_path / "scans"
        scans.mkdir()
        for path in sorted((root / "scans").iterdir())[:2]:
            (scans / path.name).write_bytes(path.read_bytes())
        (scans / "scan_9.000000.pcd").write_bytes(b"not a point cloud\n")
        result = CliRunner().invoke(
            cli, ["fuse", "--config", str(cfg_path), "--scans", str(scans),
                  "--output-dir", str(tmp_path / "out"), "--json"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["frames"] == 2
        assert result.stderr.count("warning:") == 1
        assert "scan_9.000000.pcd" in result.stderr

    def test_order_pairing_takes_record_stamps(self, dataset, tmp_path):
        # Unstamped scans take their records' stamps: each gets its record's
        # own pose, and a scan past the last record is skipped unread.
        root, cfg_path = dataset
        stamped = sorted((root / "scans").iterdir())
        scans = tmp_path / "scans"
        scans.mkdir()
        for letter, path in zip("abcdefghij", stamped, strict=True):
            (scans / f"sweep_{letter}.pcd").write_bytes(path.read_bytes())
        (scans / "sweep_z.pcd").write_bytes(b"not a point cloud\n")
        snaps, warnings = [], []
        for scan_dir in (root / "scans", scans):
            cfg = load_config(cfg_path)
            cfg.integration.compensation = "se3"
            cfg.paths.scans = str(scan_dir)
            cfg.paths.output_dir = str(tmp_path / scan_dir.parent.name)
            _, rows, snap = run_fuse(cfg, echo=warnings.append)
            assert len(rows) == len(stamped)
            snaps.append(snap.read_bytes())
        assert warnings == ["warning: no trajectory record for scan "
                            "sweep_z.pcd, skipped"]
        assert snaps[0] == snaps[1]

    def test_unstamped_file_among_stamped_is_skipped(self, dataset, tmp_path):
        # One file without a stamp in its name does not switch the stamped
        # scans to pairing by rank: it is skipped unread, with a warning.
        root, cfg_path = dataset
        scans = tmp_path / "scans"
        scans.mkdir()
        for path in sorted((root / "scans").iterdir())[:2]:
            (scans / path.name).write_bytes(path.read_bytes())
        (scans / "notes.txt").write_text("Two sweeps of the room, walking east.\n")
        result = CliRunner().invoke(
            cli, ["fuse", "--config", str(cfg_path), "--scans", str(scans),
                  "--output-dir", str(tmp_path / "out"), "--json"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["frames"] == 2
        assert result.stderr.count("warning:") == 1
        assert "notes.txt" in result.stderr

    def test_no_fused_frame_keeps_thresholds(self, dataset, tmp_path):
        # scan_5.000000 is 4.1 s from the last pose, so no frame is fused
        root, cfg_path = dataset
        scans = tmp_path / "scans"
        scans.mkdir()
        first = sorted((root / "scans").iterdir())[0]
        (scans / "scan_5.000000.pcd").write_bytes(first.read_bytes())
        cfg = load_config(cfg_path)
        cfg.integration.h_max, cfg.integration.t_occ = 100, 3
        cfg.paths.scans = str(scans)
        cfg.paths.output_dir = str(tmp_path / "out")
        _, rows, snap = run_fuse(cfg, echo=lambda *_: None)
        assert rows == []
        grid = bio.load_grid(snap)
        assert (grid.h_max, grid.t_occ) == (100, 3)

    def test_resolved_config_reproduces_run(self, dataset):
        root, cfg_path = dataset
        resolved = root / "out" / "config.resolved.yaml"
        assert resolved.exists()
        cfg = load_config(resolved)
        cfg.paths.output_dir = str(root / "out2")
        grid2, _, snap2 = run_fuse(cfg, echo=lambda *_: None)
        assert (root / "out" / "map.dbtsdf").read_bytes() == snap2.read_bytes()

    def test_override_voxel_size(self, dataset, tmp_path):
        root, cfg_path = dataset
        result = CliRunner().invoke(
            cli,
            ["fuse", "--config", str(cfg_path), "--voxel-size", "0.2",
             "--output-dir", str(tmp_path), "--json"],
        )
        assert result.exit_code == 0, result.output
        grid = bio.load_grid(tmp_path / "map.dbtsdf")
        assert grid.voxel_size == 0.2

    def test_missing_trajectory_exit_3(self, dataset, tmp_path):
        # A missing input file is a format error, like any other input.
        root, cfg_path = dataset
        res = run_main("fuse", "--config", cfg_path,
                       "--trajectory", tmp_path / "absent.txt")
        assert res.returncode == 3
        assert "absent.txt" in res.stderr

    def test_missing_trajectory_makes_no_output_dir(self, dataset, tmp_path):
        _, cfg_path = dataset
        res = run_main("fuse", "--config", cfg_path,
                       "--trajectory", tmp_path / "absent.txt",
                       "--output-dir", tmp_path / "out")
        assert res.returncode == 3, res.stderr
        assert not (tmp_path / "out").exists()

    # Each bad setting, in the file or as an option, stops the run before it
    # reads the trajectory, allocates the grid or makes the output directory.
    @pytest.mark.parametrize("config, args", [
        ({"integration": {"compensation": "bogus"}}, []),
        ({"integration": {"downsample": 0}}, []),
        ({"kernel": {"shadow_model": "bogus"}}, []),
        ({"kernel": {"size": 4}}, []),
        ({"kernel": {"cone_half_angle_deg": 200}}, []),
        ({"grid": {"voxel_size": 0}}, []),
        ({"integration": {"t_occ": 0}}, []),
        ({}, ["--downsample", "0"]),
        ({}, ["--voxel-size", "0"]),
        ({"paths": {"scans": None}}, []),
        ({}, ["--scans", "no/such/scans"]),
        ({}, ["--scans", "{tmp}/empty", "--trajectory", "{tmp}/absent.txt"]),
    ], ids=["compensation", "downsample", "shadow-model", "kernel-size",
            "cone-angle", "voxel-size", "thresholds", "downsample-option",
            "voxel-size-option", "scans-unset", "scans-missing", "scans-empty"])
    def test_bad_setting_fails_before_any_work(self, dataset, tmp_path, monkeypatch,
                                               capsys, config, args):
        (tmp_path / "empty").mkdir()
        args = [a.format(tmp=tmp_path) for a in args]
        out = tmp_path / "out"
        path = config_into(dataset, out)
        cfg = yaml.safe_load(path.read_text())
        for section, keys in config.items():
            cfg.setdefault(section, {}).update(keys)
        path.write_text(yaml.safe_dump(cfg))
        calls = record_calls(monkeypatch, (cli_module, "new_grid"),
                             (bio, "read_trajectory"))
        code, err = fail_in_process(monkeypatch, capsys,
                                    "fuse", "--config", path, *args)
        assert code == 2, err
        assert calls == []
        assert not out.exists()

    def test_unknown_config_key_exit_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("grid:\n  voxel_sizes: 0.1\n")
        res = run_main("fuse", "--config", bad)
        assert res.returncode == 2

    @pytest.mark.parametrize("source, value", [
        ("yaml", "abc"), ("yaml", "0"), ("yaml", "2.7"),
        ("option", "0"), ("option", "-3"),
    ])
    def test_bad_threads_exit_2(self, dataset, tmp_path, source, value):
        root, cfg_path = dataset
        args = ["--output-dir", tmp_path / "out"]
        if source == "yaml":
            cfg = tmp_path / "run.yaml"
            cfg.write_text(cfg_path.read_text() + f"threads: {value}\n")
        else:
            cfg = cfg_path
            args += ["--threads", value]
        res = run_main("fuse", "--config", cfg, *args)
        assert res.returncode == 2
        assert "threads must be an integer >= 1" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_every_kernel_key_reaches_the_bank(self, dataset, tmp_path, monkeypatch):
        # The bank keeps only its arrays and sizes, so the call is the one
        # place that shows each kernel key, at a value other than its
        # default, is used.
        kernel = {"size": 9, "azimuth_bins": 12, "elevation_bins": 7,
                  "shadow_radius": 2.5, "shadow_model": "cone",
                  "cone_half_angle_deg": 45.0}
        assert set(kernel) == {f.name for f in fields(KernelConfig)}
        assert all(getattr(KernelConfig(), k) != v for k, v in kernel.items())
        path = config_into(dataset, tmp_path / "out")
        cfg = yaml.safe_load(path.read_text())
        path.write_text(yaml.safe_dump({**cfg, "kernel": kernel}))
        real, calls = cli_module.build_kernel_bank, []

        def recording(*args, **kwargs):
            calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_module, "build_kernel_bank", recording)
        _, rows, _ = run_fuse(load_config(path), echo=lambda *_: None)
        assert calls == [{"size": 9, "b_az": 12, "b_el": 7, "shadow_radius": 2.5,
                          "shadow_model": "cone", "cone_half_angle_deg": 45.0}]
        assert sum(r[1] - r[2] for r in rows) > 0

    def test_every_option_lands_in_its_key(self, dataset, tmp_path):
        # Each override differs from the dataset's config, and the option
        # names the key it sets in config.resolved.yaml.
        root, cfg_path = dataset
        shutil.copytree(root / "scans", tmp_path / "scans")
        shutil.copy(root / "poses.txt", tmp_path / "poses.txt")
        values = {
            "voxel_size": 0.2, "threads": 2, "downsample": 2, "t_occ": 3,
            "h_max": 100, "compensation": "yaw", "shadow_radius": 1.0,
            "shadow_model": "cone", "scans": str(tmp_path / "scans"),
            "trajectory": str(tmp_path / "poses.txt"),
            "output_dir": str(tmp_path / "out"),
        }
        assert {p.name for p in fuse.params} - {"config_path", "as_json"} == set(values)

        def keys(path):
            cfg = yaml.safe_load(path.read_text())
            return {"threads": cfg.pop("threads"),
                    **{k: v for section in cfg.values() for k, v in section.items()}}

        before = keys(root / "out" / "config.resolved.yaml")
        args = [f"--{key.replace('_', '-')}={val}" for key, val in values.items()]
        result = CliRunner().invoke(cli, ["fuse", "--config", str(cfg_path), *args])
        assert result.exit_code == 0, result.output
        after = keys(tmp_path / "out" / "config.resolved.yaml")
        for key, val in values.items():
            assert before[key] != val and after[key] == val, key

    # A config is YAML text or bytes, or a dict of keys that replace the
    # dataset's (which has its paths, so sizing the grid is what fails), or
    # None for a directory. The first of args is the command, by default fuse.
    @pytest.mark.parametrize("config, args, named", [
        ('grid: {voxel_size: "abc"}\n', [], "grid.voxel_size"),
        ('kernel: {size: "21"}\n', [], "kernel.size"),
        ("kernel: {size: 21.0}\n", [], "kernel.size"),
        ("grid: {bounds_min: [0, true, 0]}\n", [], "grid.bounds_min"),
        ("grid: [1, 2]\n", [], "section grid"),
        ("", ["bench", "--voxel-sizes", "abc"], "--voxel-sizes"),
        ({"grid": {"voxel_size": 0}}, [], "voxel_size"),
        ({}, ["fuse", "--voxel-size", "0"], "voxel_size"),
        ({"grid": {"voxel_size": math.nan}}, [], "voxel_size"),
        ({"grid": {"voxel_size": math.inf}}, [], "voxel_size"),
        ({"grid": {"bounds_max": [4.0, math.nan, 2.0]}}, [], "bounds_max"),
        ({"grid": {"pad_voxels": -3}}, [], "grid.pad_voxels"),
        ({"kernel": {"shadow_model": "cone", "cone_half_angle_deg": 200}}, [],
         "cone half-angle"),
        ({"grid": {"voxel_size": 1e-320}}, [], "voxel_size"),
        ({"paths": {"max_time_gap": math.nan}}, [], "max_time_gap"),
        ({"paths": {"max_time_gap": math.inf}}, [], "max_time_gap"),
        ({"paths": {"max_time_gap": -0.5}}, [], "max_time_gap"),
        ("grid: {voxel_size: 'abc}\n", [], "not valid YAML"),
        (b"grid: {voxel_size: 0.1}\n\xff: 1\n", [], "not valid YAML"),
        (None, [], "not found"),
    ], ids=["str-float", "str-int", "float-int", "bool-in-list", "list-section",
            "bench-sizes", "zero-voxel", "zero-voxel-option", "nan-voxel",
            "inf-voxel", "nan-bounds", "pad-voxels", "cone-angle",
            "subnormal-voxel", "nan-gap", "inf-gap", "negative-gap", "bad-yaml",
            "non-utf8", "directory"])
    def test_config_error_exit_2(self, dataset, tmp_path, monkeypatch, capsys,
                                 config, args, named):
        if isinstance(config, dict):
            path = config_into(dataset, tmp_path / "out")
            cfg = yaml.safe_load(path.read_text())
            for section, keys in config.items():
                cfg[section].update(keys)
            path.write_text(yaml.safe_dump(cfg))
        elif config is None:
            path = tmp_path
        elif isinstance(config, bytes):
            path = tmp_path / "run.yaml"
            path.write_bytes(config)
        else:
            path = tmp_path / "run.yaml"
            path.write_text(config)
        command, *rest = args or ["fuse"]
        code, err = fail_in_process(monkeypatch, capsys,
                                    command, "--config", path, *rest)
        assert code == 2, err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_fractional_dims_exit_2(self, dataset, tmp_path, monkeypatch, capsys, path):
        # dims of 10.5 voxels once became 10; now neither fusion path runs.
        if path == "numpy":
            monkeypatch.setattr(_native, "_lib", False)
        cfg_path = config_into(dataset, tmp_path / "out")
        cfg = yaml.safe_load(cfg_path.read_text())
        cfg["grid"].update(bounds_min=None, bounds_max=None, dims=[10.5, 10, 10],
                           origin=[0.0, 0.0, 0.0])
        cfg_path.write_text(yaml.safe_dump(cfg))
        code, err = fail_in_process(monkeypatch, capsys, "fuse", "--config", cfg_path)
        assert code == 2, err
        assert err.startswith("error: ") and "dims" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("poses", [b"0.0 0 0 0\n", b"0.0 0 0 0 \xff 0 0 1\n",
                                       b"0.0 0 0 0 0 0 0 1\nnan 1 0 0 0 0 0 1\n"],
                             ids=["short-line", "non-utf8", "nan-time"])
    def test_malformed_trajectory_exit_3(self, dataset, tmp_path, poses):
        root, cfg_path = dataset
        bad = tmp_path / "poses.txt"
        bad.write_bytes(poses)
        res = run_main("fuse", "--config", cfg_path, "--trajectory", bad)
        assert res.returncode == 3, res.stderr

    def test_negative_point_count_exit_4(self, dataset, tmp_path, monkeypatch, capsys):
        root, _ = dataset
        scans = tmp_path / "scans"
        shutil.copytree(root / "scans", scans)
        first = sorted(scans.iterdir())[0]
        first.write_bytes(first.read_bytes().replace(b"POINTS ", b"POINTS -", 1))
        code, err = fail_in_process(monkeypatch, capsys, "fuse", "--config",
                                    config_into(dataset, tmp_path / "out"),
                                    "--scans", scans)
        assert code == 4, err
        assert err.startswith("error: ") and "negative point count" in err


class TestMeshEvalExportInfo:
    def test_mesh_then_eval(self, dataset, tmp_path):
        root, _ = dataset
        snapshot = root / "out" / "map.dbtsdf"
        mesh_path = tmp_path / "room.ply"
        result = CliRunner().invoke(
            cli, ["mesh", str(snapshot), "-o", str(mesh_path), "--normals",
                  "--json"]
        )
        assert result.exit_code == 0, result.output
        info = json.loads(result.output)
        assert info["triangles"] > 0

        gt_path = tmp_path / "gt.xyz"
        from _synthetic import box_surface_points

        gt = box_surface_points(5000, (0, 0, 0), (4.0, 4.0, 2.0), seed=1)
        np.savetxt(gt_path, gt)
        report_path = tmp_path / "report.json"
        result = CliRunner().invoke(
            cli,
            ["eval", "--pred", str(mesh_path), "--gt", str(gt_path),
             "--samples", "20000", "--threshold", "0.15",
             "-o", str(report_path), "--json"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        # coarse smoke run: the shadow's rear boundary adds surface a couple
        # of voxels behind each wall, so only a loose bound is meaningful here
        assert report["chamfer_l1_m"] < 0.3
        assert report["recall_pct"] > 50.0

    def test_eval_empty_mesh_exit_5(self, tmp_path):
        from bitsdf.mesher import TriangleMesh

        empty = tmp_path / "empty.ply"
        bio.write_mesh(
            TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)),
            empty, "ply_binary",
        )
        gt = tmp_path / "gt.xyz"
        gt.write_text("0 0 0\n")
        res = run_main("eval", "--pred", empty, "--gt", gt)
        assert res.returncode == 5

    def test_mesh_without_compiler_same_file(self, dataset, tmp_path, monkeypatch):
        root, _ = dataset
        snapshot = str(root / "out" / "map.dbtsdf")
        out = {}
        for path in ("compiled", "numpy"):
            if path == "numpy":
                monkeypatch.setattr(_native, "_lib", None)
                monkeypatch.setattr(_native, "CACHE_DIR", tmp_path)
                monkeypatch.setattr(_native, "CC", str(tmp_path / "no-such-cc"))
            out[path] = tmp_path / f"{path}.ply"
            result = CliRunner().invoke(cli, ["mesh", snapshot, "-o", str(out[path])])
            assert result.exit_code == 0, result.output
        # One warning line, and the same mesh file.
        assert _native._lib is False
        assert len(result.stderr.splitlines()) == 1
        assert "meshing with numpy" in result.stderr
        assert out["numpy"].read_bytes() == out["compiled"].read_bytes()

    @pytest.mark.parametrize("iso", ["nan", "inf", "-inf"])
    def test_mesh_non_finite_iso_exit_2(self, dataset, tmp_path, iso):
        root, _ = dataset
        out = tmp_path / "m.ply"
        res = run_main("mesh", root / "out" / "map.dbtsdf", "-o", out, "--iso", iso)
        assert res.returncode == 2
        assert "iso must be finite" in res.stderr
        assert not out.exists()

    def test_export(self, dataset, tmp_path):
        root, _ = dataset
        out = tmp_path / "grid.csv"
        result = CliRunner().invoke(
            cli, ["export", str(root / "out" / "map.dbtsdf"),
                  "-o", str(out), "--include", "occupied_only", "--json"]
        )
        assert result.exit_code == 0, result.output
        n = json.loads(result.output)["rows"]
        assert n > 0
        assert len(out.read_text().splitlines()) == n + 1

    def test_info(self, dataset):
        root, _ = dataset
        result = CliRunner().invoke(
            cli, ["info", str(root / "out" / "map.dbtsdf"), "--json"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["voxel_size"] == 0.1
        assert payload["observed"] > 0
        assert payload["memory_bytes"] == int(np.prod(payload["dims"])) * 8
        assert payload["valid"] is True
        assert payload["fault"] is None

    def test_info_reports_first_fault(self, dataset, tmp_path):
        # One voxel's mask, 0b101, is not a low-bit run: info says so and
        # still exits 0; mesh and export load the snapshot unchecked.
        root, _ = dataset
        grid = bio.load_grid(root / "out" / "map.dbtsdf")
        grid.mask[3, 2, 1] = 0b101
        bad = tmp_path / "bad.dbtsdf"
        bio.save_grid(grid, bad)
        res = run_main("info", bad, "--json")
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["valid"] is False
        assert payload["fault"] == "voxel (3, 2, 1): mask 0x00000005 is not a low-bit run"
        res = run_main("info", bad)
        assert res.returncode == 0, res.stderr
        assert "valid: False" in res.stdout.splitlines()

    def test_corrupt_snapshot_exit_4(self, tmp_path):
        bad = tmp_path / "bad.dbtsdf"
        bad.write_bytes(b"NOTAMAGIC" + b"\x00" * 64)
        res = run_main("info", bad)
        assert res.returncode == 4

    @pytest.mark.parametrize("h_max, t_occ", [(255, 0), (3, 9)])
    def test_bad_thresholds_exit_4(self, dataset, tmp_path, h_max, t_occ):
        root, _ = dataset
        raw = (root / "out" / "map.dbtsdf").read_bytes()
        bad = tmp_path / "bad.dbtsdf"
        # h_max and t_occ are bytes 44 and 45 of the header, after the magic
        bad.write_bytes(raw[:52] + bytes([h_max, t_occ]) + raw[54:])
        res = run_main("info", bad)
        assert res.returncode == 4, res.stderr

    @pytest.mark.parametrize("body, code", [
        # three vertices and a face declared, two vertices present
        (b"format ascii 1.0\nelement vertex 3\nproperty double x\n"
         b"property double y\nproperty double z\nelement face 1\n"
         b"property list uchar int vertex_indices\nend_header\n"
         b"0 0 0\n1 0 0\n", 4),
        # a property type the reader does not know
        (b"format binary_little_endian 1.0\nelement vertex 1\nproperty half x\n"
         b"property half y\nproperty half z\nend_header\n" + bytes(6), 3),
        # an element line without a count
        (b"format ascii 1.0\nelement vertex\nproperty float x\nend_header\n", 3),
        # a negative count, over a body of 12 doubles
        (b"format binary_little_endian 1.0\nelement vertex -1\nproperty double x\n"
         b"property double y\nproperty double z\nend_header\n"
         + np.arange(12.0).tobytes(), 4),
    ])
    def test_eval_bad_pred_ply(self, tmp_path, body, code):
        pred = tmp_path / "pred.ply"
        pred.write_bytes(b"ply\n" + body)
        gt = tmp_path / "gt.xyz"
        gt.write_text("0 0 0\n")
        res = run_main("eval", "--pred", pred, "--gt", gt)
        assert res.returncode == code, res.stderr

    @pytest.mark.parametrize("vertices, faces", [
        (np.eye(3), [[0, 1, 3]]),  # an index past the last vertex
        (np.eye(3), [[0, 1, -1]]),  # a negative index, which would wrap
        (np.vstack([np.eye(3), [np.nan, 0, 0]]), [[0, 1, 2]]),  # a NaN vertex
    ], ids=["index-past-end", "negative-index", "nan-vertex"])
    def test_eval_pred_mesh_it_cannot_sample(self, tmp_path, monkeypatch, capsys,
                                             vertices, faces):
        from bitsdf.mesher import TriangleMesh

        pred = tmp_path / "pred.ply"
        bio.write_mesh(TriangleMesh(vertices, np.array(faces)), pred, "ply_binary")
        code, err = fail_in_process(monkeypatch, capsys, "eval", "--pred", pred,
                                    "--gt", point_xyz(tmp_path), "--samples", 10)
        assert code == 4, err
        assert "Traceback" not in err

    def test_trailing_bytes_exit_4(self, dataset, tmp_path):
        root, _ = dataset
        bad = tmp_path / "bad.dbtsdf"
        bad.write_bytes((root / "out" / "map.dbtsdf").read_bytes() + b"junk")
        res = run_main("info", bad)
        assert res.returncode == 4
        assert "trailing" in res.stderr


    @pytest.mark.parametrize("command, out", [
        ("mesh", "nodir/m.ply"), ("export", "nodir/v.csv"),
        ("eval", "nodir/r.json"), ("bench", "nodir/b.csv")])
    def test_output_into_missing_directory(self, dataset, tmp_path, command, out):
        # Like `fuse --output-dir`, the command creates its output's parent.
        snapshot = tmp_path / "empty.dbtsdf"
        bio.save_grid(new_grid((8, 8, 8), 0.1), snapshot)
        inputs = {
            "mesh": [snapshot], "export": [snapshot],
            "eval": ["--pred", triangle_ply(tmp_path), "--gt", point_xyz(tmp_path),
                     "--samples", 100],
            "bench": ["--config", config_into(dataset, tmp_path / "bench"),
                      "--voxel-sizes", 0.2, "--repeats", 1],
        }
        res = run_main(command, *inputs[command], "-o", tmp_path / out)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / out).is_file()

    @pytest.mark.parametrize("args, code", [
        (["--samples", "-3"], 2), (["--threshold", "nan"], 2),
        (["--threshold", "inf"], 2), (["--threshold", "-1"], 2),
        (["--samples", "0"], 5), (["--seed", "-1"], 2),
    ], ids=["negative-samples", "nan-threshold", "inf-threshold",
            "negative-threshold", "zero-samples", "negative-seed"])
    def test_eval_bad_samples_or_threshold(self, tmp_path, monkeypatch, capsys,
                                           args, code):
        out = tmp_path / "r.json"
        got, err = fail_in_process(
            monkeypatch, capsys, "eval", "--pred", triangle_ply(tmp_path),
            "--gt", point_xyz(tmp_path), "-o", out, *args)
        assert got == code, err
        assert err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--threshold", "nan"], ["--threshold", "-1"], ["--samples", "-5"],
        ["--seed", "-1"],
    ], ids=["nan-threshold", "negative-threshold", "negative-samples",
            "negative-seed"])
    @pytest.mark.parametrize("pred", ["present", "missing"])
    def test_eval_settings_checked_before_reading(self, tmp_path, monkeypatch,
                                                  capsys, args, pred):
        calls = record_calls(monkeypatch, (bio, "read_mesh_ply"), (bio, "read_scan"))
        path = triangle_ply(tmp_path) if pred == "present" else tmp_path / "nope.ply"
        code, err = fail_in_process(monkeypatch, capsys, "eval", "--pred", path,
                                    "--gt", point_xyz(tmp_path), *args)
        assert code == 2, err
        assert calls == []

    def test_eval_area_not_finite_exit_5(self, tmp_path):
        # The triangle's cross product overflows, so its area is NaN.
        from bitsdf.mesher import TriangleMesh

        pred = tmp_path / "huge.ply"
        bio.write_mesh(TriangleMesh(np.eye(3) * 1e200, np.array([[0, 1, 2]])),
                       pred, "ply_binary")
        res = run_main("eval", "--pred", pred, "--gt", point_xyz(tmp_path),
                       "--samples", 10)
        assert res.returncode == 5, res.stderr
        assert res.stderr.startswith("error: ") and "finite" in res.stderr
        assert "Warning" not in res.stderr

    @pytest.mark.parametrize("command", [
        ["mesh", "nope.dbtsdf", "-o", "m.ply"],
        ["export", "nope.dbtsdf", "-o", "v.csv"],
        ["info", "nope.dbtsdf"],
        ["info", "."],
        ["eval", "--pred", "nope.ply", "--gt", "nope.xyz"],
    ], ids=["mesh", "export", "info", "info-directory", "eval-pred"])
    def test_missing_input_exit_3(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        code, err = fail_in_process(monkeypatch, capsys, *command)
        assert code == 3, err
        assert err.startswith("error: ") and "not found" in err


class TestBench:
    def test_two_sizes(self, dataset, tmp_path, monkeypatch):
        # Each size builds its kernel bank once, and a repeat only fuses: it
        # saves no snapshot or config and makes no output directory.
        bench_cfg = config_into(dataset, tmp_path / "bench")
        calls = record_calls(monkeypatch, (cli_module, "build_kernel_bank"),
                             (bio, "save_grid"), (cli_module, "save_config"))
        out = tmp_path / "bench.csv"
        result = CliRunner().invoke(
            cli,
            ["bench", "--config", str(bench_cfg), "--voxel-sizes", "0.2,0.1",
             "--repeats", "2", "-o", str(out), "--json"],
        )
        assert result.exit_code == 0, result.output
        assert calls == ["build_kernel_bank"] * 2
        assert not (tmp_path / "bench").exists()
        payload = json.loads(result.output)
        assert set(payload) == {"results", "max_min_ratio"}
        for r, size in zip(payload["results"], (0.2, 0.1), strict=True):
            assert set(r) == {"voxel_size", "mean_ms", "std_ms", "samples",
                              "memory_bytes", "prepare_ms", "pass_ms"}
            assert (r["voxel_size"], r["samples"]) == (size, 20)
        assert payload["max_min_ratio"] >= 1.0
        lines = out.read_text().splitlines()
        assert lines[0] == ("voxel_size,mean_ms,std_ms,samples,memory_bytes,"
                            "prepare_ms,pass_ms")
        assert [line.split(",")[0] for line in lines[1:]] == ["0.2", "0.1"]
        # The prepare and the pass are parts of each frame's time.
        for r in payload["results"]:
            assert 0 < r["prepare_ms"] + r["pass_ms"] <= r["mean_ms"]

    @pytest.mark.parametrize("config, args, named", [
        ({"kernel": {"size": 4}}, [], "kernel size"),
        ({}, ["--voxel-sizes", "0.2,0"], "voxel_size"),
        ({}, ["--repeats", "0"], "--repeats"),
        ({}, ["--repeats", "-3"], "--repeats"),
    ], ids=["kernel-size", "zero-voxel-size", "zero-repeats", "negative-repeats"])
    def test_bad_setting_makes_no_output_dir(self, dataset, tmp_path, monkeypatch,
                                             capsys, config, args, named):
        # Every size's grid and kernel bank are checked before the sweep
        # fuses anything or the -o directory is made.
        path = config_into(dataset, tmp_path / "runs")
        cfg = yaml.safe_load(path.read_text())
        for section, keys in config.items():
            cfg[section].update(keys)
        path.write_text(yaml.safe_dump(cfg))
        code, err = fail_in_process(monkeypatch, capsys, "bench", "--config", path,
                                    *args, "-o", tmp_path / "newdir" / "b.csv")
        assert code == 2, err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "newdir").exists()
        assert not (tmp_path / "runs").exists()


    def test_nothing_fused_exit_2(self, dataset, tmp_path):
        # scan_9.000000 is 8.1 s from the last pose: no scan is fused, so
        # there is no latency to report.
        root, _ = dataset
        scans = tmp_path / "scans"
        scans.mkdir()
        first = sorted((root / "scans").iterdir())[0]
        (scans / "scan_9.000000.pcd").write_bytes(first.read_bytes())
        path = config_into(dataset, tmp_path / "runs")
        cfg = yaml.safe_load(path.read_text())
        cfg["paths"]["scans"] = str(scans)
        path.write_text(yaml.safe_dump(cfg))
        res = run_main("bench", "--config", path, "--voxel-sizes", "0.1",
                       "--repeats", "2", "-o", tmp_path / "newdir" / "b.csv")
        assert res.returncode == 2, res.stderr
        assert "nan" not in res.stdout and "RuntimeWarning" not in res.stderr
        assert "error: voxel size 0.1: no scan pairs" in res.stderr
        # The skip is reported once, not once per repeat.
        assert res.stderr.count("warning: scan scan_9.000000.pcd") == 1
        assert not (tmp_path / "newdir").exists()


class TestThreads:
    def test_snapshot_identical_across_thread_counts(self, dataset, tmp_path):
        root, cfg_path = dataset
        blobs = []
        for threads in (1, 4):
            cfg = load_config(cfg_path)
            cfg.threads = threads
            cfg.paths.output_dir = str(tmp_path / f"t{threads}")
            _, _, snap = run_fuse(cfg, echo=lambda *_: None)
            blobs.append(snap.read_bytes())
        assert blobs[0] == blobs[1]


# Runs a command as main() does, then prints the scipy modules it imported.
SCIPY_MODULES = """
import sys
from bitsdf.cli import cli
cli(sys.argv[1:], standalone_mode=False)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_commands_import_no_scipy(dataset, tmp_path):
    # mesh, export and info never use scipy, and eval only where the
    # compiled library is unavailable; each command runs in a fresh process.
    root, _ = dataset
    snapshot = root / "out" / "map.dbtsdf"
    mesh = tmp_path / "room.ply"
    gt = tmp_path / "gt.xyz"
    from _synthetic import box_surface_points

    np.savetxt(gt, box_surface_points(2000, (0, 0, 0), (4.0, 4.0, 2.0), seed=1))
    commands = [["mesh", snapshot, "-o", mesh], ["export", snapshot, "-o", tmp_path / "g.csv"],
                ["info", snapshot]]
    if _native.library() is not None:
        commands.append(["eval", "--pred", mesh, "--gt", gt, "-o", tmp_path / "r.json"])
    for command in commands:
        res = run_python("-c", SCIPY_MODULES, *command)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]", command[0]


def test_each_error_class_declares_its_exit_code():
    codes = {BitsdfError: 1, ConfigurationError: 2, FormatError: 3,
             CorruptionError: 4, EvaluationError: 5, ResourceError: 6,
             OracleGuardError: 1}
    assert {cls: cls.exit_code for cls in codes} == codes
