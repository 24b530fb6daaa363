"""Command-line front end: fuse, mesh, eval, export, bench, info.

Exit codes: 0 success, else the ``exit_code`` of the error's class: 2
configuration, 3 format, 4 corruption, 5 evaluation, 6 resource.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import namedtuple
from dataclasses import astuple, fields, replace
from pathlib import Path

import click
import numpy as np

from . import io as bio
from .config import RunConfig, load_config, save_config
from .errors import BitsdfError, ConfigurationError
from .grid import (
    SIGN_OCCUPIED,
    memory_bytes,
    new_grid,
    observed_array,
    voxel_fault,
)
from .integrator import (
    COMPENSATION_MODES,
    FrameStats,
    ScanFrame,
    fusion_path,
    integrate_frame,
)
from .kernels import SHADOW_MODELS, build_kernel_bank
from .mesher import extract_mesh, vertex_normals
from .metrics import check_sampling, check_threshold, evaluate, sample_mesh

SCAN_SUFFIXES = (".pcd", ".ply", ".xyz", ".txt")

# One row of frame_stats.csv: the frame's index, then its FrameStats.
FrameRow = namedtuple("FrameRow", ["frame", *(f.name for f in fields(FrameStats))])


@click.group()
def cli():
    """CPU bitmask-TSDF mapping toolkit."""


def _pair_scans(files, times, echo):
    """(stamp, path) of each scan file to fuse, in stamp order. Where no
    name carries a stamp, each file takes that of the trajectory record of
    the same rank among ``times`` (None past the last record); otherwise
    the stamps are those in the names, and a file without one is skipped
    with a warning to ``echo``."""
    stamped = [(bio.scan_timestamp(p), p) for p in files]
    if all(t is None for t, _ in stamped):
        return [(times[i] if i < len(times) else None, p)
                for i, p in enumerate(files)]
    for t, p in stamped:
        if t is None:
            echo(f"warning: scan {p.name} has no stamp in its name, skipped")
    return sorted(((t, p) for t, p in stamped if t is not None), key=lambda tp: tp[0])


def _normalized_times(ts):
    if ts is None:
        return None
    lo, hi = float(np.min(ts)), float(np.max(ts))
    if hi <= lo:
        return None
    return (ts - lo) / (hi - lo)


def _check_run(cfg: RunConfig):
    """The grid header, the kernel bank and the scan files of a fuse run of
    ``cfg``; ConfigurationError for a setting that the run cannot use."""
    for key in ("trajectory", "scans"):
        if getattr(cfg.paths, key) is None:
            raise ConfigurationError(f"paths.{key} is not set")
    scans = Path(cfg.paths.scans)
    if not scans.is_dir():
        raise ConfigurationError(f"scans directory not found: {cfg.paths.scans}")
    files = sorted(p for p in scans.iterdir() if p.suffix.lower() in SCAN_SUFFIXES)
    if not files:
        raise ConfigurationError(f"no scan files in {scans}")
    header = cfg.resolve_grid()
    kc = cfg.kernel
    bank = build_kernel_bank(
        size=kc.size, b_az=kc.azimuth_bins, b_el=kc.elevation_bins,
        shadow_radius=cfg.resolved_shadow_radius(), shadow_model=kc.shadow_model,
        cone_half_angle_deg=kc.cone_half_angle_deg)
    return header, bank, files


def _fuse_frames(cfg: RunConfig, header: dict, bank, files, echo):
    """The grid of ``header``, allocated fresh, with each scan file of
    ``files`` that pairs with a trajectory record of ``cfg`` fused into it,
    and a FrameRow per fused scan."""
    traj = bio.read_trajectory(cfg.paths.trajectory)
    scans = _pair_scans(files, traj.times, echo)
    grid = new_grid(memory_cap=cfg.grid.memory_cap_bytes, **header)
    rows = []
    prev_pose = None  # pose of the last scan fused
    for frame_idx, (stamp, path) in enumerate(scans):
        # A scan is read only once it is paired, so a skipped one cannot
        # stop the run.
        if stamp is None:
            echo(f"warning: no trajectory record for scan {path.name}, skipped")
            continue
        gap = float(np.min(np.abs(traj.times - stamp)))
        if gap > cfg.paths.max_time_gap:
            echo(f"warning: scan {path.name} is {gap:.3f}s from the nearest pose, "
                 "skipped")
            continue
        pose = bio.lookup_pose(traj, stamp)
        data = bio.read_scan(path)
        # The first scan has no start-of-sweep pose: prev_pose = pose deskews
        # it as zero motion.
        scan = ScanFrame(points=data.points, pose=pose,
                         timestamps=_normalized_times(data.timestamps),
                         prev_pose=pose if prev_pose is None else prev_pose)
        prev_pose = pose
        stats = integrate_frame(grid, bank, scan, cfg.integration, threads=cfg.threads)
        stats = replace(stats, discarded_nonfinite=data.dropped)
        rows.append(FrameRow(frame_idx, *astuple(stats)))
    return grid, rows


def run_fuse(cfg: RunConfig, echo=functools.partial(click.echo, err=True)):
    """Fuse all scans; returns (grid, FrameRow per fused scan, snapshot
    path). Every setting is checked before any input is read or the grid
    allocated, and ``output_dir`` is made only to write the outputs.
    Warnings about skipped scans go to ``echo``, by default standard error."""
    grid, rows = _fuse_frames(cfg, *_check_run(cfg), echo)
    out_dir = Path(cfg.paths.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = out_dir / "map.dbtsdf"
    bio.save_grid(grid, snapshot)
    with open(out_dir / "frame_stats.csv", "w") as f:
        for row in [FrameRow._fields, *rows]:
            f.write(",".join(f"{v:.3f}" if isinstance(v, float) else str(v)
                             for v in row) + "\n")
    save_config(cfg, out_dir / "config.resolved.yaml")
    return grid, rows, snapshot


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--voxel-size", type=float, default=None)
@click.option("--threads", type=int, default=None)
@click.option("--downsample", type=int, default=None)
@click.option("--t-occ", type=int, default=None)
@click.option("--h-max", type=int, default=None)
@click.option("--compensation", type=click.Choice(COMPENSATION_MODES), default=None)
@click.option("--shadow-radius", type=float, default=None)
@click.option("--shadow-model", type=click.Choice(SHADOW_MODELS), default=None)
@click.option("--scans", type=click.Path(), default=None)
@click.option("--trajectory", type=click.Path(), default=None)
@click.option("--output-dir", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True)
def fuse(config_path, as_json, **overrides):
    """Fuse a scan directory into a grid snapshot."""
    grid, rows, snapshot = run_fuse(load_config(config_path, **overrides))
    summary = {
        "frames": len(rows),
        "points": int(sum(r.points_in for r in rows)),
        "discarded": int(sum(r.points_discarded for r in rows)),
        **{key: int(sum(getattr(r, key) for r in rows)) for key in
           ("discarded_downsample", "discarded_duplicate", "discarded_nonfinite")},
        "mean_frame_ms": (
            float(statistics.fmean(r.elapsed_ms for r in rows)) if rows else 0.0
        ),
        "snapshot": str(snapshot),
        "memory_bytes": memory_bytes(grid),
        "fusion_path": fusion_path(),
    }
    if as_json:
        click.echo(json.dumps(summary, indent=2))
    else:
        click.echo(
            f"fused {summary['frames']} frames, {summary['points']} points "
            f"({summary['discarded']} discarded), "
            f"{summary['mean_frame_ms']:.1f} ms/frame -> {snapshot}"
        )


@cli.command()
@click.argument("snapshot", type=click.Path())
@click.option("-o", "--out", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(list(bio.MESH_FORMATS)),
              default="ply_binary")
@click.option("--iso", type=float, default=0.0)
@click.option("--normals/--no-normals", default=False)
@click.option("--json", "as_json", is_flag=True)
def mesh(snapshot, out, fmt, iso, normals, as_json):
    """Extract the iso-surface mesh from a grid snapshot."""
    grid = bio.load_grid(snapshot)
    m = extract_mesh(grid, iso=iso)
    if normals:
        m = vertex_normals(m)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    bio.write_mesh(m, out, fmt)
    info = {"vertices": int(m.vertices.shape[0]),
            "triangles": int(m.triangles.shape[0]), "mesh": str(out)}
    if as_json:
        click.echo(json.dumps(info, indent=2))
    else:
        click.echo(f"{info['vertices']} vertices, {info['triangles']} triangles -> {out}")


@cli.command("eval")
@click.option("--pred", required=True, type=click.Path(), help="predicted mesh (PLY)")
@click.option("--gt", required=True, type=click.Path(), help="ground-truth points")
@click.option("--threshold", type=float, default=0.1)
@click.option("--samples", type=int, default=1_000_000)
@click.option("--seed", type=int, default=0)
@click.option("-o", "--out", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True)
def eval_cmd(pred, gt, threshold, samples, seed, out, as_json):
    """Evaluate a reconstructed mesh against ground-truth points."""
    check_sampling(samples, seed)
    check_threshold(threshold)
    mesh_pred = bio.read_mesh_ply(pred)
    gt_pts = bio.read_scan(gt).points
    pred_pts = sample_mesh(mesh_pred, samples, seed)
    report = evaluate(pred_pts, gt_pts, threshold)
    payload = report.to_json(seed=seed)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(payload)
    if as_json:
        click.echo(payload)
    else:
        click.echo(
            f"chamfer-L1 {report.chamfer_l1_m:.4f} m, "
            f"recall {report.recall_pct:.1f}%, f-score {report.fscore_pct:.1f}% "
            f"@ {threshold} m"
        )


@cli.command()
@click.argument("snapshot", type=click.Path())
@click.option("-o", "--out", required=True, type=click.Path())
@click.option("--include", type=click.Choice(bio.CSV_SELECTIONS), default="observed")
@click.option("--json", "as_json", is_flag=True)
def export(snapshot, out, include, as_json):
    """Export selected voxels of a snapshot as CSV."""
    grid = bio.load_grid(snapshot)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    n = bio.export_grid_csv(grid, out, include)
    if as_json:
        click.echo(json.dumps({"rows": n, "csv": str(out)}))
    else:
        click.echo(f"{n} rows -> {out}")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--voxel-sizes", default="0.3,0.2,0.1,0.05",
              help="comma-separated voxel edge lengths in meters")
@click.option("--repeats", type=int, default=3)
@click.option("-o", "--out", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True)
def bench(config_path, voxel_sizes, repeats, out, as_json):
    """Fuse the same scans at several resolutions and report frame latency."""
    try:
        sizes = [float(s) for s in voxel_sizes.split(",") if s.strip()]
    except ValueError:
        raise ConfigurationError(f"bad --voxel-sizes {voxel_sizes!r}") from None
    if not sizes:
        raise ConfigurationError("no voxel sizes given")
    if repeats < 1:
        raise ConfigurationError(f"--repeats must be at least 1, got {repeats}")
    if repeats < 2:
        click.echo("warning: fewer than 2 repeats, std is unreliable", err=True)
    cfgs = [load_config(config_path, voxel_size=size) for size in sizes]
    runs = [(cfg, *_check_run(cfg)) for cfg in cfgs]
    warn = functools.partial(click.echo, err=True)
    results = []
    for size, (cfg, header, bank, files) in zip(sizes, runs):
        frames = []
        for repeat in range(repeats):
            # Every repeat skips the same scans: warn about them once.
            grid, rows = _fuse_frames(cfg, header, bank, files,
                                      warn if repeat == 0 else lambda *_: None)
            if not rows:
                raise ConfigurationError(
                    f"voxel size {size}: no scan pairs with a trajectory record")
            frames.extend((r.elapsed_ms, r.prepare_ms, r.pass_ms) for r in rows)
            mem = memory_bytes(grid)
            del grid  # so the next repeat's grid is the only one allocated
        elapsed, prepare, pass_ms = np.array(frames).reshape(-1, 3).T
        results.append(
            {"voxel_size": size, "mean_ms": float(np.mean(elapsed)),
             "std_ms": float(np.std(elapsed)), "samples": len(elapsed),
             "memory_bytes": mem, "prepare_ms": float(np.mean(prepare)),
             "pass_ms": float(np.mean(pass_ms))}
        )
    means = [r["mean_ms"] for r in results]  # one per size, and sizes is not empty
    ratio = max(means) / min(means)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as f:
            f.write("voxel_size,mean_ms,std_ms,samples,memory_bytes,prepare_ms,"
                    "pass_ms\n")
            for r in results:
                f.write(
                    f"{r['voxel_size']},{r['mean_ms']:.3f},{r['std_ms']:.3f},"
                    f"{r['samples']},{r['memory_bytes']},{r['prepare_ms']:.3f},"
                    f"{r['pass_ms']:.3f}\n"
                )
    if as_json:
        click.echo(json.dumps({"results": results, "max_min_ratio": ratio}, indent=2))
    else:
        for r in results:
            click.echo(
                f"voxel {r['voxel_size']:>5} m: {r['mean_ms']:8.1f} ± "
                f"{r['std_ms']:.1f} ms/frame (prepare {r['prepare_ms']:.1f}, "
                f"pass {r['pass_ms']:.1f}), {r['memory_bytes']} bytes"
            )
        click.echo(f"max/min mean latency ratio: {ratio:.3f}")


@cli.command()
@click.argument("snapshot", type=click.Path())
@click.option("--json", "as_json", is_flag=True)
def info(snapshot, as_json):
    """Print snapshot header, occupancy summary and the first voxel fault
    (a mask that is not a low-bit run, a sign that disagrees with the hits,
    hits above h_max), if any; the exit code is 0 either way."""
    grid = bio.load_grid(snapshot)
    fault = voxel_fault(grid)
    observed = int(np.count_nonzero(observed_array(grid.mask, grid.hits)))
    occupied = int(np.count_nonzero(grid.sign == SIGN_OCCUPIED))
    payload = {
        "dims": list(grid.dims),
        "voxel_size": grid.voxel_size,
        "origin": [float(v) for v in grid.origin],
        "h_max": grid.h_max,
        "t_occ": grid.t_occ,
        "voxels": grid.num_voxels,
        "observed": observed,
        "occupied": occupied,
        "memory_bytes": memory_bytes(grid),
        "valid": fault is None,
        "fault": fault,
    }
    if as_json:
        click.echo(json.dumps(payload, indent=2))
    else:
        for k, v in payload.items():
            click.echo(f"{k}: {v}")


def main():
    try:
        cli(standalone_mode=False)
    except click.ClickException as e:
        e.show()
        sys.exit(e.exit_code)
    except click.Abort:
        sys.exit(130)
    except BitsdfError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(e.exit_code)


if __name__ == "__main__":
    main()
