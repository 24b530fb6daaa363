"""Benchmark for fuse -> mesh -> eval -> export on seeded box-room LiDAR.

Run from the repository root:

    python3 perfbench/run.py --workload walk-fine --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the current directory. The run
generates its inputs from the seed, then repeats whole rounds of the four
stages in a closed loop (each stage runs once and starts when the previous
one ends) while the next round is expected to end within ``--seconds``; at
least two rounds run. The first round warms up and gives the peak RSS, and
its outputs are checked against computations made here (see checks.py);
later rounds must reproduce them byte for byte and give the timings. Each
stage call is timed together with a fixed calibration workload before and
after it, and a timing is the median over calls of the call's seconds over
the calibration's host factor (see Calibration).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics, taken from rounds with spans around the program's public functions,
alternated with untraced rounds to give the tracing overhead. The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import scene  # noqa: E402
import spans  # noqa: E402
from scene import SceneSpec  # noqa: E402

SETUP_SAMPLES = 5  # setup_s is the median of at least this many set-ups
CHECK_VOXELS = 4000  # voxels whose distance is recomputed
CHECK_BRUTE_QUERIES = 32  # NN queries per direction checked by brute force
CHECK_CSV_ROWS = 400
MESH_TOL_VOXELS = 2.0  # vertices lie this close to the room surface
EVAL_SEED = 0  # `bitsdf eval --seed` default

TRACED_MODULES = ("io", "kernels", "grid", "integrator", "mesher", "metrics", "cli")
# Timed in every run: each scan read cuts the fuse stage, and frame times
# give point_us.
FUSE_SPANS = frozenset({"io.read_scan", "integrator.integrate_frame"})


@dataclass(frozen=True)
class Workload:
    scene: SceneSpec
    voxel_size: float
    threads: int
    t_occ: int
    samples: int  # surface samples drawn by eval
    threshold: float  # meters, F-score threshold
    include: str  # export selection
    normals: bool  # `bitsdf mesh --normals`

    def config(self) -> dict:
        return {
            "grid": {"voxel_size": self.voxel_size},
            "integration": {"t_occ": self.t_occ},
            "threads": min(self.threads, os.cpu_count() or 1),
        }


WALK = SceneSpec(poses=8, returns_per_sweep=6_000, gt_points=10_000)
WORKLOADS = {
    "walk-fine": Workload(WALK, 0.05, 2, 2, 30_000, 0.1, "occupied_only", False),
    "walk-coarse": Workload(WALK, 0.2, 1, 2, 30_000, 0.3, "occupied_only", False),
    "sparse-eval": Workload(
        SceneSpec(poses=2, returns_per_sweep=8_000, gt_points=8_000),
        0.2, 2, 1, 100_000, 0.1, "observed", True),
}

END_TO_END_UNITS = {
    "setup_s": "s", "fuse_kpts_per_s": "kpts/s", "point_us": "us",
    "mesh_s": "s", "eval_s": "s", "export_s": "s", "peak_rss_mib": "MiB",
    "chamfer_l1_mm": "mm", "fscore_pct": "%",
}


def import_program(root: Path):
    src = root / "src"
    if not (src / "bitsdf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'bitsdf'} not found; run from the "
                         "repository root")
    sys.path.insert(0, str(src))
    import bitsdf
    from bitsdf import cli, config, mesher, metrics
    from bitsdf import io as bio

    if Path(bitsdf.__file__).resolve().parent != (src / "bitsdf").resolve():
        raise SystemExit(f"perfbench: imported bitsdf from {bitsdf.__file__}, "
                         f"not from {src}")
    return cli, config, bio, mesher, metrics


@dataclass
class Frame:
    """One row of run_fuse's frame statistics."""

    points_in: int
    points_discarded: int
    voxels_written: int


@dataclass
class Samples:
    """Per-call times and counts gathered over a run. Every time is a pair
    (seconds, host factor measured around the call); see Calibration."""

    setup_s: list = field(default_factory=list)
    # Per fuse call: first scan read to the return of run_fuse, and the
    # median over frames of integrate_frame seconds per applied return.
    fuse_s: list = field(default_factory=list)
    point_s: list = field(default_factory=list)
    mesh_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    export_s: list = field(default_factory=list)
    applied: int = 0  # returns applied per fuse call, the same every call
    attempted: int = 0
    failed: int = 0

    def clear_times(self):
        for times in (self.setup_s, self.fuse_s, self.point_s, self.mesh_s,
                      self.eval_s, self.export_s):
            times.clear()


@dataclass
class Outputs:
    """What one round produced, for checking."""

    cfg: object = None
    grid: object = None
    frames: list = None
    warnings: list = None
    snapshot: Path = None
    loaded: object = None
    mesh: object = None
    mesh_path: Path = None
    pred: np.ndarray = None
    gt: np.ndarray = None
    report: object = None
    report_json: str = None
    csv_path: Path = None
    csv_rows: int = 0


# Reported seconds are those of a host on which Calibration() takes this long.
CALIBRATION_REF_S = 0.040
STREAM_FLOATS = 4_000_000  # 32 MB, larger than the last-level cache


class Calibration:
    """Host factor: the seconds of a fixed piece of work over
    CALIBRATION_REF_S. The work mixes what the program's stages do: a
    pure-Python loop, numpy passes over a few MB, and, once ``stream`` was
    called, passes over a 32 MB buffer that go to memory. It is benchmark
    code, so a change to the program does not move it; other tenants' load
    on the host's cores and memory does."""

    def __init__(self):
        self.buffer = None

    def stream(self):
        self.buffer = np.zeros(STREAM_FLOATS)

    def __call__(self) -> float:
        t = time.perf_counter()
        acc = 0
        for i in range(250_000):
            acc += i * i
        a = np.random.default_rng(0).random(500_000)
        for _ in range(3):
            np.sort(a)
            np.cumsum(a * 2.0 + 1.0)
        if self.buffer is not None:
            for _ in range(2):
                np.add(self.buffer, 1.0, out=self.buffer)
            float(self.buffer.sum())
        return (time.perf_counter() - t) / CALIBRATION_REF_S


class Bench:
    def __init__(self, wl: Workload, work: Path, cfg_path: Path, program,
                 modules=TRACED_MODULES):
        self.wl, self.work, self.cfg_path = wl, work, cfg_path
        self.cli, self.config, self.bio, self.mesher, self.metrics = program
        self.tracer = spans.Tracer("bitsdf", modules, always=FUSE_SPANS)
        self.samples = Samples()
        self.calibration = Calibration()

    # -- stages: the calls behind `bitsdf fuse`, `mesh`, `eval`, `export` ----

    def fuse(self, out: Outputs) -> tuple:
        """Returns the call's set-up seconds, fuse seconds and seconds per
        applied return."""
        mark = len(self.tracer.spans)
        t0 = time.perf_counter()
        cfg = self.config.load_config(self.cfg_path)
        warnings = []
        grid, rows, snapshot = self.cli.run_fuse(cfg, echo=warnings.append)
        end = time.perf_counter()
        recorded = self.tracer.spans[mark:]
        first_read = next(x.start for x in recorded if x.name == "io.read_scan")
        frames = [Frame(*row[1:4]) for row in rows]
        frame_s = np.array([x.seconds for x in recorded
                            if x.name == "integrator.integrate_frame"])
        applied = np.array([f.points_in - f.points_discarded for f in frames])
        s = self.samples
        s.applied = int(applied.sum())
        s.attempted += sum(f.points_in for f in frames)
        s.failed += sum(f.points_discarded for f in frames)
        out.cfg, out.grid, out.snapshot = cfg, grid, snapshot
        out.frames = frames
        out.warnings = warnings
        point_s = float(np.median(frame_s[applied > 0] / applied[applied > 0]))
        return first_read - t0, end - first_read, point_s

    def mesh(self, out: Outputs):
        bio = self.bio
        grid = bio.load_grid(out.snapshot)
        m = self.mesher.extract_mesh(grid)
        if self.wl.normals:
            m = self.mesher.vertex_normals(m)
        out.mesh_path = self.work / "mesh.ply"
        bio.write_mesh(m, out.mesh_path, "ply_binary")
        out.loaded, out.mesh = grid, m

    def eval(self, out: Outputs):
        bio, metrics = self.bio, self.metrics
        mesh = bio.read_mesh_ply(out.mesh_path)
        gt = bio.read_scan(self.work / "gt_points.pcd").points
        pred = metrics.sample_mesh(mesh, self.wl.samples, EVAL_SEED)
        report = metrics.evaluate(pred, gt, self.wl.threshold)
        out.report_json = report.to_json(seed=EVAL_SEED)
        (self.work / "report.json").write_text(out.report_json)
        out.pred, out.gt, out.report = pred, gt, report

    def export(self, out: Outputs):
        grid = self.bio.load_grid(out.snapshot)
        out.csv_path = self.work / "voxels.csv"
        out.csv_rows = self.bio.export_grid_csv(grid, out.csv_path, self.wl.include)

    # -- rounds --------------------------------------------------------------

    def setup_probe(self):
        """One set-up, stopped at run_fuse's first scan read."""
        before = self.calibration()
        self.tracer.halt_at = "io.read_scan"
        t0 = time.perf_counter()
        try:
            self.cli.run_fuse(self.config.load_config(self.cfg_path),
                              echo=lambda *_: None)
        except spans.Halt:
            seconds = self.tracer.spans[-1].start - t0
        finally:
            self.tracer.halt_at = None
        self.samples.setup_s.append((seconds, (before + self.calibration()) / 2))
        gc.collect()  # the stopped run_fuse frame holds a grid in a cycle

    def round(self) -> Outputs:
        """Each stage once, in order, with a calibration before the first
        stage and after every stage; a call's host factor is the mean of
        the two around it."""
        out = Outputs()
        s = self.samples
        before = self.calibration()
        setup, fuse, point = self.fuse(out)
        after = self.calibration()
        factor = (before + after) / 2
        s.setup_s.append((setup, factor))
        s.fuse_s.append((fuse, factor))
        s.point_s.append((point, factor))
        for stage, key in ((self.mesh, "mesh_s"), (self.eval, "eval_s"),
                           (self.export, "export_s")):
            before = after
            t = time.perf_counter()
            stage(out)
            seconds = time.perf_counter() - t
            after = self.calibration()
            getattr(s, key).append((seconds, (before + after) / 2))
        return out


# ---------------------------------------------------------------------------
# checks


def fusion_reference(scn, grid, r):
    """Per frame, by the documented rule: the discard count and the
    (discarded, on a bounds_max face) masks; and all applied centers."""
    max_face = np.array([side == 1 for _, side in scene.FACES])
    expected, faces, centers = [], [], []
    for i, sweep in enumerate(scn.sweeps):
        c, applied = checks.applied_centers(scn.map_points(i), sweep.sensor, grid.dims,
                                            grid.voxel_size, grid.origin, r)
        expected.append(int(np.count_nonzero(~applied)))
        faces.append((~applied, max_face[sweep.face]))
        centers.append(c[applied])
    return expected, faces, np.concatenate(centers)


def distance_sample(grid, centers, seed, r):
    """The voxels whose distance check_round recomputes."""
    rng = np.random.default_rng([seed, 7])
    return checks.sample_voxels(grid.dims, centers, CHECK_VOXELS, rng, r)


def check_round(bench: Bench, scn, out: Outputs, seed: int):
    wl, cfg = bench.wl, out.cfg
    rng = np.random.default_rng([seed, 8])
    grid = out.grid
    r = cfg.kernel.size // 2
    _fail = checks.CheckFailed
    if out.warnings:
        raise _fail(f"run_fuse warned: {out.warnings[0]}")

    # fusion: discards by the documented rule, then distances
    expected, faces, centers = fusion_reference(scn, grid, r)
    if len(out.frames) != len(scn.sweeps):
        raise _fail(f"fused {len(out.frames)} frames of {len(scn.sweeps)}")
    for st, sweep in zip(out.frames, scn.sweeps):
        if st.points_in != len(sweep.face):
            raise _fail(f"frame offered {st.points_in} returns, sweep has "
                        f"{len(sweep.face)}")
    checks.check_discards(expected, [st.points_discarded for st in out.frames], faces)
    checks.check_roundtrip(grid, out.loaded)
    checks.check_invariants(grid, cfg.integration.t_occ, cfg.integration.h_max)
    voxels = distance_sample(grid, centers, seed, r)
    checks.check_popcounts(grid, voxels,
                           checks.expected_popcounts(grid.dims, centers, voxels, r))

    # mesh
    checks.check_mesh_near_surface(out.mesh, scene.ROOM_LO, scene.ROOM_HI,
                                   grid.voxel_size, MESH_TOL_VOXELS)
    if not np.array_equal(np.asarray(out.gt), scn.gt):
        raise _fail("ground truth read back differs from the generated points")

    # evaluation
    d_pred = checks.nn_distances(out.pred, out.gt)
    d_gt = checks.nn_distances(out.gt, out.pred)
    checks.check_nn_sample(d_pred, out.pred, out.gt,
                           rng.choice(len(out.pred), CHECK_BRUTE_QUERIES, replace=False))
    checks.check_nn_sample(d_gt, out.gt, out.pred,
                           rng.choice(len(out.gt), CHECK_BRUTE_QUERIES, replace=False))
    checks.check_report(out.report, checks.eval_figures(d_pred, d_gt, wl.threshold),
                        len(out.pred), len(out.gt))

    # export
    n = out.csv_rows
    rows = rng.choice(n, min(n, CHECK_CSV_ROWS), replace=False) if n else []
    checks.check_csv(out.csv_path, out.loaded, wl.include, rows)


def digest(out: Outputs) -> tuple:
    def sha(path):
        h = hashlib.sha256()
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        return h.hexdigest()

    return (sha(out.snapshot), sha(out.mesh_path), out.report_json, sha(out.csv_path))


# ---------------------------------------------------------------------------
# metrics


def corrected(pairs) -> float:
    """Median over calls of seconds divided by the host factor around the
    call: seconds on the reference host."""
    return statistics.median(seconds / factor for seconds, factor in pairs)


def end_to_end(s: Samples, first: Outputs, peak_rss_mib: float) -> dict:
    """Every timing is a median over the run's calls, each call's time
    divided by the host factor measured around it (see Calibration and the
    README): on the shared 2-vCPU host these figures come from, other
    tenants' load slowed the same work by up to about 3x, in phases lasting
    seconds to minutes, and a plain median or minimum followed those
    phases."""
    return {
        "setup_s": corrected(s.setup_s),
        "fuse_kpts_per_s": s.applied / corrected(s.fuse_s) / 1e3,
        "point_us": 1e6 * corrected(s.point_s),
        "mesh_s": corrected(s.mesh_s),
        "eval_s": corrected(s.eval_s),
        "export_s": corrected(s.export_s),
        "peak_rss_mib": peak_rss_mib,
        "chamfer_l1_mm": first.report.chamfer_l1_m * 1e3,
        "fscore_pct": first.report.fscore_pct,
    }


def per_layer(recorded, out: Outputs) -> dict:
    total = functools.partial(spans.total_seconds, recorded)
    peak = functools.partial(spans.peak_mib, recorded)
    nn = functools.partial(spans.nth_child_seconds, recorded, "metrics.evaluate",
                           "metrics.nn_distances")
    applied = sum(st.points_in - st.points_discarded for st in out.frames)
    k3 = out.cfg.kernel.size ** 3
    return {
        "kernels.build_kernel_bank_s": total("kernels.build_kernel_bank"),
        "grid.new_grid_s": total("grid.new_grid", direct_child_of="cli.run_fuse"),
        "io.read_trajectory_s": total("io.read_trajectory"),
        "io.read_scan_s": total("io.read_scan", under="cli.run_fuse"),
        "io.lookup_pose_s": total("io.lookup_pose"),
        "cli.run_fuse_self_s": spans.self_seconds(recorded, "cli.run_fuse"),
        "integrator.integrate_frame_s": total("integrator.integrate_frame", unwatched=True),
        "integrator.points_in": sum(st.points_in for st in out.frames),
        "integrator.points_discarded": sum(st.points_discarded for st in out.frames),
        "integrator.voxels_written": sum(st.voxels_written for st in out.frames),
        "integrator.mask_words_computed": applied * k3,
        "integrator.peak_mib": peak("integrator.integrate_frame"),
        "io.save_grid_s": total("io.save_grid"),
        "io.save_grid_peak_mib": peak("io.save_grid"),
        "io.load_grid_s": total("io.load_grid"),
        "io.load_grid_peak_mib": peak("io.load_grid"),
        "mesher.extract_mesh_s": total("mesher.extract_mesh"),
        "mesher.extract_mesh_peak_mib": peak("mesher.extract_mesh"),
        "mesher.triangles": int(out.mesh.triangles.shape[0]),
        "mesher.vertex_normals_s": total("mesher.vertex_normals"),
        "io.write_mesh_s": total("io.write_mesh"),
        "io.read_mesh_ply_s": total("io.read_mesh_ply"),
        "metrics.sample_mesh_s": total("metrics.sample_mesh"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.nn_pred_to_gt_s": nn(0),
        "metrics.nn_gt_to_pred_s": nn(1),
        "metrics.queries": int(out.report.n_pred + out.report.n_gt),
        "io.export_grid_csv_s": total("io.export_grid_csv"),
        "io.export_rows": int(out.csv_rows),
    }


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mib", "MiB"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    program = import_program(root)
    wl = WORKLOADS[args.workload]
    base = root / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        return run(args, wl, work, program)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run(args, wl: Workload, work: Path, program) -> int:
    scn = scene.generate(wl.scene, args.seed)
    cfg_path = scene.write_inputs(scn, work, wl.config())
    # Untraced runs wrap only the modules of FUSE_SPANS.
    modules = TRACED_MODULES if args.trace else ("io", "integrator")
    bench = Bench(wl, work, cfg_path, program, modules)

    start = time.perf_counter()
    first = None
    reference = None
    correct, problem = True, None
    peak_rss = None
    walls = {False: [], True: []}  # traced? -> round wall times
    layer_rounds = []
    n = 0
    while True:
        traced = bool(args.trace) and n % 2 == 1
        bench.tracer.take()
        bench.tracer.active = traced
        t = time.perf_counter()
        out = bench.round()
        wall = time.perf_counter() - t
        walls[traced].append(wall)
        bench.tracer.active = False
        recorded = bench.tracer.take()
        if traced:
            layer_rounds.append(per_layer(recorded, out))
        log(f"round {n + 1}{' traced' if traced else ''}: {wall:.2f} s")
        if first is None:
            first = out
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            t = time.perf_counter()
            try:
                check_round(bench, scn, out, args.seed)
            except checks.CheckFailed as e:
                correct, problem = False, str(e)
            d = checks.surface_distance(out.mesh.vertices, scene.ROOM_LO, scene.ROOM_HI)
            log(f"farthest mesh vertex: {d.max() / wl.voxel_size:.3f} voxels")
            log(f"checks: {'pass' if correct else 'FAIL: ' + problem} "
                f"({time.perf_counter() - t:.2f} s)")
            reference = digest(out)
            # The first round warms up; timing starts with the second, with
            # the calibration's memory passes on.
            bench.samples.clear_times()
            bench.calibration.stream()
            start += time.perf_counter() - t  # checking is not measured time
        elif digest(out) != reference:
            correct, problem = False, f"round {n + 1} outputs differ from round 1"
            log(problem)
        n += 1
        elapsed = time.perf_counter() - start
        more = not layer_rounds if args.trace else n < 2
        if not more and elapsed + wall > args.seconds:
            break
        del out

    while len(bench.samples.setup_s) < SETUP_SAMPLES:
        bench.setup_probe()
    s = bench.samples
    if args.trace:
        metrics = {k: statistics.median(r[k] for r in layer_rounds)
                   for k in layer_rounds[0]}
        untraced = statistics.median(walls[False])
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - untraced
        metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / untraced
        result = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        values = end_to_end(s, first, peak_rss)
        result = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for k, v in result.items():
        print(f"{k:34s} {v['value']:.6g} {v['unit']}")
    if problem:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": correct, "attempted": s.attempted,
                      "failed": s.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
