"""Show that every benchmark check rejects a deliberately wrong output.

Run from the repository root:

    python3 perfbench/selftest.py

It fuses a small seeded scene through the same stages as run.py, confirms
that the untouched outputs pass every check, then breaks one output at a
time and confirms that the checks reject it. Exits 1 if the untouched
outputs fail or a broken one passes.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402
import scene  # noqa: E402

SEED = 11
SMALL = run.Workload(
    scene.SceneSpec(poses=2, returns_per_sweep=4_000, gt_points=5_000),
    voxel_size=0.2, threads=1, t_occ=2, samples=20_000, threshold=0.3,
    include="observed", normals=True)
H_MAX = 100  # below the uint8 ceiling, so hits can be pushed past it


def _both_grids(fn):
    """Apply the same corruption to the fused grid and the loaded snapshot,
    so the round-trip check passes and a later check must catch it."""
    def mutate(out):
        fn(out.grid)
        fn(out.loaded)
    return mutate


def _first_observed(grid):
    obs = np.argwhere(grid.mask != np.uint32(0xFFFFFFFF))
    return tuple(obs[0])


def _flip_mask_bit(out):
    v = _first_observed(out.loaded)
    out.loaded.mask[v] ^= np.uint32(1 << 20)


def _break_run(grid):
    grid.mask[_first_observed(grid)] = np.uint32(0b101)


def _flip_sign(grid):
    v = _first_observed(grid)
    grid.sign[v] ^= np.uint8(1)


def _extra_discard(out):
    out.frames[0].points_discarded += 1


def _move_vertex(out):
    out.mesh.vertices[0] = (5.0, 5.0, 1.5)  # the room center


def _perturb_recall(out):
    out.report.recall_pct += 1e-6


def _perturb_accuracy(out):
    out.report.accuracy_m += 1e-8


def _drop_csv_row(out):
    lines = out.csv_path.read_bytes().split(b"\n")
    del lines[len(lines) // 2]
    out.csv_path.write_bytes(b"\n".join(lines))


def main() -> int:
    root = Path.cwd()
    program = run.import_program(root)
    base = root / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    try:
        return selftest(work, program)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def selftest(work: Path, program) -> int:
    scn = scene.generate(SMALL.scene, SEED)
    config = SMALL.config()
    config["integration"]["h_max"] = H_MAX
    cfg_path = scene.write_inputs(scn, work, config)
    bench = run.Bench(SMALL, work, cfg_path, program)
    out = bench.round()
    run.check_round(bench, scn, out, SEED)
    d = checks.surface_distance(out.mesh.vertices, scene.ROOM_LO, scene.ROOM_HI)
    print(f"untouched outputs pass; farthest mesh vertex "
          f"{d.max() / SMALL.voxel_size:.2f} voxels from the room surface")

    grid, r = out.grid, out.cfg.kernel.size // 2
    _, _, centers = run.fusion_reference(scn, grid, r)
    voxels = run.distance_sample(grid, centers, SEED, r)
    near = [tuple(v) for v in voxels if 0 < np.bitwise_count(grid.mask[tuple(v)]) < 32]

    def _shorten_sampled_distance(g):
        g.mask[near[0]] >>= np.uint32(1)  # still a run, one cell shorter

    def _hits_over_cap(g):
        v = _first_observed(g)
        g.hits[v] = H_MAX + 1
        g.sign[v] = 0

    mutations = [
        ("snapshot with one mask bit flipped", _flip_mask_bit),
        ("mask that is not a low-bit run", _both_grids(_break_run)),
        ("sign that disagrees with hits >= t_occ", _both_grids(_flip_sign)),
        ("hit count above h_max", _both_grids(_hits_over_cap)),
        ("one sampled distance one cell short", _both_grids(_shorten_sampled_distance)),
        ("one extra discarded return", _extra_discard),
        ("mesh vertex moved to the room center", _move_vertex),
        ("recall perturbed by 1e-6", _perturb_recall),
        ("accuracy off by 1e-8 m", _perturb_accuracy),
        ("CSV with one row dropped", _drop_csv_row),
    ]
    missed = 0
    for label, mutate in mutations:
        bad = copy.deepcopy(out)
        csv_copy = work / "voxels-broken.csv"
        shutil.copyfile(out.csv_path, csv_copy)
        bad.csv_path = csv_copy
        mutate(bad)
        missed += _expect_rejected(label, lambda: run.check_round(bench, scn, bad, SEED))

    # Checks that take the benchmark's own intermediate results.
    d_gt = checks.nn_distances(out.gt, out.pred)
    d_gt[3] += 1e-6
    missed += _expect_rejected(
        "NN distance off by 1e-6 against brute force",
        lambda: checks.check_nn_sample(d_gt, out.gt, out.pred, [3]))
    lines = out.csv_path.read_bytes().split(b"\n")
    fields = lines[5].split(b",")
    fields[4] = str(int(fields[4]) + 1).encode()
    lines[5] = b",".join(fields)
    csv_copy = work / "voxels-broken.csv"
    csv_copy.write_bytes(b"\n".join(lines))
    missed += _expect_rejected(
        "CSV row with its hit count changed",
        lambda: checks.check_csv(csv_copy, out.loaded, SMALL.include, [4]))

    print("all checks reject their broken output" if not missed
          else f"{missed} broken outputs passed")
    return 1 if missed else 0


def _expect_rejected(label, check) -> int:
    try:
        check()
    except checks.CheckFailed as e:
        print(f"rejects {label}: {e}")
        return 0
    print(f"MISSED {label}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
