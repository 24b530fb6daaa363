"""Build and load the compiled library in ``_fuse.c``, and mirror the structs
of its grid entries: ``Grid``, filled by ``grid_view`` alone, and the one
argument of each entry, ``Frame``, ``Classify`` and ``Emit``, each around it.

The library has three users: fusion (``integrator``), which fuses each
frame with one call, meshing (``mesher``), which classifies the cells of
the grid and emits the mesh's triangles and vertices with it, and
evaluation (``metrics``), which finds every nearest-neighbour distance
with it, so that it imports no scipy.
The first of them in a process asks for the library. It is compiled with
the system C compiler (``cc`` with ``CFLAGS``) into the package's
``__pycache__/``, under a name holding the SHA-256 of the source and the
flags, so a library is built once per source and flags and a stale one is
never loaded. The file is written under a temporary name and renamed into
place, so a concurrent process sees either no library or a whole one. When
compiling or loading fails (no compiler, read-only install), one line goes
to stderr, fusion and meshing run their numpy code and evaluation scipy's
``cKDTree``, which give the same grids, meshes and reports.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .grid import VoxelGrid

SOURCE = Path(__file__).with_name("_fuse.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
CC = "cc"
# The flags the library is built with; the warnings test compiles with them.
# -ffp-contract=off keeps a * b + c two roundings, as numpy computes it,
# where the target has fused multiply-add.
CFLAGS = ("-O3", "-shared", "-fPIC", "-pthread", "-ffp-contract=off")

# The loaded Library: None until the first fusion, mesh or evaluation asks,
# False when it could not be built or loaded.
_lib = None


_P, _I64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


# The structs of _fuse.c, field for field, filled by name: a Grid, addresses
# of arrays that _fuse.c reads unchecked, int64 sizes and doubles.
class Grid(ctypes.Structure):
    _fields_ = [("mask", _P), ("hits", _P), ("sign", _P), ("nz", _I64),
                ("ny", _I64), ("nx", _I64), ("voxel_size", _F64),
                ("origin", _F64 * 3)]


class Frame(ctypes.Structure):
    _fields_ = [("grid", Grid), ("cuts", _P), ("bands", _I64), ("kernel", _P),
                ("k", _I64), ("cflat", _P), ("bins", _P), ("n", _I64),
                ("shadow", _P), ("ball", _P), ("m", _I64), ("h_max", _I64),
                ("t_occ", _I64), ("avx512", _I64)]


class Classify(ctypes.Structure):
    _fields_ = [("grid", Grid), ("z0", _I64), ("z1", _I64), ("a", _I64),
                ("b", _I64), ("quads", _P), ("out", _P)]


class Emit(ctypes.Structure):
    _fields_ = [("grid", Grid), ("cell", _P), ("code", _P), ("m", _I64),
                ("tri", _P), ("ntri", _P), ("edge", _P), ("iso", _F64),
                ("bits", _P), ("words", _I64), ("base", _P), ("triangles", _P),
                ("vertices", _P)]


def grid_view(grid: VoxelGrid) -> Grid:
    """``grid`` as ``struct grid``, which VoxelGrid has checked; the caller
    keeps ``grid`` alive while the library may use its arrays' addresses."""
    nx, ny, nz = grid.dims
    return Grid(mask=grid.mask.ctypes.data, hits=grid.hits.ctypes.data,
                sign=grid.sign.ctypes.data, nz=nz, ny=ny, nx=nx,
                voxel_size=grid.voxel_size, origin=tuple(grid.origin))


@dataclass(frozen=True)
class Library:
    """The entry points of the compiled library. For fusion: the frame entry
    ``fuse``, called with one ``Frame``, and the row stamp it runs in this
    process, ``path``, picked once when the library is loaded: "avx512"
    where the CPU has AVX-512F, else "portable"; both give the same grid.
    For meshing: ``classify_cells`` and ``emit_mesh``, called with one
    ``Classify`` and one ``Emit``. For evaluation: ``nearest``, called with
    the addresses and sizes that ``_fuse.c`` documents for
    ``bitsdf_nearest``."""

    fuse: Callable
    path: str
    classify_cells: Callable
    emit_mesh: Callable
    nearest: Callable


def build(source: Path, cache_dir: Path, cc: str) -> Path:
    """The shared library compiled from ``source`` with ``CFLAGS``, built
    into ``cache_dir`` unless a library of the same source and flags is
    already there."""
    text = source.read_bytes()
    key = hashlib.sha256(text)
    key.update("\0".join(CFLAGS).encode())
    lib = cache_dir / f"_fuse.{key.hexdigest()}.so"
    if lib.exists():
        return lib
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_fuse.", suffix=".tmp", dir=cache_dir)
    os.close(fd)
    try:
        # The bytes and flags that were hashed are those compiled with.
        subprocess.run(
            [cc, *CFLAGS, "-x", "c", "-o", tmp, "-"],
            input=text, capture_output=True, check=True,
        )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _bind(path: Path) -> Library:
    lib = ctypes.CDLL(str(path))
    # A struct passed to a grid entry is passed by reference.
    for entry, struct in (("bitsdf_fuse_frame", Frame),
                          ("bitsdf_classify_cells", Classify),
                          ("bitsdf_emit_mesh", Emit)):
        getattr(lib, entry).argtypes = [ctypes.POINTER(struct)]
        getattr(lib, entry).restype = _I64
    # bitsdf_has_avx512 exists where the compiler targets x86.
    avx512 = hasattr(lib, "bitsdf_has_avx512") and lib.bitsdf_has_avx512()
    lib.bitsdf_nearest.argtypes = [_P, _I64, _P, _I64, _P]
    lib.bitsdf_nearest.restype = _I64
    return Library(lib.bitsdf_fuse_frame, "avx512" if avx512 else "portable",
                   lib.bitsdf_classify_cells, lib.bitsdf_emit_mesh,
                   lib.bitsdf_nearest)


def library() -> Library | None:
    """The compiled library, or None when it is unavailable."""
    global _lib
    if _lib is None:
        try:
            _lib = _bind(build(SOURCE, CACHE_DIR, CC))
        except (OSError, subprocess.CalledProcessError) as e:
            detail = e.stderr.decode(errors="replace") if getattr(e, "stderr", None) else str(e)
            first = (detail.strip().splitlines() or [type(e).__name__])[0]
            print(
                f"warning: cannot build the compiled library ({first}); "
                "fusing and meshing with numpy and evaluating with scipy, "
                "which give the same grids, meshes and reports more slowly",
                file=sys.stderr,
            )
            _lib = False
    return _lib or None
