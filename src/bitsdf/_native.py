"""Build and load the compiled fusion pass in ``_fuse.c``.

The first fusion in a process asks for the library. It is compiled with the
system C compiler (``cc -O3 -shared -fPIC``) into the package's
``__pycache__/``, under a name holding the SHA-256 of the source, so a
library is built once per source and a stale one is never loaded. The file is
written under a temporary name and renamed into place, so a concurrent
process sees either no library or a whole one. When compiling or loading
fails (no compiler, read-only install), one line goes to stderr and fusion
runs its numpy code, which gives the same grid.
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

import numpy as np

SOURCE = Path(__file__).with_name("_fuse.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
CC = "cc"

# The loaded Library: None until the first fusion asks, False when it could
# not be built or loaded.
_lib = None


@dataclass(frozen=True)
class Library:
    """The entry points of the compiled pass, picked once per process when
    the library is loaded. ``fuse`` stamps rows with AVX-512F where the CPU
    has it and ``fuse_portable`` never does; they take the same arguments
    and give the same grid. ``path`` names the stamp that ``fuse`` runs
    here: "avx512" or "portable"."""

    fuse: Callable
    fuse_portable: Callable
    path: str


def build(source: Path, cache_dir: Path, cc: str) -> Path:
    """The shared library compiled from ``source``, built into ``cache_dir``
    unless a library of the same source hash is already there."""
    text = source.read_bytes()
    lib = cache_dir / f"_fuse.{hashlib.sha256(text).hexdigest()}.so"
    if lib.exists():
        return lib
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_fuse.", suffix=".tmp", dir=cache_dir)
    os.close(fd)
    try:
        # The bytes that were hashed are the bytes compiled.
        subprocess.run(
            [cc, "-O3", "-shared", "-fPIC", "-x", "c", "-o", tmp, "-"],
            input=text, capture_output=True, check=True,
        )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _bind(path: Path) -> Library:
    lib = ctypes.CDLL(str(path))

    def array(dtype, writeable=False):
        flags = ("C_CONTIGUOUS", "WRITEABLE") if writeable else "C_CONTIGUOUS"
        return np.ctypeslib.ndpointer(dtype, flags=flags)

    i64 = ctypes.c_int64
    argtypes = [
        array(np.uint32, True),  # mask
        array(np.uint8, True),  # hits
        array(np.uint8, True),  # sign
        array(np.uint64, True),  # seen: one plane's changed-voxel bitmap
        array(np.int64),  # dims
        i64,  # first plane of the band
        i64,  # end of the band
        array(np.uint32),  # distance kernel (K, K, K)
        i64,  # K
        array(np.int64),  # center flat indices
        array(np.int64),  # bins
        i64,  # returns
        array(np.bool_),  # shadow table (bins, m)
        array(np.int64),  # ball flat offsets (m,)
        i64,  # m
        i64,  # h_max
        i64,  # t_occ
    ]
    # The AVX-512F entry point exists where the compiler targets x86; it is
    # bound only when this CPU runs it.
    fuse, path = lib.bitsdf_fuse_portable, "portable"
    if hasattr(lib, "bitsdf_has_avx512") and lib.bitsdf_has_avx512():
        fuse, path = lib.bitsdf_fuse_avx512, "avx512"
    for fn in (fuse, lib.bitsdf_fuse_portable):
        fn.argtypes = argtypes
        fn.restype = i64
    return Library(fuse, lib.bitsdf_fuse_portable, path)


def library() -> Library | None:
    """The compiled pass, or None when it is unavailable."""
    global _lib
    if _lib is None:
        try:
            _lib = _bind(build(SOURCE, CACHE_DIR, CC))
        except (OSError, subprocess.CalledProcessError) as e:
            detail = e.stderr.decode(errors="replace") if getattr(e, "stderr", None) else str(e)
            first = (detail.strip().splitlines() or [type(e).__name__])[0]
            print(
                f"warning: cannot build the compiled fusion pass ({first}); "
                "fusing with numpy, which gives the same grid more slowly",
                file=sys.stderr,
            )
            _lib = False
    return _lib or None
