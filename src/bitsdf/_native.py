"""Build and load the compiled fusion pass in ``_fuse.c``, and mirror its
one argument, ``struct frame``, as ``Frame``.

The first fusion in a process asks for the library. It is compiled with the
system C compiler (``cc`` with ``CFLAGS``) into the package's
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

SOURCE = Path(__file__).with_name("_fuse.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
CC = "cc"
# The flags the library is built with; the warnings test compiles with them.
CFLAGS = ("-O3", "-shared", "-fPIC", "-pthread")

# The loaded Library: None until the first fusion asks, False when it could
# not be built or loaded.
_lib = None


_P, _I64 = ctypes.c_void_p, ctypes.c_int64


class Frame(ctypes.Structure):
    """``struct frame`` of ``_fuse.c``, field for field, filled by name: the
    addresses of arrays of the dtypes, shapes and order ``_fuse.c`` reads
    (unchecked) and int64 sizes."""

    _fields_ = [("mask", _P), ("hits", _P), ("sign", _P), ("nz", _I64),
                ("ny", _I64), ("nx", _I64), ("cuts", _P), ("bands", _I64),
                ("kernel", _P), ("k", _I64), ("cflat", _P), ("bins", _P),
                ("n", _I64), ("shadow", _P), ("ball", _P), ("m", _I64),
                ("h_max", _I64), ("t_occ", _I64), ("avx512", _I64)]


@dataclass(frozen=True)
class Library:
    """The frame entry point of the compiled pass, ``fuse``, called with one
    ``Frame``, and the row stamp it runs in this process, picked once when
    the library is loaded: "avx512" where the CPU has AVX-512F, else
    "portable". Both give the same grid."""

    fuse: Callable
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
    # A Frame passed to it is passed by reference.
    lib.bitsdf_fuse_frame.argtypes = [ctypes.POINTER(Frame)]
    lib.bitsdf_fuse_frame.restype = _I64
    # bitsdf_has_avx512 exists where the compiler targets x86.
    avx512 = hasattr(lib, "bitsdf_has_avx512") and lib.bitsdf_has_avx512()
    return Library(lib.bitsdf_fuse_frame, "avx512" if avx512 else "portable")


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
