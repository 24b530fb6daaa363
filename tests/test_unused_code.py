"""Every function, class, method, module-level constant and dataclass
field in src/bitsdf is used by the program.

A definition counts as used when some code in src/bitsdf outside the
definition itself names it, as a plain name or as an attribute; a constant,
when some code there reads it; a dataclass field, when some code there reads
it as an attribute. Dunder methods and names, the public API in
``bitsdf.__all__``, the click commands and ``main`` are used from outside;
the names below are kept on purpose.

The compiled library exports only the entries that ``_native`` binds, so
-Wunused-function, which sees only static functions, sees every other C
function.
"""

import ast
import ctypes
import shutil
import subprocess
from pathlib import Path

import pytest

import bitsdf
from bitsdf import _native

SRC = Path(__file__).resolve().parents[1] / "src" / "bitsdf"

KEPT = {
    "integrate_point": "fuses one return; acceptance criterion 1 and the "
                       "integrator tests are stated on it",
    "write_pcd": "writes the PCD files that read_scan reads, for test data",
    "bin_index": "the scalar reference that bin_index_array is tested against",
}
# The brute-force oracle is called only by tests, by design.
KEPT_MODULES = {"oracle"}
# Dataclasses whose fields are all written out by astuple or asdict.
WRITTEN_WHOLE = {"FrameStats", "MetricsReport"}


def _decorators(node) -> list:
    """The decorators of ``node``, each without its call's arguments."""
    return [d.func if isinstance(d, ast.Call) else d
            for d in getattr(node, "decorator_list", [])]


def _is_command(node) -> bool:
    """A function decorated as a click command or group."""
    return any(isinstance(d, ast.Attribute) and d.attr in ("command", "group")
               for d in _decorators(node))


def _is_dataclass(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in _decorators(node))


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _is_dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_used():
    trees = _trees()
    # Where each name is referenced: the ids of the Name/Attribute nodes.
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(id(node))
    exempt = set(bitsdf.__all__) | set(KEPT) | {"main"}
    unused = []
    for module, tree in trees.items():
        if module in KEPT_MODULES:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if _is_dunder(name) or name in exempt or _is_command(node):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not uses.get(name, set()) - inside:
                unused.append(f"{module}.{name} (line {node.lineno})")
    assert not unused, "defined but never used in src/bitsdf: " + ", ".join(unused)


def test_every_constant_is_read():
    trees = _trees()
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and not _is_dunder(name.id)
                            and name.id not in reads):
                        unread.append(f"{module}.{name.id} (line {node.lineno})")
    assert not unread, "constants never read in src/bitsdf: " + ", ".join(unread)


def test_every_dataclass_field_is_read():
    trees = _trees()
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (not isinstance(node, ast.ClassDef) or not _is_dataclass(node)
                    or node.name in WRITTEN_WHOLE):
                continue
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and item.target.id not in reads):
                    unread.append(f"{module}.{node.name}.{item.target.id} "
                                  f"(line {item.lineno})")
    assert not unread, "dataclass fields never read in src/bitsdf: " + ", ".join(unread)


def test_library_exports_only_bound_entries(monkeypatch):
    nm = shutil.which("nm")
    if nm is None or shutil.which(_native.CC) is None:
        pytest.skip("no nm or no C compiler")
    path = _native.build(_native.SOURCE, _native.CACHE_DIR, _native.CC)
    # The names _bind looks up in the library, read through a recording
    # wrapper around it.
    bound = set()
    real = ctypes.CDLL

    class Recording:
        def __init__(self, name):
            self.lib = real(name)

        def __getattr__(self, name):
            bound.add(name)
            return getattr(self.lib, name)

    monkeypatch.setattr(ctypes, "CDLL", Recording)
    _native._bind(path)
    listed = subprocess.run([nm, "-D", "--defined-only", str(path)],
                            capture_output=True, text=True, check=True).stdout
    exported = {line.split()[2] for line in listed.splitlines()
                if line.split()[1:2] == ["T"]}
    assert exported == bound
