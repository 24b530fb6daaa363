"""Every function, class and method in src/bitsdf is used by the program.

A definition counts as used when some code in src/bitsdf outside the
definition itself names it, as a plain name or as an attribute. Dunder
methods, the public API in ``bitsdf.__all__``, the click commands and
``main`` are used from outside; the names below are kept on purpose.
"""

import ast
from pathlib import Path

import bitsdf

SRC = Path(__file__).resolve().parents[1] / "src" / "bitsdf"

KEPT = {
    "integrate_point": "fuses one return; acceptance criterion 1 and the "
                       "integrator tests are stated on it",
    "write_pcd": "writes the PCD files that read_scan reads, for test data",
    "bin_index": "the scalar reference that bin_index_array is tested against",
    "build_shadow_mask": "one bin's shadow, the reference for the bank's "
                         "shadow table rows",
}
# The brute-force oracle is called only by tests, by design.
KEPT_MODULES = {"oracle"}


def _is_command(node) -> bool:
    """A function decorated as a click command or group."""
    for dec in getattr(node, "decorator_list", []):
        call = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(call, ast.Attribute) and call.attr in ("command", "group"):
            return True
    return False


def test_every_definition_is_used():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
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
            if (name.startswith("__") and name.endswith("__")) or name in exempt \
                    or _is_command(node):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not uses.get(name, set()) - inside:
                unused.append(f"{module}.{name} (line {node.lineno})")
    assert not unused, "defined but never used in src/bitsdf: " + ", ".join(unused)
