"""The locks the simulator builds, found in its source.

Each lock brings an order rule that concurrent code must keep, so the
inventory is pinned: a lock added anywhere in ``src/artifact`` fails this
test until it is listed here, with the rules it brings.
"""

from __future__ import annotations

import ast
from pathlib import Path

import artifact

SOURCE = Path(artifact.__file__).parent
LOCK_TYPES = {"Lock", "RLock"}

# (module, class) of each place that builds a lock, one entry per lock.
LOCKS = [
    ("clock.py", "ManualClock"),     # the simulated instant
    ("index.py", "GlobalIndex"),     # entries, boards and claims
    ("lineage.py", "LineageGraph"),  # re-entrant: a check and its graft are one step
    ("sim.py", "World"),             # governance
    ("sim.py", "World"),             # emit
]


def is_lock_type(node: ast.AST) -> bool:
    """A reference to ``threading.Lock`` or ``RLock``, or to either name
    imported on its own."""
    if isinstance(node, ast.Attribute):
        return (node.attr in LOCK_TYPES and isinstance(node.value, ast.Name)
                and node.value.id == "threading")
    return isinstance(node, ast.Name) and node.id in LOCK_TYPES


def lock_sites(tree: ast.Module) -> list[str]:
    """The class around each reference to a lock type outside annotations,
    or ``<module>`` for one outside every class. A call builds a lock, and
    so does a reference handed on, as to ``field(default_factory=...)``;
    an annotation only names the type."""
    annotated = set()
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                annotated.update(id(part) for part in ast.walk(annotation))
    sites: list[str] = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if is_lock_type(child) and id(child) not in annotated:
                sites.append(owner)
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(tree, "<module>")
    return sites


def test_lock_sites_reads_calls_and_factories_but_not_annotations():
    tree = ast.parse(
        "import threading\n"
        "from threading import RLock\n"
        "guard = threading.Lock()\n"
        "class A:\n"
        "    _lock: threading.Lock = field(default_factory=threading.Lock)\n"
        "    def lock(self, other: threading.RLock) -> threading.RLock:\n"
        "        return RLock()\n"
    )
    assert lock_sites(tree) == ["<module>", "A", "A"]


def test_every_lock_in_the_simulator_is_listed():
    found = [(path.name, owner) for path in sorted(SOURCE.glob("*.py"))
             for owner in lock_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == LOCKS
