"""The benchmark's tracer wraps names of the package given as strings.

``perfbench/tracer.py`` looks each ``TARGETS`` entry up when it installs, so
a deleted or renamed function or method would only fail a traced benchmark
run. This test loads the tracer as it is and fails on such a name instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    targets = load_tracer(monkeypatch).TARGETS
    assert targets
    missing = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner, _, method = target.name.rpartition(".")
        if owner:
            # As the tracer does: a method must be the class's own, not inherited.
            found = method in vars(getattr(module, owner, object))
        else:
            found = hasattr(module, target.name)
        if not found:
            missing.append(f"{target.module}:{target.name}")
    assert missing == []
