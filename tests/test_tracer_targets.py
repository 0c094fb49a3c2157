"""The benchmark's traced run wraps dipmix functions at named module attributes;
a refactor that drops one of those names should fail here, not in that run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{path}.{attr}"
        for path, attr, _, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(path), attr, None))
    ]
    assert tracer.TARGETS and missing == []
