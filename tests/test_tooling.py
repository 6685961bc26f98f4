"""The traced benchmark run patches library functions by name."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, path, _ in spans.TARGETS:
        owner = importlib.import_module(f"fanforge.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert missing == []
