"""The benchmark's traced mode wraps library attributes by name.

perfbench/tracer.py lists them in TARGETS; a rename or deletion in the
library would break `perfbench/run.py --trace 1`, so it fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_contract", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for owner, attr, span in targets:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner!r} has no {attr!r}"
