"""The benchmark's span wrappers still find every function they wrap."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, name) for layer, names in module.LAYERS.items() for name in names]


@pytest.mark.parametrize("layer,name", layers())
def test_every_layer_name_is_defined(layer, name):
    # a missing name raises AttributeError in every traced benchmark pass
    assert hasattr(importlib.import_module(f"cjt.{layer}"), name)
