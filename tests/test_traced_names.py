"""The names the benchmark's tracing layer wraps must keep existing.

``perfbench/tracing.py`` rebinds these functions and methods by name; a
missing one fails every traced benchmark run.  The file is only read here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_and_method_resolves():
    tracing = load_tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for module_name, attr, _ in tracing.FUNCTIONS:
        module = importlib.import_module(f"sumrules.{module_name}")
        assert callable(getattr(module, attr, None)), \
            f"sumrules.{module_name}.{attr}"
    for module_name, cls_name, method, _ in tracing.METHODS:
        module = importlib.import_module(f"sumrules.{module_name}")
        cls = getattr(module, cls_name)
        assert method in vars(cls), f"{cls_name}.{method}"
    assert "__post_init__" in vars(
        importlib.import_module("sumrules.histories").GroupElement)
