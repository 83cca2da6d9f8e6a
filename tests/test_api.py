import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import jflow

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def test_public_names_and_traced_functions_resolve():
    # every exported name exists, and so does every function the benchmark tracer wraps
    for info in pkgutil.iter_modules(jflow.__path__, "jflow."):
        module = importlib.import_module(info.name)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{info.name}.__all__ names {missing}"
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    importlib.import_module("jflow.cli")  # as the tracer does: the CLI imports every traced module

    unbound = [(mod, attr) for mod, attr, _ in spans.TRACED if not hasattr(sys.modules[mod], attr)]
    assert not unbound, f"perfbench/spans.py traces missing functions {unbound}"
