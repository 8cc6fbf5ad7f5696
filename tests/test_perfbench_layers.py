import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_names_a_weylforge_function():
    # perfbench/run.py --trace 1 wraps each module.function listed in
    # tracing.LAYERS and fails on a name weylforge no longer defines
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracing.LAYERS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"weylforge.{mod}"), fn, None))
    ]
    assert missing == []
