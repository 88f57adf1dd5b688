"""The benchmark's per-layer view names program functions by module and
attribute; a rename or a move must fail here, not surface later as a
``missing`` layer in a benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [name for name, (module, attribute) in spans.TARGETS.items()
               if spans._resolve(module, attribute) is None]
    assert missing == []
