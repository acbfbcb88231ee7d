"""The benchmark's trace spans name code that exists.

perfbench/tracing.py records a span whose target is missing as absent, so a
renamed function or method would silently blank its per-layer metrics. This
reads the span table only; it runs no benchmark.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import SPANS  # noqa: E402


@pytest.mark.parametrize("span, module, cls, attr", SPANS, ids=[span[0] for span in SPANS])
def test_every_traced_span_resolves(span, module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    target = ".".join(name for name in (module, cls, attr) if name)
    assert callable(getattr(owner, attr, None)), f"span {span}: {target} is gone"
