"""The benchmark tracer's hook names still exist in the package.

``perfbench/tracing.py`` wraps layer functions at the ``module:attr`` names
their callers import.  A rename that breaks one of those names would
silently drop a span from every traced benchmark run, so each target is
resolved here.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracing  # noqa: E402

TARGETS = sorted(t for targets, _ in tracing.SPANS.values() for t in targets)


def test_spans_name_targets():
    assert TARGETS and all(t.count(":") == 1 for t in TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_span_target_resolves_to_a_callable(target):
    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{target} is not a callable"
