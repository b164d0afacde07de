"""Every function the benchmark tracer wraps is still defined under its traced name.

The target list is read from perfbench/tracing.py itself, so this follows
the benchmark when it adds or drops a name.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", traced_targets(), ids=lambda t: t.name)
def test_traced_name_resolves(target):
    owner = importlib.import_module(target.module)
    for part in target.attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
