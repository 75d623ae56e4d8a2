"""The benchmark's tracer wraps package functions by name; a rename that
drops one of them must fail here, not only in the benchmark's own checks."""

import importlib
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402


@pytest.mark.parametrize("module, path", sorted({(m, p) for m, p, _, _ in tracer.TARGETS}))
def test_every_traced_name_resolves(module, path):
    owner, attr = tracer._resolve(importlib.import_module(f"timegolog.{module}"), path)
    assert callable(owner.__dict__.get(attr)), f"timegolog.{module}.{path}"
