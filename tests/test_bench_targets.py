"""The names the benchmark's tracer wraps still exist.

``bench/spans.py`` imports only the standard library, so it loads by path
without the rest of the harness.  A deletion that would crash
``bench/run.py`` at install time fails here first.
"""

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

from cayleyspec import AdjacencyMatrix, SpectralLine, Spectrum, VerificationReport

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for module_name, attribute, _ in targets:
        owner = importlib.import_module(f"cayleyspec.{module_name}")
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attribute)


def test_fields_the_span_observers_read():
    names = lambda cls: {f.name for f in fields(cls)}
    assert "matrix" in names(AdjacencyMatrix)
    assert "lines" in names(Spectrum)
    assert "eigenvectors" in names(SpectralLine)
    assert {"n", "tolerance", "scale", "max_residual"} <= names(VerificationReport)
