"""The benchmark's tracer finds every layer it wraps, but for four known gaps.

bench/tracing.py wraps the module attributes callers look up. A lookup that a
refactor drops makes its layer report zero calls without failing the
benchmark, so the set of lookups that find nothing is pinned here. The tracer
module is loaded from its file and left unchanged.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Lookups of layers the package no longer has (the integrator, the composite-to-reduced
# map and the tone fit); each of their layers reports zero calls.
KNOWN_MISSING = {
    "reduced.integrate",
    "composite.integrate",
    "composite.reduced_from_composite",
    "analytic._tone_fit",
}


def test_trace_targets_missing_are_exactly_the_known_four():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {
        f"{module.removeprefix('cavity_beats.')}.{attr}" + (f"[{key!r}]" if key else "")
        for module, attr, key, _ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
        if tracing.lookup(module, attr, key) is None
    }
    assert missing == KNOWN_MISSING
