"""The benchmark's tracer still finds every library name it wraps.

`benchmarks/tracing.py` wraps limshape's functions by name and reads a few
more in its counters; a name removed from the library would otherwise fail
only the slow `python3 -m pytest benchmarks` run.
"""

import importlib.util
from pathlib import Path

import limshape
import limshape.cli  # the tracer also wraps cli and svgfig

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_benchmark_tracer_installs_and_its_counter_names_exist():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = limshape.geometry.limiting_shape
    tracer = tracing.Tracer(limshape)
    try:
        tracer.install()
        assert limshape.geometry.limiting_shape is not original
    finally:
        tracer.uninstall()
    assert limshape.geometry.limiting_shape is original
    assert callable(limshape.hilbert.degree_cap)
    assert isinstance(limshape.StaircaseRegion, type)
