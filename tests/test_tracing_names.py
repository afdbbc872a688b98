"""The benchmark still finds every library name it wraps, calls or reads.

`benchmarks/tracing.py` wraps limshape's functions by name and reads a few
more in its counters, and the workloads and their checks call the package
as `L` and read fields of its results; a name removed from the library would
otherwise fail only the slow `python3 -m pytest benchmarks` run.
"""

import dataclasses
import importlib.util
import re
from pathlib import Path

import limshape
import limshape.cli  # the tracer also wraps cli and svgfig

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACING = BENCHMARKS / "tracing.py"
# dataclass fields of library results that the workload checks read
FIELDS_READ = [(limshape.ExactShape, "halfplanes"), (limshape.ShapeResult, "staircase_vertices")]


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


def test_every_library_path_and_field_the_workloads_read_exists():
    text = "".join((BENCHMARKS / name).read_text() for name in ("workloads.py", "oracles.py"))
    paths = set(re.findall(r"\bL\.([A-Za-z_][\w.]*)", text))
    assert "limiting_shape" in paths  # the pattern still finds the calls
    for path in sorted(paths):
        obj = limshape
        for part in path.split("."):
            assert hasattr(obj, part), f"L.{path}"
            obj = getattr(obj, part)
    for cls, name in FIELDS_READ:
        assert "." + name in text, name
        assert name in {f.name for f in dataclasses.fields(cls)}, f"{cls.__name__}.{name}"
