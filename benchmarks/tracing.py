"""Span tracing of limshape's public functions, installed from outside.

`Tracer.install` replaces each traced function or method by a wrapper in
every `limshape` module namespace that holds it (so calls between modules
and from the CLI are seen too) and `uninstall` puts the originals back; the
library itself is never edited.  A span is (name, start_ns, end_ns, parent
index, job id); spans stay in memory until the run writes them out.

Counters record the work a call did (generators in and out, lattice columns,
reduction entries, ...) at the same boundary, so ratios are measured where
the work happens.  Every count depends only on the inputs, so a traced pass
over the same pool repeats them exactly.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from statistics import median
from time import perf_counter_ns

CLI_COMMANDS = ["planar-vertices", "planar-reduce", "waldschmidt", "areg", "check-graded",
                "family-eval", "hf", "shape", "ahf", "render"]

# span name -> (module, attribute) of each traced public function; a dotted
# attribute is a method of a class in that module
TRACED = {
    "ideals.from_gens": [("ideals", "MonomialIdeal.from_gens")],
    "ideals.minimal": [("ideals", "minimal_exponents")],
    "ideals.product": [("ideals", "MonomialIdeal.product")],
    "hilbert.hf": [("hilbert", "hilbert_function")],
    "hilbert.hf_extended": [("hilbert", "hilbert_function_extended")],
    "hilbert.hp": [("hilbert", "hilbert_polynomial")],
    "hilbert.ri": [("hilbert", "regularity_index")],
    "families.build": [("families", n) for n in (
        "family_from_json", "make_power_family", "make_doubling_family", "make_halfplane_family",
        "make_ceiling_family", "make_chain_family", "make_oscillating_family")],
    "families.ideal": [("families", "GradedFamily.ideal")],
    "families.verify_graded": [("families", "verify_graded")],
    "families.estimate": [("families", n) for n in ("waldschmidt_estimate", "areg_estimate", "ri_estimate")],
    "geometry.staircase_region": [("geometry", "staircase_region")],
    "geometry.gamma_region": [("geometry", "gamma_region")],
    "geometry.lattice_count": [("geometry", "lattice_count")],
    "geometry.volume": [("geometry", "region_volume")],
    "geometry.hull": [("geometry", "convex_hull")],
    "geometry.shape": [("geometry", "limiting_shape"), ("geometry", "gamma_limit")],
    "geometry.invariant": [("geometry", "waldschmidt_from_shape"), ("geometry", "areg_from_shape")],
    "geometry.ahf": [("geometry", "ahf")],
    "planar.config": [("planar", "validate_configuration"), ("planar", "divisibility_modulus")],
    "planar.reduction_vector": [("planar", "reduction_vector")],
    "planar.envelope": [("planar", "dhf_envelope")],
    "planar.closed_form": [("planar", "dhf_vertices_closed_form"), ("planar", "two_line_vertices")],
    "planar.gamma": [("planar", "gamma_vertices")],
    "planar.area": [("planar", "area_under_graph")],
    "svgfig.render": [("svgfig", n) for n in ("render_staircase", "render_graph", "render_polygon")],
    "cli.main": [("cli", "main")],
}

# (metric, unit) reported by a traced run, in output order
PER_LAYER = [
    ("ideals.from_gens.calls", "count"),
    ("ideals.from_gens.self_ms", "ms"),
    ("ideals.minimal.in_gens", "count"),
    ("ideals.minimal.kept_ratio", "ratio"),
    ("ideals.product.calls", "count"),
    ("ideals.product.self_ms", "ms"),
    ("hilbert.hf.calls", "count"),
    ("hilbert.hf.self_ms", "ms"),
    ("hilbert.hf.ms.gens_le12", "ms"),
    ("hilbert.hf.ms.gens_gt12", "ms"),
    ("hilbert.hp.calls", "count"),
    ("hilbert.hp.self_ms", "ms"),
    ("hilbert.hp.table_degrees", "count"),
    ("hilbert.ri.calls", "count"),
    ("hilbert.ri.self_ms", "ms"),
    ("families.ideal.calls", "count"),
    ("families.ideal.hit_ratio", "ratio"),
    ("families.ideal.miss_ms", "ms"),
    ("families.verify_graded.self_ms", "ms"),
    ("families.verify_graded.pairs", "count"),
    ("families.estimate.self_ms", "ms"),
    ("geometry.staircase_region.calls", "count"),
    ("geometry.staircase_region.self_ms", "ms"),
    ("geometry.corners.kept_ratio", "ratio"),
    ("geometry.lattice_count.calls", "count"),
    ("geometry.lattice_count.self_ms", "ms"),
    ("geometry.lattice_count.columns", "count"),
    ("geometry.shape.self_ms", "ms"),
    ("geometry.shape.exact_ratio", "ratio"),
    ("geometry.hull.points", "count"),
    ("geometry.ahf.self_ms", "ms"),
    ("planar.reduction_vector.calls", "count"),
    ("planar.reduction_vector.self_ms", "ms"),
    ("planar.entries", "count"),
    ("planar.simulator.entries", "count"),
    ("planar.envelope.self_ms", "ms"),
    ("planar.envelope.hull_vertices", "count"),
    ("planar.closed_form.self_ms", "ms"),
    ("planar.gamma.self_ms", "ms"),
    ("cli.main.calls", "count"),
    *((f"cli.main.p50_ms.{c}", "ms") for c in CLI_COMMANDS),
    ("cli.self_ms", "ms"),
    ("cli.stdout_bytes", "bytes"),
    ("cli.exit_nonzero", "count"),
    ("svgfig.render.self_ms", "ms"),
    ("svgfig.bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.jobs_per_s_ratio", "ratio"),
]

COUNT_UNITS = {"count", "bytes"}


class Tracer:
    """Span recorder and counters for one traced benchmark process."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.active = False  # spans are recorded only while a job runs
        self.counts: defaultdict = defaultdict(int)
        self.cli_calls: list = []  # (command, duration_ns)
        self.seen_members: set = set()
        self._saved: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            note = before(args) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if after:
                after(args, result, end - start, note)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "limshape" or k.startswith("limshape.")]
        for name, targets in TRACED.items():
            for mod_name, attr in targets:
                module = getattr(self.package, mod_name)
                hooks = self._hooks(name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__, *hooks))
                    else:
                        wrapped = self._wrap(name, raw, *hooks)
                    self._saved.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original, *hooks)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- counters at each boundary -----------------------------------------

    def _hooks(self, name):
        c, L = self.counts, self.package
        if name == "ideals.minimal":
            def before(args):
                vectors = args[0] if isinstance(args[0], (list, tuple, set, frozenset)) else None
                return None if vectors is None else len(vectors)

            def after(args, result, ns, n_in):
                if n_in is not None:
                    c["ideals.minimal.in_gens"] += n_in
                    c["ideals.minimal.kept"] += len(result)
            return before, after
        if name == "hilbert.hf":
            def after(args, result, ns, _):
                c["hilbert.hf.ns." + ("gens_le12" if len(args[0].gens) <= 12 else "gens_gt12")] += ns
            return None, after
        if name == "hilbert.hp":
            def after(args, result, ns, _):
                c["hilbert.hp.table_degrees"] += L.hilbert.degree_cap(args[0]) + 1
            return None, after
        if name == "families.ideal":
            def before(args):
                key = (self.job, id(args[0]), args[1])
                hit = key in self.seen_members
                self.seen_members.add(key)
                return hit

            def after(args, result, ns, hit):
                c["families.ideal.hits" if hit else "families.ideal.miss_ns"] += 1 if hit else ns
            return before, after
        if name == "families.verify_graded":
            def after(args, result, ns, _):
                c["families.verify_graded.pairs"] += result.checked_pairs
            return None, after
        if name == "geometry.staircase_region":
            def after(args, result, ns, _):
                c["geometry.corners.in"] += len(args[0].gens)
                c["geometry.corners.kept"] += len(result.corners)
            return None, after
        if name == "geometry.lattice_count":
            def after(args, result, ns, _):
                region = args[0]
                if isinstance(region, L.StaircaseRegion) and region.bound >= 0:
                    bound = region.bound
                    c["geometry.lattice_count.columns"] += bound.numerator // bound.denominator + 1
            return None, after
        if name == "geometry.hull":
            def before(args):
                c["geometry.hull.points"] += len(args[0])
            return before, None
        if name == "geometry.shape":
            def after(args, result, ns, _):
                c["geometry.shape.exact"] += result.exact
            return None, after
        if name == "planar.reduction_vector":
            def after(args, result, ns, _):
                c["planar.entries"] += len(result.entries)
                if args[0].shared_intersection:
                    c["planar.simulator.entries"] += len(result.entries)
            return None, after
        if name == "planar.envelope":
            def after(args, result, ns, _):
                c["planar.envelope.hull_vertices"] += len(result.vertices)
            return None, after
        if name == "svgfig.render":
            def after(args, result, ns, _):
                c["svgfig.bytes"] += len(result.encode())
            return None, after
        if name == "cli.main":
            def before(args):
                out = sys.stdout
                return out.tell() if hasattr(out, "getvalue") else None

            def after(args, result, ns, mark):
                argv = args[0] if args else []
                self.cli_calls.append((argv[0] if argv else "", ns))
                c["cli.exit_nonzero"] += result != 0
                if mark is not None:
                    c["cli.stdout_bytes"] += len(sys.stdout.getvalue()[mark:].encode())
            return before, after
        return None, None

    # -- per-layer metrics ---------------------------------------------------

    def snapshot(self):
        """Counters and span list so far; a pass is the difference of two."""
        return dict(self.counts), len(self.spans), len(self.cli_calls)

    def layer_metrics(self, since, until) -> dict:
        counts0, first, cli0 = since
        counts1, last, cli1 = until
        counts = {k: v - counts0.get(k, 0) for k, v in counts1.items()}
        spans = self.spans[first:last]
        calls, incl, child = defaultdict(int), defaultdict(int), defaultdict(int)
        for name, start, end, parent, _ in spans:
            calls[name] += 1
            incl[name] += end - start
            if parent >= first:
                child[self.spans[parent][0]] += end - start
        self_ms = {name: (incl[name] - child[name]) / 1e6 for name in incl}

        def ratio(num, den):
            return num / den if den else 0.0

        member_calls = calls["families.ideal"]
        shapes = calls["geometry.shape"]
        out = {
            "ideals.from_gens.calls": calls["ideals.from_gens"],
            "ideals.from_gens.self_ms": self_ms.get("ideals.from_gens", 0.0),
            "ideals.minimal.in_gens": counts.get("ideals.minimal.in_gens", 0),
            "ideals.minimal.kept_ratio": ratio(counts.get("ideals.minimal.kept", 0),
                                               counts.get("ideals.minimal.in_gens", 0)),
            "ideals.product.calls": calls["ideals.product"],
            "ideals.product.self_ms": self_ms.get("ideals.product", 0.0),
            "hilbert.hf.calls": calls["hilbert.hf"],
            "hilbert.hf.self_ms": self_ms.get("hilbert.hf", 0.0),
            "hilbert.hf.ms.gens_le12": counts.get("hilbert.hf.ns.gens_le12", 0) / 1e6,
            "hilbert.hf.ms.gens_gt12": counts.get("hilbert.hf.ns.gens_gt12", 0) / 1e6,
            "hilbert.hp.calls": calls["hilbert.hp"],
            "hilbert.hp.self_ms": self_ms.get("hilbert.hp", 0.0),
            "hilbert.hp.table_degrees": counts.get("hilbert.hp.table_degrees", 0),
            "hilbert.ri.calls": calls["hilbert.ri"],
            "hilbert.ri.self_ms": self_ms.get("hilbert.ri", 0.0),
            "families.ideal.calls": member_calls,
            "families.ideal.hit_ratio": ratio(counts.get("families.ideal.hits", 0), member_calls),
            "families.ideal.miss_ms": counts.get("families.ideal.miss_ns", 0) / 1e6,
            "families.verify_graded.self_ms": self_ms.get("families.verify_graded", 0.0),
            "families.verify_graded.pairs": counts.get("families.verify_graded.pairs", 0),
            "families.estimate.self_ms": self_ms.get("families.estimate", 0.0),
            "geometry.staircase_region.calls": calls["geometry.staircase_region"],
            "geometry.staircase_region.self_ms": self_ms.get("geometry.staircase_region", 0.0),
            "geometry.corners.kept_ratio": ratio(counts.get("geometry.corners.kept", 0),
                                                 counts.get("geometry.corners.in", 0)),
            "geometry.lattice_count.calls": calls["geometry.lattice_count"],
            "geometry.lattice_count.self_ms": self_ms.get("geometry.lattice_count", 0.0),
            "geometry.lattice_count.columns": counts.get("geometry.lattice_count.columns", 0),
            "geometry.shape.self_ms": self_ms.get("geometry.shape", 0.0),
            "geometry.shape.exact_ratio": ratio(counts.get("geometry.shape.exact", 0), shapes),
            "geometry.hull.points": counts.get("geometry.hull.points", 0),
            "geometry.ahf.self_ms": self_ms.get("geometry.ahf", 0.0),
            "planar.reduction_vector.calls": calls["planar.reduction_vector"],
            "planar.reduction_vector.self_ms": self_ms.get("planar.reduction_vector", 0.0),
            "planar.entries": counts.get("planar.entries", 0),
            "planar.simulator.entries": counts.get("planar.simulator.entries", 0),
            "planar.envelope.self_ms": self_ms.get("planar.envelope", 0.0),
            "planar.envelope.hull_vertices": counts.get("planar.envelope.hull_vertices", 0),
            "planar.closed_form.self_ms": self_ms.get("planar.closed_form", 0.0),
            "planar.gamma.self_ms": self_ms.get("planar.gamma", 0.0),
            "cli.main.calls": calls["cli.main"],
            "cli.self_ms": self_ms.get("cli.main", 0.0),
            "cli.stdout_bytes": counts.get("cli.stdout_bytes", 0),
            "cli.exit_nonzero": counts.get("cli.exit_nonzero", 0),
            "svgfig.render.self_ms": self_ms.get("svgfig.render", 0.0),
            "svgfig.bytes": counts.get("svgfig.bytes", 0),
            "trace.spans": len(spans),
        }
        by_command = defaultdict(list)
        for command, ns in self.cli_calls[cli0:cli1]:
            by_command[command].append(ns / 1e6)
        for command in CLI_COMMANDS:
            samples = by_command.get(command)
            out[f"cli.main.p50_ms.{command}"] = median(samples) if samples else 0.0
        return out
