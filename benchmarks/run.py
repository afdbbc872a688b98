#!/usr/bin/env python3
"""Layered benchmark of limshape: one seeded workload per process.

    python3 benchmarks/run.py --workload hilbert-ri --seed 1 --seconds 10 --trace 0

Load model: a closed loop with one caller, one process and one thread.  The
seed fixes a pool of inputs; a pass runs one job per input in pool order,
and the next job starts only when the previous one returned.  Jobs alone are
timed; every job's output is then checked by the independent oracles in
`oracles.py`, and a job that raises or is rejected counts as failed.

With `--trace 0` the run times whole passes, at least MIN_PASSES, until
`--seconds` of job time have accrued.  Each input's time is its median over
the passes, and the end-to-end metrics are over those times.  With
`--trace 1` it alternates untraced passes and passes with span wrappers
installed (see `tracing.py`) and prints the per-layer metrics of the traced
passes plus the traced / untraced throughput ratio.  Set-up, timed
`SETUPS` times and reported as the median, is `import limshape` from this
checkout's `src/` plus generating the seeded inputs.

Times are reported at a reference speed.  On a shared host the same code
runs up to 1.7x slower for seconds at a time, which spread raw wall times
of repeated runs by 25-30%.  So the workload's calibration kernel (fixed
stdlib work like its jobs', see `kernels.py`) runs before every job and
set-up, and each measured time is scaled by the kernel's reference time
over the median kernel time around it.  That cancels most of the host's
speed swings but not a change in limshape's own cost.  Raw wall-clock
figures are kept in the metadata line.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The line before it holds the run metadata (input profile,
quartiles, sample counts, Python version, git sha, nproc), which is also
written with the spans under `.bench_out/`.  `--workload all` runs each
workload in its own child process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from kernels import REFERENCE_MS, kernel_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
MIN_PASSES = 3  # an input's time is its median over the timed passes
KERNEL_WINDOW = 5  # jobs on each side whose kernel times set a job's scale
END_TO_END = [
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_library():
    """Fresh `import limshape` from this checkout; nothing else will do."""
    for name in [k for k in sys.modules if k == "limshape" or k.startswith("limshape.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("limshape")
    importlib.import_module("limshape.cli")  # also loads limshape.svgfig
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"limshape imported from {package.__file__}, not from {SRC}")
    return package


def at_reference_speed(raw_ns, kernels, name) -> list:
    """Scale each time by the reference over the median kernel time of the
    KERNEL_WINDOW kernel runs on either side of it."""
    out = []
    for i, ns in enumerate(raw_ns):
        near = kernels[max(0, i - KERNEL_WINDOW + 1):i + KERNEL_WINDOW + 1]
        out.append(ns * REFERENCE_MS[name] * 1e6 / median(near))
    return out


def set_up(name, seed):
    """Import plus input generation, SETUPS times; keeps the last result.
    Returns the set-up times in seconds, raw and at reference speed."""
    raw, kernels = [], []
    for _ in range(SETUPS):
        kernels += [kernel_ns(name) for _ in range(3)]
        gc.collect()
        start = perf_counter_ns()
        package = import_library()
        pool = WORKLOADS[name].generate(package, seed)
        raw.append(perf_counter_ns() - start)
    kernels += [kernel_ns(name) for _ in range(3)]
    speed = REFERENCE_MS[name] * 1e6 / median(kernels)
    return package, pool, [ns / 1e9 for ns in raw], [ns * speed / 1e9 for ns in raw]


def run_pass(package, name, pool, pass_id, failures, tracer=None):
    """One job per input; returns per-job times in ns, raw and at reference
    speed, and the kernel times."""
    workload = WORKLOADS[name]
    gc.collect()
    latencies, kernels = [], []
    for index, inp in enumerate(pool):
        kernels.append(kernel_ns(name))
        if tracer is not None:
            tracer.job = (pass_id, index)
            tracer.active = True
        start = perf_counter_ns()
        try:
            raw, reason = workload.job(package, inp), None
        except Exception as exc:  # a job that raises counts as failed
            raw, reason = None, f"job raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter_ns() - start)
        if tracer is not None:
            tracer.active = False
        if reason is None:
            try:
                reason = workload.check(package, inp, raw)
            except Exception as exc:
                reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append({"pass": pass_id, "input": index, "reason": reason})
    kernels.append(kernel_ns(name))
    return latencies, at_reference_speed(latencies, kernels, name), kernels


def pass_stats(latencies) -> dict:
    ms = sorted(ns / 1e6 for ns in latencies)
    deciles = quantiles(ms, n=10, method="inclusive")
    return {
        "jobs_per_s": len(ms) / (sum(ms) / 1e3),
        "job_p50_ms": median(ms),
        "job_p90_ms": deciles[8],
    }


def typical(passes) -> list:
    """Each input's median time over the passes; a transient stall of the
    host during one job does not move it."""
    return [median(times) for times in zip(*passes)]


def summary(values) -> dict:
    vs = sorted(values)
    q1, _, q3 = quantiles(vs, n=4, method="inclusive") if len(vs) > 1 else vs * 3
    return {"median": median(vs), "q1": q1, "q3": q3, "samples": len(vs)}


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.exists():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    package, pool, setup_raw, setup_scaled = set_up(name, seed)
    failures, attempted = [], 0
    per_pass = []  # (traced, stats at reference speed, raw stats)
    by_input = {False: [], True: []}  # per-pass job times at reference speed
    kernel_ms = []
    tracer = tracing.Tracer(package) if trace else None
    layer_runs = []
    elapsed = 0.0
    pass_id = 0
    while True:
        traced = bool(trace) and pass_id % 2 == 1
        if traced:
            tracer.install()
            before = tracer.snapshot()
        raw, scaled, kernels = run_pass(package, name, pool, pass_id, failures,
                                        tracer if traced else None)
        if traced:
            tracer.uninstall()
            layers = tracer.layer_metrics(before, tracer.snapshot())
            speed = REFERENCE_MS[name] * 1e6 / median(kernels)
            for key, unit in tracing.PER_LAYER:
                if unit == "ms":
                    layers[key] *= speed
            layer_runs.append(layers)
        attempted += len(raw)
        elapsed += sum(raw) / 1e9
        kernel_ms.extend(ns / 1e6 for ns in kernels)
        per_pass.append((traced, pass_stats(scaled), pass_stats(raw)))
        by_input[traced].append(scaled)
        pass_id += 1
        if pass_id >= MIN_PASSES and elapsed >= seconds and (not trace or pass_id % 2 == 0):
            break

    detail = {"setup_s": summary(setup_scaled)}
    detail["setup_s"]["value"] = detail["setup_s"]["median"]
    detail["setup_s"]["raw_median"] = median(setup_raw)
    untraced = [(s, r) for traced, s, r in per_pass if not traced]
    overall = pass_stats(typical(by_input[False]))
    for key in ("jobs_per_s", "job_p50_ms", "job_p90_ms"):
        # the value is over the inputs' typical times; quartiles are of passes
        detail[key] = {"value": overall[key], "passes": summary(s[key] for s, _ in untraced),
                       "raw_pass_median": median(r[key] for _, r in untraced)}
    detail["job_p90_ms"]["samples"] = len(pool)
    detail["job_p90_ms"]["samples_above"] = len(pool) - int(0.9 * len(pool))
    detail["kernel_ms"] = summary(kernel_ms)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["peak_rss_mb"] = {"value": peak}

    if trace:
        traced_rate = pass_stats(typical(by_input[True]))["jobs_per_s"]
        metrics = {}
        for key, unit in tracing.PER_LAYER:
            if key == "trace.jobs_per_s_ratio":
                value = traced_rate / overall["jobs_per_s"]
            elif unit in tracing.COUNT_UNITS or key.endswith("_ratio"):
                value = layer_runs[0][key]
            else:
                value = median(run[key] for run in layer_runs)
            metrics[key] = {"value": value, "unit": unit}
        counted = [k for k, u in tracing.PER_LAYER if u in tracing.COUNT_UNITS and k != "trace.spans"]
        repeat = all(run[k] == layer_runs[0][k] for run in layer_runs for k in counted)
    else:
        metrics = {key: {"value": detail[key]["value"], "unit": unit} for key, unit in END_TO_END}
        repeat = None

    meta = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "run_seconds": seconds,
        "passes": len(per_pass),
        "jobs_per_pass": len(pool),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "input_profile": workload.profile(pool),
        "metrics_detail": detail,
        "traced_counts_repeat": repeat,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(meta, indent=1, default=str) + "\n")
    if trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps([span[0], span[1], span[2], span[3], list(span[4])]) + "\n")
    return meta, metrics


def print_report(meta, metrics):
    print(f"{meta['workload']} seed={meta['seed']} trace={meta['trace']}: "
          f"{meta['attempted']} jobs in {meta['passes']} passes of {meta['jobs_per_pass']}, "
          f"{meta['failed']} failed, error_rate={meta['error_rate']:.4f}")
    for fail in meta["failures"][:5]:
        print(f"  FAILED pass {fail['pass']} input {fail['input']}: {fail['reason']}")
    for key, metric in metrics.items():
        print(f"  {key:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(meta, default=str))
    result = {
        "correct": meta["failed"] == 0,
        "attempted": meta["attempted"],
        "failed": meta["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    os.environ.pop("LIMSHAPE_MAX_DEGREE", None)  # answers use the default cap
    if args.workload == "all":
        return run_all(args)
    try:
        import_library()
    except ImportError as exc:
        print(f"cannot import limshape from {SRC}: {exc}", file=sys.stderr)
        return 2
    meta, metrics = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(meta, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
