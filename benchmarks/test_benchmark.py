"""Self-tests of the benchmark: generators, oracles, traced counts, contract.

Run from the repository root with `python3 -m pytest benchmarks -q`; the
repository's own suite (`tests/`) does not collect this file.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

L = run.import_library()


def _first(pool, pred=lambda inp: True):
    return next(inp for inp in pool if pred(inp))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    a, b, c = (repr(workload.generate(L, seed)) for seed in (7, 7, 8))
    assert a == b
    assert a != c


def test_oracle_primitives():
    assert [oracles.brute_hf([(2, 0), (0, 2)], 2, d) for d in range(4)] == [1, 2, 1, 0]
    # two unit-side triangles overlapping in a quarter-size one
    corners = [((0, 0), 2), ((1, 0), 3)]
    assert oracles.triangle_union_area(corners) == Fraction(2) + Fraction(2) - Fraction(1, 2)
    assert oracles.chain_gamma_area([(2, 0), (0, 3)], 10) == 3
    assert oracles.chain_gamma_area([(2, 0)], 3) == 4  # vertical wall x = 2


def test_hilbert_oracle_rejects_off_by_one():
    workload = WORKLOADS["hilbert-ri"]
    inp = _first(workload.generate(L, 3), lambda i: "doubling_m" in i)
    hf, poly, ri = workload.job(L, inp)
    assert workload.check(L, inp, (hf, poly, ri)) is None
    assert workload.check(L, inp, ([hf[0] + 1] + hf[1:], poly, ri)) is not None
    assert workload.check(L, inp, (hf, poly, ri + 1)) is not None
    assert workload.check(L, inp, (hf, poly, ri - 1)) is not None


def test_planar_oracle_rejects_shifted_vertex():
    workload = WORKLOADS["planar-sweep"]
    inp = _first(workload.generate(L, 3), lambda i: len(i["counts"]) >= 2)
    out = workload.summarize(workload.job(L, inp))
    assert oracles.check_planar(inp, out) is None
    m, env = out["envelopes"][0]
    (x, y), rest = env[1], env[2:]
    out["envelopes"][0] = (m, env[:1] + ((x + Fraction(1, 7), y),) + rest)
    assert oracles.check_planar(inp, out) is not None


def test_cli_oracle_rejects_wrong_exit_code_and_stdout():
    workload = WORKLOADS["cli-mix"]
    bundle = workload.generate(L, 3)[0]
    results = workload.job(L, bundle)
    assert workload.check(L, bundle, results) is None
    for call, (code, out, err) in zip(bundle["calls"], results):
        assert workload.check_call(L, call, (1 - code, out, err)) is not None
    call, (code, out, err) = next((c, r) for c, r in zip(bundle["calls"], results)
                                  if c["code"] == 0 and c["argv"][0] != "render")
    payload = json.loads(out)
    payload["extra"] = 1
    tampered = json.dumps(payload, indent=2) + "\n"
    assert workload.check_call(L, call, (code, tampered, err)) is not None
    expected = workloads._expected_output(L, call["expect"])
    assert json.loads(out) == expected != payload


def test_family_oracle_rejects_wrong_answers():
    workload = WORKLOADS["family-shapes"]
    pool = workload.generate(L, 3)
    broken = _first(pool, lambda i: "broken_at" in i)
    report = workload.job(L, broken)
    assert workload.check(L, broken, report) is None
    healthy = L.verify_graded(L.family_from_json(broken["spec"]), workload.GRADED_M)
    assert workload.check(L, broken, healthy) is not None

    inp = _first(pool, lambda i: i["spec"]["kind"] == "halfplane" and "broken_at" not in i)
    fam, report, wald, *rest = workload.job(L, inp)
    assert workload.check(L, inp, (fam, report, wald, *rest)) is None
    off = dataclasses.replace(wald, inf_value=wald.inf_value + 1)
    assert workload.check(L, inp, (fam, report, off, *rest)) is not None


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_across_runs(name):
    counts = []
    for _ in range(2):
        proc = _run("--workload", name, "--seed", "5", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert {k for k, _ in tracing.PER_LAYER} == set(result["metrics"])
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in tracing.COUNT_UNITS})
    assert counts[0] == counts[1]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "planar-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
