"""Calibration kernels: fixed stdlib work timed beside every job.

On a shared host the same code runs up to 1.7x slower for seconds at a
time, and not every kind of code slows alike: a CLI call slowed by 45%
while Fraction arithmetic slowed by less.  So each workload has a kernel
made of the stdlib operations its jobs spend their time on, and the runner
scales every job time by REFERENCE_MS / (kernel time around it).  Nothing
here imports limshape, so a change to the library cannot move a kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from fractions import Fraction
from math import comb
from time import perf_counter_ns


def _fractions(n):
    acc, table = Fraction(0), {}
    for i in range(1, n):
        acc += Fraction(i % 7 + 1, i)
        table[(i, i % 5)] = acc
    return sorted(table.items(), key=lambda kv: kv[0][1])


def _antichain(n):
    # divisibility-minimal vectors, as in ideal minimalization
    vs = sorted({(i % 5, i * 3 % 7, i * 5 % 4) for i in range(n)}, key=lambda v: (sum(v), v))
    keep = []
    for v in vs:
        if not any(all(x <= y for x, y in zip(u, v)) for u in keep):
            keep.append(v)
    return keep


def _lattice(n):
    # inclusion-exclusion terms and column sweeps, as in Hilbert counting
    return sum(comb(d + 2, 2) - max(0, d - k) for d in range(n) for k in range(0, n, 3))


def _merge(n):
    # a descending merge of progressions and a convex-hull sweep over it
    entries = sorted((a * r for a in (11, 7, 5, 3) for r in range(1, n)), reverse=True)
    hull = []
    for k, e in enumerate(entries):
        x = k + e
        while len(hull) >= 2 and (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0]) >= (x - hull[-2][1]) * (hull[-1][0] - hull[-2][0]):
            hull.pop()
        hull.append((k, x))
    return hull


def _cli():
    # a parser with subcommands built per call, then indented JSON to stdout
    parser = argparse.ArgumentParser(prog="kernel")
    subs = parser.add_subparsers(dest="command")
    for name in ("one", "two", "three"):
        sub = subs.add_parser(name, help=name)
        for flag in "abcdefgh":
            sub.add_argument(f"--{flag}")
        sub.add_argument("--m", type=int)
    args = parser.parse_args(["two", "--a", "1/2", "--m", "3"])
    with contextlib.redirect_stdout(io.StringIO()):
        print(json.dumps({"value": [args.a, args.m, list(range(300))]}, indent=2))


KERNELS = {
    "hilbert-ri": lambda: (_lattice(40), _antichain(40)),
    "family-shapes": lambda: (_fractions(60), _antichain(40)),
    "planar-sweep": lambda: (_merge(120), _fractions(20)),
    "cli-mix": lambda: (_fractions(40), _cli()),
}

# kernel times (ms) that define each workload's reference speed
REFERENCE_MS = {"hilbert-ri": 0.3, "family-shapes": 0.5, "planar-sweep": 0.4, "cli-mix": 1.2}


def kernel_ns(workload: str) -> int:
    start = perf_counter_ns()
    KERNELS[workload]()
    return perf_counter_ns() - start
