#!/usr/bin/env python3
"""Replay the cli-mix calls in-process and print one digest of their output.

    python tools/cli_replay.py

Every call of the cli-mix pools of `benchmarks/workloads.py` for the seeds
11 and 12345 runs once through `limshape.cli.main`, in pool order.  The
output is the number of calls, the number per exit code, and one sha256 over
(argv, exit code, stdout, stderr) of every call.  Two trees that print the
same digest print the same bytes on every one of those calls, so a change
that claims no new output can be checked by running this on both.

The benchmark modules are only imported, never written (no bytecode is
saved), and nothing is timed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (11, 12345)


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import limshape
    import limshape.cli  # noqa: F401  (the workload calls it as limshape.cli)
    from workloads import WORKLOADS, _run_cli

    digest, codes = hashlib.sha256(), Counter()
    for seed in SEEDS:
        for inp in WORKLOADS["cli-mix"].generate(limshape, seed):
            for call in inp["calls"]:
                code, out, err = _run_cli(limshape, call["argv"])
                codes[code] += 1
                digest.update(json.dumps([call["argv"], code, out, err]).encode() + b"\n")
    print(f"calls: {sum(codes.values())}")
    for code in sorted(codes):
        print(f"exit {code}: {codes[code]}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
