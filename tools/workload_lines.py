#!/usr/bin/env python3
"""List the statements of `src/limshape` that no benchmark workload reaches.

    python tools/workload_lines.py

For each workload of `benchmarks/workloads.py` and each of the seeds 1 and
2, the pool is generated and one pass of its jobs is run, all under a
`sys.settrace` line tracer that is on from before `import limshape`.  The
output checks are left out: they recompute each answer in `oracles.py`,
which took most of the time, and with them the same lines were reached.  A
statement counts as executable when a code object of its module starts a
line there.  The first block printed is one row per module (executable
statements, unreached ones) and a total; then, after a blank line, each
unreached statement as `path:line: source`.

The benchmark modules are only imported, never written (no bytecode is
saved), and nothing is timed: the tracer slows the jobs several times over.
"""

from __future__ import annotations

import dis
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "limshape"
SEEDS = (1, 2)


def executable_lines(path: Path) -> set:
    """The lines where some code object compiled from `path` starts a line."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def reached_lines() -> dict:
    """{module path: lines run} over one pass of every workload and seed."""
    reached: dict = {str(path): set() for path in PACKAGE.glob("*.py")}
    # the lines each traced code object starts and no frame has run yet; a
    # code object with none left is no longer traced
    left: dict = {}

    def see(frame):
        code = frame.f_code
        reached[code.co_filename].add(frame.f_lineno)
        lines = left[code]
        lines.discard(frame.f_lineno)
        return local if lines else None

    def local(frame, event, arg):
        return see(frame) if event == "line" else local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in reached:
            return None
        if code not in left:
            left[code] = {line for _, line in dis.findlinestarts(code) if line}
        return see(frame)

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks")]
    sys.settrace(tracer)
    try:
        import limshape
        import limshape.cli  # noqa: F401  (loaded by every benchmark set-up)
        from workloads import WORKLOADS

        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                for inp in workload.generate(limshape, seed):
                    try:
                        workload.job(limshape, inp)
                    except Exception as exc:  # a failing job is reported, not fatal
                        print(f"{name} seed {seed}: {type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        sys.settrace(None)
    return reached


def main() -> int:
    reached = reached_lines()
    rows, missed = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        unreached = sorted(executable - reached[str(path)])
        name = str(path.relative_to(SRC))
        rows.append((name, len(executable), len(unreached)))
        source = path.read_text(encoding="utf-8").splitlines()
        missed += [f"src/{name}:{line}: {source[line - 1].strip()}" for line in unreached]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  statements  unreached")
    for name, executable, unreached in rows:
        print(f"{name:<{width}}  {executable:>10}  {unreached:>9}")
    print()
    print("\n".join(missed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
