"""Record the reference outputs of every pool member and verify the pools.

    python3 lpbench/record_refs.py [WORKLOAD ...]

For workloads checked against references (golden-mc, ot4-analyze) this
rewrites ``lpbench/refs/<workload>.json`` from the current source.  For
every workload it then runs all output checks on every pool member and
exits 1 if any op fails, so a pool never holds an input the benchmark
would count as a failure.  Re-record only when a change is meant to alter
the primary outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run  # sets up sys.path and thread limits
import checks
import workloads

REFS = Path(__file__).resolve().parent / "refs"


def record(name: str) -> int:
    work = run.WORK / f"record-{name}"
    shutil.rmtree(work, ignore_errors=True)
    ctx = run.prepare(name, work, with_refs=False)
    files = checks.reference_files(name)
    refs = {}
    bad = 0
    for index in range(workloads.POOL_SIZE):
        out = work / f"op-{index:02d}"
        seconds, error = run.run_op(ctx["modules"]["cli"],
                                    workloads.commands(name, index, ctx["inputs"][index], out), out)
        problems = [error] if error else []
        if not problems and files is not None:
            refs[str(index)] = checks.record_reference(out, *files)
        if not problems:
            problem = checks.load_json(ctx["inputs"][index] / "problem.json")
            problems = checks.check_op(name, out, problem, refs.get(str(index)))
        bad += bool(problems)
        print(f"{name} pool {index:2d}: {seconds:.2f} s {'; '.join(problems) or 'ok'}", flush=True)
        shutil.rmtree(out)
    shutil.rmtree(work)
    if files is not None and not bad:
        REFS.mkdir(exist_ok=True)
        with open(REFS / f"{name}.json", "w", encoding="utf-8", newline="\n") as handle:
            json.dump(refs, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return bad


def main(argv) -> int:
    names = argv or workloads.WORKLOADS
    return 1 if sum(record(name) for name in names) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
