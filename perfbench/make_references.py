"""Regenerate references.json from the outputs of the checked-out program.

    python3 perfbench/make_references.py

The references are what the benchmark compares each run's outputs against.
Every input set of every workload in REF_WORKLOADS is rebuilt, at both sizes.
Regenerate them only with a change that is meant to alter ocolc's results;
a performance change must reproduce the stored values.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REF_WORKLOADS = ("sweep-toy", "run-dispatch", "trace-ds")


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    from tracing import Probe
    from workloads import REFERENCE_SLOTS, SIZES, WORKLOADS, _SingleRun, roundtrip_problem

    refs = {}
    work = ROOT / ".perfbench_out" / "references"
    probe = Probe()
    probe.install()
    try:
        for name in REF_WORKLOADS:
            for size in SIZES[name]:
                table = refs.setdefault(name, {}).setdefault(size, {})
                for slot in range(REFERENCE_SLOTS):
                    wl = WORKLOADS[name](slot, size, work, {})
                    wl.prepare()
                    out = work / f"{name}-{size}-{slot}"
                    shutil.rmtree(out, ignore_errors=True)
                    out.mkdir(parents=True)
                    outcome = wl.execute(out, probe)
                    if isinstance(wl, _SingleRun):
                        problem = roundtrip_problem(outcome.trace, outcome.cols, wl._summary(outcome))
                        if problem:
                            raise SystemExit(f"{name} {size} set {slot}: {problem}")
                    table[str(slot)] = wl.reference(outcome)
                    shutil.rmtree(out)
                    print(f"{name} {size} set {slot}: done", flush=True)
    finally:
        probe.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    (BENCH_DIR / "references.json").write_text(dump(refs), encoding="utf-8")
    return 0


def dump(refs: dict) -> str:
    """JSON with one line per input set, so a changed reference shows as
    one changed line in a diff."""

    def block(items, indent, render):
        pad = " " * indent
        body = ",\n".join(f"{pad} {json.dumps(k)}: {render(v)}" for k, v in items)
        return "{\n" + body + "\n" + pad + "}"

    def slots(table):
        return block(sorted(table.items(), key=lambda kv: int(kv[0])), 2,
                     lambda entry: json.dumps(entry, sort_keys=True))

    return block(sorted(refs.items()), 0,
                 lambda sizes: block(sorted(sizes.items()), 1, slots)) + "\n"


if __name__ == "__main__":
    sys.exit(main())
