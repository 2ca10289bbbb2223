"""Self-test of the benchmark's result check: altered results are caught.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs a few operations of every workload in this process and requires the
unaltered results to match reference.json.  It then alters results the
way a faulty program would, and requires each altered operation to count
as failed:
  front_wide   one S-pair count changed in every result
  corpus_rr    one byte of the emitted CSV changed
  large_gens   one operation raises
Exits 0 when all of this holds, 1 otherwise.
"""
from __future__ import annotations

import dataclasses
import sys

from child import check, load_reference, run_pass
from workloads import WORKLOADS

OPS = 3


def failures(workload, selected, reference):
    _, raised, emitted, outputs = run_pass(workload, selected)
    failed, _ = check(workload, selected, raised, emitted, outputs, reference)
    return len(failed)


def alter_gb(output):
    dp, gens, gb, computed, closed, colon = output
    gb = dataclasses.replace(gb, pairs_checked=gb.pairs_checked + 1)
    return dp, gens, gb, computed, closed, colon


def alter_csv(emitted):
    data_json, data_csv = emitted
    header, first, rest = data_csv.split(b"\n", 2)
    return data_json, b"\n".join((header, b"X" + first[1:], rest))


def main():
    ok = True

    def expect(label, got, want):
        nonlocal ok
        good = got == want
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'} {label}: {got} failed, expected {want}")

    for name, cls in WORKLOADS.items():
        workload = cls()
        reference = load_reference(name)
        selected = workload.select(1, [cost for _, cost in reference])[:OPS]
        expect(f"{name} unaltered", failures(workload, selected, reference), 0)

        run, emit = workload.run, workload.emit
        want = OPS
        if name == "front_wide":
            workload.run = lambda item: alter_gb(run(item))
        elif name == "corpus_rr":
            workload.emit = lambda outputs: alter_csv(emit(outputs))
            want = 1
        else:
            doomed = selected[1][1]

            def raising(item):
                if item is doomed:
                    raise RuntimeError("injected failure")
                return run(item)
            workload.run = raising
            want = 1
        expect(f"{name} altered", failures(workload, selected, reference), want)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
