"""Record the reference result and cost of every input the benchmark can run.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each named workload (default: all), runs the whole input pool
PASSES times, each time in a fresh interpreter, and requires every pass
to give the same results.  Writes to perfbench/reference.json, per pool
entry, the pair [digest of its canonical result, its cost in
milliseconds], keeping the entries of workloads not named.  The cost is
the smallest over the passes of the entry's time scaled to the reference
speed by calibration slices, as run.py measures latency (speed.py), so
that the drift of a shared machine's speed does not reorder the pool.  The
costs only order the pool for the seeded selection (workloads.py).

The full pools take about half an hour on the pure-Python backend.
Regenerate only after a change that is meant to alter results or the
pools, and say so: a new reference changes what every seed selects.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
PASSES = 3


def one_pass(name):
    """Digest and cost of every pool entry, in this interpreter."""
    import workloads
    from speed import SpeedLog

    workload = workloads.WORKLOADS[name]()
    speed = SpeedLog()
    items, outputs, intervals = [], [], []
    for index in range(workload.size()):
        item = workload.entry(index)
        speed.maybe_sample()
        t0 = time.perf_counter()
        outputs.append(workload.run(item))
        intervals.append((t0, time.perf_counter()))
        items.append(item)
    speed.sample()
    cost_ms = [round((end - start) * speed.factor(start, end) * 1000.0, 2)
               for start, end in intervals]
    texts = workload.results(items, outputs, workload.emit(outputs))
    return [[workloads.digest(t), c] for t, c in zip(texts, cost_ms)]


def reference_for(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    env.pop("SEMICURVE_PURE_PY", None)
    runs = []
    for _ in range(PASSES):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--pass", name],
                              env=env, stdout=subprocess.PIPE, check=True)
        runs.append(json.loads(proc.stdout))
    entries = []
    for passes in zip(*runs):
        if len({d for d, _ in passes}) != 1:
            raise SystemExit(f"{name}: results differ between passes")
        entries.append([passes[0][0], min(c for _, c in passes)])
    return entries


def write(reference):
    """One pool entry, [digest, cost_ms], per line."""
    with open(REFERENCE, "w") as fh:
        fh.write("{\n")
        for n, name in enumerate(sorted(reference)):
            body = ",\n".join(json.dumps(e) for e in reference[name])
            fh.write(f"{json.dumps(name)}: [\n{body}\n]{',' if n < len(reference) - 1 else ''}\n")
        fh.write("}\n")


def main(argv):
    if argv[:1] == ["--pass"]:
        sys.path.insert(0, HERE)
        print(json.dumps(one_pass(argv[1])))
        return 0
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    for name in argv or sorted(workloads.WORKLOADS):
        reference[name] = reference_for(name)
        print(f"{name}: {len(reference[name])} entries, "
              f"{sum(c for _, c in reference[name]) / 1000.0:.1f} s", file=sys.stderr)
        write(reference)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
