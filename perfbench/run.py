"""Benchmark of the semicurve pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs building, because
the package runs on the backend ``semicurve.kernels`` selects at import.
Every set-up and every pass of the workload runs in a fresh
single-threaded child process (child.py), and a pass is one client in a
closed loop: the next operation starts when the previous one returns.
A run first sets up SETUP_RUNS times, then repeats passes over the same
seeded inputs until ``--seconds`` is spent, with at least MIN_PASSES.
Every result is checked against reference.json.

Times are scaled to a fixed reference speed by calibration slices the
child runs between operations (speed.py), because the speed of a shared
machine drifts by up to a factor of two over tens of seconds.  With
``--trace 0``, ``wall_s`` is the median of the run's passes,
``op_ms_p50``, ``op_ms_p90`` and ``op_ms_p95`` are percentiles over the
latencies of every operation of every untraced pass, ``peak_rss_mb`` is the median over the
passes and ``setup_s`` the median over every set-up.
With ``--trace 1`` traced and untraced passes alternate; the per-layer
metrics are medians over the traced passes (their times as measured, not
scaled), and ``trace.overhead_s`` is the median traced minus the median
untraced ``wall_s``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record, with the environment stamp, is written to
.perfbench/results/ and the spans of traced passes to .perfbench/spans/.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 1
MIN_PASSES = 3
MAX_PASSES = 40
CHILD_TIMEOUT_S = 150
# Settings a user may have exported; each is recorded, then cleared in the
# child so that the backend is the import default and the depth is the
# workload's.
CLEARED_ENV = ("SEMICURVE_PURE_PY", "SEMICURVE_RR_DEPTH")


def child_env():
    env = dict(os.environ)
    for key in CLEARED_ENV:
        env.pop(key, None)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))
    return env


def run_child(workload, seed, mode, index, env):
    spans = os.path.join(OUT, "spans", f"{workload}-seed{seed}-pass{index}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), mode,
           repr(time.monotonic()), spans]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} {index} of {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["traced"] = mode == "traced"
    return result


def measure(workload, seed, seconds, trace):
    """Set-ups, then passes until the time budget is spent."""
    env = child_env()
    start = time.monotonic()
    setups = [run_child(workload, seed, "setup", i, env)["setup_s"] for i in range(SETUP_RUNS)]
    modes = itertools.cycle(("traced", "pass") if trace else ("pass",))
    passes, durations = [], []
    while len(passes) < MAX_PASSES:
        t0 = time.monotonic()
        passes.append(run_child(workload, seed, next(modes), len(passes), env))
        durations.append(time.monotonic() - t0)
        if len(passes) >= MIN_PASSES and \
                time.monotonic() - start + statistics.median(durations) > seconds:
            break
    return setups, passes


def stamp():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    src_root = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src_root)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            src.update(os.path.relpath(path, src_root).encode() + b"\0")
            with open(path, "rb") as fh:
                src.update(fh.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "inherited_env": {k: os.environ[k] for k in CLEARED_ENV if k in os.environ},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "semicurve", "__init__.py")):
        print(f"error: no semicurve sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for sub in ("results", "spans"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)

    setups, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["results_digest"] for p in passes}
    ops = passes[0]["attempted"]

    latencies = [x for p in plain for x in p["latency_ms"]]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": statistics.quantiles(latencies, n=100, method="inclusive")[89],
        "op_ms_p95": statistics.quantiles(latencies, n=100, method="inclusive")[94],
        "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "error_rate": failed / attempted,
    }
    if traced:
        values.update({k: statistics.median(p["layers"][k] for p in traced)
                       for k in traced[0]["layers"]})
        values["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    correct = failed == 0 and len(digests) == 1 and None not in digests

    env = stamp()
    env["backend"] = sorted({p["backend"] for p in passes})
    print(f"perfbench {args.workload} seed {args.seed}: {len(setups)} set-ups, "
          f"{len(plain)} untraced + {len(traced)} traced passes x {ops} operations, "
          "closed loop, one client")
    print(f"environment: python {env['python']}, backend {','.join(env['backend'])}, "
          f"nproc {env['nproc']}, commit {env['commit']}, src {env['src_sha256'][:16]}, "
          f"inherited {env['inherited_env'] or 'none'}")
    factors = [p["speed"] for p in passes]
    print(f"speed: calibration factor {min(factors):.3f}-{max(factors):.3f} over the passes "
          f"(scaled time = measured time x factor; see speed.py)")
    # Printed, but not BENCHMARK.json metrics: error_rate is 0, and op_ms_p90
    # of corpus_rr falls in a gap of its latency distribution (README.md).
    extra = {"op_ms_p90": "ms", "error_rate": "ratio"}
    units = dict(extra)
    units.update({m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    shown = [m["name"] for m in spec["end_to_end"]] + list(extra)
    if args.trace:
        shown += [m["name"] for m in spec["per_layer"]]
    for name in shown:
        print(f"  {name:34s} {values[name]:.6g} {units[name]}")
    pooled = ops * len(plain)
    print(f"  op_ms_p95 is over {pooled} latencies ({ops} operations x {len(plain)} passes), "
          f"{pooled - int(0.95 * pooled)} beyond it")
    print(f"  error_rate: {failed} of {attempted} operations raised or differ from the reference")
    counts = passes[0]["counts"]
    if counts:
        print("  results, not failures: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    if traced:
        stages = traced[0]["stages"]
        print("  self time by span, first traced pass: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in list(stages.items())[:6]))
    if len(digests) != 1:
        print("  results differ between passes of the same inputs")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "attempted": attempted, "failed": failed, "values": values,
              "setups": setups, "passes": passes}
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
