"""One set-up, or one pass of one workload, in a fresh interpreter.  run.py
starts it as

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED SPANS_FILE

MODE is ``setup`` (set-up only), ``pass`` or ``traced`` (a pass with the
tracer installed before set-up).  SPAWNED is the parent's
``time.monotonic()`` just before the start, so that ``setup_s`` runs from
a fresh interpreter to inputs ready.  Right after set-up the child runs a
block of calibration slices, which give the speed ``setup_s`` is scaled
by; during the pass it runs one between operations every
``speed.INTERVAL_S`` (see speed.py).  Times are reported both as measured
(``*_raw``) and scaled to the reference speed.  The child prints one JSON
object: set-up and pass timings, per-operation latencies, peak RSS, the
checked results and, when traced, the per-layer metrics; a traced pass
also writes its spans to SPANS_FILE.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from speed import SpeedLog

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SLICES = 20


def load_reference(name):
    """[digest, cost_ms] per pool entry of the workload."""
    with open(REFERENCE) as fh:
        return json.load(fh)[name]


def run_pass(workload, selected, tracer=None, speed=None):
    """Run every selected input once, closed loop, and time it.

    With a SpeedLog, a calibration slice runs before an operation whenever
    its interval has passed; slices are not part of any timing.  Returns
    (intervals, raised, emitted, outputs): ``intervals`` holds the
    (start, end) of every operation and, last, of the emission; ``raised``
    the positions of operations that raised.
    """
    outputs, intervals, raised = [], [], []
    for position, (_, item) in enumerate(selected):
        if speed is not None:
            speed.maybe_sample()
        start = time.perf_counter()
        try:
            if tracer is None:
                outputs.append(workload.run(item))
            else:
                with tracer.op(position):
                    outputs.append(workload.run(item))
        except Exception:
            traceback.print_exc()
            raised.append(position)
        intervals.append((start, time.perf_counter()))
    if speed is not None:
        speed.maybe_sample()
    start = time.perf_counter()
    emitted = workload.emit(outputs)
    intervals.append((start, time.perf_counter()))
    if speed is not None:
        speed.sample()
    return intervals, raised, emitted, outputs


def check(workload, selected, raised, emitted, outputs, reference):
    """Compare each operation's canonical result with its reference digest.

    Returns (failed positions, digest of the whole pass's results).
    """
    from workloads import digest

    ok = [p for p in range(len(selected)) if p not in set(raised)]
    try:
        texts = workload.results([selected[p][1] for p in ok], outputs, emitted)
    except Exception:
        traceback.print_exc()
        return list(range(len(selected))), None
    failed = list(raised)
    for position, text in zip(ok, texts):
        if digest(text) != reference[selected[position][0]][0]:
            failed.append(position)
    return sorted(failed), digest("\n".join(texts))


def main(argv):
    name, seed, mode, spawned, spans_path = argv[1], int(argv[2]), argv[3], float(argv[4]), \
        argv[5]
    import workloads  # imports semicurve.cli: part of the measured set-up

    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
    workload = workloads.WORKLOADS[name]()
    reference = load_reference(name)
    selected = workload.select(seed, [cost for _, cost in reference])
    setup_s = time.monotonic() - spawned
    speed = SpeedLog()
    speed.block(SETUP_SLICES)
    setup_factor = speed.factor()
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s * setup_factor, "setup_raw_s": setup_s}))
        return 0

    pass_start = time.perf_counter()
    intervals, raised, emitted, outputs = run_pass(workload, selected, tracer, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, results_digest = check(workload, selected, raised, emitted, outputs, reference)
    raw = [end - start for start, end in intervals]
    scaled = [(end - start) * speed.factor(start, end) for start, end in intervals]
    import semicurve
    out = {
        "setup_s": setup_s * setup_factor,
        "setup_raw_s": setup_s,
        "wall_s": sum(scaled),
        "wall_raw_s": sum(raw),
        "latency_ms": [x * 1000.0 for x in scaled[:-1]],
        "latency_raw_ms": [x * 1000.0 for x in raw[:-1]],
        "intervals": [[a - pass_start, b - pass_start] for a, b in intervals],
        "slices": [[e - pass_start, t] for e, t in zip(speed.ends, speed.times)],
        "speed": speed.factor(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(selected),
        "failed": len(failed),
        "results_digest": results_digest,
        "counts": workload.counts(outputs),
        "backend": semicurve.BACKEND,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(pass_start, sum(raw))
        out["stages"] = tracer.stage_self_s(pass_start)
        tracer.write(spans_path, pass_start)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
