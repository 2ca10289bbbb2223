"""Run every workload over several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--out FILE]

Runs ``run.py --trace 0`` once per workload and seed, with the run length
from BENCHMARK.json, then reports per workload and metric the median, the
quartiles and the spread (distance between the quartiles as a share of
the median), which must stay within the metric's bound.  With ``--out``
it writes the summary, the environment stamp and every run's values as
JSON; perfbench/baseline.json was written this way.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: results are not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def environment(workload, seed):
    """The environment stamp run.py recorded for this run."""
    path = os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        return json.load(fh)["environment"]


def summary(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, table = {}, {}
    for name in names:
        runs[name] = [one_run(name, seed, spec["run_seconds"]) for seed in args.seeds]
        table[name] = {m: summary([r[m] for r in runs[name]], b) for m, b in bounds.items()}
        for metric, s in table[name].items():
            flag = "" if metric == "setup_s" or s["spread"] <= s["bound"] / 3 else \
                "  <- above a third of the bound"
            print(f"{name:12s} {metric:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.3f} (bound {s['bound']}){flag}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": environment(names[-1], args.seeds[-1]), "seeds": args.seeds,
                       "run_seconds": spec["run_seconds"], "summary": table, "runs": runs},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
