"""Benchmark the compiled exponent kernels against the pure-Python twins.

Two layers:
  raw         time each kernel function directly on synthetic workloads
  end-to-end  time a small survey in subprocesses, once per backend
              (the backend is chosen at import via SEMICURVE_PURE_PY)

Usage: python benchmarks/bench_kernels.py [--repeat N] [--seed N] [--end-to-end]
"""
import argparse
import os
import random
import subprocess
import sys
import time

from semicurve import _kernels_py as pure

try:
    from semicurve import _speedups as compiled
except ImportError:
    compiled = None


def _random_rows(rng, count, arity, max_exp):
    return [tuple(rng.randrange(max_exp + 1) for _ in range(arity))
            for _ in range(count)]


def _workloads(seed):
    rng = random.Random(seed)
    gens = _random_rows(rng, 64, 5, 8)
    targets = _random_rows(rng, 512, 5, 12)
    crowded = _random_rows(rng, 256, 4, 6)
    other = _random_rows(rng, 48, 5, 8)
    g = tuple(rng.randrange(5) for _ in range(5))
    return [
        ("divides_any x512", lambda k: [k.divides_any(gens, t) for t in targets]),
        ("all_divisible", lambda k: k.all_divisible(targets, gens)),
        ("minimalize 256", lambda k: k.minimalize(crowded)),
        ("pairwise_product", lambda k: k.pairwise_product(gens, other)),
        ("pairwise_lcm", lambda k: k.pairwise_lcm(gens, other)),
        ("colon_by_monomial", lambda k: k.colon_by_monomial(gens, g)),
    ]


def _time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_raw(repeat, seed):
    print(f"{'kernel':<20} {'pure ms':>10} {'compiled ms':>12} {'speedup':>8}")
    for name, work in _workloads(seed):
        t_pure = _time(lambda: work(pure), repeat) * 1000.0
        if compiled is None:
            print(f"{name:<20} {t_pure:>10.3f} {'n/a':>12} {'n/a':>8}")
            continue
        a = work(pure)
        b = work(compiled)
        if a != b:
            raise SystemExit(f"backend disagreement in {name}")
        t_comp = _time(lambda: work(compiled), repeat) * 1000.0
        print(f"{name:<20} {t_pure:>10.3f} {t_comp:>12.3f} {t_pure / t_comp:>7.1f}x")


_SURVEY_SNIPPET = (
    "import time; from semicurve import BACKEND; "
    "from semicurve.survey import Bounds, survey; "
    "t0 = time.perf_counter(); rep = survey(Bounds((1, 2), 15, 15), depth=4); "
    "print(BACKEND, len(rep.instances), f'{time.perf_counter() - t0:.2f}s', "
    "'ok' if rep.ok else 'FAILED')"
)


def bench_end_to_end():
    """One row per backend, labelled by the BACKEND the child reports."""
    pure_flags = ["", "1"]  # "" keeps the default backend, "1" forces pure Python
    if compiled is None:
        print(f"survey p<=2,bounds 15 [{'compiled':>8}]: n/a")
        pure_flags = ["1"]
    for flag in pure_flags:
        env = dict(os.environ, SEMICURVE_PURE_PY=flag)
        out = subprocess.run([sys.executable, "-c", _SURVEY_SNIPPET], env=env,
                             capture_output=True, text=True, check=True)
        backend, result = out.stdout.strip().split(" ", 1)
        print(f"survey p<=2,bounds 15 [{backend:>8}]: {result}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=25,
                        help="timing repetitions, best-of (default 25)")
    parser.add_argument("--seed", type=int, default=7, help="workload RNG seed")
    parser.add_argument("--end-to-end", action="store_true",
                        help="also run a small survey per backend in subprocesses")
    args = parser.parse_args(argv)
    if compiled is None:
        print("compiled backend unavailable; timing pure Python only", file=sys.stderr)
    bench_raw(args.repeat, args.seed)
    if args.end_to_end:
        bench_end_to_end()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
