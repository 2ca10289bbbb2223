"""The benchmark's self-test and its tracer run against the package in
src/: a change that breaks an API they call, or moves a result off its
reference digest, fails here."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout.decode()


TRACED = """
import json
import workloads
from tracer import Tracer
from semicurve.semigroup import CurveInstance

tracer = Tracer()
tracer.install(extra_modules=[workloads])
workloads.front_half(CurveInstance.parse("21,22,23,24;16"))
workloads.CorpusRR().run(CurveInstance.parse("5,8,11;7"))
print(json.dumps(tracer.metrics(0.0, 1.0)))
"""


def test_tracer_finds_every_name_it_rebinds():
    # The self-test never installs the tracer, which rebinds program names
    # by getattr: a name it lists and the program lost fails only here.
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", TRACED], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    metrics = json.loads(proc.stdout)
    assert metrics["survey.compare_selector.calls"] > 0
    assert metrics["semigroup.derive.calls"] > 0
    # The stage calls socle_probe by name, so the probe's span counts the
    # three socle candidates of 5,8,11;7.
    assert metrics["ratliff_rush.socle_candidates"] == 3
