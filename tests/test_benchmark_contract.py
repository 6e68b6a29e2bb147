"""The names the benchmark harness in ``perfbench/`` rebinds still exist.

The harness's tracer and hooks are installed on the package in a fresh
process, because they rebind module globals and ``numpy.linalg`` for the
rest of the process, and one short round of the reference command runs
through them. A change that removes or renames a name the harness reads
fails here, not only in the minutes-long ``python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ROUND = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import fusionframes, fusionframes.cli
from tracing import Tracer
from worker import Hooks

tracer = Tracer()
tracer.install(fusionframes)
hooks = Hooks(tracer)
hooks.install(fusionframes)
with contextlib.redirect_stdout(io.StringIO()):
    code = fusionframes.cli.main(["check", "--suite", "all", "--random", "3", "--seed", "0"])
calls = tracer.snapshot()["calls"]
print(json.dumps({
    "exit": code,
    "certificates": len(hooks.certificates),
    "validations": calls.get("ovf.DualCandidate.__post_init__", 0),
}))
"""


def test_a_traced_round_runs_through_the_benchmark_hooks():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", ROUND, str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0
    # per instance: the dual_span rank, the null-certificate nullity and four
    # excess calls in each of the two excess-reading checks
    assert result["certificates"] == 30
    # canonical duals and separating witnesses go through the validating constructor
    assert result["validations"] > 0
