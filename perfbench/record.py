"""Record the benchmark's stored expectations and its baseline.

    python3 perfbench/record.py expected SEED...
    python3 perfbench/record.py baseline SEED

``expected`` checks every workload's instances for each seed (for
random-mix, the first STORED_ROUNDS rounds of its stream) in one untraced
worker and stores the ``suite:instance:verdicts|certificates`` rows,
compressed, in ``expected.json``. A seed whose checks do not pass the
closed-form verification is refused, so only verified outcomes are
stored. ``baseline`` runs ``run.py`` on every workload with and without tracing, for the run
length in ``BENCHMARK.json``, and writes the results to ``baseline.json``.
Regenerate ``expected.json`` only when verdicts or certificates change on
purpose, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

STORED_ROUNDS = 12


def record_expected(seeds):
    path = run.HERE / "expected.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    for workload, make in run.WORKLOADS.items():
        for seed in seeds:
            work = Path(tempfile.mkdtemp(prefix="record-", dir=run.ROOT / ".perfbench_work"))
            try:
                gens, rounds = make(seed, work)
                if gens and run.run_round(gens, False, work, "setup") is None:
                    raise SystemExit(f"{workload} seed {seed}: set-up failed")
                checks = []
                for r in range(STORED_ROUNDS):
                    checks += [argv for argv in rounds(r) if argv not in checks]
                argvs = run.with_reports(checks, work, "record")
                result = run.run_round(argvs, False, work, "record")
                if result is None:
                    raise SystemExit(f"{workload} seed {seed}: round failed")
                attempted, failed, _ = run.verify(argvs, result, None)
                if failed:
                    raise SystemExit(f"{workload} seed {seed}: {failed} of {attempted} checks failed")
                rows = run.encode(argvs, result, *run.outcomes(argvs, result))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            stored.setdefault(workload, {})[str(seed)] = run.pack(rows)
            print(f"{workload} seed {seed}: {attempted} checks", flush=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def record_baseline(seed):
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {
        "seed": seed,
        "run_seconds": seconds,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            key = "per_layer" if trace else "end_to_end"
            doc["workloads"].setdefault(workload, {})[key] = result
            print(f"{workload} trace {trace}: correct {result['correct']}", flush=True)
    (run.HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    mode, *values = sys.argv[1:]
    if mode == "expected" and values:
        record_expected([int(v) for v in values])
    elif mode == "baseline" and len(values) == 1:
        record_baseline(int(values[0]))
    else:
        raise SystemExit(__doc__)
