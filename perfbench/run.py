"""Benchmark of the fusionframes verification CLI.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the package is imported from the
checkout's ``src`` directory, never from an installed copy. One run sets up
the workload's inputs from ``--seed`` (instance files are written by
``fusionframes gen``), then repeats rounds until ``--seconds`` are used. A
round is one fresh, single-threaded worker process (BLAS pinned to one
thread) that runs the workload's ``fusionframes check`` invocations in
order: a closed loop with one client. Each round has a wall-clock limit; a
round that hangs or crashes counts all its checks as failed.

Every check's verdict is verified: it must not be ``fail``, its integer
certificates must equal their closed forms, and for the seeds stored in
``expected.json`` the whole ``(invocation, trial, check, verdict,
certificates)`` list must match exactly.

The machine's speed drifts by a quarter and more over seconds to minutes (a
few cores of a shared host), so every end-to-end time is reported at a
reference speed: between checks, every ``worker.PROBE_EVERY_S``, an untraced
worker times a fixed probe kernel (see ``worker.py``). A check's latency is
multiplied by ``PROBE_REF_S`` over the mean time of the probes within
``PROBE_WINDOW_S`` of the check, and a round's other times by ``PROBE_REF_S``
over the round's mean probe time. Probe time is left out of every measured
interval. The unscaled times and the probe times are printed too.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
rounds alternate between untraced and traced workers (see ``tracing.py``)
and the run prints the per-layer metrics. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import base64
import bisect
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND_LIMIT_S = 60.0
MIN_ROUNDS = 3
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The tail percentile is fixed per workload, so a faster commit, which fits
# more checks into a run, is measured at the same percentile: the highest of
# p99.9, p99.5, p99, p95 with at least 10 samples beyond it in a run of
# BENCHMARK.json's length at the commit that defined the benchmark.
TAIL_PERCENTILE = {"random-mix": 99.5, "duals-sweep": 95.0, "multipliers-wide": 95.0}
RANDOM_MIX_COUNT = 40
RANDOM_MIX_STREAM = 100_000  # instance seeds reserved per benchmark seed
DUALS_FILES_PER_DIM = 3
WIDE_FILES = 8
WIDE_DIMS = tuple(range(1, 7)) * 4  # 24 blocks, each dimension 1..6 four times
# Median time of one worker probe (see worker.py) in the runs that tuned
# the benchmark (2-vCPU Xeon VM, Python 3.11, NumPy 2.4, one BLAS thread).
PROBE_REF_S = 0.0007
PROBE_WINDOW_S = 0.25


# --- workloads -------------------------------------------------------------
# Each returns (gen argvs, rounds) for a seed, where rounds(r) gives the check
# argvs of round r. Instance files are written into ``work``.


def random_mix(seed, work):
    # each round checks the next RANDOM_MIX_COUNT instances of the seed's
    # stream, so a run averages over many instances, not one small draw
    def rounds(r):
        base = seed * RANDOM_MIX_STREAM + r * RANDOM_MIX_COUNT
        return [["check", "--suite", "all", "--random", str(RANDOM_MIX_COUNT), "--seed", str(base)]]

    return [], rounds


def duals_sweep(seed, work):
    # several files per dimension, so a run's cost does not hang on one
    # draw's early exit from the separating-dual sweep
    rng = random.Random(f"duals-sweep:{seed}")
    gens, checks = [], []
    for n in (8, 12, 16):
        for i in range(DUALS_FILES_PER_DIM):
            path = str(work / f"duals-{n}-{i}.json")
            dims = f"{n // 2},{3 * n // 4},{n},{n}"
            gens.append(["gen", "--dim", str(n), "--blocks", "4", "--dims", dims,
                         "--seed", str(rng.randrange(2**32)), "-o", path])
            checks.append(["check", "--suite", "duals", path])
    return gens, lambda r: checks


def multipliers_wide(seed, work):
    rng = random.Random(f"multipliers-wide:{seed}")
    gens, checks = [], []
    for i in range(WIDE_FILES):
        path = str(work / f"wide-{i}.json")
        # every file has the same block dimensions, in the seed's order, so
        # the seed moves the operators and not the amount of work; blocks
        # stay at most n/2, as larger ones make local-frame redraws (see
        # meta.json) dominate
        dims = ",".join(map(str, rng.sample(WIDE_DIMS, len(WIDE_DIMS))))
        gens.append(["gen", "--dim", "12", "--blocks", "24", "--dims", dims,
                     "--symbol", "random_C_holding", "--local", "2",
                     "--seed", str(rng.randrange(2**32)), "-o", path])
        for suite in ("multipliers", "local", "schatten"):
            checks.append(["check", "--suite", suite, path])
    return gens, lambda r: checks


WORKLOADS = {
    "random-mix": random_mix,
    "duals-sweep": duals_sweep,
    "multipliers-wide": multipliers_wide,
}


def instance_ids(argv):
    """Names of the instances one check invocation runs on, in trial order."""
    if "--random" in argv:
        base = int(argv[argv.index("--seed") + 1])
        return [str(base + t) for t in range(int(argv[argv.index("--random") + 1]))]
    return [Path(argv[3]).name]


# --- rounds ----------------------------------------------------------------


def run_round(argvs, trace, work, tag):
    """Run one worker process; return its measurements, or None if it failed."""
    spec = work / f"{tag}.spec.json"
    out = work / f"{tag}.out.json"
    log = work / f"{tag}.log"
    spec.write_text(json.dumps({"root": str(ROOT), "argvs": argvs, "trace": bool(trace)}))
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src")}
    with open(log, "wb") as fh:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec), str(out)],
                cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
                timeout=ROUND_LIMIT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"round {tag}: timed out after {ROUND_LIMIT_S:.0f} s", file=sys.stderr)
            return None
    if proc.returncode != 0 or not out.exists():
        tail = log.read_text(errors="replace")[-2000:]
        print(f"round {tag}: worker exited with {proc.returncode}\n{tail}", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def with_reports(argvs, work, tag):
    return [argv + ["--report", str(work / f"{tag}.report{j}.json")] for j, argv in enumerate(argvs)]


# --- verification ----------------------------------------------------------


def _suite(argv):
    return argv[argv.index("--suite") + 1]


def outcomes(argvs, result):
    """Map (suite, instance, check) to its verdict letter and certificates."""
    verdicts, certs = {}, {}
    for j, argv in enumerate(argvs):
        ids = instance_ids(argv)
        report = Path(argv[argv.index("--report") + 1])
        if report.exists():
            for entry in json.loads(report.read_text())["checks"]:
                key = (_suite(argv), ids[entry["trial"]], entry["name"])
                verdicts[key] = entry["verdict"][0].upper()
    for j, trial, name, kind, got, closed_form in result["certificates"]:
        key = (_suite(argvs[j]), instance_ids(argvs[j])[trial], name)
        certs.setdefault(key, []).append((got, closed_form))
    return verdicts, certs


def _row(names, suite, iid, verdicts, certs):
    """Verdict letters in suite order ('.' where the check did not apply),
    then ``|check=certificates`` for each check that recorded some."""
    row = "".join(verdicts.get((suite, iid, name), ".") for name in names)
    for name in names:
        if (suite, iid, name) in certs:
            row += f"|{name}=" + ",".join(_flat(got) for got, _ in certs[(suite, iid, name)])
    return row


def _flat(value):
    return "/".join(map(str, value)) if isinstance(value, list) else str(value)


def _parse(row):
    letters, *cert_parts = row.split("|")
    return letters, dict(part.split("=", 1) for part in cert_parts)


def encode(argvs, result, verdicts, certs):
    """Rows ``suite:instance:verdicts|certificates``, one per checked instance."""
    return [
        f"{_suite(argv)}:{iid}:" + _row(result["suites"][_suite(argv)], _suite(argv), iid, verdicts, certs)
        for argv in argvs
        for iid in instance_ids(argv)
    ]


def verify(argvs, result, expected):
    """Return (attempted, failed, checks given a verdict) for one completed round.

    A check fails when its verdict is ``fail`` (aborted checks carry the
    1e300 residual and fail too) or a certificate is off its closed form;
    with ``expected`` rows, also when its verdict or certificates differ
    from the stored row or it is missing from the report.
    """
    verdicts, certs = outcomes(argvs, result)
    bad = {key for key, verdict in verdicts.items() if verdict == "F"}
    bad |= {key for key, pairs in certs.items() if any(got != want for got, want in pairs)}
    keys = set(verdicts)
    for argv in argvs if expected else ():
        suite = _suite(argv)
        names = result["suites"][suite]
        for iid in instance_ids(argv):
            want = expected.get(f"{suite}:{iid}")
            if want is None:
                continue
            want_letters, want_certs = _parse(want)
            got_letters, got_certs = _parse(_row(names, suite, iid, verdicts, certs))
            for name, w, g in zip(names, want_letters, got_letters):
                key = (suite, iid, name)
                if w != "." or g != ".":
                    keys.add(key)
                if w != g or want_certs.get(name) != got_certs.get(name):
                    bad.add(key)
    return len(keys), len(bad & keys), len(verdicts)


def load_expected(workload, seed):
    """Stored rows for a seed as a dict ``suite:instance`` -> row, or None."""
    path = HERE / "expected.json"
    if not path.exists():
        return None
    packed = json.loads(path.read_text()).get(workload, {}).get(str(seed))
    if packed is None:
        return None
    return dict(line.rsplit(":", 1) for line in unpack(packed))


def pack(rows):
    return base64.b64encode(zlib.compress("\n".join(rows).encode(), 9)).decode()


def unpack(packed):
    return zlib.decompress(base64.b64decode(packed)).decode().split("\n")


# --- metrics ---------------------------------------------------------------


def percentile(samples, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def probe_scales(result):
    """Reference-speed factors: one per check latency, from the probes within
    PROBE_WINDOW_S of the check, or from the round's probes if none are."""
    starts = [start for start, _ in result["probes"]]
    total = [0.0]
    for _, took in result["probes"]:
        total.append(total[-1] + took)
    whole = PROBE_REF_S * len(starts) / total[-1] if starts else 1.0
    scales = []
    for end, latency in zip(result["ends"], result["latencies"]):
        lo = bisect.bisect_left(starts, end - latency - PROBE_WINDOW_S)
        hi = bisect.bisect_right(starts, end + PROBE_WINDOW_S)
        scales.append(PROBE_REF_S * (hi - lo) / (total[hi] - total[lo]) if hi > lo else whole)
    return scales, whole


def end_to_end(workload, rounds, attempted, failed, scaled=True):
    """End-to-end metrics; times at the reference speed unless ``scaled`` is false."""
    walls, setups, rates, rss, latencies = [], [], [], [], []
    for r in rounds:
        inv = r["result"]["invocations"]
        lat = r["result"]["latencies"]
        scales, scale = probe_scales(r["result"]) if scaled else ([1.0] * len(lat), 1.0)
        walls.append(scale * (r["result"]["import_s"] + sum(i["wall_s"] for i in inv)))
        setups.append(scale * (r["result"]["import_s"] + sum(i["setup_s"] for i in inv)))
        rates.append(r["rate"] / scale)
        rss.append(r["result"]["maxrss_kb"] * 1024 / 1e6)
        latencies.extend(f * s for f, s in zip(scales, lat))
    pct = TAIL_PERCENTILE[workload]
    tail_s, beyond = percentile(latencies, pct)
    if scaled:
        print(f"check_tail_ms is p{pct:g} of {len(latencies)} checks ({beyond} beyond it)")
    return {
        "cli_wall_s": (statistics.median(walls), "s"),
        "checks_per_s": (statistics.median(rates), "1/s"),
        "check_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "check_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "verified_share": (1.0 - failed / attempted, "share"),
    }


def per_layer(rounds, gen_trace):
    from tracing import layer_metrics

    traced = [r for r in rounds if r["trace"]]
    plain = [r for r in rounds if not r["trace"]]
    snapshots = []
    for r in traced:
        inv = r["result"]["invocations"]
        snapshots.append({
            **r["result"]["trace"],
            "phase_s": sum(i["phase_s"] for i in inv),
            "import_s": r["result"]["import_s"],
            "report_write_s": sum(i["report_write_s"] for i in inv),
            "aborted": r["result"]["aborted"],
        })
    check_names = [name for suite in ("duals", "multipliers", "local", "schatten")
                   for name in traced[0]["result"]["suites"][suite]]
    metrics = layer_metrics(check_names, snapshots, gen_trace)
    rate = statistics.median
    overhead = 1.0 - rate(r["rate"] for r in traced) / rate(r["rate"] for r in plain)
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return metrics


# --- runs ------------------------------------------------------------------


def measure(workload, seed, seconds, trace, work):
    """Set up, run rounds for ``seconds`` and verify; return (rounds, gen trace, attempted, failed)."""
    gens, checks = WORKLOADS[workload](seed, work)
    expected = load_expected(workload, seed)
    gen_trace = None
    if gens:
        setup = run_round(gens, trace, work, "setup")
        if setup is None or any(i["exit"] != 0 for i in setup["invocations"]):
            raise SystemExit(f"{workload}: set-up could not write the instance files")
        gen_trace = setup["trace"]

    rounds, attempted, failed, reference = [], 0, 0, 1
    start = time.monotonic()
    while True:
        index = len(rounds)
        # a traced round repeats the inputs of the untraced round before it,
        # so the two measure the tracing overhead on the same work
        traced = bool(trace) and index % 2 == 1
        argvs = with_reports(checks(index // 2 if trace else index), work, f"round{index}")
        began = time.monotonic()
        result = run_round(argvs, traced, work, f"round{index}")
        took = time.monotonic() - began
        if result is None or any(i["exit"] not in (0, 1) for i in result["invocations"]):
            # a hung or crashed round fails as many checks as the last one ran
            attempted, failed = attempted + reference, failed + reference
            rounds.append(None)
        else:
            a, f, verdicts = verify(argvs, result, expected)
            attempted, failed, reference = attempted + a, failed + f, a
            phase = sum(i["phase_s"] for i in result["invocations"])
            rounds.append({"result": result, "trace": traced,
                           "rate": verdicts / phase if phase else 0.0,
                           "probe_s": PROBE_REF_S / probe_scales(result)[1]})
        elapsed = time.monotonic() - start
        if len(rounds) >= (2 if trace else MIN_ROUNDS) and elapsed + took > seconds:
            break
    return [r for r in rounds if r is not None], gen_trace, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 // RANDOM_MIX_STREAM:
        parser.error(f"--seed must lie in [0, {2**64 // RANDOM_MIX_STREAM})")
    if not (ROOT / "src" / "fusionframes" / "__init__.py").is_file():
        print(f"error: no fusionframes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".perfbench_work"))
    try:
        rounds, gen_trace, attempted, failed = measure(
            args.workload, args.seed, args.seconds, args.trace, work
        )
        if args.trace:
            complete = any(r["trace"] for r in rounds) and any(not r["trace"] for r in rounds)
            metrics = per_layer(rounds, gen_trace) if complete else {}
        elif rounds:
            metrics = end_to_end(args.workload, rounds, attempted, failed)
            raw = end_to_end(args.workload, rounds, attempted, failed, scaled=False)
            probes = [r["probe_s"] for r in rounds]
            print(f"probe: mean {statistics.median(probes) * 1e3:.4f} ms in the median round, "
                  f"{min(probes) * 1e3:.4f}-{max(probes) * 1e3:.4f} ms over {len(rounds)} rounds; "
                  f"times below are at the reference {PROBE_REF_S * 1e3:g} ms")
            print("unscaled: " + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in raw.items()))
        else:
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        print("error: no round completed", file=sys.stderr)
        return 1
    print("worker threads: " + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()) + f"; {os.cpu_count()} CPUs")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
