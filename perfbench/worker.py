"""One benchmark round: a fresh process that runs CLI invocations in order.

Usage: ``python3 worker.py SPEC OUT``. ``SPEC`` is a JSON file with the
checkout root, the list of ``fusionframes`` argument vectors to run through
``cli.main`` and whether to trace; the measurements go to ``OUT`` as JSON.

Untraced rounds install only light hooks: a clock around each check's
``applies`` and ``run`` (per-check latency), marks at the entry and exit of
``run_suite`` (set-up and check-phase times), and recorders for the integer
certificates (``dual_span`` rank, null-certificate nullity, excess), each
paired with its closed-form value. They also time a fixed probe kernel
between checks, at most once every ``PROBE_EVERY_S``, so the round's
speed can be read from the probe times; probe time is taken out of every
measured interval. Traced rounds run no probes.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

PROBE_EVERY_S = 0.02


def make_probe(np):
    """A fixed kernel, under a millisecond, of the kinds of work the checks
    do: small dense SVD, eigenvalue, solve and product calls, stacking, and
    Python loops. It calls nothing of the program under test."""
    rng = np.random.default_rng(20180916)
    mats = [rng.standard_normal((n, n)) for n in (3, 6, 12)]
    shifted = [a @ a.T + len(a) * np.eye(len(a)) for a in mats]

    def probe():
        for a, s in zip(mats * 2, shifted * 2):
            np.linalg.svd(a)
            np.linalg.eigvalsh(s)
            np.linalg.solve(s, a)
            float(np.linalg.norm(np.vstack([a, a]) @ np.hstack([a, a])))
        table = {}
        for i in range(300):
            table[i % 17] = table.get(i % 17, 0) + len([i, i])

    return probe


class Hooks:
    """Latency, phase and certificate recorders around the CLI."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.ends = []
        self.certificates = []
        self.aborted = 0
        self.current = None
        self.probes = []
        self.probe_s = 0.0
        self.last_probe = 0.0
        self.begin_invocation(-1)

    def begin_invocation(self, index):
        self.invocation = index
        self.trial = -1
        self.last_inst = None
        self.suite_enter = self.suite_exit = None
        self.applies_s = 0.0

    def install(self, package):
        import numpy as np

        checks, cli, multipliers, ovf = package.checks, package.cli, package.multipliers, package.ovf
        aborting = (package.exceptions.FusionFrameError, np.linalg.LinAlgError)
        probe = make_probe(np) if self.tracer is None else None
        run_suite = cli.run_suite

        def timed_suite(*args, **kwargs):
            if self.tracer is not None:
                self.tracer.in_phase = True
            self.suite_enter = time.perf_counter()
            try:
                return run_suite(*args, **kwargs)
            finally:
                self.suite_exit = time.perf_counter()
                if self.tracer is not None:
                    self.tracer.in_phase = False

        cli.run_suite = timed_suite

        def timed(name, applies, run):
            def timed_applies(inst, tol):
                t0 = time.perf_counter()
                try:
                    return applies(inst, tol)
                finally:
                    self.applies_s = time.perf_counter() - t0

            def timed_run(inst, rng, tol):
                if inst is not self.last_inst:
                    self.last_inst = inst
                    self.trial += 1
                self.current = name
                t0 = time.perf_counter()
                try:
                    return run(inst, rng, tol)
                except aborting:
                    self.aborted += 1
                    raise
                finally:
                    now = time.perf_counter()
                    self.latencies.append(self.applies_s + now - t0)
                    self.ends.append(now)
                    self.current = None
                    if probe is not None and now - self.last_probe >= PROBE_EVERY_S:
                        probe()
                        self.last_probe = time.perf_counter()
                        self.probes.append([now, self.last_probe - now])
                        self.probe_s += self.last_probe - now

            return timed_applies, timed_run

        for name, check in list(checks.CHECKS.items()):
            applies, run = timed(name, check.applies, check.run)
            checks.CHECKS[name] = dataclasses.replace(check, applies=applies, run=run)

        def certify(kind, fn, closed_form):
            def wrapper(*args, **kwargs):
                got = fn(*args, **kwargs)
                self.certificates.append(
                    [self.invocation, self.trial, self.current, kind, got, closed_form(*args)]
                )
                return got

            return wrapper

        # closed forms hold for the fusion frames every workload checks: the
        # dual ranges fill the N*n stacked space, only B = 0 annihilates the
        # family, and a frame's analysis operator has rank n in both
        # coefficient spaces
        ovf.dual_span_dimension = certify(
            "dual_span_rank", ovf.dual_span_dimension, lambda a, *_: a.count * a.codomain_dim
        )
        ovf.null_bessel_certificate = certify(
            "null_nullity", ovf.null_bessel_certificate, lambda a, *_: 0
        )
        multipliers.excess = certify(
            "excess",
            multipliers.excess,
            lambda f, *_: [f.count * f.ambient_dim - f.ambient_dim, sum(f.dims) - f.ambient_dim],
        )


def main(spec_path, out_path):
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    t0 = time.perf_counter()
    import fusionframes
    import fusionframes.cli

    import_s = time.perf_counter() - t0
    if not Path(fusionframes.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"fusionframes imported from {fusionframes.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(fusionframes)
    hooks = Hooks(tracer)
    hooks.install(fusionframes)
    cli = fusionframes.cli

    invocations = []
    for index, argv in enumerate(spec["argvs"]):
        hooks.begin_invocation(index)
        probed = hooks.probe_s
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a measured outcome, not a harness error
            traceback.print_exc()
            code = "crash"
        end = time.perf_counter()
        entered = hooks.suite_enter if hooks.suite_enter is not None else end
        left = hooks.suite_exit if hooks.suite_exit is not None else end
        probed = hooks.probe_s - probed  # probes run only inside run_suite
        invocations.append(
            {
                "argv": argv,
                "exit": code,
                "wall_s": end - start - probed,
                "setup_s": entered - start,
                "phase_s": left - entered - probed,
                "report_write_s": end - left,
            }
        )

    result = {
        "import_s": import_s,
        "invocations": invocations,
        "latencies": hooks.latencies,
        "ends": hooks.ends,
        "certificates": hooks.certificates,
        "aborted": hooks.aborted,
        "probes": hooks.probes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "suites": fusionframes.checks.SUITES,
        "trace": tracer.snapshot() if tracer else None,
    }
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
