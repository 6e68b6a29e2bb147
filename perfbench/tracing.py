"""Layer tracing for one benchmark worker process.

Spans are installed from outside the package by rebinding names, so no
source file of ``fusionframes`` changes. The rebound names are:

* every function in a layer module's ``__all__`` (plus ``cli.main``),
  wherever a module holds a copy of it (``from .numerics import svd``
  binds a second name in the importing module);
* the ``numpy.linalg`` entry points the package calls, booked to the
  ``numerics`` layer whichever module makes the call;
* ``DualCandidate.__post_init__``;
* ``run`` and ``applies`` of every check in ``CHECKS``.

Each span is aggregated as it closes: calls, inclusive time and self time
(inclusive time minus the time of child spans) per span key, and self time
per layer. Work done by the tracer's own hooks (hashing operands to count
distinct inputs, counting operand shapes) is timed as a child span of the
pseudo-layer ``trace`` so it is not booked to any package layer. Self times
of all layers inside ``run_suite`` therefore add up to the check phase.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import time
from collections import Counter, defaultdict
from statistics import median

import numpy as np

LAYERS = ("cli", "instances", "checks", "duality", "ovf", "multipliers", "fusion", "frames", "numerics")
LAPACK = ("svd", "eigvalsh", "solve", "pinv", "inv", "qr")
LINALG = LAPACK + ("norm",)
COMPLEX = 4.0  # real flops per complex flop of the same count


def _svd_flops(shape, kwargs):
    *batch, m, n = shape
    k, l = min(m, n), max(m, n)
    if not kwargs.get("compute_uv", True):
        flops = 4.0 * l * k * k - 4.0 * k**3 / 3.0
    else:
        flops = 14.0 * l * k * k + 8.0 * k**3
        if kwargs.get("full_matrices", True):
            flops += 4.0 * l * l * k
    return COMPLEX * flops * math.prod(batch)


def lapack_flops(name, args, kwargs):
    """Floating-point operations of one call, computed from operand shapes.

    Standard dense operation counts (Golub and Van Loan) for real data,
    times four for complex operands. They are a model of the work, not a
    measurement of it.
    """
    shape = np.shape(args[0])
    if name == "svd":
        return _svd_flops(shape, kwargs)
    *batch, m, n = shape
    scale = COMPLEX * math.prod(batch)
    if name == "eigvalsh":
        return scale * 4.0 * n**3 / 3.0
    if name == "solve":
        rhs = np.shape(args[1])
        k = rhs[-1] if len(rhs) == len(shape) else 1
        return scale * (2.0 * n**3 / 3.0 + 2.0 * n * n * k)
    if name == "inv":
        return scale * 2.0 * n**3
    if name == "pinv":
        k = min(m, n)
        return _svd_flops(shape, {"full_matrices": False}) + scale * 2.0 * m * n * k
    if name == "qr":
        k = min(m, n)
        return scale * (4.0 * m * n * k - 4.0 * k**3 / 3.0)
    return 0.0


def _nbytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def _sequence_key(f):
    return (f.weights.tobytes(), tuple(s.basis.tobytes() for s in f.subspaces))


class Tracer:
    """Aggregating span recorder; install it once in a fresh process."""

    def __init__(self):
        self.stack = [[0.0, None]]  # frames: [child seconds, span key]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.phase_self = defaultdict(float)
        self.in_phase = False
        self.validating = 0
        self.counts = Counter()
        self.distinct = defaultdict(set)

    # -- span machinery ----------------------------------------------------

    def _close(self, layer, key, frame, parent, dt, count=True):
        own = dt - frame[0]
        parent[0] += dt
        if count:
            self.calls[key] += 1
        self.total[key] += dt
        self.own[key] += own
        self.layer_self[layer] += own
        if self.in_phase:
            self.phase_self[layer] += own

    def _hook(self, hook, *args):
        """Run a counting hook as a child span of the ``trace`` layer."""
        t0 = time.perf_counter()
        hook(*args)
        frame = [0.0, "trace"]
        self._close("trace", "trace.hooks", frame, self.stack[-1], time.perf_counter() - t0)

    def span(self, layer, key, fn, before=None, after=None):
        """Wrap ``fn`` so each call is a span of ``layer`` named ``key``."""
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(layer, key, fn)
        stack, close, hook = self.stack, self._close, self._hook

        def wrapper(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            frame = [0.0, key]
            parent = stack[-1]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                close(layer, key, frame, parent, dt)
            if after is not None:
                hook(after, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_span(self, layer, key, fn):
        """Each resumption of the generator is a span; creation counts the call."""
        stack, close = self.stack, self._close

        def resumed(gen):
            try:
                while True:
                    frame = [0.0, key]
                    parent = stack[-1]
                    stack.append(frame)
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        close(layer, key, frame, parent, time.perf_counter() - t0, count=False)
                    yield item
            finally:
                gen.close()

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return resumed(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counting hooks ----------------------------------------------------

    def _linalg_hook(self, name):
        def before(args, kwargs):
            if name in LAPACK:
                self.counts["lapack_flops"] += lapack_flops(name, args, kwargs)
                self.counts["lapack_bytes"] += sum(_nbytes(a) for a in args)
            if name == "svd":
                self.counts["svd_max_bytes"] = max(self.counts["svd_max_bytes"], _nbytes(args[0]))
                if self.validating:
                    self.counts["svd_in_validation"] += 1
            if name == "eigvalsh" and self.stack[-1][1] == "fusion.build_local_frames":
                self.counts["local_draws"] += 1

        def after(args, result):
            if name in LAPACK:
                self.counts["lapack_bytes"] += _nbytes(result)

        return before, after

    def _count_projection(self, args, kwargs):
        sub = args[0]
        self.distinct["projection"].add(hash((sub.basis.shape, sub.basis.tobytes())))

    def _count_multiplier(self, args, kwargs):
        sym, v, w = args[:3]
        key = (sym.m.tobytes(), sym.r.tobytes(), _sequence_key(v), _sequence_key(w))
        self.distinct["assemble_multiplier"].add(hash(key))

    def _count_local_blocks(self, args, kwargs):
        self.counts["local_blocks"] += sum(1 for d in args[0].dims if d > 0)

    def _count_checked(self, args, result):
        self.counts["candidates_checked"] += result.checked

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Rebind the traced names inside the imported ``package`` modules."""
        modules = {name: getattr(package, name) for name in LAYERS}
        hooks = {
            "fusion.projection": (self._count_projection, None),
            "fusion.build_local_frames": (self._count_local_blocks, None),
            "multipliers.assemble_multiplier": (self._count_multiplier, None),
            "duality.find_separating_dual": (None, self._count_checked),
        }
        replaced = {}
        for layer, module in modules.items():
            names = list(getattr(module, "__all__", ())) + (["main"] if layer == "cli" else [])
            for name in names:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    key = f"{layer}.{name}"
                    replaced[fn] = self.span(layer, key, fn, *hooks.get(key, (None, None)))
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, name, replaced[value])

        for name in LINALG:
            fn = getattr(np.linalg, name)
            setattr(np.linalg, name, self.span("numerics", f"numerics.linalg.{name}", fn, *self._linalg_hook(name)))

        cand = modules["ovf"].DualCandidate
        traced_post_init = self.span("ovf", "ovf.DualCandidate.__post_init__", cand.__post_init__)

        def post_init(obj):
            self.validating += 1
            try:
                traced_post_init(obj)
            finally:
                self.validating -= 1

        cand.__post_init__ = post_init

        checks = modules["checks"]
        for name, check in list(checks.CHECKS.items()):
            checks.CHECKS[name] = dataclasses.replace(
                check,
                applies=self.span("checks", "checks.applies", check.applies),
                run=self.span("checks", f"checks.{name}", check.run),
            )

    def snapshot(self):
        """Plain-JSON aggregate of everything recorded so far."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "own": dict(self.own),
            "layer_self": dict(self.layer_self),
            "phase_self": dict(self.phase_self),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(check_names, rounds, gen):
    """Per-layer metrics of one workload from its traced rounds.

    ``rounds`` holds one snapshot per traced round of check invocations,
    each extended with ``phase_s`` (the check phase measured by the worker),
    ``import_s`` and ``report_write_s``. Counts come from the first round,
    since they repeat exactly; times are medians over rounds. ``gen`` is the
    snapshot of the traced set-up that wrote the workload's files, or None;
    only ``save_instance`` and the local-frame draws are read from it.
    """
    first = rounds[0]
    calls, counts, distinct = first["calls"], first["counts"], first["distinct"]

    def n_calls(key):
        return float(calls.get(key, 0))

    def med(section, key):
        return median(r[section].get(key, 0.0) for r in rounds)

    def rounds_med(key):
        return median(r[key] for r in rounds)

    gen = gen or {"total": {}, "counts": {}}
    svd_calls = n_calls("numerics.linalg.svd")
    draws = counts.get("local_draws", 0) + gen["counts"].get("local_draws", 0)
    accepted = counts.get("local_blocks", 0) + gen["counts"].get("local_blocks", 0)
    phase = [sum(r["phase_self"].values()) / r["phase_s"] for r in rounds if r["phase_s"]]

    m = {}
    for name in LAPACK:
        m[f"numerics.{name}.calls"] = (n_calls(f"numerics.linalg.{name}"), "count")
    m["numerics.lapack.self_s"] = (
        median(sum(r["own"].get(f"numerics.linalg.{n}", 0.0) for n in LAPACK) for r in rounds),
        "s",
    )
    m["numerics.lapack.computed_flops"] = (float(counts.get("lapack_flops", 0.0)), "flop")
    m["numerics.lapack.computed_bytes"] = (float(counts.get("lapack_bytes", 0)), "B")
    m["numerics.svd.max_operand_mb"] = (counts.get("svd_max_bytes", 0) / 1e6, "MB")
    m["numerics.as_matrix.calls"] = (n_calls("numerics.as_matrix"), "count")
    m["fusion.projection.calls"] = (n_calls("fusion.projection"), "count")
    m["fusion.projection.reuse_ratio"] = (
        _ratio(n_calls("fusion.projection"), distinct.get("projection", 0)),
        "ratio",
    )
    m["fusion.fusion_bounds.calls"] = (n_calls("fusion.fusion_bounds"), "count")
    m["fusion.fusion_frame_operator.calls"] = (n_calls("fusion.fusion_frame_operator"), "count")
    m["fusion.build_local_frames.accept_ratio"] = (_ratio(accepted, draws), "ratio")
    m["ovf.dual_candidates"] = (n_calls("ovf.DualCandidate.__post_init__"), "count")
    m["ovf.validation_svd_share"] = (_ratio(counts.get("svd_in_validation", 0), svd_calls), "ratio")
    m["ovf.dual_span_dimension.total_s"] = (med("total", "ovf.dual_span_dimension"), "s")
    m["ovf.null_bessel_certificate.total_s"] = (med("total", "ovf.null_bessel_certificate"), "s")
    m["ovf.kernel_projector.calls"] = (n_calls("ovf.kernel_projector"), "count")
    m["duality.find_separating_dual.total_s"] = (med("total", "duality.find_separating_dual"), "s")
    m["duality.separating.candidates_checked"] = (float(counts.get("candidates_checked", 0)), "count")
    m["duality.generate_fusion_dual.total_s"] = (med("total", "duality.generate_fusion_dual"), "s")
    m["multipliers.assemble_multiplier.calls"] = (n_calls("multipliers.assemble_multiplier"), "count")
    m["multipliers.assemble_multiplier.reuse_ratio"] = (
        _ratio(n_calls("multipliers.assemble_multiplier"), distinct.get("assemble_multiplier", 0)),
        "ratio",
    )
    for name in ("schatten_checks", "inverse_multiplier_representation", "local_frame_equivalence"):
        m[f"multipliers.{name}.total_s"] = (med("total", f"multipliers.{name}"), "s")
    m["instances.generate_instance.total_s"] = (med("total", "instances.generate_instance"), "s")
    m["instances.load_instance.total_s"] = (med("total", "instances.load_instance"), "s")
    m["instances.save_instance.total_s"] = (gen["total"].get("instances.save_instance", 0.0), "s")
    for name in check_names:
        m[f"checks.{name}.total_s"] = (med("total", f"checks.{name}"), "s")
    m["checks.applies.total_s"] = (med("total", "checks.applies"), "s")
    m["checks.aborted"] = (float(first["aborted"]), "count")
    m["cli.import_s"] = (rounds_med("import_s"), "s")
    m["cli.report_write_s"] = (rounds_med("report_write_s"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med("layer_self", layer), "s")
    m["trace.accounted_share"] = (median(phase) if phase else 0.0, "ratio")
    return m
