"""Every generated instance gets a verdict: no check fails or aborts.

Each check certifies a statement that holds on every instance the generator
can produce, so a ``fail`` anywhere in the ``InstanceSpec`` domain is a
defect, and an abort (residual 1e300) is one too. The loop is seeded, so it
draws the same instances on every run.
"""

import time

import numpy as np

from fusionframes.checks import run_suite
from fusionframes.instances import SYMBOL_MODES, InstanceSpec, generate_instance

SWEEP_SIZE = 300
SWEEP_SEED = 20261018


def _dims(n, blocks, rng):
    """Block dimensions that reach zero blocks, full blocks and every size between."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return (n,) * blocks
    if kind == 1:
        return tuple(int(d) for d in rng.integers(0, n + 1, size=blocks))
    return tuple(int(rng.choice([0, n, int(rng.integers(1, n + 1))])) for _ in range(blocks))


def _specs():
    rng = np.random.default_rng(SWEEP_SEED)
    for k in range(SWEEP_SIZE):
        # n = 1 and a single block recur, and every fourth n is at least 10
        n = 1 if k % 10 == 0 else int(rng.integers(10, 17) if k % 4 == 1 else rng.integers(1, 10))
        blocks = 1 if k % 7 == 0 else int(rng.integers(1, 7))
        dims = _dims(n, blocks, rng)
        mode = SYMBOL_MODES[k % len(SYMBOL_MODES)]
        local = None if k % 2 else int(rng.integers(0, 4))
        spec = InstanceSpec(n, blocks, dims, (0.5, 2.0), mode, int(rng.integers(0, 2**32)))
        yield spec, local


def test_generated_instances_never_fail_or_abort():
    start = time.perf_counter()
    covered = {"n=1": 0, "zero block": 0, "single full block": 0, "block dim >= 10": 0,
               "stored local frames": 0}
    bad = []
    for spec, local in _specs():
        covered["n=1"] += spec.n == 1
        covered["zero block"] += 0 in spec.dims
        covered["single full block"] += spec.dims == (spec.n,)
        covered["block dim >= 10"] += max(spec.dims) >= 10
        covered["stored local frames"] += local is not None
        inst = generate_instance(spec, local_redundancy=local)
        report = run_suite("all", [inst])
        bad += [
            (spec, local, e["name"], e["residual"])
            for e in report["checks"]
            if e["verdict"] == "fail" or e["residual"] >= 1e300
        ]
    assert not bad, bad[:5]
    assert all(count >= 10 for count in covered.values()), covered
    assert time.perf_counter() - start < 60.0
