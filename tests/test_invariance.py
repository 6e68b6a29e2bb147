"""Verdicts do not depend on the basis of C^n, on the order of the blocks, or
on a moderate common scale of the weights.

Every statement the checks certify is invariant under a unitary change of
basis, W_i -> U W_i, V_i -> U V_i, R_i -> U R_i U^*, under one permutation
of the blocks applied to W, V, m and R alike, and under a rescaling of the
weights of W and V by one factor c, which scales the frame bounds by c^2 and
the duals by 1/c. So the ordered verdicts of ``run_suite("all")`` must be the
same for an instance and its transformed copy. The scalings pinned here are
c = 2^k for k in {-4, -2, 2, 4}, exact in binary, which put the comparison
scales max(1, .) of the residuals on both sides of 1. Far larger or smaller
factors still move verdicts, because some checks keep an absolute scale.
"""

import numpy as np
import pytest

from fusionframes.checks import CHECKS, run_suite
from fusionframes.cli import _default_random_spec
from fusionframes.fusion import FusionSequence, Subspace, random_subspace
from fusionframes.instances import Instance, InstanceSpec, generate_instance, random_spanning_dims
from fusionframes.multipliers import Symbol


def _with_zero_blocks(mode: str, seed: int) -> InstanceSpec:
    """A spec of ``mode`` whose dims span C^n with one or two zero blocks among them."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    live = int(rng.integers(2, 5))
    dims = list(random_spanning_dims(n, live, rng))
    for _ in range(int(rng.integers(1, 3))):
        dims.insert(int(rng.integers(0, len(dims) + 1)), 0)
    return InstanceSpec(n, len(dims), tuple(dims), (0.5, 2.0), mode, seed)


SPECS = (
    [_default_random_spec(seed) for seed in range(24)]
    + [_with_zero_blocks("random_C_failing", 100 + seed) for seed in range(12)]
    + [_with_zero_blocks("identity", 200 + seed) for seed in range(12)]
)
INSTANCES = [generate_instance(spec) for spec in SPECS]


def _transformed(inst: Instance, u: np.ndarray, perm: np.ndarray) -> Instance:
    """The instance in the basis ``u`` with its blocks taken in the order ``perm``."""

    def move(f: FusionSequence) -> FusionSequence:
        subs = tuple(Subspace(u @ f.subspaces[i].basis) for i in perm)
        return FusionSequence(subs, f.weights[perm])

    r = u @ inst.symbol.r[perm] @ u.conj().T
    symbol = Symbol(inst.symbol.m[perm], r)
    return Instance(inst.seed, inst.symbol_mode, move(inst.w), move(inst.v), symbol)


def _scaled(inst: Instance, c: float) -> Instance:
    """The instance with the weights of W and V multiplied by ``c``."""

    def scale(f: FusionSequence) -> FusionSequence:
        return FusionSequence(f.subspaces, c * f.weights)

    return Instance(inst.seed, inst.symbol_mode, scale(inst.w), scale(inst.v), inst.symbol)


def _verdicts(instances) -> list:
    report = run_suite("all", instances)
    return [(e["trial"], e["name"], e["verdict"]) for e in report["checks"]]


@pytest.fixture(scope="module")
def baseline() -> list:
    return _verdicts(INSTANCES)


def test_the_population_has_zero_blocks_and_reaches_every_check(baseline):
    assert any(0 in spec.dims for spec in SPECS)
    assert {name for _, name, _ in baseline} == set(CHECKS)


@pytest.mark.parametrize(
    "change", ["unitary", "permutation", "both"] + [f"scale 2^{k}" for k in (-4, -2, 2, 4)]
)
def test_verdicts_are_invariant(baseline, change):
    if change.startswith("scale"):
        c = 2.0 ** int(change.split("^")[1])
        moved = [_scaled(inst, c) for inst in INSTANCES]
    else:
        rng = np.random.default_rng(2024)
        moved = []
        for inst in INSTANCES:
            n, count = inst.w.ambient_dim, inst.w.count
            u = random_subspace(n, n, rng).basis if change != "permutation" else np.eye(n)
            perm = rng.permutation(count) if change != "unitary" else np.arange(count)
            moved.append(_transformed(inst, u, perm))
    assert _verdicts(moved) == baseline
