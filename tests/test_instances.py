"""Instance specs, generators, and ffv2 round-trips."""

import time
import warnings

import numpy as np
import pytest

from fusionframes.exceptions import ContractViolationError, PreconditionError
from fusionframes import instances
from fusionframes.fusion import FusionSequence, Subspace
from fusionframes.ovf import frame_bounds, is_frame
from fusionframes.instances import (
    InstanceSpec,
    cross_swap_instance,
    generate_instance,
    instance_from_json,
    instance_to_json,
    random_fusion_frame,
    random_invertible_matrix,
    random_partition,
    random_riesz_basis,
    random_symbol,
)
from fusionframes.multipliers import Symbol, condition_c
from fusionframes.numerics import singular_values


def spec(**kw):
    base = dict(
        n=3,
        blocks=2,
        dims=(1, 2),
        weight_range=(0.5, 2.0),
        symbol_mode="random_C_holding",
        seed=5,
    )
    base.update(kw)
    return InstanceSpec(**base)


def test_spec_validation():
    with pytest.raises(ContractViolationError):
        spec(n=0)
    with pytest.raises(ContractViolationError):
        spec(n=65)
    with pytest.raises(ContractViolationError):
        spec(dims=(1,))
    with pytest.raises(ContractViolationError):
        spec(dims=(1, 4))
    with pytest.raises(ContractViolationError):
        spec(weight_range=(0.0, 1.0))
    with pytest.raises(ContractViolationError):
        spec(symbol_mode="nope")
    # sum_i w_i^2 must stay finite: two blocks of weight 9e153 fit, 1e154 do not
    spec(weight_range=(0.5, 9e153))
    for hi in (1e308, 1e154):
        with pytest.raises(ContractViolationError, match="overflow the frame operator"):
            spec(weight_range=(0.5, hi))
    InstanceSpec(
        n=2, blocks=2, dims=(0, 2), weight_range=(0.5, 1.0),
        symbol_mode="identity", seed=1,
    )


def test_generation_deterministic():
    a = instance_to_json(generate_instance(spec(seed=42)))
    b = instance_to_json(generate_instance(spec(seed=42)))
    assert a == b
    c = instance_to_json(generate_instance(spec(seed=43)))
    assert a != c


def test_identity_symbol_mode():
    inst = generate_instance(spec(symbol_mode="identity"))
    np.testing.assert_allclose(inst.symbol.m, np.ones(2))
    for r in inst.symbol.r:
        np.testing.assert_allclose(r, np.eye(3))


def test_zero_dims_force_zero_weight():
    inst = generate_instance(spec(n=2, blocks=2, dims=(0, 2)))
    assert inst.w.weights[0] == 0.0 and inst.w.subspaces[0].dim == 0
    assert inst.w.weights[1] > 0.0


def test_symbol_populations(rng):
    holding = random_symbol("random_C_holding", 4, 3, rng)
    rep = condition_c(holding)
    assert rep.holds and rep.gamma > 10 * 1e-8 * rep.delta
    failing = random_symbol("random_C_failing", 4, 3, rng)
    assert condition_c(failing).gamma == 0.0
    near = random_symbol("adversarial", 4, 3, rng)
    rep = condition_c(near)
    assert rep.near_threshold


def test_adversarial_cross_instance():
    inst = generate_instance(
        InstanceSpec(
            n=2, blocks=2, dims=(1, 1), weight_range=(0.5, 2.0),
            symbol_mode="adversarial", seed=9,
        )
    )
    np.testing.assert_allclose(inst.w.subspaces[0].basis.ravel(), [1.0, 0.0])
    np.testing.assert_allclose(inst.v.subspaces[0].basis.ravel(), [0.0, 1.0])


def test_round_trip_preserves_everything(rng):
    inst = generate_instance(spec(seed=77), local_redundancy=2)
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert back.seed == inst.seed and back.symbol_mode == inst.symbol_mode
    np.testing.assert_array_equal(back.w.weights, inst.w.weights)
    for s1, s2 in zip(back.w.subspaces, inst.w.subspaces):
        np.testing.assert_array_equal(s1.basis, s2.basis)
    np.testing.assert_array_equal(back.symbol.m, inst.symbol.m)
    np.testing.assert_array_equal(back.symbol.r, inst.symbol.r)
    assert back.local is not None
    for f1, f2 in zip(back.local.frames, inst.local.frames):
        np.testing.assert_array_equal(f1.vectors, f2.vectors)
    assert instance_to_json(back) == text


def test_from_json_rejects_garbage():
    with pytest.raises(ContractViolationError):
        instance_from_json("not json at all")
    with pytest.raises(ContractViolationError):
        instance_from_json('{"schema": "other"}')


def test_round_trip_revalidates_invariants():
    inst = generate_instance(spec(seed=3))
    text = instance_to_json(inst)
    # tamper: nonzero weight on a zero-dimensional block
    import json

    doc = json.loads(text)
    doc["w"]["subspaces"][0] = {"dim": 0, "basis": ""}
    with pytest.raises(ContractViolationError):
        instance_from_json(json.dumps(doc))


def test_random_partition(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        count = int(rng.integers(1, n + 1))
        dims = random_partition(n, count, rng)
        assert sum(dims) == n and all(d >= 1 for d in dims)
    with pytest.raises(ContractViolationError):
        random_partition(2, 3, rng)


def test_random_fusion_frame_conditioned(rng):
    for _ in range(10):
        f = random_fusion_frame(4, 3, rng)
        lo, hi = frame_bounds(f.embedding)
        assert lo > 0 and hi / lo <= 1e4
        assert is_frame(f.embedding)


def test_random_riesz_basis(rng):
    from fusionframes.fusion import is_riesz_fusion_basis

    f = random_riesz_basis(5, rng, count=3)
    assert is_riesz_fusion_basis(f)


def test_random_invertible_matrix(rng):
    m = random_invertible_matrix(4, rng, s_min=0.3, s_max=2.0)
    s = singular_values(m)
    assert s[-1] >= 0.3 - 1e-12 and s[0] <= 2.0 + 1e-12


def test_cross_swap_instance_shape():
    inst = cross_swap_instance()
    assert inst.w.ambient_dim == 2 and inst.w.count == 2
    assert is_frame(inst.w.embedding) and is_frame(inst.v.embedding)


def test_random_fusion_frame_that_cannot_span_is_typed():
    # a single 2-dim block never spans C^4, so every draw misses
    start = time.perf_counter()
    with pytest.raises(PreconditionError):
        random_fusion_frame(4, 1, np.random.default_rng(0), dims=(2,))
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": "ffv1"},
        {"schema": "ffv1", "n": "three"},
        {"schema": "ffv1", "n": 2, "w": {"subspaces": [{"dim": 1}], "weights": [1.0]}},
        {"schema": "ffv1", "n": 2, "w": {"subspaces": [{"dim": 1, "basis": [[1.0]]}]}},
    ],
)
def test_from_json_malformed_documents_are_typed(doc):
    import json

    with pytest.raises(ContractViolationError):
        instance_from_json(json.dumps(doc))


def test_symbol_overflowing_on_a_zero_block_is_named_without_a_warning():
    # |m_1| sigma_max(R_1) is inf on a block whose weights are 0
    f = FusionSequence((Subspace.full(2), Subspace.zero(2)), np.array([1.0, 0.0]))
    sym = Symbol(np.array([1.0, 1e300]), np.array([np.eye(2), 1e300 * np.eye(2)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match=r"sigma_max\(R_i\) overflows on block 1"):
            instances._check_symbol(sym, f, f)
