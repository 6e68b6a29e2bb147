"""The shape-checked ffv1 codec: byte- and bit-identity with the per-entry
reader and writer it replaced (references in conftest), the declared sizes,
and typed errors for every malformed document."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import reference_instance_from_json, reference_instance_to_json
from fusionframes.exceptions import ContractViolationError
from fusionframes.instances import (
    SYMBOL_MODES,
    Instance,
    InstanceSpec,
    cross_swap_instance,
    generate_instance,
    instance_from_json,
    instance_to_json,
)


def _population():
    """Instances over all four modes with n = 1, zero blocks, local frames
    (redundancy 0 to 2) and the crossed pair."""
    rng = np.random.default_rng(515)
    insts = [cross_swap_instance(seed=3)]
    for k in range(64):
        mode = SYMBOL_MODES[k % 4]
        n = 1 + k % 4
        blocks = 1 + int(rng.integers(0, 4))
        dims = [int(rng.integers(0, n + 1)) for _ in range(blocks)]
        if not any(dims):
            dims[0] = n
        spec = InstanceSpec(
            n=n, blocks=blocks, dims=tuple(dims), weight_range=(0.5, 2.0),
            symbol_mode=mode, seed=1000 + k,
        )
        local = (None, 0, 1, 2, None)[k % 5]
        insts.append(generate_instance(spec, local_redundancy=local))
    return insts


POPULATION = _population()


def _arrays(inst: Instance):
    """Every array and scalar an instance carries, in a fixed order."""
    out = [inst.seed, inst.symbol_mode, inst.local_redundancy]
    for seq in (inst.w, inst.v):
        out.append(seq.weights)
        out.extend(s.basis for s in seq.subspaces)
    out += [inst.symbol.m, inst.symbol.r]
    if inst.local is not None:
        out += [inst.local.alpha, inst.local.beta]
        out.extend(fr and fr.vectors for fr in inst.local.frames + inst.local.duals)
    return out


def _assert_bit_identical(a: Instance, b: Instance):
    got, want = _arrays(a), _arrays(b)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        if isinstance(y, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        else:
            assert type(x) is type(y) and x == y


def test_population_covers_the_corners():
    assert {inst.symbol_mode for inst in POPULATION} == set(SYMBOL_MODES)
    assert any(inst.w.ambient_dim == 1 for inst in POPULATION)
    assert any(0 in inst.w.dims for inst in POPULATION)
    assert any(
        inst.local is not None and 0 in inst.w.dims for inst in POPULATION
    )
    assert any(inst.local_redundancy == 0 for inst in POPULATION)


def test_writer_bytes_match_the_per_entry_writer():
    for inst in POPULATION:
        assert instance_to_json(inst) == reference_instance_to_json(inst)


def test_loaded_arrays_match_the_per_entry_reader():
    for inst in POPULATION:
        text = instance_to_json(inst)
        _assert_bit_identical(instance_from_json(text), reference_instance_from_json(text))
        _assert_bit_identical(instance_from_json(text), inst)


def test_signed_zeros_survive_the_reader():
    doc = json.loads(instance_to_json(POPULATION[1]))
    doc["symbol"]["r"][0][0][0] = [-0.0, -0.0]
    doc["symbol"]["m"][0] = [1.5, -0.0]
    text = json.dumps(doc)
    got = instance_from_json(text)
    _assert_bit_identical(got, reference_instance_from_json(text))
    assert np.signbit(got.symbol.r[0, 0, 0].real) and np.signbit(got.symbol.r[0, 0, 0].imag)
    assert np.signbit(got.symbol.m[0].imag)


def _base_doc():
    inst = generate_instance(
        InstanceSpec(
            n=2, blocks=3, dims=(1, 0, 2), weight_range=(0.5, 2.0),
            symbol_mode="random_C_holding", seed=8,
        ),
        local_redundancy=1,
    )
    return json.loads(instance_to_json(inst))


def _parent(doc, path):
    node = doc
    for key in path[:-1]:
        node = node[key]
    return node


def _set(path, value):
    def mutate(doc):
        _parent(doc, path)[path[-1]] = value
    return mutate


def _drop(path):
    def mutate(doc):
        del _parent(doc, path)[path[-1]]
    return mutate


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_set(("n",), 3), "w.subspaces[0].basis"),
        (_set(("n",), 2.0), "n must be an integer"),
        (_set(("n",), 65), "ambient dimension"),
        (_set(("blocks",), 2), "2 blocks but 3 dims"),
        (_set(("seed",), 2**64), "seed"),
        (_set(("seed",), True), "seed must be an integer"),
        (_set(("symbol_mode",), "bogus"), "unknown symbol mode"),
        (_set(("w", "subspaces", 0, "dim"), 2), "w.subspaces[0].basis"),
        (_set(("w", "subspaces", 1, "basis"), [[]]), "w.subspaces[1].basis"),
        (_set(("v", "subspaces", 2, "dim"), 3), "0 <= d <= n"),
        (_set(("w", "weights"), [1.0, 0.0]), "w.weights"),
        (_set(("v", "weights", 0), "1.0"), "v.weights"),
        (_set(("w", "weights", 2), 1e308), "w.weights: they overflow the frame operator"),
        (_set(("v", "weights", 0), 2e154), "v.weights: they overflow the frame operator"),
        (_set(("symbol", "m", 1), [1.0, 0.0, 5.0]), "symbol.m"),
        (_set(("symbol", "m", 1), 1.0), "symbol.m"),
        (_set(("symbol", "r", 0, 0), [[1.0, 0.0]]), "symbol.r"),
        (_drop(("symbol", "r", 2)), "symbol.r"),
        (_set(("local", "frames", 0, 0), [[1.0, 0.0]] * 3), "local.frames[0]"),
        (_set(("local", "duals", 2), [[[1.0, 0.0]] * 2]), "local.duals[2]"),
        (_set(("local", "frames", 1), [[[1.0, 0.0]] * 2]), "null exactly on zero blocks"),
        (_set(("local", "duals", 0), None), "null exactly on zero blocks"),
        (_drop(("local", "frames", 2)), "null exactly on zero blocks"),
        (_set(("local",), "x"), "malformed ffv1 document"),
    ],
)
def test_malformed_documents_name_what_is_wrong(mutate, field):
    doc = _base_doc()
    instance_from_json(json.dumps(doc))
    mutate(doc)
    with pytest.raises(ContractViolationError, match=re.escape(field)):
        instance_from_json(json.dumps(doc))


def test_deeply_nested_json_is_typed():
    with pytest.raises(ContractViolationError):
        instance_from_json("[" * 100_000 + "]" * 100_000)


# --- property: whatever a mutation does, only ContractViolationError escapes

BASE_TEXTS = [
    instance_to_json(inst) for inst in (POPULATION[0], POPULATION[2], POPULATION[5])
] + [json.dumps(_base_doc())]
OUT_OF_RANGE = {
    "n": [0, 65, -1],
    "blocks": [0, 65],
    "dim": [-1, 65],
    "seed": [-1, 2**64],
    "symbol_mode": ["bogus", ""],
}
WRONG_TYPES = [None, "x", True, 1.5, -3, {}, [], [[]], {"re": 1.0}]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_mutated_documents_raise_only_contract_violations(data):
    doc = json.loads(data.draw(st.sampled_from(BASE_TEXTS)))
    paths = [p for p in _paths(doc) if p]
    path = data.draw(st.sampled_from(paths))
    parent, key = _parent(doc, path), path[-1]
    kind = data.draw(st.sampled_from(["drop", "shape", "type", "range"]))
    if kind == "drop":
        del parent[key]
    elif kind == "shape":
        node = parent[key]
        if isinstance(node, list) and node:
            parent[key] = data.draw(
                st.sampled_from([node[:-1], node + node[-1:], [node], node[0]])
            )
        else:
            parent[key] = [node, node]
    elif kind == "type":
        parent[key] = data.draw(st.sampled_from(WRONG_TYPES))
    else:
        name = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        target = doc if name != "dim" else data.draw(
            st.sampled_from(doc["w"]["subspaces"] + doc["v"]["subspaces"])
        )
        target[name] = data.draw(st.sampled_from(OUT_OF_RANGE[name]))
    try:
        inst = instance_from_json(json.dumps(doc))
    except ContractViolationError:
        return
    assert isinstance(inst, Instance)
