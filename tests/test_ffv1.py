"""The shape-checked instance codec: the ffv2 writer is the per-entry ffv1
writer it replaced (reference in conftest) with each array as base64 bytes,
the ffv1 reader is bit-identical to the per-entry reader, ffv1 documents
reload through ffv2 bit for bit, the declared sizes hold, and every
malformed document of either schema gets a typed error."""

import base64
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


def _pairs_to_base64(doc):
    """An ffv1 document with each [re, im] array replaced by base64 of its
    little-endian complex128 bytes: the ffv2 document of the same instance."""
    def encode(pairs):
        a = np.array(pairs, dtype=np.float64)
        return base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")

    doc = dict(doc, schema="ffv2")
    for name in ("w", "v"):
        for item in doc[name]["subspaces"]:
            item["basis"] = encode(item["basis"])
    doc["symbol"] = {key: encode(value) for key, value in doc["symbol"].items()}
    if doc["local"] is not None:
        for key in ("frames", "duals"):
            doc["local"][key] = [fr if fr is None else encode(fr) for fr in doc["local"][key]]
    return doc


def test_ffv2_writer_bytes_match_the_per_entry_writer_with_base64_arrays():
    for inst in POPULATION:
        doc = _pairs_to_base64(json.loads(reference_instance_to_json(inst)))
        assert instance_to_json(inst) == json.dumps(doc, indent=2) + "\n"


def test_loaded_arrays_match_the_per_entry_reader():
    for inst in POPULATION:
        text = reference_instance_to_json(inst)
        _assert_bit_identical(instance_from_json(text), reference_instance_from_json(text))
        _assert_bit_identical(instance_from_json(text), inst)


def _signed_zero_text():
    """An ffv1 document whose symbol holds -0.0 real and imaginary parts."""
    doc = json.loads(reference_instance_to_json(POPULATION[1]))
    doc["symbol"]["r"][0][0][0] = [-0.0, -0.0]
    doc["symbol"]["m"][0] = [1.5, -0.0]
    return json.dumps(doc)


def test_signed_zeros_survive_the_reader():
    text = _signed_zero_text()
    got = instance_from_json(text)
    _assert_bit_identical(got, reference_instance_from_json(text))
    assert np.signbit(got.symbol.r[0, 0, 0].real) and np.signbit(got.symbol.r[0, 0, 0].imag)
    assert np.signbit(got.symbol.m[0].imag)


def test_ffv1_documents_reload_through_ffv2_bit_for_bit():
    texts = [reference_instance_to_json(inst) for inst in POPULATION] + [_signed_zero_text()]
    for text in texts:
        want = reference_instance_from_json(text)
        ffv2 = instance_to_json(instance_from_json(text))
        assert json.loads(ffv2)["schema"] == "ffv2"
        got = instance_from_json(ffv2)
        _assert_bit_identical(got, want)
        for a in _arrays(got):
            if isinstance(a, np.ndarray) and a.dtype.kind == "c":
                assert a.dtype.isnative and a.flags.writeable
                while a.base is not None:  # a view of a native copy, not of the bytes
                    a = a.base
                assert isinstance(a, np.ndarray) and a.flags.owndata
    # the last text is the signed-zero document
    assert np.signbit(got.symbol.r[0, 0, 0].real) and np.signbit(got.symbol.m[0].imag)


def _base_doc(schema="ffv1"):
    """A small instance with a zero block and local frames, as an ffv1 document
    from the per-entry writer or as the ffv2 document the writer makes."""
    inst = generate_instance(
        InstanceSpec(
            n=2, blocks=3, dims=(1, 0, 2), weight_range=(0.5, 2.0),
            symbol_mode="random_C_holding", seed=8,
        ),
        local_redundancy=1,
    )
    write = reference_instance_to_json if schema == "ffv1" else instance_to_json
    return json.loads(write(inst))


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


def _ffv2(mutate):
    """Mark a mutation to start from the ffv2 base document."""
    mutate.schema = "ffv2"
    return mutate


def _b64(a) -> str:
    return base64.b64encode(np.asarray(a, dtype="<c16").tobytes()).decode("ascii")


def _poison(path):
    """Set one entry of the base64 array at ``path`` to NaN, keeping its length."""
    def mutate(doc):
        raw = bytearray(base64.b64decode(_parent(doc, path)[path[-1]]))
        raw[:16] = np.array([complex(np.nan, 0.0)], dtype="<c16").tobytes()
        _parent(doc, path)[path[-1]] = base64.b64encode(bytes(raw)).decode("ascii")
    return _ffv2(mutate)


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
        (_set(("w", "weights", 2), 1e308), "w.weights: weights too large"),
        (_set(("v", "weights", 0), 2e154), "v.weights: weights too large"),
        pytest.param(_set(("w", "subspaces", 2, "basis"), [[[1.0, 0.0], [1.0, 0.0]]] * 2),
                     "w.subspaces[2].basis: basis columns are not orthonormal",
                     id="basis with two equal columns"),
        pytest.param(_set(("w", "weights", 2), 0.0),
                     "w.weights: block 2: zero subspace and zero weight must coincide",
                     id="zero weight on a nonzero block"),
        pytest.param(_set(("v", "weights", 0), -1.0),
                     "v.weights: weights must be finite and non-negative",
                     id="negative weight"),
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
        pytest.param(_set(("local", "redundancy"), "x"), "local.redundancy",
                     id="local.redundancy a string"),
        pytest.param(_set(("local", "redundancy"), 65), "local.redundancy",
                     id="local.redundancy above 64"),
        pytest.param(_set(("local", "redundancy"), True), "local.redundancy",
                     id="local.redundancy a boolean"),
        pytest.param(_drop(("local", "redundancy")), "redundancy", id="local.redundancy missing"),
        pytest.param(_set(("local", "alpha"), "nan"), "local.alpha", id="local.alpha a string"),
        pytest.param(_set(("local", "alpha"), 0.0), "local.alpha", id="local.alpha zero"),
        pytest.param(_set(("local", "beta"), -5.0), "local.beta", id="local.beta negative"),
        pytest.param(_set(("local", "beta"), 0.5), "local.beta", id="local.beta below alpha"),
        pytest.param(_set(("local", "beta"), 1e999), "local.beta", id="local.beta infinite"),
        pytest.param(_ffv2(_set(("symbol", "r"), [[[[1.0, 0.0]]]])), "symbol.r",
                     id="ffv2 array not a string"),
        pytest.param(_ffv2(_set(("w", "subspaces", 2, "basis"), "not base64!")),
                     "w.subspaces[2].basis", id="ffv2 array not base64"),
        pytest.param(_ffv2(_set(("symbol", "m"), _b64([1.0, 2.0]))), "symbol.m",
                     id="ffv2 array of the wrong byte length"),
        pytest.param(_ffv2(_set(("w", "subspaces", 1, "basis"), _b64([0.0]))),
                     "w.subspaces[1].basis", id="ffv2 zero block with bytes"),
        pytest.param(_ffv2(_set(("local", "frames", 0), base64.b64encode(bytes(40)).decode("ascii"))),
                     "local.frames[0]", id="ffv2 local frame not whole rows"),
        pytest.param(_ffv2(_set(("local", "frames", 2), "")), "local.frames[2]",
                     id="ffv2 local frame without rows"),
        pytest.param(_ffv2(_set(("local", "duals", 2), _b64(np.ones((2, 2))))),
                     "local.duals[2]", id="ffv2 local dual not its frame's shape"),
        pytest.param(_poison(("local", "duals", 2)), "local.duals[2]", id="ffv2 NaN payload"),
        pytest.param(_poison(("symbol", "r")), "symbol.r", id="ffv2 NaN symbol"),
    ],
)
def test_malformed_documents_name_what_is_wrong(mutate, field):
    doc = _base_doc(getattr(mutate, "schema", "ffv1"))
    instance_from_json(json.dumps(doc))
    mutate(doc)
    with pytest.raises(ContractViolationError, match=re.escape(field)):
        instance_from_json(json.dumps(doc))


def test_deeply_nested_json_is_typed():
    with pytest.raises(ContractViolationError):
        instance_from_json("[" * 100_000 + "]" * 100_000)


# --- property: whatever a mutation does, only ContractViolationError escapes

BASE_TEXTS = [
    write(inst)
    for write in (reference_instance_to_json, instance_to_json)
    for inst in (POPULATION[0], POPULATION[2], POPULATION[5])
] + [json.dumps(_base_doc(schema)) for schema in ("ffv1", "ffv2")]
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
