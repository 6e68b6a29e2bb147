"""Value records and array holders.

The records a computation returns are NamedTuples: immutable, compared by value,
with their field names and defaults. The classes that hold arrays compare and hash
by identity, so two of them built from equal arrays are two distinct keys. A
local-frame family the package builds from arrays it has already scanned is held
without a second finiteness scan.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fusionframes import checks, duality, fusion, instances, multipliers, numerics, ovf
from fusionframes.checks import CheckResult
from fusionframes.duality import DualVerdict, GeneratedDual, SeparationResult
from fusionframes.exceptions import ContractViolationError
from fusionframes.fusion import FusionSequence, LocalFrameFamily, Subspace
from fusionframes.instances import Instance, InstanceSpec, generate_instance, load_instance
from fusionframes.multipliers import (
    ConditionCReport,
    InvertibleMultiplierReport,
    MultiplierReport,
    RieszMultiplierVerdict,
    SchattenReport,
    Symbol,
)
from fusionframes.numerics import DEFAULT_TOL, ToleranceConfig
from fusionframes.ovf import DualCandidate, OVFrame

GOLDEN_LOCAL = Path(__file__).parent / "data" / "golden_instance_local.json"

RECORDS = {
    CheckResult: (("residual", "indeterminate", "detail"), {"indeterminate": False, "detail": ""}),
    GeneratedDual: (("v", "q", "u_norm"), {}),
    SeparationResult: (("witness", "residual", "block_deviation", "checked"), {}),
    ConditionCReport: (
        ("gamma", "delta", "holds", "semi_normalized", "lower_witness", "near_threshold"), {}
    ),
    MultiplierReport: (("matrix", "svals", "sigma_min", "sigma_max", "invertible"), {}),
    RieszMultiplierVerdict: (
        ("predicted_by_c", "actually_invertible", "indeterminate", "consistent", "gamma",
         "delta"),
        {},
    ),
    InvertibleMultiplierReport: (
        ("all_frames", "lower_bound_lhs", "lower_bound_rhs", "lower_bound_ok", "excess_w",
         "excess_v", "excess_w_scaled", "excess_v_scaled", "excess_w_preserved",
         "excess_pair_equal"),
        {},
    ),
    SchattenReport: (("composite_norm", "composite_bound", "block_norm", "rank_bound"), {}),
}


def _twins():
    """``(name, build)`` per array holder: ``build()`` makes a new holder from equal
    arrays each time it is called."""
    n, count = 2, 2
    m, r = np.ones(count, dtype=np.complex128), np.array([np.eye(n)] * count, dtype=np.complex128)
    basis = np.eye(n, dtype=np.complex128)[:, :1]
    frame = OVFrame(np.array([np.eye(n)] * count, dtype=np.complex128))
    inst = generate_instance(InstanceSpec(2, 2, (1, 1), (0.5, 2.0), "random_C_holding", 3))
    return {
        "Symbol": lambda: Symbol(m, r),
        "Subspace": lambda: Subspace(basis),
        "OVFrame": lambda: OVFrame(frame.blocks),
        "LocalFrameFamily": lambda: LocalFrameFamily((basis.T,), (basis.T,), 0, 1.0, 1.0),
        "DualCandidate": lambda: DualCandidate(frame, np.zeros((count * n, n))),
        "DualVerdict": lambda: DualVerdict(np.eye(n, dtype=np.complex128), True, DEFAULT_TOL),
        "Instance": lambda: Instance(inst.seed, inst.symbol_mode, inst.w, inst.v, inst.symbol),
    }


@pytest.mark.parametrize(
    "name",
    ["Symbol", "Subspace", "OVFrame", "LocalFrameFamily", "DualCandidate", "DualVerdict", "Instance"],
)
def test_array_holders_compare_and_hash_by_identity(name):
    build = _twins()[name]
    a, b = build(), build()
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    hash(a), hash(b)
    keyed = {a: "a", b: "b"}
    assert keyed[a] == "a" and keyed[b] == "b"


def test_value_keys_keep_value_equality():
    assert ToleranceConfig(1e-9, 1e-7) == ToleranceConfig(1e-9, 1e-7)
    assert hash(ToleranceConfig()) == hash(DEFAULT_TOL)
    args = (3, 2, (1, 2), (0.5, 2.0), "identity", 0)
    assert InstanceSpec(*args) == InstanceSpec(*args)
    assert len({InstanceSpec(*args), InstanceSpec(*args)}) == 1
    # the benchmark replaces a check's runner with dataclasses.replace
    check = checks.CHECKS["dual_span"]
    assert dataclasses.replace(check, run=check.run) == check


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_keep_their_fields_and_are_read_only(cls):
    names, defaults = RECORDS[cls]
    assert cls._fields == names
    assert cls._field_defaults == defaults
    record = cls(*range(len(names)))
    assert tuple(record) == tuple(range(len(names)))
    for field in names:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_the_package_defines_dataclasses_only_for_holders_and_keys():
    defined = {
        obj.__name__
        for module in (checks, duality, fusion, instances, multipliers, numerics, ovf)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and dataclasses.is_dataclass(obj)
    }
    holders = {"Subspace", "FusionSequence", "LocalFrameFamily", "Symbol", "OVFrame",
               "DualCandidate", "DualVerdict", "Instance"}
    assert defined == holders | {"Check", "ToleranceConfig", "InstanceSpec"}
    for module in (duality, fusion, instances, multipliers, ovf):
        for name in holders & set(vars(module)):
            assert getattr(module, name).__eq__ is object.__eq__, name


def _count_scans(monkeypatch):
    """Count the finiteness scans of :func:`numerics.finite_array`, by name, wherever
    the package reads it, and the scans of the public LocalFrameFamily constructor."""
    scans = {}
    scan = numerics.finite_array

    def counted(a, ndim, name):
        scans[name] = scans.get(name, 0) + 1
        return scan(a, ndim, name)

    for module in (numerics, instances, multipliers, ovf):
        monkeypatch.setattr(module, "finite_array", counted)
    post_init = LocalFrameFamily.__post_init__

    def counted_post_init(family):
        scans["LocalFrameFamily"] = scans.get("LocalFrameFamily", 0) + 1
        post_init(family)

    monkeypatch.setattr(LocalFrameFamily, "__post_init__", counted_post_init)
    return scans


def test_a_loaded_local_family_is_scanned_once(monkeypatch):
    scans = _count_scans(monkeypatch)
    inst = load_instance(GOLDEN_LOCAL)
    live = np.flatnonzero(inst.w.dims)
    assert live.size
    for i in live:
        assert scans.pop(f"local.frames[{i}]") == 1
        assert scans.pop(f"local.duals[{i}]") == 1
        for name in ("frames", "duals"):
            assert not getattr(inst.local, name)[i].flags.writeable
    # no other scan reads a local array: as_matrix scans under the name "matrix"
    assert "matrix" not in scans and "LocalFrameFamily" not in scans
    assert not any(name.startswith("local") for name in scans)


def test_a_loaded_symbol_is_scanned_once_and_held_without_a_copy(monkeypatch):
    scans = _count_scans(monkeypatch)
    decoded = {}
    decode = instances._DECODERS["ffv2"]

    def recorded(value, shape, field):
        decoded[field] = decode(value, shape, field)
        return decoded[field]

    monkeypatch.setitem(instances._DECODERS, "ffv2", recorded)
    inst = load_instance(GOLDEN_LOCAL)
    assert scans["symbol.m"] == scans["symbol.r"] == 1
    assert "symbol scalars" not in scans and "symbol blocks" not in scans
    # the symbol holds the read-only complex128 arrays the reader decoded
    for name in ("m", "r"):
        held = getattr(inst.symbol, name)
        assert not held.flags.writeable and np.shares_memory(held, decoded[f"symbol.{name}"])


def test_the_negative_control_swaps_frames_without_a_scan(monkeypatch):
    inst = load_instance(GOLDEN_LOCAL)
    swapped = []
    equivalence = multipliers.local_frame_equivalence

    def recorded(sym, v, w, family):
        swapped.append(family)
        return equivalence(sym, v, w, family)

    monkeypatch.setattr(multipliers, "local_frame_equivalence", recorded)
    scans = _count_scans(monkeypatch)
    name = "local_negative_control"
    result = checks.CHECKS[name].run(inst, checks._check_rng(inst.seed, name), DEFAULT_TOL)
    assert result.residual == 0.0
    (broken,) = swapped
    assert broken.duals is broken.frames
    assert "LocalFrameFamily" not in scans


def test_the_public_local_family_still_scans_its_arrays():
    frame = np.eye(2, dtype=np.complex128)
    bad = frame.copy()
    bad[0, 1] = np.nan
    for frames, duals in (((bad,), (frame,)), ((frame,), (bad,))):
        with pytest.raises(ContractViolationError, match="NaN or Inf"):
            LocalFrameFamily(frames, duals, 0, 1.0, 1.0)
    family = LocalFrameFamily((frame, None), (frame, None), 0, 1.0, 1.0)
    assert family.frames[0] is not frame and not family.frames[0].flags.writeable
    assert family.frames[1] is None


def test_built_local_frames_are_held_read_only_without_a_scan(monkeypatch):
    f = FusionSequence((Subspace(np.eye(3, dtype=np.complex128)[:, :2]),), np.array([1.0]))
    scans = _count_scans(monkeypatch)
    family = fusion.build_local_frames(f, 2, np.random.default_rng(0))
    assert "LocalFrameFamily" not in scans and "matrix" not in scans
    for a in family.frames + family.duals:
        assert a.shape == (4, 3) and not a.flags.writeable
