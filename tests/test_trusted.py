"""Every holder the package holds without its constructor's rules passes them.

``fusion._trusted`` holds a Subspace, FusionSequence, OVFrame or LocalFrameFamily
that the package built without running the rules of its public constructor: the
phase-fixed QR factors of the Haar draws, their column blocks in a Riesz pair,
the leading SVD U columns of the KPP and Gavruta dual ranges, the generated
sequences, the embeddings w_i P_i and the local frames. This module records every
object held that way while the generated-sweep population is generated, checked,
written and read back, rebuilds each through its public constructor, and requires
the rebuild to pass with the same bytes.
"""

import sys

from fusionframes import checks, fusion, instances
from fusionframes.checks import run_suite
from fusionframes.fusion import FusionSequence, LocalFrameFamily, Subspace
from fusionframes.instances import generate_instance, instance_from_json, instance_to_json
from fusionframes.numerics import ToleranceConfig
from fusionframes.ovf import OVFrame
from test_generated_sweep import _specs

COARSE = ToleranceConfig(rank_rel=1e-4)  # a coarser rank cut moves the dual ranges' ranks


def _recording(monkeypatch):
    """Record ``(object, callers)`` for each object ``fusion._trusted`` holds, with the
    names of the functions on the stack above it."""
    held = []
    trusted = fusion._trusted

    def recorded(cls, *values):
        obj = trusted(cls, *values)
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        held.append((obj, callers))
        return obj

    for module in (fusion, instances, checks):
        monkeypatch.setattr(module, "_trusted", recorded)
    return held


def _rebuilt(obj):
    """``obj`` built again through its public constructor, which tests every rule."""
    if isinstance(obj, Subspace):
        return Subspace(obj.basis)
    if isinstance(obj, FusionSequence):
        return FusionSequence(tuple(Subspace(s.basis) for s in obj.subspaces), obj.weights)
    if isinstance(obj, OVFrame):
        return OVFrame(obj.blocks)
    return LocalFrameFamily(obj.frames, obj.duals, obj.redundancy, obj.alpha, obj.beta)


def _contents(obj):
    """Every array of ``obj`` as (dtype, shape, bytes), and its other fields."""
    if isinstance(obj, Subspace):
        arrays, rest = [obj.basis], ()
    elif isinstance(obj, FusionSequence):
        arrays, rest = [s.basis for s in obj.subspaces] + [obj.weights], ()
    elif isinstance(obj, OVFrame):
        arrays, rest = [obj.blocks], ()
    else:
        arrays = [a for a in obj.frames + obj.duals if a is not None]
        rest = ([a is None for a in obj.frames], obj.redundancy, obj.alpha, obj.beta)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], rest


def test_every_trusted_holder_passes_its_public_constructor(monkeypatch):
    held = _recording(monkeypatch)
    seen = set()
    for k, (spec, local) in enumerate(_specs()):
        inst = generate_instance(spec, local_redundancy=local)
        run_suite("all", [inst])
        instance_from_json(instance_to_json(inst))
        if k % 10 == 0:
            run_suite("all", [generate_instance(spec, local_redundancy=local)], COARSE)
        for obj, callers in held:
            assert _contents(_rebuilt(obj)) == _contents(obj), (spec, local, type(obj), callers)
            seen |= {(type(obj).__name__, name) for name in callers}
        held.clear()
    # every construction the trusted path serves was reached
    assert {
        ("Subspace", "_random_sequence"),
        ("Subspace", "_perturbed_copy"),
        ("Subspace", "_riesz_pair"),
        ("Subspace", "orthogonal_split"),
        ("Subspace", "generate_fusion_dual"),
        ("Subspace", "canonical_gavruta_dual"),
        ("Subspace", "orthonormal_subspaces"),
        ("FusionSequence", "_random_sequence"),
        ("FusionSequence", "random_riesz_bases"),
        ("OVFrame", "embedding"),
        ("LocalFrameFamily", "build_local_frames"),
        ("LocalFrameFamily", "_instance_from_doc"),
        ("LocalFrameFamily", "_run_local_negative"),
    } <= seen

