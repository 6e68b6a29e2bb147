"""Facts cached on the immutable objects: read-only, computed once, tolerance-free.

A FusionSequence caches its projections, frame operator, the extreme
eigenvalues and the inverse of that operator and its operator-valued
embedding; an OVFrame its frame operator, eigenvalues, T S^-1 and ||T||; a
Symbol its spectra and, per (V, W) pair, the assembled multiplier with its
spectrum. Tolerance rules are applied per call on top of these, so one object
can serve runs under any tolerance.
"""

import numpy as np
import pytest

from fusionframes import checks, multipliers
from fusionframes.checks import run_suite
from fusionframes.duality import canonical_gavruta_dual, generate_fusion_dual
from fusionframes.fusion import (
    FusionSequence,
    classify,
    fusion_bounds,
    fusion_frame_operator,
    inverse_frame_operator,
    is_fusion_frame,
    scale_weights,
)
from fusionframes.instances import InstanceSpec, generate_instance
from fusionframes.multipliers import assemble_multiplier
from fusionframes.numerics import ToleranceConfig
from fusionframes.ovf import canonical_ov_dual, embed_fusion, ovf_frame_operator_bounds

LOOSE = ToleranceConfig(eq_rel=1e-6, rank_rel=1e-8)


def _instance(seed=3, local=1):
    spec = InstanceSpec(
        n=4, blocks=3, dims=(2, 3, 2), weight_range=(0.5, 2.0),
        symbol_mode="random_C_holding", seed=seed,
    )
    return generate_instance(spec, local_redundancy=local)


def _counting(monkeypatch, name):
    """Replace ``np.linalg.<name>`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _without_wall_time(report):
    return {k: v for k, v in report.items() if k != "wall_time"}


def test_cached_arrays_are_read_only():
    inst = _instance()
    w, sym = inst.w, inst.symbol
    a = embed_fusion(w)
    canonical_ov_dual(a)
    arrays = [
        w.weights,
        w.projections,
        w.frame_operator,
        a.blocks,
        a.frame_operator,
        a.canonical_analysis,
        sym.svals,
        sym.stacked_svals,
        assemble_multiplier(sym, inst.v, w).matrix,
    ]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_weights_are_a_copy_of_the_array_given():
    inst = _instance()
    weights = np.array(inst.w.weights)
    f = FusionSequence(inst.w.subspaces, weights)
    weights[0] = 7.0
    assert f.weights[0] == inst.w.weights[0]


def test_one_eigvalsh_per_sequence_across_bounds_frame_test_and_classify(monkeypatch):
    inst = _instance()
    calls = _counting(monkeypatch, "eigvalsh")
    for tol in (ToleranceConfig(), LOOSE):
        for f in (inst.w, inst.v):
            fusion_bounds(f, tol)
            is_fusion_frame(f, tol)
            classify(f, tol)
    assert len(calls) == 2


def test_bounds_are_clipped_per_call_on_the_cached_eigenvalues():
    inst = _instance()
    for f in (inst.w, inst.v):
        assert f.frame_eigs[0] > 0.0  # a frame: no clip applies
        assert fusion_bounds(f) == fusion_bounds(f, LOOSE) == f.frame_eigs
        a = embed_fusion(f)
        s, lo_a, hi_a = ovf_frame_operator_bounds(a)
        assert s is a.frame_operator
        assert (lo_a, hi_a) == ovf_frame_operator_bounds(a, LOOSE)[1:]


def test_frame_operator_and_embedding_are_shared():
    inst = _instance()
    assert fusion_frame_operator(inst.w) is fusion_frame_operator(inst.w)
    assert embed_fusion(inst.w) is embed_fusion(inst.w)
    assert embed_fusion(inst.w) is not embed_fusion(inst.v)


def test_one_solve_per_embedded_sequence_across_the_duals_suite(monkeypatch):
    inst = _instance()
    calls = _counting(monkeypatch, "solve")
    report = run_suite("duals", [inst])
    assert report["summary"]["fail"] == 0
    assert len(report["checks"]) == len(checks.SUITES["duals"])
    assert len(calls) == 1


def test_no_kernel_projector_is_kept():
    # P_ker has (N n)^2 entries; only arrays of at most N n * n entries stay
    inst = _instance()
    run_suite("duals", [inst])
    a = embed_fusion(inst.w)
    n, count = inst.w.ambient_dim, inst.w.count
    kept = [v for obj in (a, inst.w) for v in vars(obj).values() if isinstance(v, np.ndarray)]
    assert kept
    assert max(v.size for v in kept) <= count * n * n


@pytest.mark.parametrize("order", [(ToleranceConfig(), LOOSE), (LOOSE, ToleranceConfig())])
def test_one_instance_under_two_tolerances_reports_as_fresh_runs(order):
    shared = _instance()
    for tol in order:
        got = run_suite("all", [shared], tol, base_seed=shared.seed)
        fresh = _instance()
        want = run_suite("all", [fresh], tol, base_seed=fresh.seed)
        assert _without_wall_time(got) == _without_wall_time(want)


def test_multiplier_memo_is_keyed_by_sequence_identity():
    inst = _instance()
    sym, v, w = inst.symbol, inst.v, inst.w
    first = assemble_multiplier(sym, v, w)
    assert assemble_multiplier(sym, v, w, LOOSE).matrix is first.matrix
    scaled = scale_weights(w, 2.0 * np.ones(w.count))
    doubled = assemble_multiplier(sym, v, scaled)
    assert doubled.matrix is not first.matrix
    np.testing.assert_allclose(doubled.matrix, 2.0 * first.matrix, rtol=1e-13, atol=1e-13)
    same_content = FusionSequence(w.subspaces, w.weights)
    assert same_content != w
    assert assemble_multiplier(sym, v, same_content).matrix is not first.matrix
    assert assemble_multiplier(sym, v, w).matrix is first.matrix


def test_invertibility_is_decided_per_call():
    inst = _instance()
    sym, v, w = inst.symbol, inst.v, inst.w
    rep = assemble_multiplier(sym, v, w)
    ratio = rep.sigma_min / rep.sigma_max
    above = ToleranceConfig(inv_rel=min(0.999, 2.0 * ratio))
    assert rep.invertible
    assert not assemble_multiplier(sym, v, w, above).invertible
    assert assemble_multiplier(sym, v, w).invertible


def test_one_inverse_frame_operator_per_sequence_across_duals_and_multipliers(monkeypatch):
    inst = _instance()
    calls = _counting(monkeypatch, "inv")
    for suite in ("duals", "multipliers"):
        report = run_suite(suite, [inst])
        assert report["summary"]["fail"] == 0
    s_w = fusion_frame_operator(inst.w)
    assert sum(np.array_equal(args[0], s_w) for args in calls) == 1
    assert inverse_frame_operator(inst.w) is inverse_frame_operator(inst.w, LOOSE)


def test_one_svd_of_the_multiplier_across_the_multipliers_and_schatten_suites(monkeypatch):
    inst = _instance()
    svds = _counting(monkeypatch, "svd")
    invs = _counting(monkeypatch, "inv")
    windows = []  # inv-call positions spanned by each inverse representation
    representation = multipliers.inverse_multiplier_representation

    def traced(*args, **kwargs):
        start = len(invs)
        try:
            return representation(*args, **kwargs)
        finally:
            windows.append((start, len(invs)))

    monkeypatch.setattr(multipliers, "inverse_multiplier_representation", traced)
    for suite in ("multipliers", "schatten"):
        report = run_suite(suite, [inst])
        assert report["summary"]["fail"] == 0
    m = assemble_multiplier(inst.symbol, inst.v, inst.w).matrix
    assert sum(np.array_equal(args[0], m) for args in svds) == 1
    # M^-1 is formed only where the representation needs it, once per check
    m_inverted = [k for k, args in enumerate(invs) if np.array_equal(args[0], m)]
    assert len(windows) == len(m_inverted) == 2
    assert all(any(lo <= k < hi for lo, hi in windows) for k in m_inverted)

    # one SVD per nonzero block gives both its range and its rank
    w = inst.w
    nonzero = sum(d > 0 for d in w.dims)
    svds.clear()
    canonical_gavruta_dual(w)
    assert len(svds) == nonzero
    u = 2.0 * np.eye(w.ambient_dim)
    svds.clear()
    generate_fusion_dual(w, u)
    assert sum(not np.array_equal(args[0], u) for args in svds) == nonzero
