"""Facts cached on the immutable objects: read-only, computed once, tolerance-free,
each by one owner.

A FusionSequence caches its projections, the singular values of its analysis
and K_W synthesis and its operator-valued embedding {w_i P_i}. The embedding,
an OVFrame, owns the sequence's operator facts: its blocks (the stacked
analysis), the frame operator S, the extreme eigenvalues of S, so the bounds,
the frame test and ||T|| of both, S^-1 from one inv and T S^-1 from it, the
thin SVD factors of T, taken only for the range basis, and per rank cut the
spectrum of [T S^-1 | P_ker] that the dual-family certificates read. A Symbol caches its
spectra, its inverse blocks, its |m|-scaled sequences and, per (V, W) pair, the
assembled multiplier with its spectrum and the closed-form inverse
representation. Tolerance rules are applied per call on top of these, so one
object can serve runs under any tolerance.
"""

import dataclasses
from functools import cached_property

import numpy as np
import pytest

from conftest import reference_inverse_representation
from fusionframes import checks, multipliers, ovf
from fusionframes.checks import run_suite
from fusionframes.duality import canonical_gavruta_dual, generate_fusion_dual
from fusionframes.fusion import (
    FusionSequence,
    is_riesz_fusion_basis,
    scale_weights,
)
from fusionframes.instances import InstanceSpec, generate_instance, random_spanning_dims
from fusionframes.multipliers import (
    assemble_multiplier,
    inverse_representation_probe,
    inverse_representation_residuals,
)
from fusionframes.numerics import ToleranceConfig
from fusionframes.ovf import canonical_ov_dual, frame_bounds, frame_operator_inverse, is_frame

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
    a = w.embedding
    canonical_ov_dual(a)
    arrays = [
        w.weights,
        w.projections,
        a.frame_operator_inv,
        w.embedding.analysis,
        a.blocks,
        a.frame_operator,
        a.canonical_analysis,
        *a.analysis_svd,
        sym.svals,
        sym.block_diag_svals,
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
    # the sequence and its embedding share one S, one eigvalsh and one inv
    inst = _instance()
    eigs = _counting(monkeypatch, "eigvalsh")
    invs = _counting(monkeypatch, "inv")
    for tol in (ToleranceConfig(), LOOSE):
        for f in (inst.w, inst.v):
            frame_bounds(f.embedding, tol)
            is_frame(f.embedding, tol)
            is_riesz_fusion_basis(f, tol)
            frame_operator_inverse(f.embedding, tol)
            canonical_ov_dual(f.embedding, tol)
    assert len(eigs) == 2
    assert len(invs) == 2


def test_bounds_are_clipped_per_call_on_the_cached_eigenvalues():
    inst = _instance()
    for f in (inst.w, inst.v):
        a = f.embedding
        assert a.frame_eigs[0] > 0.0  # a frame: no clip applies
        assert frame_bounds(a) == frame_bounds(a, LOOSE) == a.frame_eigs


def test_frame_operator_and_embedding_are_shared():
    inst = _instance()
    assert inst.w.embedding is inst.w.embedding
    assert inst.w.embedding is not inst.v.embedding
    cached = {k for k, v in vars(FusionSequence).items() if isinstance(v, cached_property)}
    assert cached == {"projections", "embedding", "analysis_svals", "synthesis_svals"}
    t = inst.w.embedding.analysis
    assert np.shares_memory(t, inst.w.embedding.blocks) and not t.flags.writeable


def test_one_inv_and_no_solve_per_embedded_frame_across_the_duals_and_multipliers_suites(
    monkeypatch,
):
    # S^-1, T S^-1 and the closed-form inverse all read the one inv of S cached
    # on the embedding
    inst = _instance()
    solves = _counting(monkeypatch, "solve")
    invs = _counting(monkeypatch, "inv")
    for suite in ("duals", "multipliers"):
        report = run_suite(suite, [inst])
        assert report["summary"]["fail"] == 0
        assert len(report["checks"]) == len(checks.SUITES[suite])
    assert solves == []
    for f in (inst.w, inst.v):
        a = f.embedding
        assert sum(np.array_equal(args[0], a.frame_operator) for args in invs) == 1
        assert frame_operator_inverse(a) is a.frame_operator_inv
        t_dual = a.analysis @ a.frame_operator_inv
        np.testing.assert_array_equal(a.canonical_analysis, t_dual)


def test_the_schatten_suite_takes_no_svd_with_u_of_a_tall_operand(monkeypatch):
    # ||T_V|| and ||T_W|| are read from the cached eigenvalues of S, not from a
    # thin SVD of the (N n) x n analysis
    inst = _instance()
    kwargs = []
    real = np.linalg.svd

    def recorded(*args, **kw):
        kwargs.append((np.shape(args[0]), kw.get("compute_uv", True)))
        return real(*args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    report = run_suite("schatten", [inst])
    assert report["summary"]["fail"] == 0
    assert kwargs and not [shape for shape, uv in kwargs if uv and shape[-2] > shape[-1]]


def test_no_kernel_projector_is_kept():
    # P_ker has (N n)^2 entries; only arrays of at most N n * n entries stay,
    # the range basis among them
    inst = _instance()
    for suite in ("duals", "multipliers"):
        run_suite(suite, [inst])
    a = inst.w.embedding
    n, count = inst.w.ambient_dim, inst.w.count
    kept = [
        item
        for obj in (a, inst.w)
        for v in vars(obj).values()
        for item in (v if isinstance(v, tuple) else v.values() if isinstance(v, dict) else (v,))
        if isinstance(item, np.ndarray)
    ]
    assert any(arr is a.analysis_svd[0] for arr in kept)
    assert any(arr is s for s in a._family_svals.values() for arr in kept)
    assert max(v.size for v in kept) <= count * n * n
    u, s = a.analysis_svd
    assert u.shape == (count * n, n) and s.shape == (n,)
    assert np.shares_memory(ovf.range_basis(a), u)


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
    a = inst.w.embedding
    assert sum(np.array_equal(args[0], a.frame_operator) for args in calls) == 1
    assert frame_operator_inverse(a) is frame_operator_inverse(a, LOOSE)


def test_one_svd_of_the_multiplier_across_the_multipliers_and_schatten_suites(monkeypatch):
    inst = _instance()
    svds = _counting(monkeypatch, "svd")
    invs = _counting(monkeypatch, "inv")
    windows = []  # inv-call positions spanned by each half of the inverse representation

    def traced(half):
        def run(*args, **kwargs):
            start = len(invs)
            try:
                return half(*args, **kwargs)
            finally:
                windows.append((start, len(invs)))

        return run

    for name in ("inverse_representation_residuals", "inverse_representation_probe"):
        monkeypatch.setattr(multipliers, name, traced(getattr(multipliers, name)))
    for suite in ("multipliers", "schatten"):
        report = run_suite(suite, [inst])
        assert report["summary"]["fail"] == 0
    m = assemble_multiplier(inst.symbol, inst.v, inst.w).matrix
    assert sum(np.array_equal(args[0], m) for args in svds) == 1
    # M^-1 is formed only where the representation needs it, once per instance
    m_inverted = [k for k, args in enumerate(invs) if np.array_equal(args[0], m)]
    assert len(windows) == 2
    assert len(m_inverted) == 1
    assert all(any(lo <= k < hi for lo, hi in windows) for k in m_inverted)

    # both dual constructions take every block's range and rank from one
    # stacked SVD
    w = inst.w
    stack_shape = (w.count, w.ambient_dim, w.ambient_dim)
    svds.clear()
    canonical_gavruta_dual(w)
    assert [np.shape(args[0]) for args in svds] == [stack_shape]
    u = 2.0 * np.eye(w.ambient_dim)
    svds.clear()
    generate_fusion_dual(w, u)
    stacked = [args[0] for args in svds if not np.array_equal(args[0], u)]
    assert len(stacked) == 1 and np.shape(stacked[0]) == stack_shape


def _per_check(monkeypatch):
    """Record, per check of the registry, its calls of svd, eigvalsh, inv,
    ``ovf.kernel_parts`` and ``ovf.range_basis`` (with the frame) and
    ``multipliers.excess``."""
    current = [None]
    events = []

    def recorder(kind, fn):
        def wrapper(*args, **kwargs):
            events.append((current[0], kind, args))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("svd", "eigvalsh", "inv"):
        monkeypatch.setattr(np.linalg, name, recorder(name, getattr(np.linalg, name)))
    parts = recorder("kernel_parts", ovf.kernel_parts)
    basis = recorder("range_basis", ovf.range_basis)
    monkeypatch.setattr(ovf, "kernel_parts", parts)
    monkeypatch.setattr(ovf, "range_basis", basis)
    monkeypatch.setattr(multipliers, "excess", recorder("excess", multipliers.excess))

    def named(name, run):
        def wrapper(inst, rng, tol):
            current[0] = name
            try:
                return run(inst, rng, tol)
            finally:
                current[0] = None

        return wrapper

    for name, check in list(checks.CHECKS.items()):
        monkeypatch.setitem(checks.CHECKS, name, dataclasses.replace(check, run=named(name, check.run)))
    return events


def test_each_invertible_multiplier_fact_once_across_the_multipliers_suite(monkeypatch):
    inst = _instance()
    sym = inst.symbol
    events = _per_check(monkeypatch)
    report = run_suite("multipliers", [inst])
    assert report["summary"]["fail"] == 0
    assert len(report["checks"]) == len(checks.SUITES["multipliers"])

    def calls(kind, check=None):
        return [args for name, k, args in events if k == kind and check in (None, name)]

    blocks = sym.m[:, None, None] * sym.r
    assert sum(np.array_equal(args[0], blocks) for args in calls("inv")) == 1
    # P_ker is applied implicitly from the range basis, never formed: one basis
    # read per sampling of the V duals (two checks) and one for the probe's
    # draw from ker T_W^*, each by one kernel_parts call
    assert len(calls("kernel_parts")) == 3
    assert len(calls("range_basis")) == 3
    assert not any(
        args[0] is inst.w.embedding for args in calls("range_basis", "inverse_multiplier_dual")
    )
    probed = [args[0] for args in calls("range_basis", "inverse_multiplier_uniqueness")]
    assert len(probed) == 2
    assert probed[0] is inst.v.embedding and probed[1] is inst.w.embedding
    for name in ("invertible_multiplier_frames", "excess_invariance"):
        assert len(calls("excess", name)) == 4
    # the second consequence check reads every spectrum the first one took
    assert calls("svd", "excess_invariance") == []
    assert calls("eigvalsh", "excess_invariance") == []


def test_invertible_multiplier_memos_are_read_only_and_small():
    inst = _instance()
    sym, v, w = inst.symbol, inst.v, inst.w
    run_suite("multipliers", [inst])
    n, count = w.ambient_dim, w.count
    scaled = [sym.scaled(w), sym.scaled(v)]
    assert sym.scaled(w) is scaled[0] and sym.scaled(v) is scaled[1]
    assert multipliers.inverse_symbol_blocks(sym) is sym.inverse_blocks
    memos = [sym.inverse_blocks, *sym.inverse_closed_form(v, w)]
    assert sym.inverse_closed_form(v, w)[2] is memos[3]
    for f in (w, v, *scaled):
        memos += [f.analysis_svals, f.synthesis_svals]
    for arr in memos:
        assert not arr.flags.writeable
        assert arr.size <= count * n * n
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def _c_holding_instances(count):
    """``count`` seeded instances on which both inverse checks run, each with a
    fresh twin built from the same spec (so with empty memos)."""
    rng = np.random.default_rng(2018)
    out = []
    while len(out) < count:
        n, blocks = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        spec = InstanceSpec(
            n=n, blocks=blocks, dims=random_spanning_dims(n, blocks, rng),
            weight_range=(0.5, 2.0), symbol_mode="random_C_holding",
            seed=int(rng.integers(2**32)),
        )
        inst = generate_instance(spec)
        if checks._c_holding_invertible(inst, ToleranceConfig()):
            out.append((inst, generate_instance(spec)))
    return out


def test_split_inverse_checks_match_one_full_representation():
    tol = ToleranceConfig()
    dual, unique = "inverse_multiplier_dual", "inverse_multiplier_uniqueness"
    for inst, twin in _c_holding_instances(20):
        sym, v, w = inst.symbol, inst.v, inst.w
        rng = checks._check_rng(inst.seed, dual)
        residuals = inverse_representation_residuals(sym, v, w, checks._v_duals(inst, rng, tol), tol)
        rng = checks._check_rng(inst.seed, unique)
        probe = inverse_representation_probe(sym, v, w, checks._v_duals(inst, rng, tol), rng, tol)

        # the memo-free one-pass computation the two halves replaced, per
        # check rng, on the fresh twin
        rng = checks._check_rng(inst.seed, dual)
        duals = checks._v_duals(twin, rng, tol)
        full_dual = reference_inverse_representation(twin.symbol, twin.v, twin.w, duals, tol, rng)
        rng = checks._check_rng(inst.seed, unique)
        duals = checks._v_duals(twin, rng, tol)
        full_unique = reference_inverse_representation(twin.symbol, twin.v, twin.w, duals, tol, rng)
        assert residuals == full_dual[:2]
        assert probe == full_unique[2]

        got = checks.CHECKS[dual].run(inst, checks._check_rng(inst.seed, dual), tol)
        assert got.residual == max(residuals)
        got = checks.CHECKS[unique].run(inst, checks._check_rng(inst.seed, unique), tol)
        assert got.residual == max(0.0, (1e-4 - probe) / 1e-4)


def test_one_certificate_spectrum_per_frame_and_cut_across_the_duals_suite(monkeypatch):
    # dual_span, null_dual_certificate and left_inverse_span read one spectrum
    # of [T S^-1 | P_ker], taken by dual_span, the first of them; a tolerance
    # with another rank_rel but the same cut of Q reads it again
    inst = _instance()
    a = inst.w.embedding
    m, n = a.analysis.shape
    events = _per_check(monkeypatch)
    for tol in (ToleranceConfig(), LOOSE):
        report = run_suite("duals", [inst], tol)
        assert report["summary"]["fail"] == 0
    spectra = [
        name for name, kind, args in events if kind == "svd" and np.shape(args[0])[-1] == m + n
    ]
    assert spectra == ["dual_span"]
    assert list(a._family_svals) == [n]


@pytest.mark.parametrize("suite", ["duals", "multipliers"])
def test_no_dense_kernel_operand_in_the_suite(monkeypatch, suite):
    # no LAPACK call of either suite takes an operand with (N n)^2 entries
    inst = _instance()
    size = (inst.w.count * inst.w.ambient_dim) ** 2
    operands = []
    for name in ("svd", "qr", "solve", "inv", "eigvalsh", "pinv"):
        real = getattr(np.linalg, name)

        def recorded(*args, _real=real, **kwargs):
            operands.append(np.size(args[0]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    report = run_suite(suite, [inst])
    assert report["summary"]["fail"] == 0
    assert operands and max(operands) < size
