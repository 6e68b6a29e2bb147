"""Facts cached on the immutable objects: read-only, computed once, tolerance-free,
each by one owner.

A FusionSequence caches its projections, its operator-valued embedding
{w_i P_i} and the spectrum of its K_W synthesis, whose rank cut gives both
excess numbers and the Riesz test. The embedding, an OVFrame, owns the
sequence's operator facts: its blocks (the stacked analysis), the frame
operator S, the extreme eigenvalues of S, so the bounds, the frame test and
||T|| of both, S^-1 from one inv and T S^-1 from it, the one thin SVD of T,
whose rank cut gives the range basis, and per rank cut the spectrum of
[T S^-1 | P_ker] that the dual-family certificates read. A Symbol caches its
spectra, its condition-C report, its inverse blocks and, per (V, W) pair, the
assembled multiplier with its spectrum and the closed-form inverse
representation; it keeps no |m|-scaled sequence. An instance keeps, per
tolerance, the sampled duals of V that both inverse-multiplier checks read.
Tolerance rules are applied per call on top of these, so one object can serve
runs under any tolerance.
"""

import dataclasses
import gc
import weakref
from functools import cached_property

import numpy as np
import pytest

from conftest import reference_inverse_representation
from fusionframes import checks, fusion, multipliers, ovf
from fusionframes.checks import run_suite
from fusionframes.duality import canonical_gavruta_dual, generate_fusion_dual
from fusionframes.fusion import (
    FusionSequence,
    build_local_frames,
    excess,
    fusion_synthesis_kw,
    is_riesz_fusion_basis,
    scale_weights,
)
from fusionframes.instances import (
    InstanceSpec,
    generate_instance,
    load_instance,
    random_partition,
    random_riesz_bases,
    random_spanning_dims,
    random_symbol,
    save_instance,
)
from fusionframes.multipliers import (
    assemble_multiplier,
    inverse_representation_probe,
    inverse_representation_residuals,
)
from fusionframes.numerics import DEFAULT_TOL, INV_REL, ToleranceConfig
from fusionframes.ovf import is_frame

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
    a.canonical_analysis
    arrays = [
        w.weights,
        w.projections,
        a.frame_operator_inv,
        w.embedding.analysis,
        a.blocks,
        a.frame_operator,
        a.canonical_analysis,
        *a.analysis_svd,
        w.synthesis_svals,
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



def test_a_write_to_an_array_given_leaves_the_cached_facts_alone():
    # a frame, symbol and subspace hold a read-only copy of a writeable array, so
    # a later write by the caller reaches neither the object nor a fact cached on it
    b = np.array([np.eye(2)] * 2, dtype=np.complex128)
    a = ovf.OVFrame(b)
    assert a.frame_bounds == (2.0, 2.0)
    b *= 3
    assert a.frame_bounds == (2.0, 2.0)
    assert np.array_equal(a.blocks, np.array([np.eye(2)] * 2))

    r = np.array([np.eye(2)] * 2, dtype=np.complex128)
    sym = multipliers.Symbol(np.ones(2), r)
    assert sym.r_sup == 1.0
    r *= 5
    assert sym.r_sup == 1.0 and np.array_equal(sym.r, np.array([np.eye(2)] * 2))

    e = np.array([[1.0], [0.0]], dtype=np.complex128)
    sub = fusion.Subspace(e)
    f = FusionSequence((sub,), [1.0])
    want = np.diag([1.0, 0.0])
    assert np.array_equal(f.projections[0], want)
    e *= 2
    assert np.array_equal(sub.basis, [[1.0], [0.0]])
    assert np.array_equal(f.projections[0], want)
    assert np.array_equal(fusion.projection(sub), want)
    for held in (a.blocks, sym.m, sym.r, sub.basis):
        assert not held.flags.writeable


def test_an_array_the_package_built_is_frozen_in_place_not_copied():
    f = _instance().w
    # the embedding's blocks and a generated basis are frozen where they were built,
    # so a frame or subspace on them holds them as they are
    blocks = f.embedding.blocks
    assert not blocks.flags.writeable and ovf.OVFrame(blocks).blocks is blocks
    basis = f.subspaces[0].basis
    assert not basis.flags.writeable and fusion.Subspace(basis).basis is basis

def test_one_eigvalsh_per_sequence_across_bounds_frame_test_and_classify(monkeypatch):
    # the sequence and its embedding share one S, one eigvalsh and one inv
    inst = _instance()
    eigs = _counting(monkeypatch, "eigvalsh")
    invs = _counting(monkeypatch, "inv")
    for tol in (ToleranceConfig(), LOOSE):
        for f in (inst.w, inst.v):
            f.embedding.frame_bounds
            is_frame(f.embedding)
            is_riesz_fusion_basis(f, tol)
            f.embedding.frame_operator_inv
            f.embedding.canonical_analysis
    assert len(eigs) == 2
    assert len(invs) == 2


def test_one_cached_bounds_tuple_serves_the_frame_test_under_every_tolerance(monkeypatch):
    # no tolerance enters the bounds or the frame test: one eigvalsh gives one
    # tuple, which every frame test reads
    inst = _instance()
    eigs = _counting(monkeypatch, "eigvalsh")
    for f in (inst.w, inst.v):
        a = f.embedding
        bounds = a.frame_bounds
        assert is_frame(a)
        assert a.frame_bounds is bounds and bounds[0] > 0.0
    assert len(eigs) == 2


def test_frame_operator_and_embedding_are_shared():
    inst = _instance()
    assert inst.w.embedding is inst.w.embedding
    assert inst.w.embedding is not inst.v.embedding
    cached = {k for k, v in vars(FusionSequence).items() if isinstance(v, cached_property)}
    assert cached == {"projections", "embedding", "synthesis_svals"}
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
        assert "frame_operator_inv" in vars(a)
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


def test_one_values_only_svd_of_the_synthesis_serves_excess_and_riesz_test(monkeypatch):
    # the K_W synthesis has the nonzero singular values of T, so one values-only
    # SVD of it, cut where range_basis cuts, gives both excess numbers and the
    # Riesz test under every tolerance, and no embedding is built
    rng = np.random.default_rng(1)
    fresh = (_instance(seed=5).w, random_riesz_bases(4, rng, random_partition(4, 2, rng), 1)[0])
    calls = []
    real = np.linalg.svd

    def recorded(*args, **kw):
        calls.append((np.shape(args[0]), kw.get("compute_uv", True)))
        return real(*args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    got = {(i, tol): (excess(f, tol), is_riesz_fusion_basis(f, tol))
           for i, f in enumerate(fresh) for tol in (ToleranceConfig(), LOOSE)}
    assert calls == [((4, 7), False), ((4, 4), False)]
    assert all("embedding" not in vars(f) for f in fresh)
    monkeypatch.undo()
    for (i, tol), answers in got.items():
        f = fresh[i]
        r = ovf.range_basis(f.embedding, tol).shape[1]
        n, size, total = f.ambient_dim, f.count * f.ambient_dim, sum(f.dims)
        assert answers == ((size - r, total - r), total == n and r == n)


def test_assembling_a_multiplier_builds_no_embedding():
    # M, its spectrum and its invertibility come from the projection stacks; the
    # norm bound, which reads the embeddings' bounds, is formed only where read
    inst = _instance()
    rng = np.random.default_rng(4)
    pairs = [(inst.v, inst.w), random_riesz_bases(4, rng, random_partition(4, 3, rng), 2)]
    for v, w in pairs:
        rep = assemble_multiplier(inst.symbol, v, w)
        assert rep.sigma_max > 0.0
        assert "embedding" not in vars(v) and "embedding" not in vars(w)
        assert not hasattr(rep, "norm_bound")
    assert rep.sigma_max <= multipliers.norm_bound(inst.symbol, v, w)
    assert "embedding" in vars(v) and "embedding" in vars(w)


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
    scaled = scale_weights(w, 2.0 * np.ones(w.count))
    doubled = assemble_multiplier(sym, v, scaled)
    assert doubled.matrix is not first.matrix
    np.testing.assert_allclose(doubled.matrix, 2.0 * first.matrix, rtol=1e-13, atol=1e-13)
    same_content = FusionSequence(w.subspaces, w.weights)
    assert same_content != w
    assert assemble_multiplier(sym, v, same_content).matrix is not first.matrix
    assert assemble_multiplier(sym, v, w).matrix is first.matrix


def test_invertibility_is_one_constant_and_the_multiplier_report_one_fact():
    # the invertibility cutoff is the constant INV_REL, not a tolerance field
    assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["rank_rel", "eq_rel"]
    with pytest.raises(TypeError):
        ToleranceConfig(inv_rel=0.5)
    inst = _instance()
    sym, v, w = inst.symbol, inst.v, inst.w
    assert assemble_multiplier(sym, v, w) is assemble_multiplier(sym, v, w)
    # coordinate lines of C^2 with R_i = I and m = (1, ratio): M = diag(1, ratio)
    lines = FusionSequence(
        (fusion.Subspace(np.eye(2)[:, :1]), fusion.Subspace(np.eye(2)[:, 1:])), np.ones(2)
    )
    eye = np.array([np.eye(2)] * 2)
    for ratio, invertible in ((INV_REL / 2.0, False), (2.0 * INV_REL, True)):
        rep = assemble_multiplier(multipliers.Symbol(np.array([1.0, ratio]), eye), lines, lines)
        assert rep.sigma_min == pytest.approx(ratio, rel=1e-12)
        assert rep.invertible is invertible


def test_one_inverse_frame_operator_per_sequence_across_duals_and_multipliers(monkeypatch):
    inst = _instance()
    calls = _counting(monkeypatch, "inv")
    for suite in ("duals", "multipliers"):
        report = run_suite(suite, [inst])
        assert report["summary"]["fail"] == 0
    a = inst.w.embedding
    assert sum(np.array_equal(args[0], a.frame_operator) for args in calls) == 1
    assert "frame_operator_inv" in vars(a)


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
    ``ovf._kernel_fill`` and ``ovf.range_basis`` (with the frame) and
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
    fill = recorder("kernel_fill", ovf._kernel_fill)
    basis = recorder("range_basis", ovf.range_basis)
    monkeypatch.setattr(ovf, "_kernel_fill", fill)
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
    # read for the one sampling of the V duals, which both inverse checks share,
    # and one for the probe's draw from ker T_W^*, each filling its stack in place
    assert len(calls("kernel_fill")) == 2
    assert len(calls("range_basis")) == 2
    sampled = [args[0] for args in calls("range_basis", "inverse_multiplier_dual")]
    assert len(sampled) == 1 and sampled[0] is inst.v.embedding
    probed = [args[0] for args in calls("range_basis", "inverse_multiplier_uniqueness")]
    assert len(probed) == 1 and probed[0] is inst.w.embedding
    for name in ("invertible_multiplier_frames", "excess_invariance"):
        assert len(calls("excess", name)) == 4
    # the second consequence check reads every spectrum of V and W the first one
    # took; it rebuilds only the |m|-scaled W and V, which are not kept, and takes
    # their frame bounds and K_W spectra again
    scaled = [fusion_synthesis_kw(scale_weights(f, sym.m)) for f in (inst.w, inst.v)]
    taken = [args[0] for args in calls("svd", "excess_invariance")]
    assert len(taken) == 2 and all(map(np.array_equal, taken, scaled))
    assert len(calls("eigvalsh", "excess_invariance")) == 2


def test_both_inverse_checks_read_one_sampled_dual_stack_of_v(monkeypatch):
    # the uniqueness check reads the dual check's stack and draws only its probe,
    # so its result is the same whichever check samples the stack first
    inst = _instance()
    seen = []

    def recorded(fn):
        def wrapper(sym, v, w, duals, *args):
            seen.append(duals)
            return fn(sym, v, w, duals, *args)

        return wrapper

    for name in ("inverse_representation_residuals", "inverse_representation_probe"):
        monkeypatch.setattr(multipliers, name, recorded(getattr(multipliers, name)))
    entries = {e["name"]: e for e in run_suite("multipliers", [inst])["checks"]}
    assert len(seen) == 2 and seen[0] is seen[1]
    assert not seen[0].flags.writeable
    assert seen[0].shape == (ovf.SAMPLED_DUALS, *inst.v.embedding.analysis.shape)
    fresh = _instance()
    for name in ("inverse_multiplier_uniqueness", "inverse_multiplier_dual"):
        alone = checks.CHECKS[name].run(fresh, checks._check_rng(fresh.seed, name), DEFAULT_TOL)
        assert alone.residual == entries[name]["residual"]
    assert len(seen) == 4 and seen[2] is seen[3] and np.array_equal(seen[2], seen[0])
    # the stack is held by the instance only, so it goes when the instance does
    stack = weakref.ref(seen[0])
    del inst, seen
    gc.collect()
    assert stack() is None


CACHING = (FusionSequence, ovf.OVFrame, multipliers.Symbol)


def _cached_values(obj):
    """``(name, value)`` for each cached property computed on ``obj`` and for each
    entry of its memo tables, the dicts held beside those properties."""
    props = {name for name, attr in vars(type(obj)).items() if isinstance(attr, cached_property)}
    for name, value in vars(obj).items():
        if name in props:
            yield name, value
        elif isinstance(value, dict):
            yield from ((name, entry) for entry in value.values())


def test_every_cached_fact_and_memo_entry_is_read_only():
    # walks every object the suite cached facts on, from the instance's sequences
    # and symbol, so a fact added without numerics.read_only fails here
    inst = _instance()
    assert run_suite("all", [inst])["summary"]["fail"] == 0
    todo, seen, computed = [inst.w, inst.v, inst.symbol], set(), set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for name, value in _cached_values(obj):
            computed.add(f"{type(obj).__name__}.{name}")
            if isinstance(value, multipliers.MultiplierReport):
                value = tuple(value)
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, CACHING):
                    todo.append(part)
                elif isinstance(part, np.ndarray):
                    assert not part.flags.writeable, f"{type(obj).__name__}.{name}"
    every = {
        f"{cls.__name__}.{name}"
        for cls in CACHING
        for name, attr in vars(cls).items()
        if isinstance(attr, cached_property)
    }
    tables = {"OVFrame._family_svals", "Symbol._assembled", "Symbol._inverses"}
    assert every | tables <= computed


def test_invertible_multiplier_memos_are_read_only_and_small():
    inst = _instance()
    sym, v, w = inst.symbol, inst.v, inst.w
    run_suite("multipliers", [inst])
    n, count = w.ambient_dim, w.count
    # the symbol holds its cached facts and its per-pair memo tables, and no
    # |m|-scaled sequence
    props = {
        name for name, attr in vars(multipliers.Symbol).items() if isinstance(attr, cached_property)
    }
    assert set(vars(sym)) <= {"m", "r", "_assembled", "_inverses"} | props
    assert "inverse_blocks" in vars(sym)
    memos = [sym.inverse_blocks, *sym.inverse_closed_form(v, w)]
    assert len(memos) == 3 and sym.inverse_closed_form(v, w)[1] is memos[2]
    for f in (w, v):
        memos += [*f.embedding.analysis_svd, f.synthesis_svals]
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
        residuals = inverse_representation_residuals(sym, v, w, ovf.canonical_and_sampled_duals(v.embedding, 5, rng, tol), tol)
        rng = checks._check_rng(inst.seed, unique)
        probe = inverse_representation_probe(sym, v, w, ovf.canonical_and_sampled_duals(v.embedding, 5, rng, tol), rng, tol)

        # the memo-free one-pass computation the two halves replaced, per
        # check rng, on the fresh twin
        rng = checks._check_rng(inst.seed, dual)
        duals = ovf.canonical_and_sampled_duals(twin.v.embedding, 5, rng, tol)
        full_dual = reference_inverse_representation(twin.symbol, twin.v, twin.w, duals, tol, rng)
        rng = checks._check_rng(inst.seed, unique)
        duals = ovf.canonical_and_sampled_duals(twin.v.embedding, 5, rng, tol)
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


# The draw and load paths factor and test each distinct block dimension once.
REPEATED_DIMS = (1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0, 2)


def _repeated_dims_instance(local):
    spec = InstanceSpec(
        n=4, blocks=len(REPEATED_DIMS), dims=REPEATED_DIMS, weight_range=(0.5, 2.0),
        symbol_mode="random_C_holding", seed=11,
    )
    return generate_instance(spec, local_redundancy=local)


def test_local_frames_take_one_qr_eigvalsh_and_solve_per_distinct_dim(monkeypatch):
    w = _repeated_dims_instance(None).w
    for redundancy in (0, 2):
        calls = {name: _counting(monkeypatch, name) for name in ("qr", "eigvalsh", "solve")}
        build_local_frames(w, redundancy, np.random.default_rng(redundancy))
        for name, args in calls.items():
            # dims 1, 2 and 3 hold 3, 4 and 3 blocks
            assert sorted(np.shape(a[0]) for a in args) == [(3, 1, 1), (3, 3, 3), (4, 2, 2)], name
        monkeypatch.undo()


@pytest.mark.parametrize("mode", ["random_C_holding", "random_C_failing"])
def test_random_symbol_takes_one_svd(monkeypatch, mode):
    svds = _counting(monkeypatch, "svd")
    random_symbol(mode, 4, 9, np.random.default_rng(0))
    assert [np.shape(args[0]) for args in svds] == [(9, 4, 4)]


def test_a_riesz_pair_takes_one_qr_and_no_orthonormality_test(monkeypatch):
    # both unitaries of the pair are orthonormalized as one stack, and the Q
    # factors, orthonormal by construction, are held without a test
    inst = _repeated_dims_instance(None)
    qrs = _counting(monkeypatch, "qr")
    norms = _counting(monkeypatch, "norm")
    w, v, count = checks._riesz_pair(inst, np.random.default_rng(1))
    assert count == 4 and w.count == v.count == 4
    assert [np.shape(args[0]) for args in qrs] == [(2, 4, 4)]
    assert norms == []


def test_the_ranges_of_a_dual_construction_are_held_without_a_test(monkeypatch):
    # the left singular vectors, orthonormal by construction, take no
    # orthonormality test, neither as a stack nor per block range
    inst = _repeated_dims_instance(None)
    calls = []
    rule = fusion._orthonormality_faults

    def counted(stack):
        calls.append(np.shape(stack))
        return rule(stack)

    monkeypatch.setattr(fusion, "_orthonormality_faults", counted)
    dual = canonical_gavruta_dual(inst.w)
    assert calls == []
    assert dual.dims == inst.w.dims


def test_loading_tests_bases_and_local_frames_once_per_shape(monkeypatch, tmp_path):
    # three distinct nonzero dims in each of W and V, and three local frame shapes
    inst = _repeated_dims_instance(1)
    save_instance(inst, tmp_path / "inst.json")
    norms = _counting(monkeypatch, "norm")
    loaded = load_instance(tmp_path / "inst.json")
    assert len(norms) == 9
    assert all(a.basis.tobytes() == b.basis.tobytes() for a, b in zip(loaded.w.subspaces, inst.w.subspaces))


def test_the_contrast_is_computed_once_per_tolerance(monkeypatch):
    contrast = checks.CHECKS["symbol_vs_projection_contrast"]
    inst = _instance()
    first = {tol: contrast.run(inst, None, tol).residual for tol in (ToleranceConfig(), LOOSE)}
    others = [_instance(seed=seed) for seed in (3, 5)]
    svds = _counting(monkeypatch, "svd")
    for other in others:
        for tol in (ToleranceConfig(), LOOSE):
            assert contrast.run(other, None, tol).residual == first[tol]
    assert svds == []
