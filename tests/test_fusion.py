"""Fusion sequences: projections, operators, bounds, excess, local frames."""

import re
import time

import numpy as np
import pytest

from conftest import (
    coordinate_decomposition,
    line,
    random_fusion_frame,
    reference_composite,
    reference_gavruta_composite,
    reference_gavruta_multiplier,
    reference_multiplier,
    reference_projection_composition,
)
from fusionframes import duality, fusion, multipliers, ovf
from fusionframes.exceptions import ContractViolationError
from fusionframes.frames import ordinary_multiplier
from fusionframes.fusion import (
    FusionSequence,
    LocalFrameFamily,
    Subspace,
    build_local_frames,
    excess,
    fusion_synthesis_kw,
    is_riesz_fusion_basis,
    projection,
    random_subspace,
    sandwich,
    scale_weights,
)
from fusionframes.numerics import DEFAULT_TOL, ToleranceConfig, spectral_norm
from fusionframes.ovf import is_frame


def test_projection_examples():
    np.testing.assert_allclose(projection(Subspace.zero(2)), np.zeros((2, 2)))
    np.testing.assert_allclose(projection(Subspace.full(3)), np.eye(3))
    half = projection(line([1.0, 1.0]))
    np.testing.assert_allclose(half, np.full((2, 2), 0.5), atol=1e-15)


def test_projection_idempotent_hermitian(rng):
    for _ in range(30):
        n = int(rng.integers(1, 9))
        p = projection(random_subspace(n, int(rng.integers(0, n + 1)), rng))
        assert spectral_norm(p @ p - p) <= DEFAULT_TOL.eq_rel
        assert spectral_norm(p - p.conj().T) <= DEFAULT_TOL.eq_rel


def test_weight_compatibility_enforced():
    with pytest.raises(ContractViolationError):
        FusionSequence((Subspace.zero(2),), np.array([1.0]))
    with pytest.raises(ContractViolationError):
        FusionSequence((Subspace.full(2),), np.array([0.0]))


def test_weights_whose_frame_operator_overflows_are_rejected():
    # sum_i w_i^2 is compared with the largest float without overflowing
    big = float(np.sqrt(np.finfo(np.float64).max))
    full = (Subspace.full(2), Subspace.full(2))
    FusionSequence(full[:1], np.array([big]))
    FusionSequence(full, np.array([0.7 * big, 0.7 * big]))
    FusionSequence((Subspace.full(2), Subspace.zero(2)), np.array([big, 0.0]))
    for weights in ([1e308, 1e308], [0.75 * big, 0.75 * big], [1.1 * big, 1e-300]):
        with pytest.raises(ContractViolationError, match="overflows"):
            FusionSequence(full, np.array(weights))
    assert fusion.frame_operator_fits(np.zeros(3))


def test_analysis_ambient_examples(diag_pair):
    single = FusionSequence((Subspace.full(2),), np.array([1.0]))
    np.testing.assert_allclose(single.embedding.analysis, np.eye(2))
    stacked = diag_pair.embedding.analysis
    np.testing.assert_allclose(stacked[:2], np.diag([1.0, 0.0]))
    np.testing.assert_allclose(stacked[2:], np.diag([0.0, 2.0]))
    with_zero = FusionSequence(
        (Subspace.full(2), Subspace.zero(2)), np.array([1.0, 0.0])
    )
    np.testing.assert_allclose(with_zero.embedding.analysis[2:], np.zeros((2, 2)))


def test_synthesis_kw_examples():
    std = coordinate_decomposition(2)
    np.testing.assert_allclose(fusion_synthesis_kw(std), np.eye(2))
    weighted = coordinate_decomposition(2, [1.0, 2.0])
    np.testing.assert_allclose(fusion_synthesis_kw(weighted), np.diag([1.0, 2.0]))
    with_zero = FusionSequence(
        (Subspace.full(2), Subspace.zero(2)), np.array([1.0, 0.0])
    )
    assert fusion_synthesis_kw(with_zero).shape == (2, 2)


def _frame_operator(f):
    return f.embedding.frame_operator


def test_frame_operator_examples(diag_pair):
    np.testing.assert_allclose(_frame_operator(diag_pair), np.diag([1.0, 4.0]))
    single = FusionSequence((Subspace.full(2),), np.array([1.0]))
    np.testing.assert_allclose(_frame_operator(single), np.eye(2))
    double = FusionSequence((Subspace.full(2), Subspace.full(2)), np.array([1.0, 1.0]))
    np.testing.assert_allclose(_frame_operator(double), 2 * np.eye(2))


def test_bounds_examples(diag_pair):
    assert diag_pair.embedding.frame_bounds == pytest.approx((1.0, 4.0))
    partial = FusionSequence((line([1.0, 0.0]),), np.array([1.0]))
    lo, hi = partial.embedding.frame_bounds
    assert lo == pytest.approx(0.0, abs=1e-15) and hi == pytest.approx(1.0)
    double = FusionSequence((Subspace.full(2), Subspace.full(2)), np.array([1.0, 1.0]))
    assert double.embedding.frame_bounds == pytest.approx((2.0, 2.0))


def test_classify_examples():
    std = coordinate_decomposition(3)
    assert is_frame(std.embedding) and is_riesz_fusion_basis(std)
    over = FusionSequence((line([1.0, 0.0]), Subspace.full(2)), np.array([1.0, 1.0]))
    assert is_frame(over.embedding) and not is_riesz_fusion_basis(over)
    single = FusionSequence((line([1.0, 0.0]),), np.array([1.0]))
    assert not is_frame(single.embedding) and not is_riesz_fusion_basis(single)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Subspace(np.array([[1.0, 1.0], [0.0, 0.0]])), "basis columns are not orthonormal"),
        (lambda: Subspace(np.array([[2.0], [0.0]])), "basis columns are not orthonormal"),
        (lambda: Subspace(np.ones((1, 2))), "subspace dimension 2 exceeds ambient 1"),
        (
            lambda: Subspace(np.array([[1e200 + 1e200j], [-1e200 + 1e200j]])),
            "basis columns are not orthonormal",
        ),
        (lambda: FusionSequence((), np.array([])), "needs at least one block"),
        (
            lambda: FusionSequence((Subspace.full(2),), np.array([1.0, 1.0])),
            "1 subspaces but 2 weights",
        ),
        (
            lambda: FusionSequence((Subspace.full(2), Subspace.full(3)), np.array([1.0, 1.0])),
            "subspaces live in different ambient spaces",
        ),
        (
            lambda: FusionSequence((Subspace.full(2),), np.array([np.nan])),
            "weights must be finite and non-negative",
        ),
        (
            lambda: FusionSequence((Subspace.full(2),), np.array([-1.0])),
            "weights must be finite and non-negative",
        ),
        (
            lambda: FusionSequence((Subspace.full(2),), np.array([np.inf])),
            "weights must be finite and non-negative",
        ),
    ],
    ids=[
        "equal columns", "column of norm 2", "dim above ambient", "Gram matrix NaN", "no block",
        "weight count", "ambient mismatch", "NaN weight", "negative weight", "infinite weight",
    ],
)
def test_constructor_rejections_name_the_rule(build, message):
    with pytest.raises(ContractViolationError, match=re.escape(message)):
        build()


def test_excess_examples():
    std = coordinate_decomposition(2)
    assert excess(std) == (2, 0)
    single = FusionSequence((Subspace.full(2),), np.array([1.0]))
    assert excess(single) == (0, 0)
    double = FusionSequence((Subspace.full(2), Subspace.full(2)), np.array([1.0, 1.0]))
    assert excess(double) == (2, 2)


def test_riesz_has_zero_kw_excess(rng):
    from fusionframes.instances import random_partition, random_riesz_bases

    for _ in range(20):
        n = int(rng.integers(2, 7))
        (f,) = random_riesz_bases(n, rng, random_partition(n, int(rng.integers(1, n + 1)), rng), 1)
        assert is_riesz_fusion_basis(f)
        assert excess(f)[1] == 0
        assert sum(f.dims) == n


def _rank_read_inputs():
    """The sequences whose ranks the checks read, by input: W, V, their |m|-scaled
    copies and the Riesz pair of riesz_symbol_iff, on the generated-sweep population
    and on the instances of the CI's gen steps."""
    from test_generated_sweep import _specs

    from fusionframes import checks
    from fusionframes.instances import InstanceSpec, generate_instance

    def gen(n, dims, weights=(0.5, 2.0), mode="random_C_holding", seed=1):
        return generate_instance(InstanceSpec(n, len(dims), dims, weights, mode, seed))

    inputs = {
        "generated sweep": [generate_instance(spec) for spec, _ in _specs()],
        "d16": [gen(16, (8, 12, 16, 16))],
        "w24": [gen(12, (1, 2, 3, 4, 5, 6) * 4)],
        "l64": [gen(64, tuple(range(1, 65)))],
        "bessel pair": [gen(5, (1, 1), seed=0)],
        "weights 1e150": [gen(3, (1, 1, 1), weights=(1e150, 1e150), seed=0)],
        "weights 1.3e154": [gen(2, (2,), weights=(1.3e154, 1.3e154), mode="identity", seed=0)],
    }
    for name, insts in inputs.items():
        seqs = []
        for inst in insts:
            rng = checks._check_rng(inst.seed, "riesz_symbol_iff")
            w, v, _ = checks._riesz_pair(inst, rng)
            scaled = [scale_weights(f, inst.symbol.m) for f in (inst.w, inst.v)]
            seqs += [inst.w, inst.v, *scaled, w, v]
        yield name, seqs


def test_the_synthesis_rank_is_the_rank_of_the_range_basis():
    # excess and the Riesz test cut the K_W synthesis spectrum where range_basis
    # cuts the spectrum of T; in exact arithmetic the two share their nonzero
    # values, so a decision could move only where a value sits near the cut. The
    # smallest distance of either spectrum to its cut is 5.8 decades at the default
    # rank_rel and 3.8 at rank_rel = 1e-8, both on l64
    loose = ToleranceConfig(rank_rel=1e-8)
    closest = {}
    for name, seqs in _rank_read_inputs():
        for f in seqs:
            n, size = f.ambient_dim, f.count * f.ambient_dim
            for tol in (DEFAULT_TOL, loose):
                r = ovf.range_basis(f.embedding, tol).shape[1]
                assert excess(f, tol) == (size - r, sum(f.dims) - r), name
                assert is_riesz_fusion_basis(f, tol) == (sum(f.dims) == n and r == n), name
                for s in (f.synthesis_svals, f.embedding.analysis_svd[1]):
                    s = s[s > 0.0]
                    if s.size:
                        decades = np.abs(np.log10(s / (tol.rank_rel * size * s[0])))
                        closest[tol] = min(closest.get(tol, np.inf), float(decades.min()))
    assert closest[DEFAULT_TOL] > 5.0 and closest[loose] > 3.0, closest


def test_frame_operator_is_analysis_gram(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        f = random_fusion_frame(n, int(rng.integers(1, 5)), rng)
        # the embedding's S = T^* T against sum_i w_i^2 P_i
        direct = sum(wt * wt * projection(sub) for sub, wt in zip(f.subspaces, f.weights))
        assert spectral_norm(_frame_operator(f) - direct) <= DEFAULT_TOL.eq_rel


def test_scale_weights_zeroes_blocks(diag_pair):
    scaled = scale_weights(diag_pair, [1.0, 0.0])
    assert scaled.weights[1] == 0.0 and scaled.subspaces[1].dim == 0
    np.testing.assert_allclose(_frame_operator(scaled), np.diag([1.0, 0.0]))


def test_local_frames_redundancy_zero_on_lines():
    std = coordinate_decomposition(2)
    fam = build_local_frames(std, 0, np.random.default_rng(3))
    for i, (phi, dual) in enumerate(zip(fam.frames, fam.duals)):
        assert len(phi) == 1
        assert np.linalg.norm(phi[0]) == pytest.approx(1.0)
        np.testing.assert_allclose(phi, dual, atol=1e-12)


def test_local_duals_for_repeated_vector():
    w = line([1.0, 0.0])
    v = w.basis[:, 0]
    from conftest import canonical_dual_ordinary

    phi = np.array([v, v])
    dual = canonical_dual_ordinary(phi)
    np.testing.assert_allclose(dual, np.array([v / 2, v / 2]), atol=1e-14)


def test_local_frames_zero_subspace():
    f = FusionSequence((Subspace.full(2), Subspace.zero(2)), np.array([1.0, 0.0]))
    fam = build_local_frames(f, 1, np.random.default_rng(5))
    assert fam.frames[1] is None and fam.duals[1] is None


def test_local_frame_family_holds_its_frames_and_duals_read_only(rng):
    # a caller's later write into an array it handed the family does not reach it
    f = random_fusion_frame(4, 3, rng)
    built = build_local_frames(f, 1, rng)
    assert all(not a.flags.writeable for a in built.frames + built.duals if a is not None)
    mine = [None if a is None else np.array(a) for a in built.frames + built.duals]
    k = len(built.frames)
    fam = LocalFrameFamily(tuple(mine[:k]), tuple(mine[k:]), 1, built.alpha, built.beta)
    for a, held, want in zip(mine, fam.frames + fam.duals, built.frames + built.duals):
        if a is None:
            assert held is None
            continue
        a[...] = 0.0
        assert not held.flags.writeable
        assert held.tobytes() == want.tobytes()


def test_local_frames_vectors_live_in_subspace(rng):
    f = random_fusion_frame(5, 3, rng)
    fam = build_local_frames(f, 2, rng)
    assert 0.0 < fam.alpha <= fam.beta
    for sub, phi in zip(f.subspaces, fam.frames):
        p = projection(sub)
        for vec in phi:
            assert np.linalg.norm(p @ vec - vec) <= DEFAULT_TOL.eq_rel


def test_local_reconstruction(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        f = random_fusion_frame(n, int(rng.integers(1, 4)), rng)
        fam = build_local_frames(f, int(rng.integers(0, 3)), rng)
        basis = np.eye(n, dtype=np.complex128)
        for sub, phi, dual in zip(f.subspaces, fam.frames, fam.duals):
            if phi is None:
                continue
            p = projection(sub)
            recon = ordinary_multiplier(np.ones(len(phi)), dual, phi)
            for x in basis:
                err = np.linalg.norm(recon @ (p @ x) - p @ x)
                assert err <= DEFAULT_TOL.eq_rel


def test_local_frame_bounds_hold_by_construction():
    # an orthonormal basis of each block plus unit vectors: I + sum e e^*
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for d in (1, 12, 64):
        f = FusionSequence((random_subspace(64, d, rng),), np.array([1.0]))
        for redundancy in range(4):
            fam = build_local_frames(f, redundancy, rng)
            assert len(fam.frames[0]) == d + redundancy
            assert fam.alpha >= 1.0 - 1e-12
            assert fam.beta <= 1.0 + redundancy + 1e-12
    assert time.perf_counter() - start < 5.0


def _random_sequence(n, count, rng):
    dims = [0 if rng.random() < 0.2 else int(rng.integers(1, n + 1)) for _ in range(count)]
    subs = tuple(random_subspace(n, d, rng) for d in dims)
    weights = np.array([float(rng.uniform(0.1, 3.0)) if d else 0.0 for d in dims])
    return FusionSequence(subs, weights)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_sandwich_matches_the_per_block_loops(rng):
    # the commonly used multipliers are the symbols R_i = I and R_i = S_W^-1,
    # and a shared S_W^-1 enters the sandwich broadcast to every block
    shapes = [(16, 24), (1, 24), (16, 1), (2, 1)] + [
        (int(rng.integers(1, 17)), int(rng.integers(1, 25))) for _ in range(116)
    ]
    gavruta_cases = 0
    for n, count in shapes:
        v, w = _random_sequence(n, count, rng), _random_sequence(n, count, rng)
        m = _complex(rng, count)
        m[rng.random(count) < 0.2] = 0.0
        r = _complex(rng, (count, n, n))
        sym = multipliers.Symbol(m, r)

        assert np.array_equal(
            duality.kpp_dual_check(v, w, r).composite, reference_composite(v, w, r)
        )
        assert np.array_equal(multipliers.assemble_multiplier(sym, v, w).matrix, reference_multiplier(m, r, v, w))
        plain = multipliers.Symbol(m, np.broadcast_to(np.eye(n), (count, n, n)))
        assert np.array_equal(
            multipliers.assemble_multiplier(plain, v, w).matrix, reference_projection_composition(m, v, w)
        )
        assert np.array_equal(
            sandwich(v, w, v.weights * w.weights, r), reference_composite(v, w, r)
        )
        if not is_frame(w.embedding):
            continue
        gavruta_cases += 1
        s_inv = np.linalg.inv(_frame_operator(w))
        shared = np.broadcast_to(s_inv, (count, n, n))
        assert np.array_equal(
            multipliers.assemble_multiplier(multipliers.Symbol(m, shared), v, w).matrix,
            reference_gavruta_multiplier(m, v, w, s_inv),
        )
        comp = reference_gavruta_composite(v, w, s_inv)
        assert duality.gavruta_dual_check(v, w) == float(
            np.linalg.norm(comp - np.eye(n)) / np.sqrt(n)
        )
        assert np.array_equal(sandwich(v, w, w.weights * v.weights, shared), comp)
    assert gavruta_cases >= 60


def test_sandwich_rejects_mismatched_sequences():
    std2, std3 = coordinate_decomposition(2), coordinate_decomposition(3)
    with pytest.raises(ContractViolationError):
        sandwich(std2, std3, np.ones(2), np.zeros((2, 2, 2)))
    # one middle form: a shared matrix is broadcast by the caller, not here
    with pytest.raises(ContractViolationError):
        sandwich(std2, std2, np.ones(2), np.eye(2))


def test_projection_stack_is_cached_and_read_only(rng, monkeypatch):
    calls = []
    original = fusion.projection
    monkeypatch.setattr(fusion, "projection", lambda sub: calls.append(sub) or original(sub))
    v, w = _random_sequence(5, 7, rng), _random_sequence(5, 7, rng)
    sym = multipliers.Symbol(_complex(rng, 7), _complex(rng, (7, 5, 5)))
    stack = w.projections
    assert stack.shape == (7, 5, 5) and w.projections is stack
    for sub, p in zip(w.subspaces, stack):
        assert np.array_equal(p, original(sub))
    w.embedding.frame_bounds
    fusion.block_deviation(w, v)
    multipliers.assemble_multiplier(sym, v, w)
    multipliers.schatten_checks(sym, v, w, 2.0)
    assert len(calls) == 2 * 7
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fusion.orthogonal_split(Subspace.full(3), (1, 1)),
         r"dims \(1, 1\) must be non-negative and sum to 3"),
        (lambda: fusion.orthogonal_split(Subspace.full(2), (3, -1)),
         r"dims \(3, -1\) must be non-negative and sum to 2"),
        (lambda: scale_weights(coordinate_decomposition(2), [1.0]),
         "one scale factor per block required"),
    ],
    ids=["split_sum", "split_negative", "scale_factor_count"],
)
def test_fusion_contracts_raise_contract_violations(call, message):
    with pytest.raises(ContractViolationError, match=message):
        call()
