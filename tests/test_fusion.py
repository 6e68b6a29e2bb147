"""Fusion sequences: projections, operators, bounds, excess, local frames."""

import re
import time

import numpy as np
import pytest

from conftest import (
    coordinate_decomposition,
    line,
    reference_composite,
    reference_gavruta_composite,
    reference_gavruta_multiplier,
    reference_multiplier,
    reference_projection_composition,
)
from fusionframes import duality, fusion, multipliers
from fusionframes.exceptions import ContractViolationError
from fusionframes.frames import ordinary_multiplier
from fusionframes.fusion import (
    FusionSequence,
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
from fusionframes.numerics import DEFAULT_TOL, spectral_norm
from fusionframes.ovf import frame_bounds, is_frame


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
    assert frame_bounds(diag_pair.embedding) == pytest.approx((1.0, 4.0))
    partial = FusionSequence((line([1.0, 0.0]),), np.array([1.0]))
    lo, hi = frame_bounds(partial.embedding)
    assert lo == pytest.approx(0.0, abs=1e-15) and hi == pytest.approx(1.0)
    double = FusionSequence((Subspace.full(2), Subspace.full(2)), np.array([1.0, 1.0]))
    assert frame_bounds(double.embedding) == pytest.approx((2.0, 2.0))


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
        "equal columns", "column of norm 2", "dim above ambient", "no block",
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
    from fusionframes.instances import random_riesz_basis

    for _ in range(20):
        n = int(rng.integers(2, 7))
        f = random_riesz_basis(n, rng, count=int(rng.integers(1, n + 1)))
        assert is_riesz_fusion_basis(f)
        assert excess(f)[1] == 0
        assert sum(f.dims) == n


def test_frame_operator_is_analysis_gram(rng):
    from fusionframes.instances import random_fusion_frame

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
        assert phi.count == 1
        assert np.linalg.norm(phi.vectors[0]) == pytest.approx(1.0)
        np.testing.assert_allclose(phi.vectors, dual.vectors, atol=1e-12)


def test_local_duals_for_repeated_vector():
    w = line([1.0, 0.0])
    v = w.basis[:, 0]
    from conftest import canonical_dual_ordinary
    from fusionframes.frames import VectorFrame

    phi = VectorFrame(np.array([v, v]))
    dual = canonical_dual_ordinary(phi)
    np.testing.assert_allclose(dual.vectors, np.array([v / 2, v / 2]), atol=1e-14)


def test_local_frames_zero_subspace():
    f = FusionSequence((Subspace.full(2), Subspace.zero(2)), np.array([1.0, 0.0]))
    fam = build_local_frames(f, 1, np.random.default_rng(5))
    assert fam.frames[1] is None and fam.duals[1] is None


def test_local_frames_vectors_live_in_subspace(rng):
    from fusionframes.instances import random_fusion_frame

    f = random_fusion_frame(5, 3, rng)
    fam = build_local_frames(f, 2, rng)
    assert 0.0 < fam.alpha <= fam.beta
    for sub, phi in zip(f.subspaces, fam.frames):
        p = projection(sub)
        for vec in phi.vectors:
            assert np.linalg.norm(p @ vec - vec) <= DEFAULT_TOL.eq_rel


def test_local_reconstruction(rng):
    from fusionframes.instances import random_fusion_frame

    for _ in range(10):
        n = int(rng.integers(2, 6))
        f = random_fusion_frame(n, int(rng.integers(1, 4)), rng)
        fam = build_local_frames(f, int(rng.integers(0, 3)), rng)
        basis = np.eye(n, dtype=np.complex128)
        for sub, phi, dual in zip(f.subspaces, fam.frames, fam.duals):
            if phi is None:
                continue
            p = projection(sub)
            recon = ordinary_multiplier(np.ones(phi.count), dual, phi)
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
            assert fam.frames[0].count == d + redundancy
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
        assert np.array_equal(
            multipliers.assemble_multiplier(sym, v, w).matrix, reference_multiplier(m, r, v, w)
        )
        assert np.array_equal(
            multipliers.projection_composition_multiplier(m, v, w),
            reference_projection_composition(m, v, w),
        )
        assert np.array_equal(
            sandwich(v, w, v.weights * w.weights, r), reference_composite(v, w, r)
        )
        if not is_frame(w.embedding):
            continue
        gavruta_cases += 1
        s_inv = np.linalg.inv(_frame_operator(w))
        assert np.array_equal(
            multipliers.gavruta_multiplier(m, v, w), reference_gavruta_multiplier(m, v, w, s_inv)
        )
        comp = reference_gavruta_composite(v, w, s_inv)
        assert duality.gavruta_dual_check(v, w) == float(
            np.linalg.norm(comp - np.eye(n)) / np.sqrt(n)
        )
        assert np.array_equal(sandwich(v, w, w.weights * v.weights, s_inv), comp)
    assert gavruta_cases >= 60


def test_sandwich_rejects_mismatched_sequences():
    with pytest.raises(ContractViolationError):
        sandwich(coordinate_decomposition(2), coordinate_decomposition(3), np.ones(2))


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
    frame_bounds(w.embedding)
    fusion.block_deviation(w, v)
    multipliers.assemble_multiplier(sym, v, w)
    multipliers.schatten_checks(sym, v, w, 2.0)
    assert len(calls) == 2 * 7
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0
