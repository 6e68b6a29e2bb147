"""Admissibility, dual verdicts, the constructive generator, separation."""

import itertools

import numpy as np
import pytest

from conftest import (
    coordinate_decomposition,
    dual_family_residuals,
    line,
    reference_dual_perturbations,
)
from fusionframes.duality import (
    canonical_gavruta_dual,
    find_separating_dual,
    fusion_dual_to_ovf,
    gavruta_dual_check,
    generate_fusion_dual,
    hmbz_dual_check,
    index_zero_set,
    is_admissible,
    kpp_dual_check,
)
from fusionframes.exceptions import ContractViolationError, NotAFrameError
from fusionframes.fusion import (
    FusionSequence,
    Subspace,
    projection,
)
from fusionframes.numerics import DEFAULT_TOL, ToleranceConfig, spectral_norm
from fusionframes.ovf import canonical_ov_dual, kernel_samples, sweep_dual_family


def _projection_blocks(f):
    return np.array([projection(s) for s in f.subspaces])


def test_index_zero_set():
    std = coordinate_decomposition(2)
    assert index_zero_set(std, std) == frozenset()
    with_zero = FusionSequence(
        (Subspace.full(2), Subspace.zero(2), Subspace.full(2)),
        np.array([1.0, 0.0, 1.0]),
    )
    three = coordinate_decomposition(2)
    padded = FusionSequence(
        (three.subspaces[0], three.subspaces[1], three.subspaces[0]),
        np.array([1.0, 1.0, 1.0]),
    )
    assert index_zero_set(padded, with_zero) == frozenset({1})
    both_zero = FusionSequence(
        (Subspace.full(2), Subspace.zero(2)), np.array([1.0, 0.0])
    )
    assert index_zero_set(both_zero, both_zero) == frozenset({1})
    with pytest.raises(ContractViolationError):
        index_zero_set(std, with_zero)


def test_admissibility_examples():
    std = coordinate_decomposition(2)
    good = _projection_blocks(std)
    assert is_admissible(good, std, std).admissible
    # identity blocks violate the kernel condition on proper subspaces
    bad_kernel = np.array([np.eye(2), np.eye(2)], dtype=np.complex128)
    report = is_admissible(bad_kernel, std, std)
    assert not report.admissible
    assert report.defects[0][0] > 0.1
    # unit norm is required
    report = is_admissible(2.0 * good, std, std)
    assert not report.admissible
    assert report.defects[0][2] == pytest.approx(1.0)


def test_kpp_verdict_examples():
    std = coordinate_decomposition(2)
    q = _projection_blocks(std)
    verdict = kpp_dual_check(std, std, q)
    assert verdict.kind == "dual"
    np.testing.assert_allclose(verdict.composite, np.eye(2), atol=1e-14)

    doubled = FusionSequence(std.subspaces, 2.0 * std.weights)
    verdict = kpp_dual_check(doubled, std, q)
    assert verdict.kind == "generalized_dual"
    np.testing.assert_allclose(verdict.composite, 2 * np.eye(2), atol=1e-14)

    q_partial = q.copy()
    q_partial[1] = 0.0
    # zero block off the zero-index set breaks the unit-norm condition and
    # leaves a singular composite
    verdict = kpp_dual_check(std, std, q_partial)
    assert verdict.kind == "none"
    assert verdict.sigma_min <= 1e-12


def test_gavruta_examples(diag_pair):
    dual = canonical_gavruta_dual(diag_pair)
    assert gavruta_dual_check(dual, diag_pair) <= DEFAULT_TOL.eq_rel
    std = coordinate_decomposition(2)
    assert gavruta_dual_check(std, std) <= DEFAULT_TOL.eq_rel
    swapped = FusionSequence((std.subspaces[1], std.subspaces[0]), std.weights)
    assert gavruta_dual_check(swapped, std) == pytest.approx(1.0)
    not_frame = FusionSequence((line([1.0, 0.0]),), np.array([1.0]))
    with pytest.raises(NotAFrameError):
        gavruta_dual_check(not_frame, not_frame)


def test_gavruta_canonical_on_random_frames(rng):
    from fusionframes.instances import random_fusion_frame

    for _ in range(100):
        n = int(rng.integers(2, 7))
        w = random_fusion_frame(n, int(rng.integers(1, 5)), rng)
        dual = canonical_gavruta_dual(w)
        assert gavruta_dual_check(dual, w) <= DEFAULT_TOL.eq_rel


def test_hmbz_given_q(diag_pair):
    # coordinates: K_W has one basis vector per line; Q = diag(1, 1/4) undoes
    # the weights w_i^2 applied by synthesis against analysis
    q = np.diag([1.0, 0.25]).astype(complex)
    assert hmbz_dual_check(diag_pair, diag_pair, q) <= DEFAULT_TOL.eq_rel
    with pytest.raises(ContractViolationError):
        hmbz_dual_check(diag_pair, diag_pair, np.eye(3))


def test_generate_dual_diag_example(diag_pair):
    gd = generate_fusion_dual(diag_pair, np.eye(2))
    np.testing.assert_allclose(gd.operators[0], np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(gd.operators[1], np.diag([0.0, 0.5]), atol=1e-14)
    np.testing.assert_allclose(gd.v.weights, [1.0, 0.5])
    np.testing.assert_allclose(gd.q[1], np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(gd.composite, np.eye(2), atol=1e-14)
    assert kpp_dual_check(gd.v, diag_pair, gd.q).kind == "dual"


def test_generate_dual_scaled_target():
    std = coordinate_decomposition(2)
    gd = generate_fusion_dual(std, 2.0 * np.eye(2))
    np.testing.assert_allclose(gd.composite, 2 * np.eye(2), atol=1e-13)
    assert kpp_dual_check(gd.v, std, gd.q).kind == "generalized_dual"


def test_generate_dual_with_kernel_term(diag_pair, rng):
    (l,) = kernel_samples(diag_pair.embedding, 1, rng)
    t_w = diag_pair.embedding.analysis
    assert spectral_norm(l.conj().T @ t_w) <= 1e-10
    gd = generate_fusion_dual(diag_pair, np.eye(2), l)
    np.testing.assert_allclose(gd.composite, np.eye(2), atol=1e-12)
    assert kpp_dual_check(gd.v, diag_pair, gd.q).kind == "dual"


def test_generate_dual_rejects_bad_inputs(diag_pair):
    with pytest.raises(ContractViolationError):
        generate_fusion_dual(diag_pair, np.diag([1.0, 0.0]))
    not_annihilating = np.vstack([np.eye(2), np.eye(2)]).astype(complex)
    with pytest.raises(ContractViolationError, match="does not annihilate"):
        generate_fusion_dual(diag_pair, np.eye(2), not_annihilating)
    with pytest.raises(ContractViolationError, match=r"must have shape \(4, 2\)"):
        generate_fusion_dual(diag_pair, np.eye(2), np.zeros((2, 2)))


def test_generated_duals_on_random_population(rng):
    from fusionframes.instances import random_fusion_frame, random_invertible_matrix

    for trial in range(50):
        n = int(rng.integers(2, 7))
        w = random_fusion_frame(n, int(rng.integers(1, 5)), rng)
        u = np.eye(n, dtype=complex) if trial % 4 == 0 else random_invertible_matrix(n, rng)
        (l,) = kernel_samples(w.embedding, 1, rng)
        gd = generate_fusion_dual(w, u, l)
        assert spectral_norm(gd.composite - u) <= DEFAULT_TOL.eq_rel * max(
            1.0, spectral_norm(u)
        )
        assert is_admissible(gd.q, gd.v, w).admissible
        verdict = kpp_dual_check(gd.v, w, gd.q)
        if trial % 4 == 0:
            assert verdict.kind == "dual"
        else:
            assert verdict.kind in ("dual", "generalized_dual")


def test_fusion_dual_to_ovf(diag_pair):
    gd = generate_fusion_dual(diag_pair, np.eye(2))
    b = fusion_dual_to_ovf(gd.v, gd.q)
    np.testing.assert_allclose(b.blocks[0], np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(b.blocks[1], np.diag([0.0, 0.5]), atol=1e-14)
    t_w = diag_pair.embedding.analysis
    np.testing.assert_allclose(
        b.analysis.conj().T @ t_w, np.eye(2), atol=1e-13
    )
    scaled = generate_fusion_dual(diag_pair, 2.0 * np.eye(2))
    b2 = fusion_dual_to_ovf(scaled.v, scaled.q)
    np.testing.assert_allclose(
        b2.analysis.conj().T @ t_w, 2 * np.eye(2), atol=1e-13
    )


def test_zero_weight_blocks_stay_zero():
    f = FusionSequence(
        (Subspace.full(2), Subspace.zero(2)), np.array([1.0, 0.0])
    )
    gd = generate_fusion_dual(f, np.eye(2))
    assert gd.v.weights[1] == 0.0
    np.testing.assert_allclose(gd.q[1], np.zeros((2, 2)))
    b = fusion_dual_to_ovf(gd.v, gd.q)
    np.testing.assert_allclose(b.blocks[1], np.zeros((2, 2)))


def test_separating_dual_identity_case(diag_pair):
    res = find_separating_dual(diag_pair, diag_pair)
    assert res.witness is None
    assert res.block_deviation == 0.0


def test_separating_dual_weight_doubled(diag_pair):
    other = FusionSequence(diag_pair.subspaces, diag_pair.weights * np.array([2.0, 1.0]))
    res = find_separating_dual(diag_pair, other)
    assert res.witness is not None
    assert res.checked == 1  # the canonical dual already separates
    assert res.block_deviation >= 0.1


def test_separating_dual_rotated_subspace():
    std = coordinate_decomposition(2)
    rotated = FusionSequence((std.subspaces[1], std.subspaces[1]), std.weights)
    with pytest.raises(NotAFrameError):
        # rotating the first line onto the second collapses the frame
        find_separating_dual(std, rotated)


def test_separating_dual_rotated_frame_pair():
    std = coordinate_decomposition(2)
    diag_line = line([1.0, 1.0])
    other = FusionSequence((diag_line, std.subspaces[1]), std.weights)
    res = find_separating_dual(std, other)
    assert res.witness is not None


def test_separation_soundness_random(rng):
    from fusionframes.instances import random_fusion_frame

    for _ in range(10):
        n = int(rng.integers(2, 6))
        w = random_fusion_frame(n, int(rng.integers(1, 4)), rng)
        res = find_separating_dual(w, w)
        assert res.witness is None
        assert res.block_deviation <= 100 * DEFAULT_TOL.eq_rel


def _reference_separation(w, w_prime, tol=DEFAULT_TOL, threshold=None):
    """The member-wise separating sweep the batched one replaced, at ``threshold``
    (by default find_separating_dual's 10 eq_rel).

    Returns (witness index, witness perturbation, residual, checked).
    """
    if threshold is None:
        threshold = 10.0 * tol.eq_rel
    a = w.embedding
    t_dual = canonical_ov_dual(a, tol).analysis
    t_prime = w_prime.embedding.analysis
    eye = np.eye(w.ambient_dim)
    worst = 0.0
    checked = 0
    for index, l in enumerate(reference_dual_perturbations(a, tol)):
        checked += 1
        residual = spectral_norm((t_dual + l).conj().T @ t_prime - eye)
        if residual > threshold:
            return index, l, residual, checked
        worst = max(worst, residual)
    return None, None, worst, checked


def _separate(w, w_prime, tol, threshold=None):
    """``(witness, residual, checked)`` of find_separating_dual, or, at an explicit
    ``threshold``, of the sweep it runs."""
    if threshold is None:
        res = find_separating_dual(w, w_prime, tol)
        return res.witness, res.residual, res.checked
    return sweep_dual_family(w.embedding, w_prime.embedding.analysis, threshold, tol)


def _assert_same_separation(w, w_prime, tol, threshold=None):
    index, l, residual, checked = _reference_separation(w, w_prime, tol, threshold)
    witness, got, swept = _separate(w, w_prime, tol, threshold)
    assert swept == checked
    if index is None:
        # without a witness the residual is a certified upper bound
        assert got >= residual
        assert witness is None
    else:
        assert got == residual
        assert swept == index + 1
        np.testing.assert_array_equal(witness.perturbation, l)
    return index


def test_batched_separation_matches_reference(rng):
    from fusionframes.instances import random_fusion_frame

    witnesses = set()
    for _ in range(30):
        n = int(rng.integers(1, 5))
        w = random_fusion_frame(n, int(rng.integers(1, 4)), rng)
        # on w against itself every residual is rounding noise; a threshold
        # just below one of them moves the witness to an arbitrary index. The
        # sweep takes that threshold directly: an eq_rel of a tenth of it would
        # also fail the members' annihilator check, which is taken at eq_rel
        noise = _reference_separation(w, w, tol=ToleranceConfig(eq_rel=0.5))[2]
        witnesses.add(_assert_same_separation(w, w, DEFAULT_TOL))
        witnesses.add(_assert_same_separation(w, w, DEFAULT_TOL, max(noise, 1e-300) * 0.999))
        heavier = FusionSequence(w.subspaces, 1.5 * w.weights)
        assert _assert_same_separation(w, heavier, DEFAULT_TOL) == 0
    assert len(witnesses) > 5


def _exact_separation(w, w_prime, tol, threshold=None):
    """The exact batched sweep find_separating_dual ran before its row bounds, at
    ``threshold`` (by default 10 eq_rel).

    Returns (witness index, witness perturbation, residual, checked).
    """
    a = w.embedding
    if threshold is None:
        threshold = 10.0 * tol.eq_rel
    worst, checked = 0.0, 0
    for residuals in dual_family_residuals(a, w_prime.embedding.analysis, tol):
        above = np.flatnonzero(residuals > threshold)
        if above.size:
            index = checked + int(above[0])
            l = next(itertools.islice(reference_dual_perturbations(a, tol), index, None))
            return index, l, float(residuals[above[0]]), index + 1
        worst = max(worst, float(residuals.max()))
        checked += residuals.size
    return None, None, worst, checked


def _soundness_frames(rng):
    """n = 1, N = 1, zero blocks, coordinate-aligned and random fusion frames."""
    from fusionframes.instances import random_fusion_frame

    frames = []
    for n in range(1, 5):
        weights = rng.uniform(0.5, 2.0, size=n)
        frames.append(coordinate_decomposition(n, weights))
        # every coordinate line twice
        doubled = coordinate_decomposition(n, weights)
        frames.append(
            FusionSequence(doubled.subspaces * 2, np.concatenate([weights, weights[::-1]]))
        )
        frames.append(FusionSequence((Subspace.full(n),), np.array([rng.uniform(0.5, 2.0)])))
        frames.append(
            FusionSequence((Subspace.zero(n), Subspace.full(n), Subspace.zero(n)),
                           np.array([0.0, rng.uniform(0.5, 2.0), 0.0]))
        )
    while len(frames) < 110:
        n = int(rng.integers(1, 6))
        w = random_fusion_frame(n, int(rng.integers(1, 7 if n <= 2 else 5)), rng)
        if rng.random() < 0.2:
            w = FusionSequence(w.subspaces + (Subspace.zero(n),), np.append(w.weights, 0.0))
        frames.append(w)
    return frames


def _blind_copy(w, size):
    """W reweighted along c with sum_i c_i w_i P_i = 0, or None if no such c.

    The canonical dual of W reconstructs the copy as well as W itself; the
    kernel-perturbed members differ from it by about ``size``.
    """
    live = np.flatnonzero(w.weights)
    blocks = w.weights[live, None, None] * w.projections[live]
    m = np.concatenate([blocks.real, blocks.imag], axis=1).reshape(live.size, -1).T
    _, s, vh = np.linalg.svd(m)
    if live.size <= np.count_nonzero(s > 1e-10 * s[0]):
        return None
    c = vh[-1] / np.abs(vh[-1]).max()
    weights = w.weights.copy()
    weights[live] += min(size, 0.5 * weights[live].min()) * c
    return FusionSequence(w.subspaces, weights)


def _soundness_partners(w, rng):
    """Fusion frames to separate w from: itself and perturbed copies."""
    from fusionframes.checks import _perturbed_copy

    partners = [w, _perturbed_copy(w, rng, DEFAULT_TOL)]
    # residuals of every member straddle the threshold 10 * eq_rel
    partners.append(FusionSequence(w.subspaces, w.weights * (1.0 + 10.0 * DEFAULT_TOL.eq_rel)))
    for size in (1.0, 20.0 * DEFAULT_TOL.eq_rel):
        blind = _blind_copy(w, size)
        if blind is not None:
            partners.append(blind)
    return partners


def test_separation_bound_soundness(monkeypatch, rng):
    from fusionframes import ovf

    exact_calls = []
    real = ovf.spectral_norms
    monkeypatch.setattr(ovf, "spectral_norms", lambda d: exact_calls.append(len(d)) or real(d))
    witnesses = set()
    frames = _soundness_frames(rng)
    assert len(frames) >= 100
    for w in frames:
        noise = _exact_separation(w, w, ToleranceConfig(eq_rel=0.5))[2]
        # a threshold in the noise, passed to the sweep directly (see
        # test_batched_separation_matches_reference)
        cases = [(w, w, None), (w, w, max(noise, 1e-300) * 0.999)]
        cases += [(w, other, None) for other in _soundness_partners(w, rng)[1:]]
        for case_index, (w_, other, threshold) in enumerate(cases):
            index, l, residual, checked = _exact_separation(w_, other, DEFAULT_TOL, threshold)
            exact_calls.clear()
            witness, got, swept = _separate(w_, other, DEFAULT_TOL, threshold)
            if case_index == 0:
                # W against itself: the canonical dual's residual and no row
                assert exact_calls == [1]
            assert swept == checked
            if index is None:
                assert witness is None
                assert got >= residual
            else:
                assert got == residual
                np.testing.assert_array_equal(witness.perturbation, l)
                witnesses.add(index)
    assert len(witnesses) > 10
