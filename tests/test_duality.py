"""Admissibility, dual verdicts, the constructive generator, separation."""

import itertools

import numpy as np
import pytest

from conftest import (
    coordinate_decomposition,
    dual_family_residuals,
    line,
    random_fusion_frame,
    reference_dual_perturbations,
)
from fusionframes import duality
from fusionframes.checks import CHECKS, run_suite
from fusionframes.cli import main
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
from fusionframes.instances import InstanceSpec, generate_instance, load_instance
from fusionframes.fusion import (
    FusionSequence,
    Subspace,
    projection,
)
from fusionframes.numerics import DEFAULT_TOL, ToleranceConfig, singular_values, spectral_norm
from fusionframes.ovf import kernel_samples, sweep_dual_family


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


def _lines(n, count):
    """``count`` coordinate lines of C^n, cycling through the axes, unit weights."""
    eye = np.eye(n, dtype=np.complex128)
    return FusionSequence(tuple(Subspace(eye[:, [i % n]]) for i in range(count)), np.ones(count))


C4_FRAME = FusionSequence(  # three blocks of dims 2, 1, 1 spanning C^4
    (Subspace(np.eye(4)[:, :2]), line([0, 0, 1, 0]), line([0, 0, 0, 1])), np.ones(3)
)


@pytest.mark.parametrize("other", [C4_FRAME, _lines(3, 4)], ids=["ambient_c4", "length_4"])
def test_every_pairing_of_two_fusion_frames_applies_one_rule(other):
    # V and W must share length and ambient dimension; with V in C^3 and W in C^4,
    # kpp_dual_check and hmbz_dual_check used to raise numpy's bare ValueError
    v = _lines(3, 3)
    q = _projection_blocks(v)
    calls = [
        lambda: kpp_dual_check(v, other, q),
        lambda: hmbz_dual_check(v, other, np.zeros((3, sum(other.dims)))),
        lambda: index_zero_set(v, other),
        lambda: gavruta_dual_check(v, other),
        lambda: gavruta_dual_check(other, v),
        lambda: find_separating_dual(v, other),
    ]
    for call in calls:
        with pytest.raises(ContractViolationError, match="share length and ambient dimension"):
            call()


def _svd_operands(monkeypatch):
    """The operand of every np.linalg.svd call from here on, in call order."""
    operands = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        operands.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return operands


def test_admissibility_examples(monkeypatch):
    std = coordinate_decomposition(2)
    good = _projection_blocks(std)
    assert is_admissible(good, std, std)
    calls = _svd_operands(monkeypatch)
    # identity blocks have unit norm but violate the kernel condition on proper
    # subspaces: the SVD of ||Q_i||, then the kernel defect stack's decides
    bad_kernel = np.array([np.eye(2), np.eye(2)], dtype=np.complex128)
    assert not is_admissible(bad_kernel, std, std)
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[1], bad_kernel @ std.projections - bad_kernel)
    assert np.linalg.norm(calls[1][0], 2) > 0.1
    # unit norm is required: ||Q_i|| = 2 decides from the first SVD alone
    calls.clear()
    assert not is_admissible(2.0 * good, std, std)
    assert len(calls) == 1


def test_kpp_verdict_examples():
    std = coordinate_decomposition(2)
    q = _projection_blocks(std)
    verdict = kpp_dual_check(std, std, q)
    assert verdict.kind == "dual"
    np.testing.assert_allclose(verdict.composite, np.eye(2), atol=1e-14)
    # the kind is read from the composite when first asked for, so no caller may
    # write into it
    assert not verdict.composite.flags.writeable

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
    assert singular_values(verdict.composite)[-1] <= 1e-12


def test_kpp_verdicts_take_only_the_svds_they_read(monkeypatch):
    # the cases of test_kpp_verdict_examples: ||Q_i|| decides the zero block
    # alone; a dual adds ||comp - I||, and only a generalized dual adds the
    # composite's extreme singular values
    std = coordinate_decomposition(2)
    q = _projection_blocks(std)
    q_partial = q.copy()
    q_partial[1] = 0.0
    doubled = FusionSequence(std.subspaces, 2.0 * std.weights)
    calls = _svd_operands(monkeypatch)
    for v, q_blocks, kind in ((std, q, "dual"), (doubled, q, "generalized_dual"), (std, q_partial, "none")):
        calls.clear()
        verdict = kpp_dual_check(v, std, q_blocks)
        assert len(calls) == 1
        assert verdict.kind == kind
        assert len(calls) == {"dual": 2, "generalized_dual": 3, "none": 1}[kind]
        took_extremes = any(np.array_equal(a, verdict.composite) for a in calls)
        assert took_extremes == (kind == "generalized_dual")


def test_kpp_checks_take_five_and_four_svds_per_run(tmp_path, monkeypatch, capsys):
    # on the CI's d16 instance, once the frame's cached facts exist:
    # kpp_construction draws U (one SVD), gates it (one SVD, whose sigma_max is
    # ||U||), takes the generator's stacked ranges, ||Q_i|| and ||comp - U||;
    # kpp_verdict_dual takes no draw and ||comp - I|| in place of ||comp - U||
    path = tmp_path / "d16.json"
    assert main(["gen", "--dim", "16", "--blocks", "4", "--dims", "8,12,16,16",
                 "--seed", "1", "-o", str(path)]) == 0
    capsys.readouterr()
    inst = load_instance(path)
    for name in ("kpp_construction", "kpp_verdict_dual"):
        CHECKS[name].run(inst, np.random.default_rng(0), DEFAULT_TOL)
    calls = _svd_operands(monkeypatch)
    for name, want in (("kpp_construction", 5), ("kpp_verdict_dual", 4)):
        for seed in range(3):
            calls.clear()
            result = CHECKS[name].run(inst, np.random.default_rng(seed), DEFAULT_TOL)
            assert result.residual <= DEFAULT_TOL.eq_rel
            assert len(calls) == want
    # a Q whose norm condition fails is inadmissible after the one SVD of ||Q_i||
    gd = generate_fusion_dual(inst.w, np.eye(inst.w.ambient_dim))
    calls.clear()
    assert not is_admissible(2.0 * gd.q, gd.v, inst.w)
    assert len(calls) == 1


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
    # the operators A_i = (w_i S_W^-1) P_{W_i} are u_i Q_i
    operators = gd.v.weights[:, None, None] * gd.q
    np.testing.assert_allclose(operators[0], np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(operators[1], np.diag([0.0, 0.5]), atol=1e-14)
    np.testing.assert_allclose(gd.v.weights, [1.0, 0.5])
    np.testing.assert_allclose(gd.q[1], np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(kpp_dual_check(gd.v, diag_pair, gd.q).composite, np.eye(2), atol=1e-14)
    assert kpp_dual_check(gd.v, diag_pair, gd.q).kind == "dual"


def test_generate_dual_scaled_target():
    std = coordinate_decomposition(2)
    gd = generate_fusion_dual(std, 2.0 * np.eye(2))
    np.testing.assert_allclose(kpp_dual_check(gd.v, std, gd.q).composite, 2 * np.eye(2), atol=1e-13)
    assert kpp_dual_check(gd.v, std, gd.q).kind == "generalized_dual"


def test_generate_dual_with_kernel_term(diag_pair, rng):
    (l,) = kernel_samples(diag_pair.embedding, 1, rng)
    t_w = diag_pair.embedding.analysis
    assert spectral_norm(l.conj().T @ t_w) <= 1e-10
    gd = generate_fusion_dual(diag_pair, np.eye(2), l)
    np.testing.assert_allclose(kpp_dual_check(gd.v, diag_pair, gd.q).composite, np.eye(2), atol=1e-12)
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
    from fusionframes.instances import random_invertible_matrix

    for trial in range(50):
        n = int(rng.integers(2, 7))
        w = random_fusion_frame(n, int(rng.integers(1, 5)), rng)
        u = np.eye(n, dtype=complex) if trial % 4 == 0 else random_invertible_matrix(n, rng)
        (l,) = kernel_samples(w.embedding, 1, rng)
        gd = generate_fusion_dual(w, u, l)
        assert spectral_norm(kpp_dual_check(gd.v, w, gd.q).composite - u) <= DEFAULT_TOL.eq_rel * max(
            1.0, spectral_norm(u)
        )
        assert is_admissible(gd.q, gd.v, w)
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
    t_dual = a.canonical_analysis
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

    partners = [w, _perturbed_copy(w, rng)]
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda w: is_admissible(np.ones((3, 2, 2)), w, w), "expected 2 square blocks of size 2"),
        (lambda w: generate_fusion_dual(w, np.eye(3)), "target operator must be 2 x 2"),
        (lambda w: fusion_dual_to_ovf(w, np.ones((3, 2, 2))), "one square block per index required"),
    ],
    ids=["admissibility_blocks", "generator_target", "dual_to_ovf_blocks"],
)
def test_duality_shape_contracts_raise_contract_violations(call, message):
    with pytest.raises(ContractViolationError, match=message):
        call(coordinate_decomposition(2))


def test_kpp_checks_fail_on_an_inadmissible_generated_dual(monkeypatch):
    # Q_i + (I - P_{W_i}) leaves the composite sum_i u_i w_i P_{V_i} Q_i P_{W_i}
    # as it is, so only the admissibility branch of each check can fail it
    inst = generate_instance(InstanceSpec(4, 3, (1, 2, 4), (0.5, 2.0), "random_C_holding", 5))
    generate = duality.generate_fusion_dual

    def inadmissible(w, u, l, tol):
        gd = generate(w, u, l, tol)
        return gd._replace(q=gd.q + (np.eye(w.ambient_dim) - w.projections))

    monkeypatch.setattr(duality, "generate_fusion_dual", inadmissible)
    entries = {e["name"]: e for e in run_suite("duals", [inst])["checks"]}
    for name in ("kpp_construction", "kpp_verdict_dual"):
        assert entries[name]["verdict"] == "fail" and entries[name]["residual"] >= 1.0
