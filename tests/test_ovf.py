"""Operator-valued frames, embeddings, and the dual family."""

import time

import numpy as np
import pytest

from conftest import (
    coordinate_decomposition,
    dual_family_residuals,
    rank_tol,
    reference_dual_perturbations,
)
from fusionframes import ovf
from fusionframes.exceptions import ContractViolationError, NotAFrameError
from fusionframes.frames import VectorFrame
from fusionframes.fusion import FusionSequence, Subspace, random_subspace
from fusionframes.numerics import DEFAULT_TOL, ToleranceConfig, spectral_norm
from fusionframes.ovf import (
    OVFrame,
    canonical_ov_dual,
    dual_span_dimension,
    embed_ordinary,
    frame_bounds,
    frame_operator_inverse,
    is_frame,
    kernel_samples,
    null_bessel_certificate,
    sample_ov_duals,
    sweep_dual_family,
)


class _ZeroNormal:
    """A generator stand-in whose every Gaussian draw is zero, so every kernel
    perturbation P_ker G is P_ker 0 = 0."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_analysis_stacking(diag_pair):
    single = OVFrame(np.eye(2)[None])
    np.testing.assert_allclose(single.analysis, np.eye(2))
    emb = embed_ordinary(VectorFrame(np.eye(2)))
    np.testing.assert_allclose(emb.analysis, np.eye(2))
    zeros = OVFrame(np.zeros((2, 2, 2)))
    np.testing.assert_allclose(zeros.analysis, np.zeros((4, 2)))


def test_frame_operator_bounds(diag_pair):
    a = diag_pair.embedding
    np.testing.assert_allclose(a.frame_operator, np.diag([1.0, 4.0]))
    assert frame_bounds(a) == pytest.approx((1.0, 4.0))
    assert frame_bounds(OVFrame(np.eye(2)[None])) == pytest.approx((1.0, 1.0))
    row = embed_ordinary(VectorFrame(np.array([[1.0, 0.0]])))
    assert frame_bounds(row)[0] == pytest.approx(0.0, abs=1e-15)


def test_embeddings_preserve_bounds(rng):
    from fusionframes.instances import random_fusion_frame

    vecs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    phi = VectorFrame(vecs)
    ev = np.linalg.eigvalsh(vecs.T @ vecs.conj())
    assert frame_bounds(embed_ordinary(phi)) == pytest.approx((ev[0], ev[-1]), rel=1e-12)
    np.testing.assert_allclose(
        embed_ordinary(VectorFrame(np.array([[2.0, 0.0]]))).frame_operator,
        np.diag([4.0, 0.0]),
    )
    f = random_fusion_frame(4, 3, rng)
    ev = np.linalg.eigvalsh(np.sum(f.weights[:, None, None] ** 2 * f.projections, axis=0))
    assert frame_bounds(f.embedding) == pytest.approx((ev[0], ev[-1]), rel=1e-12)


def test_embed_fusion_blocks(diag_pair):
    blocks = diag_pair.embedding.blocks
    np.testing.assert_allclose(blocks[0], np.diag([1.0, 0.0]))
    np.testing.assert_allclose(blocks[1], np.diag([0.0, 2.0]))
    with_zero = FusionSequence(
        (Subspace.full(2), Subspace.zero(2)), np.array([1.0, 0.0])
    )
    np.testing.assert_allclose(with_zero.embedding.blocks[1], np.zeros((2, 2)))
    single = FusionSequence((Subspace.full(2),), np.array([1.0]))
    np.testing.assert_allclose(single.embedding.blocks[0], np.eye(2))


def test_canonical_dual_examples(diag_pair):
    onb = embed_ordinary(VectorFrame(np.eye(2)))
    cand = canonical_ov_dual(onb)
    np.testing.assert_allclose(cand.analysis, np.eye(2), atol=1e-14)
    a = diag_pair.embedding
    blocks = canonical_ov_dual(a).analysis.reshape(2, 2, 2)
    np.testing.assert_allclose(blocks[0], np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(blocks[1], np.diag([0.0, 0.5]), atol=1e-14)
    deficient = embed_ordinary(VectorFrame(np.array([[1.0, 0.0]])))
    with pytest.raises(NotAFrameError):
        canonical_ov_dual(deficient)


def test_every_read_of_s_inverse_passes_one_frame_gate(diag_pair):
    # S^-1 and T S^-1 are read only behind frame_operator_inverse, whose error
    # names both clipped bounds
    from fusionframes import duality, multipliers

    a = diag_pair.embedding
    assert is_frame(a) and frame_operator_inverse(a) is a.frame_operator_inv
    n = 2
    partial = FusionSequence((Subspace(np.eye(n)[:, :1]),) * 2, np.array([1.0, 1.0]))
    deficient = partial.embedding
    assert not is_frame(deficient)
    readers = [
        lambda: frame_operator_inverse(deficient),
        lambda: canonical_ov_dual(deficient),
        lambda: sample_ov_duals(deficient, 1, _ZeroNormal(), DEFAULT_TOL),
        lambda: sweep_dual_family(deficient, deficient.analysis, 1.0, DEFAULT_TOL),
        lambda: dual_span_dimension(deficient),
        lambda: duality.gavruta_dual_check(partial, partial),
        lambda: duality.canonical_gavruta_dual(partial),
        lambda: duality.generate_fusion_dual(partial, np.eye(n)),
        lambda: multipliers.gavruta_multiplier(np.ones(2), partial, partial),
    ]
    for read in readers:
        with pytest.raises(NotAFrameError, match=r"alpha=0\.000e\+00, beta=2\.000e\+00"):
            read()


def test_sample_dual_zero_seed_is_canonical(diag_pair):
    a = diag_pair.embedding
    zero = sample_ov_duals(a, 2, _ZeroNormal(), DEFAULT_TOL)
    assert zero.shape == (2, 4, 2)
    np.testing.assert_allclose(zero[1], canonical_ov_dual(a).analysis)
    assert sample_ov_duals(a, 0, _ZeroNormal(), DEFAULT_TOL).shape == (0, 4, 2)


def test_sample_dual_trivial_kernel(rng):
    # square invertible stack: the annihilator is trivial, every draw gives L = 0
    single = OVFrame((np.eye(2) + 0.1 * rng.standard_normal((2, 2)))[None])
    (l,) = kernel_samples(single, 1, rng)
    assert spectral_norm(l) <= 1e-12


def test_sample_dual_noncanonical_still_dual(diag_pair, rng):
    a = diag_pair.embedding
    (dual,) = sample_ov_duals(a, 1, rng, DEFAULT_TOL)
    assert spectral_norm(dual - canonical_ov_dual(a).analysis) > 1e-3
    assert ovf.duality_defects(dual[None], a.analysis)[0] <= DEFAULT_TOL.eq_rel


def test_dual_span_examples(diag_pair):
    single = OVFrame(np.eye(3)[None])
    assert dual_span_dimension(single) == 3
    assert dual_span_dimension(diag_pair.embedding) == 4
    assert dual_span_dimension(embed_ordinary(VectorFrame(np.eye(2)))) == 2


def test_null_certificate_examples(diag_pair):
    assert null_bessel_certificate(diag_pair.embedding) == 0
    assert null_bessel_certificate(embed_ordinary(VectorFrame(np.eye(2)))) == 0


def test_dual_family_population(rng):
    from fusionframes.instances import random_ov_frame

    for _ in range(25):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        count = int(rng.integers(1, 6))
        if count * k < n:
            count = int(np.ceil(n / k))
        a = random_ov_frame(n, k, count, rng)
        assert dual_span_dimension(a) == count * k
        assert null_bessel_certificate(a) == 0
        duals = sample_ov_duals(a, 1, rng, DEFAULT_TOL)
        assert ovf.duality_defects(duals, a.analysis)[0] <= DEFAULT_TOL.eq_rel


def test_ovframe_shape_validation():
    with pytest.raises(ContractViolationError):
        OVFrame(np.zeros((2, 2)))
    with pytest.raises(ContractViolationError):
        ovf.duality_defects(np.zeros((1, 3, 2)), OVFrame(np.eye(2)[None]).analysis)


# Reference copies of the member-wise certificates and sweep that the
# structured [T S^-1 | P_ker] forms and the batched sweep replaced.


def _reference_dual_span_dimension(a, tol=DEFAULT_TOL):
    t_dual = canonical_ov_dual(a, tol).analysis
    pieces = [t_dual]
    pieces.extend(list(reference_dual_perturbations(a, tol))[1:])
    return rank_tol(np.hstack(pieces), tol)


def _reference_null_bessel_certificate(a, tol=DEFAULT_TOL):
    t_dual = canonical_ov_dual(a, tol).analysis
    stacked_rows = [t_dual.conj().T]
    for l in list(reference_dual_perturbations(a, tol))[1:]:
        stacked_rows.append((t_dual + l).conj().T)
    nullity = a.analysis.shape[0] - rank_tol(np.vstack(stacked_rows), tol)
    return int(nullity * a.domain_dim)


def _reference_residuals(a, t_prime, tol=DEFAULT_TOL):
    t_dual = canonical_ov_dual(a, tol).analysis
    eye = np.eye(a.domain_dim)
    return np.array(
        [
            spectral_norm((t_dual + l).conj().T @ t_prime - eye)
            for l in reference_dual_perturbations(a, tol)
        ]
    )


def _random_frames(rng, count=30):
    """Small operator-valued frames, half of them embedded fusion frames."""
    from fusionframes.instances import random_fusion_frame, random_ov_frame

    frames = []
    for i in range(count):
        n = int(rng.integers(1, 5))
        if i % 2:
            frames.append(random_fusion_frame(n, int(rng.integers(1, 4)), rng).embedding)
        else:
            k = int(rng.integers(1, 4))
            blocks = max(int(rng.integers(1, 4)), -(-n // k))
            frames.append(random_ov_frame(n, k, blocks, rng))
    return frames


def _structured_frames():
    """Coordinate-aligned frames, whose analyses have exact (and negative) zeros."""
    return [
        coordinate_decomposition(2, [1.0, 2.0]).embedding,
        coordinate_decomposition(3, [1.0, 0.5, 2.0]).embedding,
        FusionSequence((Subspace.full(2), Subspace.zero(2)), np.array([1.0, 0.0])).embedding,
        embed_ordinary(VectorFrame(np.eye(3))),
    ]


def test_structured_certificates_match_reference(rng):
    for a in _structured_frames() + _random_frames(rng):
        assert dual_span_dimension(a) == _reference_dual_span_dimension(a)
        assert null_bessel_certificate(a) == _reference_null_bessel_certificate(a)


def test_sweep_bound_dominates_reference(rng):
    for a in _structured_frames() + _random_frames(rng):
        t = a.analysis
        others = (t, t + 0.1 * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)))
        for t_prime in others:
            batches = list(dual_family_residuals(a, t_prime))
            rows, cols = t.shape
            assert [b.size for b in batches] == [1] + [cols] * rows
            exact = np.concatenate(batches)
            np.testing.assert_array_equal(exact, _reference_residuals(a, t_prime))
            # no member lies above an infinite threshold, so every row is
            # decided by its bound alone
            witness, bound, checked = sweep_dual_family(a, t_prime, np.inf, DEFAULT_TOL)
            assert witness is None and checked == exact.size
            assert bound >= exact.max()
            if t_prime is t:
                assert bound <= 1e-11


def test_family_members_match_reference(rng):
    for a in _random_frames(rng, count=6):
        reference = list(reference_dual_perturbations(a, DEFAULT_TOL))
        t_dual = canonical_ov_dual(a).analysis
        q = ovf.range_basis(a)
        for index, l in enumerate(reference):
            member = ovf._family_member(a, t_dual, q, index, DEFAULT_TOL)
            np.testing.assert_array_equal(member.perturbation, l)


def test_sweep_annihilator_check_uses_the_call_tolerance(diag_pair):
    # ||T|| = 2 and every kernel column has norm at most 1, so each scale is at
    # most 2: row defects of sqrt(2) 1e-7 exceed the default eq_rel and stay
    # within 1e-6
    a = diag_pair.embedding
    t = a.analysis
    q = ovf.range_basis(a)
    exact = ovf.kernel_parts(a, [t])[0]
    norms = ovf._check_annihilator(a, q, exact, DEFAULT_TOL)
    pt = exact + 1e-7
    assert np.array_equal(ovf._check_annihilator(a, q, pt, ToleranceConfig(eq_rel=1e-6)), norms)
    with pytest.raises(ContractViolationError, match="does not annihilate"):
        ovf._check_annihilator(a, q, pt, DEFAULT_TOL)


def test_sweep_witness_is_checked_at_the_call_tolerance():
    # rank_rel = 0.5 cuts Q to nothing, so P_ker = I and the first kernel member
    # misses L^* T = 0 by 0.61 ||T||: within the call's eq_rel of 0.5 (scaled by
    # ||T|| ||L||), far beyond the default; the witness is built at the call's
    # tolerance, as every member was swept at it
    from fusionframes.instances import InstanceSpec, generate_instance

    spec = InstanceSpec(6, 4, (5, 5, 2, 3), (0.5, 2.0), "random_C_holding", 15)
    a = generate_instance(spec).w.embedding
    loose = ToleranceConfig(eq_rel=0.5, rank_rel=0.5)
    witness, residual, checked = sweep_dual_family(a, a.analysis, loose.eq_rel, loose)
    assert witness is not None and witness.tol is loose and checked == 2
    assert residual > loose.eq_rel
    with pytest.raises(ContractViolationError, match="does not annihilate"):
        ovf.annihilation_defects(a, witness.perturbation[None])


def test_batched_validation_rejects_bad_projector(monkeypatch, diag_pair, rng):
    # an empty range basis makes P_ker = I, which does not annihilate T
    a = diag_pair.embedding
    t = a.analysis
    monkeypatch.setattr(ovf, "range_basis", lambda a, tol=DEFAULT_TOL: np.zeros((t.shape[0], 0)))
    # the canonical dual has L = 0 and needs no projector: below a negative
    # threshold it is the witness, and nothing else is swept
    witness, residual, checked = sweep_dual_family(a, t, -1.0, DEFAULT_TOL)
    assert witness is not None and residual <= 1e-15 and checked == 1
    with pytest.raises(ContractViolationError):
        sweep_dual_family(a, t, 1e-7, DEFAULT_TOL)
    with pytest.raises(ContractViolationError):
        ovf._family_member(a, canonical_ov_dual(a).analysis, ovf.range_basis(a), 1, DEFAULT_TOL)
    # sampled duals project through the range basis: a wrong one is caught too
    with pytest.raises(ContractViolationError):
        ovf.sample_ov_duals(a, 1, rng, DEFAULT_TOL)


def test_structured_certificates_at_scale():
    # the member-wise hstack here would hold 256 x 262,176 complex entries (~1 GB)
    from fusionframes.duality import find_separating_dual
    from fusionframes.instances import random_fusion_frame

    w = random_fusion_frame(32, 8, np.random.default_rng(3))
    a = w.embedding
    start = time.perf_counter()
    assert dual_span_dimension(a) == 256
    assert null_bessel_certificate(a) == 0
    res = find_separating_dual(w, w)
    assert res.witness is None
    assert res.checked == 1 + 256 * 32
    assert time.perf_counter() - start < 30.0


def test_sampled_duals_match_per_dual_loop(rng):
    from conftest import reference_sampled_duals
    from fusionframes.instances import random_fusion_frame

    for _ in range(30):
        n, count = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        a = random_fusion_frame(n, count, rng).embedding
        seed = int(rng.integers(2**32))
        got = sample_ov_duals(a, 5, np.random.default_rng(seed), DEFAULT_TOL)
        drawn = kernel_samples(a, 5, np.random.default_rng(seed))
        want = reference_sampled_duals(a, 5, np.random.default_rng(seed), DEFAULT_TOL)
        assert got.shape == drawn.shape == (5, *a.analysis.shape) and len(want) == 5
        for dual, l, (l_want, analysis) in zip(got, drawn, want):
            assert np.array_equal(l, l_want)
            assert np.array_equal(dual, analysis)
        # members are drawn one by one, so a member does not depend on the count
        first = sample_ov_duals(a, 1, np.random.default_rng(seed), DEFAULT_TOL)
        assert np.array_equal(first[0], got[0])


def test_sampled_ordinary_duals_match_per_dual_loop(rng):
    from conftest import reference_sampled_duals
    from fusionframes.frames import sample_ordinary_duals

    for _ in range(20):
        n = int(rng.integers(1, 5))
        phi = VectorFrame(rng.standard_normal((n + int(rng.integers(0, 4)), n)) + 0j)
        seed = int(rng.integers(2**32))
        got = sample_ordinary_duals(phi, 5, np.random.default_rng(seed))
        want = reference_sampled_duals(
            embed_ordinary(phi), 4, np.random.default_rng(seed), DEFAULT_TOL, canonical=True
        )
        assert [d.vectors.tobytes() for d in got] == [a.conj().tobytes() for _, a in want]


def test_sampled_duals_share_one_projector(monkeypatch, diag_pair, rng):
    # P_ker G is G - Q (Q^* G) from one range basis; no dense projector is formed
    calls = []
    real = ovf.range_basis
    monkeypatch.setattr(ovf, "range_basis", lambda *args: calls.append(real(*args)) or calls[-1])
    duals = ovf.sample_ov_duals(diag_pair.embedding, 4, rng, DEFAULT_TOL)
    assert duals.shape == (4, 4, 2) and len(calls) == 1 and calls[0].shape == (4, 2)


def _projector_population(rng):
    """Seeded frames with n in 1..8 and 1..8 blocks, with n = 1 and a single full
    block (where ker T^* is trivial) forced to recur."""
    from fusionframes.instances import random_fusion_frame

    for k in range(120):
        n = 1 if k % 6 == 0 else int(rng.integers(1, 9))
        if k % 5 == 0:
            yield random_fusion_frame(n, 1, rng, dims=(n,))
        else:
            yield random_fusion_frame(n, int(rng.integers(1, 9)), rng)


def test_implicit_kernel_projection_matches_dense_reference(rng):
    # G - Q (Q^* G) against (I - T T^+) G: both project onto ker T^* through
    # different SVDs of T, so they agree to within the perturbation of the
    # computed range, at most 8 m eps kappa(T) ||G|| for T of m rows and
    # condition kappa(T) = sqrt(beta / alpha)
    from conftest import reference_kernel_projector, reference_probe
    from fusionframes import checks
    from fusionframes.instances import InstanceSpec, generate_instance

    eps = np.finfo(float).eps
    full_blocks = ones = 0
    for w in _projector_population(rng):
        a = w.embedding
        t = a.analysis
        lo, hi = a.frame_eigs
        pker = reference_kernel_projector(a, DEFAULT_TOL)
        bound = 8 * t.shape[0] * eps * np.sqrt(hi / lo)
        seed = int(rng.integers(2**32))
        (drawn,) = kernel_samples(a, 1, np.random.default_rng(seed))
        g_rng = np.random.default_rng(seed)  # the draw kernel_samples made
        g = g_rng.standard_normal(t.shape) + 1j * g_rng.standard_normal(t.shape)
        assert spectral_norm(drawn - pker @ g) <= bound * spectral_norm(g)
        assert np.array_equal(drawn, reference_probe(w, np.random.default_rng(seed), DEFAULT_TOL))
        ones += w.ambient_dim == 1
        if w.count == 1:
            # ker T^* = 0: the projection is rounding noise on both routes
            full_blocks += 1
            assert spectral_norm(drawn) <= bound * spectral_norm(g)
    assert full_blocks >= 10 and ones >= 10

    # on such a frame the uniqueness probe has no direction and says so
    for n in (1, 3):
        spec = InstanceSpec(n, 1, (n,), (0.5, 2.0), "random_C_holding", 7)
        inst = generate_instance(spec)
        report = checks.run_suite("multipliers", [inst])
        verdicts = {e["name"]: e["verdict"] for e in report["checks"]}
        assert verdicts["inverse_multiplier_uniqueness"] == "indeterminate"


def test_analysis_norm_is_the_largest_singular_value_of_the_analysis():
    # ||T|| = sqrt(beta) from the cached eigenvalues of S, against a direct SVD
    # of T, on 20 seeded fusion sequences with n = 1, N = 1 and zero blocks
    rng = np.random.default_rng(17)
    for k in range(20):
        n = 1 if k % 5 == 0 else int(rng.integers(2, 9))
        count = 1 if k % 4 == 0 else int(rng.integers(2, 7))
        dims = rng.integers(0, n + 1, count)
        if k % 7 == 0:
            dims[:] = 0  # every block zero: T = 0
        weights = np.where(dims > 0, rng.uniform(0.5, 2.0, count), 0.0)
        subs = tuple(random_subspace(n, int(d), rng) for d in dims)
        a = FusionSequence(subs, weights).embedding
        want = np.linalg.svd(a.analysis, compute_uv=False)[0]
        assert abs(a.analysis_norm - want) <= 4 * n * np.finfo(float).eps * want


def test_duality_defects_match_per_dual_loop(rng):
    # one batched SVD gives bit for bit the per-dual spectral norms
    from fusionframes.instances import random_fusion_frame

    for _ in range(30):
        n, count = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        a = random_fusion_frame(n, count, rng).embedding
        canonical = canonical_ov_dual(a).analysis
        analyses = np.concatenate([canonical[None], sample_ov_duals(a, 4, rng, DEFAULT_TOL)])
        t = a.analysis
        want = [spectral_norm(d.conj().T @ t - np.eye(n)) for d in analyses]
        assert ovf.duality_defects(analyses, t).tolist() == want
        assert [ovf.duality_defects(d[None], t)[0] for d in analyses] == want
    other = canonical_ov_dual(coordinate_decomposition(n + 1).embedding)
    for bad in (other.analysis[None], analyses[:0], analyses[0]):
        with pytest.raises(ContractViolationError):
            ovf.duality_defects(bad, t)


def _certificate_population(rng):
    """The projector population (n = 1 and single full blocks recur), frames with
    zero blocks and N = 1 operator-valued frames."""
    from fusionframes.instances import random_fusion_frame, random_ov_frame

    frames = [w.embedding for w in _projector_population(rng)]
    for n in (1, 2, 4):
        w = random_fusion_frame(n, 3, rng)
        subs = (Subspace.zero(n),) + w.subspaces + (Subspace.zero(n),)
        frames.append(FusionSequence(subs, np.concatenate([[0.0], w.weights, [0.0]])).embedding)
        frames.append(random_ov_frame(n, n + 1, 1, rng))
    return frames


def test_cached_spectrum_ranks_match_dense_reference(rng):
    # the spectrum of [T S^-1 | P_ker] from the (r + n)-row reduction against
    # dense SVDs of the stack and of its adjoint built from I - T T^+; the
    # large rank_rel cuts Q below rank T, so r < n and a second key is cached
    from conftest import reference_kernel_projector
    from fusionframes.numerics import ToleranceConfig, singular_values

    eps = np.finfo(float).eps
    coarse = ToleranceConfig(rank_rel=0.031)
    short_cuts = ones = full_blocks = zero_blocks = 0
    for a in _certificate_population(rng):
        m, n = a.analysis.shape
        cuts = set()
        for tol in (DEFAULT_TOL, coarse):
            c = canonical_ov_dual(a, tol).analysis
            pker = reference_kernel_projector(a, tol)
            dense = np.hstack([c, pker])
            assert dual_span_dimension(a, tol) == rank_tol(dense, tol)
            rows = np.vstack([c.conj().T, pker])
            assert null_bessel_certificate(a, tol) == (m - rank_tol(rows, tol)) * n
            s = ovf._dual_family_svals(a, tol)
            s_dense = singular_values(dense)
            assert s.shape == s_dense.shape and not s.flags.writeable
            assert np.max(np.abs(s - s_dense)) <= 100 * (m + n) * eps * s_dense[0]
            cuts.add(ovf.range_basis(a, tol).shape[1])
        assert set(a._family_svals) == cuts
        short_cuts += min(cuts) < n
        ones += n == 1
        full_blocks += a.count == 1
        zero_blocks += bool(np.any(np.all(a.blocks == 0.0, axis=(1, 2))))
    assert short_cuts >= 20 and ones >= 10 and full_blocks >= 10 and zero_blocks >= 3


def test_kernel_columns_match_dense_reference(rng):
    # e_r - Q Q[r, :]^* against column r of the dense I - T T^+, within the
    # bound of test_implicit_kernel_projection_matches_dense_reference, and
    # its norm sqrt(1 - ||Q[r, :]||^2) against the column's; that norm loses
    # half its digits where the column is rounding noise, so the squares are
    # compared
    from conftest import reference_kernel_column, reference_kernel_projector

    eps = np.finfo(float).eps
    for w in _projector_population(rng):
        a = w.embedding
        t = a.analysis
        lo, hi = a.frame_eigs
        bound = 8 * t.shape[0] * eps * np.sqrt(hi / lo)
        pker = reference_kernel_projector(a, DEFAULT_TOL)
        q = ovf.range_basis(a)
        norms = ovf._check_annihilator(a, q, ovf.kernel_parts(a, [t])[0], DEFAULT_TOL)
        for r in range(t.shape[0]):
            col = ovf._kernel_column(q, r)
            assert np.array_equal(col, reference_kernel_column(q, r))
            assert np.linalg.norm(col - pker[:, r]) <= bound
            assert abs(norms[r] ** 2 - np.linalg.norm(pker[:, r]) ** 2) <= 2 * bound
