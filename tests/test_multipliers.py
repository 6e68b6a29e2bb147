"""Fusion multipliers: assembly, symbol hypothesis, inverse representation."""

import numpy as np
import pytest

from conftest import coordinate_decomposition, line, random_fusion_frame, reference_block_diag
from fusionframes.checks import run_suite
from fusionframes.exceptions import ContractViolationError, PreconditionError
from fusionframes.fusion import (
    FusionSequence,
    Subspace,
    build_local_frames,
    is_riesz_fusion_basis,
    scale_weights,
)
from fusionframes.instances import Instance
from fusionframes.multipliers import (
    Symbol,
    assemble_multiplier,
    inverse_representation_probe,
    inverse_representation_residuals,
    invertible_multiplier_consequences,
    local_frame_equivalence,
    norm_bound,
    riesz_multiplier_verdict,
    schatten_checks,
)
from fusionframes.numerics import DEFAULT_TOL, spectral_norm
from fusionframes.ovf import canonical_and_sampled_duals

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
E1 = np.array([1.0, 0.0], dtype=np.complex128)
E2 = np.array([0.0, 1.0], dtype=np.complex128)


def cross_pair():
    w = coordinate_decomposition(2)
    v = FusionSequence((w.subspaces[1], w.subspaces[0]), w.weights)
    return v, w


def rank_one_cross_symbol():
    return Symbol(np.ones(2), np.array([np.outer(E2, E1), np.outer(E1, E2)]))


def unitary_swap_symbol():
    return Symbol(np.ones(2), np.array([SWAP, SWAP]))


def _sampled_duals(v, rng, count=5):
    """The analyses of the canonical and ``count - 1`` sampled duals of v, one stack."""
    return canonical_and_sampled_duals(v.embedding, count, rng, DEFAULT_TOL)


def test_block_diag_examples():
    np.testing.assert_array_equal(Symbol.identity(2, 2).blocks, np.array([np.eye(2)] * 2))
    sym = Symbol([2.0, 3.0], np.array([np.eye(2)] * 2))
    d = sym.blocks
    assert d.shape == (2, 2, 2) and not d.flags.writeable and sym.blocks is d
    np.testing.assert_array_equal(d[0], 2 * np.eye(2))
    np.testing.assert_array_equal(d[1], 3 * np.eye(2))
    inv = sym.inverse_blocks
    for i in range(2):
        np.testing.assert_allclose(sym.m[i] * sym.r[i] @ inv[i], np.eye(2), atol=1e-14)


def test_block_diag_adjoint_blocks(rng):
    r = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    m = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    sym = Symbol(m, r)
    adj_sym = Symbol(m.conj(), np.array([ri.conj().T for ri in r]))
    # D_mR^* is block diagonal with blocks (m_i R_i)^* = conj(m_i) R_i^*
    np.testing.assert_allclose(sym.blocks.conj().transpose(0, 2, 1), adj_sym.blocks, atol=1e-14)
    np.testing.assert_allclose(
        reference_block_diag(sym).conj().T, reference_block_diag(adj_sym), atol=1e-14
    )


def test_assemble_examples(diag_pair):
    rep = assemble_multiplier(Symbol.identity(2, 2), diag_pair, diag_pair)
    np.testing.assert_allclose(rep.matrix, np.diag([1.0, 4.0]), atol=1e-14)
    v, w = cross_pair()
    rep = assemble_multiplier(rank_one_cross_symbol(), v, w)
    np.testing.assert_allclose(rep.matrix, SWAP, atol=1e-14)
    assert rep.invertible
    zero = assemble_multiplier(Symbol(np.zeros(2), np.array([np.eye(2)] * 2)), v, w)
    np.testing.assert_allclose(zero.matrix, np.zeros((2, 2)))


def test_assemble_dimension_mismatch(diag_pair):
    with pytest.raises(ContractViolationError):
        assemble_multiplier(Symbol.identity(3, 2), diag_pair, diag_pair)
    with pytest.raises(ContractViolationError):
        assemble_multiplier(Symbol.identity(2, 3), diag_pair, diag_pair)


def test_condition_c_examples():
    sym = Symbol([1.0, 0.5], np.array([np.eye(2), 2 * np.eye(2)]))
    rep = sym.condition_c
    assert rep.gamma == pytest.approx(1.0) and rep.delta == pytest.approx(1.0)
    assert rep.holds and rep.semi_normalized and not rep.near_threshold
    assert rep.lower_witness == pytest.approx(0.5)

    zero_entry = Symbol([1.0, 0.0], np.array([np.eye(2)] * 2)).condition_c
    assert zero_entry.gamma == 0.0 and not zero_entry.holds

    singular = Symbol(
        [1.0, 1.0], np.array([np.eye(2), np.diag([1.0, 0.0]).astype(complex)])
    ).condition_c
    assert not singular.holds


def test_condition_c_is_formed_once_per_symbol(monkeypatch):
    # a fact of the symbol alone, like its singular values: the second read takes
    # no SVD and returns the same report
    sym = Symbol([1.0, 0.5j], np.array([np.eye(2), np.diag([2.0, 1.0]).astype(complex)]))
    first = sym.condition_c
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
    assert sym.condition_c is first and calls == []
    with pytest.raises(ContractViolationError):
        Symbol(np.zeros(0), np.zeros((0, 2, 2))).condition_c


def test_condition_c_semi_normalization_witness(rng):
    from fusionframes.instances import random_symbol

    for _ in range(20):
        sym = random_symbol("random_C_holding", 3, 4, rng)
        rep = sym.condition_c
        assert rep.holds
        assert rep.semi_normalized
        assert np.min(np.abs(sym.m)) >= rep.lower_witness * (1 - 1e-12)


def test_multiplier_norm_bound(rng):
    from fusionframes.instances import random_symbol

    for _ in range(100):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(1, 5))
        v = random_fusion_frame(n, count, rng)
        w = random_fusion_frame(n, count, rng, dims=v.dims)
        sym = random_symbol("random_C_holding", n, count, rng)
        rep = assemble_multiplier(sym, v, w)
        assert rep.sigma_max <= norm_bound(sym, v, w) * (1 + DEFAULT_TOL.eq_rel)


def test_assembly_route_equivalence(rng):
    from fusionframes.instances import random_symbol

    for _ in range(20):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(1, 5))
        v = random_fusion_frame(n, count, rng)
        w = random_fusion_frame(n, count, rng, dims=v.dims)
        sym = random_symbol("random_C_holding", n, count, rng)
        rep = assemble_multiplier(sym, v, w)
        route = (
            v.embedding.analysis.conj().T
            @ reference_block_diag(sym)
            @ w.embedding.analysis
        )
        assert spectral_norm(rep.matrix - route) <= DEFAULT_TOL.eq_rel * max(
            1.0, spectral_norm(rep.matrix)
        )


def test_riesz_verdict_swap_consistent():
    v, w = cross_pair()
    verdict = riesz_multiplier_verdict(unitary_swap_symbol(), v, w)
    assert verdict.predicted_by_c and verdict.actually_invertible
    assert is_riesz_fusion_basis(v) and verdict.consistent and not verdict.indeterminate


def test_riesz_verdict_zero_entry_consistent():
    v, w = cross_pair()
    sym = Symbol([1.0, 0.0], np.array([SWAP, SWAP]))
    verdict = riesz_multiplier_verdict(sym, v, w)
    assert not verdict.predicted_by_c and not verdict.actually_invertible
    assert verdict.consistent


def test_riesz_verdict_overcomplete_v_records_flags():
    w = coordinate_decomposition(2)
    v = FusionSequence((Subspace.full(2), line([1.0, 0.0])), np.array([1.0, 1.0]))
    verdict = riesz_multiplier_verdict(Symbol.identity(2, 2), v, w)
    assert verdict.predicted_by_c and not is_riesz_fusion_basis(v)
    assert not verdict.actually_invertible  # M collapses onto the first line
    assert verdict.consistent


def test_riesz_verdict_without_the_bound_over_a_non_riesz_v_is_consistent():
    # the bound fails (m_2 = 0), V is not Riesz (e_1 twice) and the symbol is far
    # from the cutoff: nothing is predicted, and M = P_{e_1} is singular
    w = coordinate_decomposition(2)
    v = FusionSequence((line([1.0, 0.0]), line([1.0, 0.0])), np.array([1.0, 1.0]))
    sym = Symbol([1.0, 0.0], np.array([np.eye(2), np.eye(2)]))
    verdict = riesz_multiplier_verdict(sym, v, w)
    assert not verdict.predicted_by_c and not verdict.actually_invertible
    assert not is_riesz_fusion_basis(v) and not verdict.indeterminate
    assert verdict.consistent


def test_riesz_verdict_requires_riesz_w():
    v = coordinate_decomposition(2)
    w = FusionSequence((Subspace.full(2), line([1.0, 0.0])), np.array([1.0, 1.0]))
    with pytest.raises(PreconditionError):
        riesz_multiplier_verdict(Symbol.identity(2, 2), v, w)


def test_riesz_verdict_near_threshold_indeterminate(rng):
    from fusionframes.instances import random_riesz_bases, random_symbol

    dims = (1, 1, 1)
    w, v = random_riesz_bases(3, rng, dims, 2)
    sym = random_symbol("adversarial", 3, 3, rng)
    verdict = riesz_multiplier_verdict(sym, v, w)
    assert verdict.indeterminate and verdict.consistent


def test_riesz_verdict_population(rng):
    from fusionframes.instances import random_partition, random_riesz_bases, random_symbol

    for trial in range(40):
        n = int(rng.integers(2, 7))
        count = int(rng.integers(1, n + 1))
        dims = random_partition(n, count, rng)
        w, v = random_riesz_bases(n, rng, dims, 2)
        mode = "random_C_holding" if trial % 2 == 0 else "random_C_failing"
        sym = random_symbol(mode, n, count, rng)
        verdict = riesz_multiplier_verdict(sym, v, w)
        assert not verdict.indeterminate
        assert verdict.consistent


def test_invertible_consequences_identity(diag_pair):
    rep = invertible_multiplier_consequences(Symbol.identity(2, 2), diag_pair, diag_pair)
    assert rep.all_frames and rep.lower_bound_ok
    # sqrt(alpha) sqrt(beta_V) ||R||_inf with alpha = 1 and beta_V = 4
    assert rep.lower_bound_lhs == pytest.approx(2.0)
    assert rep.excess_w_preserved and rep.excess_v == rep.excess_v_scaled and rep.excess_pair_equal


def test_invertible_consequences_scaled_weights(diag_pair):
    sym = Symbol([1.0, 2.0], np.array([np.eye(2)] * 2))
    rep = invertible_multiplier_consequences(sym, diag_pair, diag_pair)
    assert scale_weights(diag_pair, sym.m).embedding.frame_bounds == pytest.approx((1.0, 16.0))
    # the reweighted lower bound reads alpha = 1 of (W, |m| w): sqrt(1) * 2 * 1
    assert rep.lower_bound_lhs == pytest.approx(2.0)
    assert rep.all_frames and rep.lower_bound_ok


def test_invertible_consequences_excess_on_swap():
    v, w = cross_pair()
    rep = invertible_multiplier_consequences(unitary_swap_symbol(), v, w)
    assert rep.excess_w == rep.excess_v == 2  # N*n - n
    assert rep.excess_pair_equal


def test_invertible_consequences_requires_invertible():
    v, w = cross_pair()
    sym = Symbol(np.zeros(2), np.array([np.eye(2)] * 2))
    with pytest.raises(PreconditionError):
        invertible_multiplier_consequences(sym, v, w)


def test_invertible_multiplier_bound_random_population(rng):
    from fusionframes.instances import random_symbol

    checked = 0
    while checked < 30:
        n = int(rng.integers(2, 6))
        count = int(rng.integers(2, 5))
        v = random_fusion_frame(n, count, rng)
        w = random_fusion_frame(n, count, rng, dims=v.dims)
        sym = random_symbol("random_C_holding", n, count, rng)
        if not assemble_multiplier(sym, v, w).invertible:
            continue
        rep = invertible_multiplier_consequences(sym, v, w)
        assert rep.all_frames and rep.lower_bound_ok
        assert rep.excess_w_preserved and rep.excess_pair_equal
        assert rep.excess_v == rep.excess_v_scaled
        checked += 1


def test_inverse_representation_identity_case(diag_pair, rng):
    duals = _sampled_duals(diag_pair, rng)
    sym = Symbol.identity(2, 2)
    residuals = inverse_representation_residuals(sym, diag_pair, diag_pair, duals)
    # m = 1, so L = 0 exactly when Q_dagger_i = w_i P_{W_i} S_W^-1
    _, q_dagger = sym.inverse_closed_form(diag_pair, diag_pair)
    s_inv = np.diag([1.0, 0.25])
    np.testing.assert_allclose(q_dagger[0], np.diag([1.0, 0.0]) @ s_inv, atol=1e-13)
    np.testing.assert_allclose(q_dagger[1], 2 * np.diag([0.0, 1.0]) @ s_inv, atol=1e-13)
    assert max(residuals) <= DEFAULT_TOL.eq_rel


def test_inverse_representation_swap_case(rng):
    v, w = cross_pair()
    duals = _sampled_duals(v, rng)
    sym = unitary_swap_symbol()
    assert max(inverse_representation_residuals(sym, v, w, duals)) <= DEFAULT_TOL.eq_rel
    assert inverse_representation_probe(sym, v, w, duals, rng=rng) >= 1e-4


def test_inverse_representation_preconditions(diag_pair, rng):
    duals = _sampled_duals(diag_pair, rng)
    sym = Symbol([1.0, 0.0], np.array([np.eye(2)] * 2))
    with pytest.raises(PreconditionError):
        inverse_representation_residuals(sym, diag_pair, diag_pair, duals)
    with pytest.raises(PreconditionError):
        inverse_representation_probe(sym, diag_pair, diag_pair, duals, rng)


def test_inverse_representation_random_population(rng):
    from fusionframes.instances import random_symbol

    checked = 0
    while checked < 15:
        n = int(rng.integers(2, 6))
        count = int(rng.integers(2, 5))
        v = random_fusion_frame(n, count, rng)
        w = random_fusion_frame(n, count, rng, dims=v.dims)
        sym = random_symbol("random_C_holding", n, count, rng)
        rep0 = assemble_multiplier(sym, v, w)
        if not rep0.invertible or rep0.sigma_min < 1e-3 * rep0.sigma_max:
            continue
        duals = _sampled_duals(v, rng)
        assert max(inverse_representation_residuals(sym, v, w, duals)) <= DEFAULT_TOL.eq_rel
        assert inverse_representation_probe(sym, v, w, duals, rng=rng) >= 1e-4
        checked += 1


def test_local_equivalence_collapses_to_frame_operator():
    std = coordinate_decomposition(2)
    fam = build_local_frames(std, 0, np.random.default_rng(11))
    residual = local_frame_equivalence(Symbol.identity(2, 2), std, std, fam)
    assert residual <= DEFAULT_TOL.eq_rel


def test_local_equivalence_random_redundancies(rng):
    from fusionframes.instances import random_symbol

    v, w = cross_pair()
    sym = unitary_swap_symbol()
    for redundancy in range(4):
        fam = build_local_frames(w, redundancy, rng)
        assert local_frame_equivalence(sym, v, w, fam) <= DEFAULT_TOL.eq_rel
    for redundancy in range(4):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(2, 5))
        v = random_fusion_frame(n, count, rng)
        w = random_fusion_frame(n, count, rng, dims=v.dims)
        sym = random_symbol("random_C_holding", n, count, rng)
        fam = build_local_frames(w, redundancy, rng)
        assert local_frame_equivalence(sym, v, w, fam) <= DEFAULT_TOL.eq_rel


def test_local_equivalence_negative_control(rng):
    from fusionframes.fusion import LocalFrameFamily
    from fusionframes.instances import random_symbol

    n, count = 4, 3
    v = random_fusion_frame(n, count, rng)
    w = random_fusion_frame(n, count, rng, dims=v.dims)
    sym = random_symbol("random_C_holding", n, count, rng)
    fam = build_local_frames(w, 2, rng)
    broken = LocalFrameFamily(fam.frames, fam.frames, fam.redundancy, fam.alpha, fam.beta)
    assert local_frame_equivalence(sym, v, w, broken) > 1e-3


def test_local_equivalence_requires_spanning(diag_pair):
    from fusionframes.fusion import LocalFrameFamily

    fam = LocalFrameFamily((None, None), (None, None), 0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        local_frame_equivalence(Symbol.identity(2, 2), diag_pair, diag_pair, fam)


def gavruta_symbol(w):
    """The S_W^-1-weighted form as a symbol: m = 1 and R_i = S_W^-1 on every block."""
    s_inv = w.embedding.frame_operator_inv
    return Symbol(np.ones(w.count), np.broadcast_to(s_inv, (w.count, *s_inv.shape)))


def schatten_verdicts(sym, v, w):
    """The schatten suite's verdicts on (sym, V, W), by the checks' own pass rule."""
    inst = Instance(seed=0, symbol_mode="random_C_holding", w=w, v=v, symbol=sym)
    return {e["name"]: e["verdict"] for e in run_suite("schatten", [inst])["checks"]}


def test_comparison_multipliers_reconstruction():
    std = coordinate_decomposition(2)
    np.testing.assert_allclose(
        assemble_multiplier(Symbol.identity(2, 2), std, std).matrix, np.diag([1.0, 1.0]), atol=1e-14
    )
    np.testing.assert_allclose(
        assemble_multiplier(gavruta_symbol(std), std, std).matrix, np.eye(2), atol=1e-14
    )


def test_comparison_multipliers_gavruta_canonical(diag_pair):
    from fusionframes.duality import canonical_gavruta_dual

    dual = canonical_gavruta_dual(diag_pair)
    np.testing.assert_allclose(
        assemble_multiplier(gavruta_symbol(diag_pair), dual, diag_pair).matrix, np.eye(2), atol=1e-13
    )


def test_comparison_multipliers_vanish_on_cross():
    v, w = cross_pair()
    np.testing.assert_allclose(
        assemble_multiplier(Symbol.identity(2, 2), v, w).matrix, np.zeros((2, 2)), atol=1e-15
    )
    np.testing.assert_allclose(
        assemble_multiplier(gavruta_symbol(w), v, w).matrix, np.zeros((2, 2)), atol=1e-15
    )
    rep = assemble_multiplier(rank_one_cross_symbol(), v, w)
    np.testing.assert_allclose(rep.matrix, SWAP, atol=1e-15)
    assert rep.invertible


def test_schatten_examples(diag_pair):
    identity = Symbol.identity(2, 2)
    assert np.linalg.norm(identity.blocks) == pytest.approx(2.0)
    assert identity.block_sval_defect <= DEFAULT_TOL.eq_rel
    assert set(schatten_verdicts(identity, diag_pair, diag_pair).values()) == {"pass"}

    v, w = cross_pair()
    rank_one = rank_one_cross_symbol()
    rep = schatten_checks(rank_one, v, w, 1.0)
    # each rank-one block contributes exactly its norm to the trace norm
    assert rep.block_norm == pytest.approx(rep.rank_bound, rel=1e-12)

    halved = Symbol([1.0, 0.0], rank_one.r)
    rep = schatten_checks(halved, v, w, 1.0)
    assert rep.block_norm == pytest.approx(1.0)


def test_schatten_rejects_bad_p(diag_pair):
    with pytest.raises(ContractViolationError):
        schatten_checks(Symbol.identity(2, 2), diag_pair, diag_pair, 0.5)


def test_schatten_random_population(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(1, 5))
        v = random_fusion_frame(n, count, rng)
        w = random_fusion_frame(n, count, rng, dims=v.dims)
        rank = int(rng.integers(1, n + 1))
        r = np.array(
            [
                (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
                @ (rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n)))
                for _ in range(count)
            ]
        )
        m = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        sym = Symbol(m, r)
        assert sym.block_sval_defect <= DEFAULT_TOL.eq_rel
        assert set(schatten_verdicts(sym, v, w).values()) == {"pass"}


def _one_block_local_family():
    # one local frame, for sequences of two blocks below
    one_block = FusionSequence((Subspace.full(2),), np.ones(1))
    return build_local_frames(one_block, 0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Symbol(np.ones(2), np.ones((3, 2, 2))), ContractViolationError,
         "2 scalars but 3 operator blocks"),
        (lambda: Symbol(np.array([1.0, 0.0]), np.array([np.eye(2)] * 2)).inverse_blocks,
         PreconditionError, "blockwise inversion requires the two-sided symbol bound"),
        (lambda: Symbol(np.ones(0), np.ones((0, 2, 2))).condition_c, ContractViolationError,
         "empty symbol"),
        # on the crossed pair sum_i P_{V_i} P_{W_i} = 0 although the identity symbol holds C
        (lambda: inverse_representation_residuals(
            Symbol.identity(2, 2), *cross_pair(), cross_pair()[0].embedding.canonical_analysis[None]
        ), PreconditionError, "the multiplier must be invertible"),
        # the hypotheses are checked in order, before the duals: on the crossed pair
        # M is singular for both symbols below, and a stack of zeros is no dual
        (lambda: inverse_representation_residuals(
            Symbol(np.array([1.0, 0.0]), np.array([np.eye(2)] * 2)), *cross_pair(), np.zeros((1, 4, 2))
        ), PreconditionError, "two-sided symbol bound"),
        (lambda: inverse_representation_residuals(
            Symbol.identity(2, 2), *cross_pair(), np.zeros((1, 4, 2))
        ), PreconditionError, "the multiplier must be invertible"),
        (lambda: local_frame_equivalence(
            Symbol.identity(2, 2), *cross_pair(), _one_block_local_family()
        ), ContractViolationError, "local family length does not match"),
    ],
    ids=["symbol_lengths", "inverse_blocks_without_c", "empty_symbol", "closed_form_singular",
         "order_symbol_bound_first", "order_invertibility_before_duals", "local_family_length"],
)
def test_multiplier_contracts_raise_their_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_gated_inverse_facts_raise_and_cache_nothing():
    # without the symbol bound the blocks (m_i R_i)^-1 are not formed
    no_c = Symbol(np.array([1.0, 0.0]), np.array([np.eye(2)] * 2))
    with pytest.raises(PreconditionError, match="two-sided symbol bound"):
        no_c.inverse_blocks
    assert "inverse_blocks" not in vars(no_c)
    # on the crossed pair M = 0 for the identity symbol, which holds C: the closed
    # form raises before its inv
    sym = Symbol.identity(2, 2)
    with pytest.raises(PreconditionError, match="the multiplier must be invertible"):
        sym.inverse_closed_form(*cross_pair())
    assert not vars(sym).get("_inverses")
