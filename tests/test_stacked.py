"""One stacked LAPACK call per operator family, against the per-candidate,
per-block and per-vector loops it replaced (references in conftest): dual
candidate validation, admissibility, the dual generator, the inverse
representation residual, the local lift and the local duals, and, bit for bit
with the generator state, the draws of sequences, Riesz bases, symbols and
local frames."""

import numpy as np
import pytest

from conftest import (
    reference_admissibility,
    reference_annulus,
    reference_invertible_matrix,
    reference_local_frames,
    reference_random_sequence,
    reference_random_symbol,
    reference_riesz_basis,
    reference_annihilation,
    reference_canonical_and_sampled_duals,
    reference_dual_representation_residual,
    reference_canonical_gavruta_dual,
    reference_generated_dual,
    reference_kernel_samples,
    reference_local_duals,
    reference_local_frame_equivalence,
    reference_representation_residual,
)
from fusionframes import multipliers, ovf
from fusionframes.duality import (
    canonical_gavruta_dual,
    generate_fusion_dual,
    is_admissible,
    kpp_dual_check,
)
from fusionframes.exceptions import ContractViolationError
from fusionframes.fusion import FusionSequence, build_local_frames, random_subspace
from fusionframes.instances import (
    SYMBOL_MODES,
    InstanceSpec,
    _annulus,
    _random_sequence,
    generate_instance,
    random_invertible_matrix,
    random_partition,
    random_riesz_bases,
    random_symbol,
)
from fusionframes.numerics import DEFAULT_TOL, ToleranceConfig, spectral_norm, spectral_norms
from fusionframes.ovf import DualCandidate, is_frame

LAPACK = ("svd", "eigvalsh", "solve", "inv", "qr", "pinv")


def _population():
    """Seeded instances whose W is a fusion frame: n = 1, N = 1, zero blocks, and
    random shapes up to n = 6, N = 5."""
    shapes = [(1, (1,)), (1, (1, 0, 1)), (4, (4,)), (3, (0, 3, 1, 0)), (2, (1, 1, 2))]
    rng = np.random.default_rng(1813)
    while len(shapes) < 25:
        n, count = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        shapes.append((n, tuple(int(d) for d in rng.integers(0, n + 1, size=count))))
    out = []
    for k, (n, dims) in enumerate(shapes):
        spec = InstanceSpec(
            n=n, blocks=len(dims), dims=dims, weight_range=(0.5, 2.0),
            symbol_mode="random_C_holding", seed=700 + k,
        )
        inst = generate_instance(spec)
        if is_frame(inst.w.embedding):
            out.append(inst)
    return out


POPULATION = _population()


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_population_covers_the_corners():
    assert len(POPULATION) >= 15
    assert any(inst.w.ambient_dim == 1 for inst in POPULATION)
    assert any(inst.w.count == 1 for inst in POPULATION)
    assert any(0 in inst.w.dims for inst in POPULATION)


def _open_perturbation(a, l):
    """L + d T_A S_A^-1 with d = 3/4 of the annihilation threshold for L: a dual
    direction whose defect ||d I|| = d passes the test, while its Frobenius norm
    d sqrt(n) is above half the threshold, so the Frobenius screen leaves it open."""
    d = 0.75 * DEFAULT_TOL.eq_rel * max(1.0, a.analysis_norm * spectral_norm(l))
    return l + d * a.canonical_analysis


def test_stacked_annihilation_matches_the_per_candidate_check(monkeypatch):
    # a drawn stack passes the Frobenius screen without an SVD; a stack the screen
    # leaves open takes the two SVDs; both pass, as in the per-candidate reference
    calls = _lapack_calls(monkeypatch)
    for inst in POPULATION:
        a = inst.w.embedding
        stack = ovf.kernel_samples(a, 5, np.random.default_rng(inst.seed))
        reference_annihilation(a, stack)
        calls.clear()
        ovf.check_annihilation(a, stack)
        assert "svd" not in calls
        stack[0] = _open_perturbation(a, stack[0])
        reference_annihilation(a, stack)
        calls.clear()
        ovf.check_annihilation(a, stack)
        assert calls.count("svd") == 2
        canonical = a.canonical_analysis
        assert np.array_equal(canonical, a.analysis @ a.frame_operator_inv)
        # the canonical dual is the family member with L = 0
        assert np.array_equal(DualCandidate(a, np.zeros_like(canonical)).analysis, canonical)


def test_one_allocation_matches_the_list_copy_concatenate_stack():
    # the canonical slot draws nothing, so the drawn slots take the draws the
    # reference makes, bit for bit, and a stack of one is the canonical analysis
    for inst in POPULATION:
        a = inst.w.embedding
        for count in (1, 2, 5):
            draws = [np.random.default_rng(inst.seed) for _ in range(2)]
            got = ovf.canonical_and_sampled_duals(a, count, draws[0], DEFAULT_TOL)
            want = reference_canonical_and_sampled_duals(a, count, draws[1], DEFAULT_TOL)
            assert got.shape == want.shape == (count, *a.analysis.shape)
            assert got.tobytes() == want.tobytes()
        drawn = ovf.kernel_samples(a, 5, np.random.default_rng(inst.seed))
        want = reference_kernel_samples(a, 5, np.random.default_rng(inst.seed))
        assert drawn.tobytes() == want.tobytes()
        (alone,) = ovf.canonical_and_sampled_duals(a, 1, None, DEFAULT_TOL)
        assert alone.tobytes() == a.canonical_analysis.tobytes()


def test_every_candidate_is_checked_exactly_once(monkeypatch):
    checked = []
    real = ovf.check_annihilation

    def counted(a, stack, tol=DEFAULT_TOL):
        checked.append(len(stack))
        return real(a, stack, tol)

    monkeypatch.setattr(ovf, "check_annihilation", counted)
    inst = POPULATION[-1]
    a = inst.w.embedding
    canonical = a.canonical_analysis
    duals = ovf.canonical_and_sampled_duals(a, 5, np.random.default_rng(5), DEFAULT_TOL)
    # the canonical dual is an array, not a candidate, so only the sampled stack is checked
    assert checked == [4]
    checked.clear()
    # a candidate constructed directly is a stack of one
    DualCandidate(a, duals[1] - canonical)
    assert checked == [1]
    checked.clear()
    witness = ovf.sweep_dual_family(a, 2.0 * a.analysis, 0.5, DEFAULT_TOL)[0]
    assert witness is not None and checked == [1]


def test_one_non_annihilating_perturbation_in_a_valid_stack_is_rejected(monkeypatch):
    def inject(a, out, rng, tol):
        out[...] = stack
        return out

    for inst in POPULATION:
        a = inst.w.embedding
        stack = reference_kernel_samples(a, 5, np.random.default_rng(inst.seed))
        ovf.check_annihilation(a, stack)
        # T_A^* T_A = S_A is invertible, so L = T_A annihilates nothing
        stack[3] = a.analysis
        # the sampled slots of the dual stack receive the stack as drawn
        monkeypatch.setattr(ovf, "_kernel_fill", inject)
        for check in (
            lambda: ovf.canonical_and_sampled_duals(a, 6, None, DEFAULT_TOL),
            lambda: ovf.check_annihilation(a, stack),
            lambda: reference_annihilation(a, stack),
        ):
            with pytest.raises(ContractViolationError, match="does not annihilate"):
                check()


def test_batched_admissibility_matches_the_per_block_loop(monkeypatch):
    # the batched test decides as the per-block reference does: an admissible Q
    # passes the Frobenius screen after the one SVD of its norms; a random Q fails
    # the norm condition there; a generated Q against a V it was not generated for
    # passes the kernel screen and fails the range condition at its SVD; a
    # generated Q turned by a unitary keeps its norms and range and fails the
    # kernel condition at its SVD, before the range condition is tested
    calls = _lapack_calls(monkeypatch)
    for inst in POPULATION:
        w, n = inst.w, inst.w.ambient_dim
        rng = np.random.default_rng(inst.seed)
        gd = generate_fusion_dual(w, random_invertible_matrix(n, rng))
        random_q = _complex(rng, (w.count, n, n))
        turned_q = gd.q @ random_subspace(n, n, rng).basis
        for q, v, failed in (
            (gd.q, gd.v, None), (random_q, inst.v, 1), (gd.q, inst.v, 2), (turned_q, gd.v, 2)
        ):
            want = reference_admissibility(q, v, w, DEFAULT_TOL)
            calls.clear()
            assert is_admissible(q, v, w) == want
            assert calls.count("svd") == (1 if want else failed)
        assert not is_admissible(random_q, inst.v, w)


def test_stacked_dual_generator_matches_the_per_block_loop():
    for inst in POPULATION:
        w, n = inst.w, inst.w.ambient_dim
        rng = np.random.default_rng(inst.seed)
        u = random_invertible_matrix(n, rng)
        (l,) = ovf.kernel_samples(w.embedding, 1, rng)
        blocks = l.reshape(w.count, n, n)
        for l_arg, l_blocks in ((None, np.zeros((w.count, n, n), dtype=complex)), (l, blocks)):
            gd = generate_fusion_dual(w, u, l_arg)
            v, q, comp, ops = reference_generated_dual(w, u, l_blocks, DEFAULT_TOL)
            assert np.array_equal(gd.v.weights, v.weights)
            for got, want in zip(gd.v.subspaces, v.subspaces):
                assert np.array_equal(got.basis, want.basis)
            for got, want in ((gd.q, q), (kpp_dual_check(gd.v, w, gd.q).composite, comp)):
                assert np.array_equal(got, want)
            # each operator A_i is u_i Q_i, u_i = ||A_i||
            atol = 1e-13 * max(1.0, np.abs(ops).max())
            np.testing.assert_allclose(gd.v.weights[:, None, None] * gd.q, ops, rtol=0, atol=atol)


def test_canonical_gavruta_dual_matches_the_per_block_spans():
    # the ranges of the S_W^-1 P_{W_i} from one stacked SVD against the per-block
    # spans of S_W^-1 B_i: the bases differ, the subspaces agree to rounding
    eps = np.finfo(float).eps
    for inst in POPULATION:
        w, n = inst.w, inst.w.ambient_dim
        got = canonical_gavruta_dual(w)
        want = reference_canonical_gavruta_dual(w, DEFAULT_TOL)
        assert got.dims == want.dims
        assert np.array_equal(got.weights, want.weights)
        assert spectral_norms(got.projections - want.projections).max() <= 10 * n * eps


def test_batched_representation_residual_matches_the_per_dual_loop():
    for inst in POPULATION:
        w, n = inst.w, inst.w.ambient_dim
        a = w.embedding
        rng = np.random.default_rng(inst.seed)
        duals = ovf.canonical_and_sampled_duals(a, 5, rng, DEFAULT_TOL)
        stacked_q = _complex(rng, (w.count * n, n))
        inv_blocks = _complex(rng, (w.count, n, n))
        m_inv = _complex(rng, (n, n))
        got = multipliers._representation_residual(stacked_q, inv_blocks, duals, m_inv)
        assert got == reference_dual_representation_residual(stacked_q, inv_blocks, duals, m_inv)
        assert got == reference_representation_residual(stacked_q, inv_blocks, duals, m_inv, n)


def test_blockwise_local_lift_matches_the_per_vector_loop():
    eps = np.finfo(float).eps
    for inst in POPULATION:
        w, n = inst.w, inst.w.ambient_dim
        for redundancy in (0, 1, 3):
            family = build_local_frames(w, redundancy, np.random.default_rng(inst.seed))
            got = multipliers.local_frame_equivalence(inst.symbol, inst.v, w, family)
            want = reference_local_frame_equivalence(inst.symbol, inst.v, w, family)
            assert got <= 1e-13 and abs(got - want) <= 4 * (n + max(w.dims) + redundancy) * eps


@pytest.mark.parametrize("n, dims", [(1, (1,)), (3, (0, 3, 1)), (6, (2, 6, 4, 1)), (64, (1, 64))])
def test_coordinate_local_duals_match_the_pinv_reference(n, dims):
    rng = np.random.default_rng(n)
    eps = np.finfo(float).eps
    subs = tuple(random_subspace(n, d, rng) for d in dims)
    w = FusionSequence(subs, np.array([1.0 if d else 0.0 for d in dims]))
    for redundancy in (0, 1, 3):
        family = build_local_frames(w, redundancy, rng)
        for got, want, d in zip(family.duals, reference_local_duals(family, DEFAULT_TOL), dims):
            if d == 0:
                assert got is None and want is None
                continue
            assert got.shape == want.shape == (d + redundancy, n)
            assert np.abs(got - want).max() <= 2 * (n + d) * eps


# Shapes with repeated dims, zero blocks, n = 1 and n = 64.
DRAW_SHAPES = [
    (1, (1,)),
    (1, (0, 1, 0)),
    (3, (0, 3, 1, 0)),
    (4, (2, 2, 2, 4)),
    (5, (1, 1, 1, 1, 1)),
    (6, (2, 0, 3, 2, 6, 2, 3)),
    (64, (1, 64, 1, 33)),
]


def _same_bits(got, want):
    """Equal shapes and equal bytes, signed zeros included; None matches None."""
    if got is None or want is None:
        return got is None and want is None
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _same_sequence(got, want):
    return _same_bits(got.weights, want.weights) and all(
        _same_bits(a.basis, b.basis) for a, b in zip(got.subspaces, want.subspaces)
    ) and got.count == want.count


def _twin_rngs(*seed):
    return np.random.default_rng(list(seed)), np.random.default_rng(list(seed))


@pytest.mark.parametrize("n, dims", DRAW_SHAPES)
def test_stacked_sequence_draws_match_the_per_block_loop(n, dims):
    got_rng, want_rng = _twin_rngs(n, len(dims))
    got = _random_sequence(n, dims, (0.5, 2.0), got_rng)
    want = reference_random_sequence(n, dims, (0.5, 2.0), want_rng)
    assert _same_sequence(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n, dims", DRAW_SHAPES)
def test_stacked_local_frames_match_the_per_block_loop(n, dims):
    w = reference_random_sequence(n, dims, (0.5, 2.0), np.random.default_rng(n))
    for redundancy in range(4):
        got_rng, want_rng = _twin_rngs(n, redundancy)
        got = build_local_frames(w, redundancy, got_rng)
        want = reference_local_frames(w, redundancy, want_rng)
        for a, b in zip(got.frames + got.duals, want.frames + want.duals):
            assert _same_bits(getattr(a, "vectors", None), getattr(b, "vectors", None))
        assert _same_bits(np.float64(got.alpha), np.float64(want.alpha))
        assert _same_bits(np.float64(got.beta), np.float64(want.beta))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("mode", SYMBOL_MODES)
@pytest.mark.parametrize("n, count", [(1, 1), (1, 3), (2, 5), (4, 4), (12, 24), (64, 2)])
def test_stacked_symbol_draws_match_the_per_block_loop(mode, n, count):
    got_rng, want_rng = _twin_rngs(n, count, SYMBOL_MODES.index(mode))
    got = random_symbol(mode, n, count, got_rng)
    want = reference_random_symbol(mode, n, count, want_rng)
    assert _same_bits(got.m, want.m) and _same_bits(got.r, want.r)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 5, 12, 64])
def test_invertible_matrix_matches_its_own_svd(n):
    got_rng, want_rng = _twin_rngs(n)
    for s_min, s_max in ((0.3, 2.0), (0.5, 2.0), (1.0, 1.0)):
        got = random_invertible_matrix(n, got_rng, s_min, s_max)
        assert _same_bits(got, reference_invertible_matrix(n, want_rng, s_min, s_max))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n, dims", [(1, (1,)), (4, (1, 3)), (5, (1, 1, 1, 1, 1)), (12, (6, 1, 2, 3))])
def test_riesz_bases_match_the_per_block_slices(n, dims):
    for by_dims in (True, False):
        got_rng, want_rng = _twin_rngs(n, len(dims), by_dims)
        got_dims = dims if by_dims else random_partition(n, len(dims), got_rng)
        want_dims = dims if by_dims else random_partition(n, len(dims), want_rng)
        (got,) = random_riesz_bases(n, got_rng, got_dims, 1)
        assert _same_sequence(got, reference_riesz_basis(n, want_rng, dims=want_dims))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_a_riesz_pair_is_two_single_draws():
    # one stacked QR and one orthonormality test for the pair give each basis bit
    # for bit its own draw, and the generator ends where two single draws leave it
    for seed in range(300):
        shape_rng = np.random.default_rng(seed)
        n = int(shape_rng.integers(1, 17))
        dims = random_partition(n, int(shape_rng.integers(1, n + 1)), shape_rng)
        got_rng, want_rng = _twin_rngs(seed)
        pair = random_riesz_bases(n, got_rng, dims, 2)
        singles = [random_riesz_bases(n, want_rng, dims, 1)[0] for _ in range(2)]
        assert all(_same_sequence(a, b) for a, b in zip(pair, singles, strict=True))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_array_uniform_draws_are_the_scalar_draws():
    # a basis's weights and the symbol's annulus are one uniform call each: bit for
    # bit the scalar draws they replaced, and the generator ends where those leave it
    for seed in range(300):
        shape_rng = np.random.default_rng(seed)
        n = int(shape_rng.integers(1, 17))
        dims = random_partition(n, int(shape_rng.integers(1, n + 1)), shape_rng)
        count = int(shape_rng.integers(1, 65))
        got_rng, want_rng = _twin_rngs(seed)
        (got,) = random_riesz_bases(n, got_rng, dims, 1)
        assert _same_sequence(got, reference_riesz_basis(n, want_rng, dims=dims))
        want = np.array([reference_annulus(want_rng) for _ in range(count)])
        assert _same_bits(_annulus(got_rng, count), want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("mode", SYMBOL_MODES)
def test_generated_instances_match_the_per_block_draws(mode):
    # the whole gen path: W, V, the symbol and the local frames, in that order
    for k, (n, dims) in enumerate(DRAW_SHAPES[:-1]):
        redundancy = k % 4
        spec = InstanceSpec(
            n=n, blocks=len(dims), dims=dims, weight_range=(0.5, 2.0), symbol_mode=mode, seed=k,
        )
        got = generate_instance(spec, local_redundancy=redundancy)
        rng = np.random.default_rng(k)
        w = reference_random_sequence(n, dims, (0.5, 2.0), rng)
        v = reference_random_sequence(n, dims, (0.5, 2.0), rng)
        sym = reference_random_symbol(mode, n, len(dims), rng)
        local = reference_local_frames(w, redundancy, rng)
        assert _same_sequence(got.w, w) and _same_sequence(got.v, v)
        assert _same_bits(got.symbol.m, sym.m) and _same_bits(got.symbol.r, sym.r)
        for a, b in zip(got.local.frames + got.local.duals, local.frames + local.duals):
            assert _same_bits(getattr(a, "vectors", None), getattr(b, "vectors", None))
        assert (got.local.alpha, got.local.beta) == (local.alpha, local.beta)


def _lapack_calls(monkeypatch):
    calls = []
    for name in LAPACK:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_lapack_calls_do_not_grow_with_the_block_count(monkeypatch):
    n = 3
    counts = []
    for count in (2, 8, 32):
        rng = np.random.default_rng(count)
        dims = [n] + [int(d) for d in rng.integers(1, n + 1, size=count - 1)]
        w = FusionSequence(
            tuple(random_subspace(n, d, rng) for d in dims), rng.uniform(0.5, 2.0, size=count)
        )
        u = random_invertible_matrix(n, rng)
        (l,) = ovf.kernel_samples(w.embedding, 1, rng)
        gd = generate_fusion_dual(w, u, l)  # fills the caches of W
        a = w.embedding
        duals = ovf.canonical_and_sampled_duals(a, 5, rng, DEFAULT_TOL)
        args = (
            _complex(rng, (count * n, n)), _complex(rng, (count, n, n)), duals, _complex(rng, (n, n))
        )
        # rank-one blocks: ran(Q_0) and the complement of ker(Q_0) are 3-dimensional
        lines = FusionSequence(tuple(random_subspace(n, 1, rng) for _ in dims), w.weights)
        l_open = _open_perturbation(a, l)
        calls = _lapack_calls(monkeypatch)
        per_input = []
        # inputs the Frobenius screen decides, then inputs it leaves open: Q that
        # fail the norm, the kernel and the range condition, and an L with a dual
        # direction at 3/4 of the threshold
        for runs in (
            (
                lambda: is_admissible(gd.q, gd.v, w),
                lambda: generate_fusion_dual(w, u, l),
            ),
            (
                lambda: not is_admissible(2.0 * gd.q, gd.v, w),
                lambda: not is_admissible(gd.q, gd.v, lines),
                lambda: not is_admissible(gd.q, lines, w),
                lambda: generate_fusion_dual(w, u, l_open),
            ),
        ):
            per_function = []
            for run in (*runs, lambda: multipliers._representation_residual(*args)):
                calls.clear()
                assert run() is not False  # each admissibility decision is right
                per_function.append(list(calls))
            per_input.append(per_function)
        counts.append(per_input)
        monkeypatch.undo()
    assert counts[0] == counts[1] == counts[2]
    # decided: ||Q_i||; |U|'s extremes and one stacked SVD; one stacked norm and
    # ||M^-1||. Open: ||Q_i||, which decides 2 Q; ||Q_i|| and the kernel defects;
    # ||Q_i|| and the range defects, after the kernel screen; |U|'s extremes, the
    # two annihilation norms and one stacked SVD; one stacked norm and ||M^-1||
    assert [[len(c) for c in per_function] for per_function in counts[0]] == [
        [1, 2, 2], [1, 2, 2, 4, 2]
    ]
    assert all(name == "svd" for per_function in counts[0] for c in per_function for name in c)


def test_dual_generator_checks_its_sequence_at_the_call_tolerance(diag_pair):
    # T_L^* T_W = 1e-6 sum_i w_i P_i: beyond the default eq_rel, within 1e-3
    near = 1e-6 * np.vstack([np.eye(2), np.eye(2)]).astype(complex)
    with pytest.raises(ContractViolationError, match="does not annihilate"):
        generate_fusion_dual(diag_pair, np.eye(2), near)
    loose = ToleranceConfig(eq_rel=1e-3)
    assert generate_fusion_dual(diag_pair, np.eye(2), near, loose).q.shape == (2, 2, 2)
