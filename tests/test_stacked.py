"""One stacked LAPACK call per operator family, against the per-candidate,
per-block and per-vector loops it replaced (references in conftest): dual
candidate validation, admissibility, the dual generator, the inverse
representation residual, the local lift and the local duals."""

import numpy as np
import pytest

from conftest import (
    reference_admissibility,
    reference_annihilation_defects,
    reference_dual_representation_residual,
    reference_canonical_gavruta_dual,
    reference_generated_dual,
    reference_local_duals,
    reference_local_frame_equivalence,
    reference_representation_residual,
)
from fusionframes import multipliers, ovf
from fusionframes.duality import (
    canonical_gavruta_dual,
    generate_fusion_dual,
    is_admissible,
    random_annihilating_ovf,
)
from fusionframes.exceptions import ContractViolationError
from fusionframes.fusion import FusionSequence, build_local_frames, random_subspace
from fusionframes.instances import InstanceSpec, generate_instance, random_invertible_matrix
from fusionframes.numerics import DEFAULT_TOL, ToleranceConfig, spectral_norms
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


def test_stacked_annihilation_matches_the_per_candidate_check():
    for inst in POPULATION:
        a = inst.w.embedding
        rng = np.random.default_rng(inst.seed)
        seeds = [_complex(rng, a.analysis.shape) for _ in range(5)]
        cands = ovf.sample_ov_duals(a, seeds, DEFAULT_TOL)
        stack = np.array([cand.perturbation for cand in cands])
        got = ovf.annihilation_defects(a, stack)
        assert np.array_equal(got, reference_annihilation_defects(a, stack))
        canonical = ovf.canonical_ov_dual(a)
        assert np.array_equal(canonical.analysis, a.canonical_analysis)
        assert not canonical.perturbation.any()


def test_every_candidate_is_checked_exactly_once(monkeypatch):
    checked = []
    real = ovf.annihilation_defects

    def counted(a, stack, tol=DEFAULT_TOL):
        checked.append(len(stack))
        return real(a, stack, tol)

    monkeypatch.setattr(ovf, "annihilation_defects", counted)
    inst = POPULATION[-1]
    a = inst.w.embedding
    rng = np.random.default_rng(5)
    seeds = [_complex(rng, a.analysis.shape) for _ in range(4)]
    cands = [ovf.canonical_ov_dual(a)] + ovf.sample_ov_duals(a, seeds, DEFAULT_TOL)
    assert checked == [1, 4]
    checked.clear()
    # a candidate constructed directly is a stack of one
    DualCandidate(a, cands[2].perturbation, cands[2].analysis)
    assert checked == [1]
    checked.clear()
    witness = ovf.sweep_dual_family(a, 2.0 * a.analysis, 0.5, DEFAULT_TOL)[0]
    assert witness is not None and checked == [1]


def test_one_non_annihilating_perturbation_in_a_valid_stack_is_rejected():
    for inst in POPULATION:
        a = inst.w.embedding
        ovf.frame_operator_inverse(a, DEFAULT_TOL)
        t, t_dual = a.analysis, a.canonical_analysis
        rng = np.random.default_rng(inst.seed)
        seeds = [_complex(rng, t.shape) for _ in range(5)]
        stack = np.array([cand.perturbation for cand in ovf.sample_ov_duals(a, seeds, DEFAULT_TOL)])
        ovf._candidates(a, stack, t_dual + stack, DEFAULT_TOL)
        # T_A^* T_A = S_A is invertible, so L = T_A annihilates nothing
        stack[3] = t
        for check in (
            lambda: ovf._candidates(a, stack, t_dual + stack, DEFAULT_TOL),
            lambda: ovf.annihilation_defects(a, stack),
            lambda: reference_annihilation_defects(a, stack),
        ):
            with pytest.raises(ContractViolationError, match="does not annihilate"):
                check()


def test_batched_admissibility_matches_the_per_block_loop():
    for inst in POPULATION:
        w, n = inst.w, inst.w.ambient_dim
        rng = np.random.default_rng(inst.seed)
        gd = generate_fusion_dual(w, random_invertible_matrix(n, rng))
        random_q = _complex(rng, (w.count, n, n))
        for q, v in ((gd.q, gd.v), (random_q, inst.v), (gd.q, inst.v)):
            report = is_admissible(q, v, w)
            ok, rows = reference_admissibility(q, v, w, DEFAULT_TOL)
            assert report.admissible == ok
            assert np.array_equal(np.array(report.defects), np.array(rows))
        assert is_admissible(gd.q, gd.v, w).admissible
        assert not is_admissible(random_q, inst.v, w).admissible


def test_stacked_dual_generator_matches_the_per_block_loop():
    for inst in POPULATION:
        w, n = inst.w, inst.w.ambient_dim
        rng = np.random.default_rng(inst.seed)
        u = random_invertible_matrix(n, rng)
        l = random_annihilating_ovf(w, rng)
        for l_arg, l_blocks in ((None, np.zeros((w.count, n, n), dtype=complex)), (l, l.blocks)):
            gd = generate_fusion_dual(w, u, l_arg)
            v, q, comp, ops = reference_generated_dual(w, u, l_blocks, DEFAULT_TOL)
            assert np.array_equal(gd.v.weights, v.weights)
            for got, want in zip(gd.v.subspaces, v.subspaces):
                assert np.array_equal(got.basis, want.basis)
            for got, want in ((gd.q, q), (gd.composite, comp), (gd.operators, ops)):
                assert np.array_equal(got, want)


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
        seeds = [_complex(rng, a.analysis.shape) for _ in range(4)]
        duals = [ovf.canonical_ov_dual(a)] + ovf.sample_ov_duals(a, seeds, DEFAULT_TOL)
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
            want = reference_local_frame_equivalence(inst.symbol, inst.v, w, family, DEFAULT_TOL)
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
            assert got.vectors.shape == want.vectors.shape == (d + redundancy, n)
            assert np.abs(got.vectors - want.vectors).max() <= 2 * (n + d) * eps


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
        l = random_annihilating_ovf(w, rng)
        gd = generate_fusion_dual(w, u, l)  # fills the caches of W
        a = w.embedding
        duals = [ovf.canonical_ov_dual(a)] + ovf.sample_ov_duals(
            a, [_complex(rng, a.analysis.shape) for _ in range(4)], DEFAULT_TOL
        )
        args = (
            _complex(rng, (count * n, n)), _complex(rng, (count, n, n)), duals, _complex(rng, (n, n))
        )
        calls = _lapack_calls(monkeypatch)
        per_function = []
        for run in (
            lambda: is_admissible(gd.q, gd.v, w),
            lambda: generate_fusion_dual(w, u, l),
            lambda: multipliers._representation_residual(*args),
        ):
            calls.clear()
            run()
            per_function.append(list(calls))
        counts.append(per_function)
        monkeypatch.undo()
    assert counts[0] == counts[1] == counts[2]
    # three stacked norms; |U|'s extremes, the two annihilation norms and one
    # stacked SVD; one stacked norm and ||M^-1||
    assert [len(c) for c in counts[0]] == [3, 4, 2]
    assert all(name == "svd" for c in counts[0] for name in c)


def test_dual_generator_checks_its_sequence_at_the_call_tolerance(diag_pair):
    # T_L^* T_W = 1e-6 sum_i w_i P_i: beyond the default eq_rel, within 1e-3
    near = ovf.OVFrame(1e-6 * np.array([np.eye(2), np.eye(2)], dtype=complex))
    with pytest.raises(ContractViolationError, match="does not annihilate"):
        generate_fusion_dual(diag_pair, np.eye(2), near)
    loose = ToleranceConfig(eq_rel=1e-3)
    assert generate_fusion_dual(diag_pair, np.eye(2), near, loose).q.shape == (2, 2, 2)
