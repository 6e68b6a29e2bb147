"""The guards that compare spectral norms with a threshold pass a stack on
certified Frobenius bounds within half the threshold (numerics.frobenius_screen)
and take the SVD everywhere else. Rank-one perturbations of a generated L, a
generated Q and a sampled dual put the exact defect at fixed multiples of the
threshold: every guard must decide as the exact reference does, take no defect
SVD where the bound decides and the exact SVD everywhere else."""

import numpy as np
import pytest

from conftest import reference_admissibility, reference_annihilation
from fusionframes import multipliers, ovf
from fusionframes.duality import generate_fusion_dual, is_admissible
from fusionframes.exceptions import ContractViolationError
from fusionframes.instances import InstanceSpec, generate_instance, random_invertible_matrix
from fusionframes.numerics import DEFAULT_TOL, FLOAT_MAX, frobenius_screen, spectral_norm

EQ_REL = DEFAULT_TOL.eq_rel
# multiples of the threshold; the bound decides the first two, below half of it
FACTORS = (0.25, 0.45, 0.9, 1.1, 4.0)
INSTANCES = [
    generate_instance(InstanceSpec(
        n=n, blocks=len(dims), dims=dims, weight_range=(0.5, 2.0),
        symbol_mode="random_C_holding", seed=seed,
    ))
    for n, dims, seed in ((2, (1, 2), 11), (4, (2, 3, 4), 12), (5, (1, 4, 0, 5), 13))
]
CASES = [(k, factor) for k in range(len(INSTANCES)) for factor in FACTORS]


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit(x):
    return x / np.linalg.norm(x)


def _svd_calls(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _decides(check):
    """True when ``check()`` returns, False when it raises ContractViolationError."""
    try:
        check()
    except ContractViolationError:
        return False
    return True


@pytest.mark.parametrize("isometric", [False, True])
@pytest.mark.parametrize("k, factor", CASES)
def test_annihilation_near_the_threshold(monkeypatch, k, factor, isometric):
    a = INSTANCES[k].w.embedding
    rng = np.random.default_rng(k)
    (l,) = ovf.kernel_samples(a, 1, rng)
    if isometric:
        # orthonormal columns in ker T_A^*, ||T_A|| ||L|| = 8: the scale floor
        # ||T_A|| (tr L^* L / n)^(1/2) is the scale itself, not 1
        l = np.linalg.qr(l)[0] * (8.0 / a.analysis_norm)
    else:
        # ||T_A|| ||L|| = 1/2, so the scale floors at 1
        l *= 0.5 / (a.analysis_norm * spectral_norm(l))
    threshold = EQ_REL * max(1.0, a.analysis_norm * spectral_norm(l))
    # u = T_A S_A^-1 z makes (u y^*)^* T_A = y z^*, a rank-one defect of norm 1
    n = a.domain_dim
    u = a.canonical_analysis @ _unit(_complex(rng, n))
    l = (l + factor * threshold * np.outer(u, _unit(_complex(rng, n)).conj()))[None]
    want = _decides(lambda: reference_annihilation(a, l))
    assert want == (factor < 1.0)
    calls = _svd_calls(monkeypatch)
    assert _decides(lambda: ovf.check_annihilation(a, l)) == want
    # the bound decides below half the threshold; above it both SVDs run
    assert len(calls) == (0 if factor < 0.5 else 2)


@pytest.mark.parametrize("condition", ["kernel", "range"])
@pytest.mark.parametrize("k, factor", CASES)
def test_admissibility_near_the_threshold(monkeypatch, k, factor, condition):
    w = INSTANCES[k].w
    n = w.ambient_dim
    rng = np.random.default_rng(k)
    gd = generate_fusion_dual(w, random_invertible_matrix(n, rng))
    i = next(j for j, d in enumerate(w.dims) if 0 < d < n)
    p_v, p_w, eye = gd.v.projections[i], w.projections[i], np.eye(n)
    # Q_i + t x y^*: x in V_i and y in W_i-perp break only the kernel condition,
    # x in V_i-perp and y in W_i only the range condition, each by exactly t
    if condition == "kernel":
        x, y = p_v @ _complex(rng, n), (eye - p_w) @ _complex(rng, n)
    else:
        x, y = (eye - p_v) @ _complex(rng, n), p_w @ _complex(rng, n)
    q = gd.q.copy()
    q[i] += factor * EQ_REL * np.outer(_unit(x), _unit(y).conj())
    want = reference_admissibility(q, gd.v, w, DEFAULT_TOL)
    assert want == (factor < 1.0)
    calls = _svd_calls(monkeypatch)
    assert is_admissible(q, gd.v, w) == want
    # the SVD of ||Q_i||, then the SVD of the one defect stack the bound leaves
    # open: a failed kernel condition decides before the range stack is screened
    assert len(calls) == (1 if factor < 0.5 else 2)


@pytest.mark.parametrize("k, factor", CASES)
def test_sampled_duals_near_the_threshold(monkeypatch, k, factor):
    inst = INSTANCES[k]
    sym, v, w = inst.symbol, inst.v, inst.w
    rng = np.random.default_rng(k)
    duals = ovf.canonical_and_sampled_duals(v.embedding, ovf.SAMPLED_DUALS, rng, DEFAULT_TOL)
    multipliers._closed_form(sym, v, w, duals, DEFAULT_TOL)  # fills the memos on sym
    # D + t (T_V S_V^-1 z) y^* moves D^* T_V - I by t y z^*, of norm t
    n = v.ambient_dim
    slack = ovf.dual_slack(DEFAULT_TOL)
    u = v.embedding.canonical_analysis @ _unit(_complex(rng, n))
    duals[2] += factor * slack * np.outer(u, _unit(_complex(rng, n)).conj())
    t_v = v.embedding.analysis
    want = all(spectral_norm(d.conj().T @ t_v - np.eye(n)) <= slack for d in duals)
    assert want == (factor < 1.0)
    calls = _svd_calls(monkeypatch)
    assert _decides(lambda: multipliers._closed_form(sym, v, w, duals, DEFAULT_TOL)) == want
    assert len(calls) == (0 if factor < 0.5 else 1)


def test_a_non_finite_scale_floor_leaves_the_stack_to_the_svd(monkeypatch):
    # every diagonal entry of L^* L fits the float range but their sum does not:
    # the scale floor is infinite, so the two SVDs decide, as they did before
    a = INSTANCES[1].w.embedding
    (l,) = ovf.kernel_samples(a, 1, np.random.default_rng(0))
    columns = np.linalg.norm(l, axis=0)
    assert 0.7 * np.sum((columns / columns.max()) ** 2) > 1.0
    l = (l * (np.sqrt(0.7 * FLOAT_MAX) / columns.max()))[None]
    calls = _svd_calls(monkeypatch)
    ovf.check_annihilation(a, l)
    assert len(calls) == 2
    reference_annihilation(a, l)


def test_frobenius_bounds_cover_the_computed_spectral_norms():
    # rank-one matrices, where ||X||_F = ||X||_2, and entries whose squares
    # underflow; a non-finite bound or scale leaves the stack to the SVD
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 16):
        for scale in (1e-170, 1.0, 1e150):
            x = scale * (_complex(rng, (40, n, 1)) @ _complex(rng, (40, 1, n)))
            bounds = frobenius_screen(x, FLOAT_MAX)
            assert np.all(bounds >= np.linalg.svd(x, compute_uv=False)[:, 0])
    x = _complex(rng, (3, 2, 2))
    assert frobenius_screen(x, FLOAT_MAX) is not None
    assert frobenius_screen(x, FLOAT_MAX, np.array([1.0, np.inf, 1.0])) is None
    x[1, 0, 0] = np.inf
    assert frobenius_screen(x, FLOAT_MAX) is None
    x[1, 0, 0] = np.nan
    assert frobenius_screen(x, FLOAT_MAX) is None
