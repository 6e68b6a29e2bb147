"""The symbol's cached block spectrum and the code that reads it, against the
per-block loops it replaced (references in conftest), bit for bit."""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import (
    reference_adversarial_symbol,
    reference_block_diag,
    reference_block_scaling_defect,
    reference_block_sval_defect,
    reference_coherence_defects,
    reference_condition_c_constants,
    reference_inverse_symbol_blocks,
    reference_probe,
    reference_r_sup,
    reference_representation_residual,
    reference_schatten,
)
from fusionframes import checks, ovf
from fusionframes.cli import main
from fusionframes.exceptions import ContractViolationError
from fusionframes.fusion import FusionSequence, random_subspace
from fusionframes.instances import (
    SYMBOL_MODES,
    Instance,
    load_instance,
    random_fusion_frame,
    random_symbol,
)
from fusionframes.multipliers import (
    Symbol,
    assemble_multiplier,
    condition_c,
    inverse_representation_probe,
    inverse_representation_residuals,
    inverse_symbol_blocks,
    schatten_checks,
)
from fusionframes.numerics import DEFAULT_TOL, singular_values, spectral_norm


def _symbol_population(rng):
    """120 random symbols over all four modes (n = 1 and N = 1 included; the
    failing mode has zero scalars) plus hand-made corner cases."""
    syms = [
        random_symbol(mode, n, count, rng)
        for mode, n, count in itertools.product(SYMBOL_MODES, (1, 2, 3, 4, 6, 8), (1, 3, 6))
    ]
    for k in range(48):
        n, count = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        syms.append(random_symbol(SYMBOL_MODES[k % 4], n, count, rng))
    g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    g[1] = 0.0  # a zero block
    g[2, :, 2:] = 0.0  # a rank-deficient block
    syms += [
        Symbol(np.zeros(3), g),
        Symbol(rng.standard_normal(3) + 1j * rng.standard_normal(3), g),
        Symbol([0.0, 2.0j, -1.5], g),
    ]
    return syms


def _sequence(n, count, rng):
    dims = [int(rng.integers(0, n + 1)) for _ in range(count)]
    weights = [float(rng.uniform(0.5, 2.0)) if d else 0.0 for d in dims]
    return FusionSequence(tuple(random_subspace(n, d, rng) for d in dims), np.array(weights))


def test_svals_read_only_and_computed_once(monkeypatch, rng):
    sym = random_symbol("random_C_holding", 3, 4, rng)
    shapes = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    s = sym.svals
    assert s.shape == (4, 3) and not s.flags.writeable
    with pytest.raises(ValueError):
        s[0, 0] = 0.0
    sym.r_sup
    condition_c(sym)
    assert sym.svals is s
    assert shapes == [(4, 3, 3)]


def _schatten_instance(rng, n=3, count=4):
    sym = random_symbol("random_C_holding", n, count, rng)
    return Instance(
        seed=0,
        symbol_mode="random_C_holding",
        w=_sequence(n, count, rng),
        v=_sequence(n, count, rng),
        symbol=sym,
    )


def test_schatten_suite_takes_no_block_diagonal_svd(monkeypatch, rng):
    # three Schatten checks make seven schatten_checks calls; the block
    # diagonal's spectrum is the cached union of the block spectra, and the
    # scaling identity behind it is checked once per symbol by one batched SVD
    n, count = 3, 4
    inst = _schatten_instance(rng, n, count)
    sym = inst.symbol
    shapes = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = checks.run_suite("schatten", [inst])
    assert [e["name"] for e in report["checks"]] == checks.SUITES["schatten"]
    assert report["summary"]["fail"] == 0
    assert shapes and not any(shape[-2:] == (count * n, count * n) for shape in shapes)
    # the block spectra svals and the defect's SVD of the stack m_i R_i
    assert shapes.count((count, n, n)) == 2
    s = sym.block_diag_svals
    assert s.shape == (count * n,) and not s.flags.writeable
    residual = report["checks"][0]["residual"]
    assert residual == sym.block_sval_defect == reference_block_scaling_defect(sym)
    assert residual <= DEFAULT_TOL.eq_rel


@pytest.mark.parametrize("where", ["misaligned_scalar", "diagonal_block"])
def test_schatten_block_svals_fails_on_a_broken_assembly(monkeypatch, rng, where):
    # a conjugated scalar conj(m_i) R_i keeps the block's singular values, so
    # the broken stacks change a block's scale instead
    n, count = 3, 4
    inst = _schatten_instance(rng, n, count)
    sym = inst.symbol
    blocks = sym.blocks.copy()
    if where == "misaligned_scalar":
        blocks[0] = sym.m[1] * sym.r[0]  # block 0 scaled by the scalar of block 1
        assert abs(abs(sym.m[1]) - abs(sym.m[0])) > 1e-2 * abs(sym.m[0])
    else:
        blocks[1] = 0.5 * blocks[1]  # block 1 halved
    monkeypatch.setitem(sym.__dict__, "blocks", blocks)
    report = checks.run_suite("schatten", [inst])
    entry = report["checks"][0]
    assert entry["name"] == "schatten_block_svals"
    assert entry["verdict"] == "fail" and entry["residual"] > 1e-3


def test_block_diag_union_matches_dense_svd(rng):
    eps = np.finfo(float).eps
    for sym in _symbol_population(rng):
        size = sym.count * sym.dim
        s_dense = singular_values(reference_block_diag(sym))
        s = sym.block_diag_svals
        scale = max(1.0, float(s_dense[0]))
        assert float(np.max(np.abs(s - s_dense))) <= DEFAULT_TOL.eq_rel * scale
        # both are backward-stable spectra of the same matrix
        assert float(np.max(np.abs(s - s_dense))) <= 100 * size * eps * scale
        assert reference_block_sval_defect(sym) <= DEFAULT_TOL.eq_rel


def test_spectrum_readers_match_per_block_loops(rng):
    syms = _symbol_population(rng)
    assert len(syms) >= 100 and any(np.any(s.m == 0.0) for s in syms)
    assert any(s.dim == 1 for s in syms) and any(s.count == 1 for s in syms)
    for sym in syms:
        assert sym.r_sup == reference_r_sup(sym)
        rep = condition_c(sym)
        assert (rep.gamma, rep.delta) == reference_condition_c_constants(sym)
        assert np.array_equal(sym.blocks, [sym.m[i] * sym.r[i] for i in range(sym.count)])
        assert sym.block_sval_defect == reference_block_scaling_defect(sym)
        assert sym.block_sval_defect <= DEFAULT_TOL.eq_rel
        if rep.holds:
            inv_blocks = inverse_symbol_blocks(sym)
            assert np.array_equal(inv_blocks, reference_inverse_symbol_blocks(sym))


def test_schatten_checks_match_three_svd_reference(rng):
    # ||D_mR||_p and ||T_V||, ||T_W|| come from different SVDs than the dense
    # reference's, so they agree to within rounding: 100 (N n) eps relative
    # per factor; the rank bound reads the same spectra and matches exactly
    eps = np.finfo(float).eps
    for sym in _symbol_population(rng):
        v, w = _sequence(sym.dim, sym.count, rng), _sequence(sym.dim, sym.count, rng)
        rel = 100 * sym.count * sym.dim * eps
        for p in (1.0, 2.0, 4.0):
            rep = schatten_checks(sym, v, w, p)
            composite, power, rank_bound = reference_schatten(sym, v, w, p, DEFAULT_TOL)
            assert rep.block_sval_defect == reference_block_scaling_defect(sym)
            assert rep.composite_bound == pytest.approx(composite, rel=3 * rel, abs=1e-300)
            assert rep.block_power == pytest.approx(power, rel=p * rel, abs=1e-300)
            assert rep.rank_bound == rank_bound


def test_coherence_check_matches_per_block_loop(rng):
    compared = 0
    for sym in _symbol_population(rng):
        rep = condition_c(sym)
        if not rep.holds:
            continue
        v, w = _sequence(sym.dim, sym.count, rng), _sequence(sym.dim, sym.count, rng)
        inst = Instance(seed=0, symbol_mode="random_C_holding", w=w, v=v, symbol=sym)
        min_m = float(np.min(np.abs(sym.m)))
        want = 0.0 if rep.semi_normalized else 1.0
        want = max(want, max(0.0, rep.lower_witness - min_m) / max(1.0, rep.lower_witness))
        for defect in reference_coherence_defects(sym, reference_inverse_symbol_blocks(sym)):
            want = max(want, defect)
        assert checks._run_condition_c_coherence(inst, None, DEFAULT_TOL).residual == want
        compared += 1
    assert compared >= 50


def test_adversarial_symbols_match_per_block_delta():
    for seed in range(220):
        rng = np.random.default_rng(seed)
        n, count = int(rng.integers(1, 13)), int(rng.integers(1, 9))
        want = reference_adversarial_symbol(n, count, np.random.default_rng([seed, 1]), DEFAULT_TOL)
        got = random_symbol("adversarial", n, count, np.random.default_rng([seed, 1]))
        assert np.array_equal(got.m, want.m) and np.array_equal(got.r, want.r)


def test_annihilating_probe_matches_inline_draw(rng):
    for _ in range(20):
        n, count = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        w = _sequence(n, count, rng)
        seed = int(rng.integers(2**32))
        (got,) = ovf.kernel_samples(w.embedding, 1, np.random.default_rng(seed))
        assert np.array_equal(got, reference_probe(w, np.random.default_rng(seed), DEFAULT_TOL))


def test_representation_residuals_match_block_loop(rng):
    checked = 0
    while checked < 20:
        n, count = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        v = random_fusion_frame(n, count, rng)
        w = random_fusion_frame(n, count, rng, dims=v.dims)
        sym = random_symbol("random_C_holding", n, count, rng)
        if not assemble_multiplier(sym, v, w).invertible:
            continue
        a_v = v.embedding
        canonical = ovf.canonical_ov_dual(a_v).analysis
        duals = np.concatenate([canonical[None], ovf.sample_ov_duals(a_v, 4, rng, DEFAULT_TOL)])
        seed = int(rng.integers(2**32))
        representation = inverse_representation_residuals(sym, v, w, duals)[1]
        probe = inverse_representation_probe(sym, v, w, duals, rng=np.random.default_rng(seed))
        stacked_q = sym.inverse_closed_form(v, w)[2].reshape(count * n, n)
        inv_blocks = reference_inverse_symbol_blocks(sym)
        m_inv = np.linalg.inv(assemble_multiplier(sym, v, w).matrix)
        want = reference_representation_residual(stacked_q, inv_blocks, duals, m_inv, n)
        assert representation == want
        e = reference_probe(w, np.random.default_rng(seed), DEFAULT_TOL)
        e_norm = spectral_norm(e)
        if e_norm > 0.0:
            e *= 0.01 * spectral_norm(stacked_q) / e_norm
        want = reference_representation_residual(stacked_q + e, inv_blocks, duals, m_inv, n)
        assert probe == want
        checked += 1


def test_near_cutoff_symbol_makes_inverse_representation_indeterminate(rng):
    n, count = 3, 3
    v = random_fusion_frame(n, count, rng)
    w = random_fusion_frame(n, count, rng, dims=v.dims)
    syms = (random_symbol("adversarial", n, count, rng) for _ in range(100))
    sym = next(s for s in syms if condition_c(s).holds and assemble_multiplier(s, v, w).invertible)
    inst = Instance(seed=0, symbol_mode="adversarial", w=w, v=v, symbol=sym)
    assert condition_c(sym).near_threshold
    for name in ("inverse_multiplier_dual", "inverse_multiplier_uniqueness"):
        check = checks.CHECKS[name]
        assert check.applies(inst, DEFAULT_TOL)
        assert check.run(inst, checks._check_rng(0, name), DEFAULT_TOL).indeterminate


def test_symbol_rejects_zero_dimensional_blocks():
    with pytest.raises(ContractViolationError):
        Symbol(np.ones(2), np.zeros((2, 0, 0)))


def test_schatten_suite_memory_stays_below_the_dense_block_diagonal(tmp_path):
    # at n = N = 32 the dense (N n) x (N n) block diagonal would take 16.8 MB;
    # the stack m_i R_i and its block spectra take (N n) n, and the suite's
    # traced peak must stay below half of the dense matrix
    path = tmp_path / "l32.json"
    dims = ",".join(str(d) for d in range(1, 33))
    assert main(["gen", "--dim", "32", "--blocks", "32", "--dims", dims, "--seed", "1",
                 "-o", str(path)]) == 0
    inst = load_instance(path)
    dense_bytes = (32 * 32) ** 2 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        report = checks.run_suite("schatten", [inst])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["summary"]["fail"] == 0
    assert peak < dense_bytes / 2, f"peak {peak / 1e6:.1f} MB"
