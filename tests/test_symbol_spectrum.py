"""The symbol's cached block spectrum and the code that reads it, against the
per-block loops it replaced (references in conftest), bit for bit."""

import itertools

import numpy as np
import pytest

from conftest import (
    reference_adversarial_symbol,
    reference_block_diag,
    reference_coherence_defects,
    reference_condition_c_constants,
    reference_inverse_symbol_blocks,
    reference_probe,
    reference_r_sup,
    reference_representation_residual,
    reference_schatten,
)
from fusionframes import checks, duality, ovf
from fusionframes.exceptions import ContractViolationError
from fusionframes.fusion import FusionSequence, random_subspace
from fusionframes.instances import (
    SYMBOL_MODES,
    Instance,
    random_fusion_frame,
    random_symbol,
)
from fusionframes.multipliers import (
    Symbol,
    assemble_multiplier,
    block_diag_apply,
    condition_c,
    inverse_multiplier_representation,
    inverse_symbol_blocks,
    schatten_checks,
)
from fusionframes.numerics import DEFAULT_TOL, spectral_norm


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


def test_schatten_suite_takes_one_block_diagonal_svd(monkeypatch, rng):
    # three Schatten checks make five schatten_checks calls; the block
    # diagonal's spectrum is computed once, on the symbol
    n, count = 3, 4
    sym = random_symbol("random_C_holding", n, count, rng)
    inst = Instance(
        seed=0,
        symbol_mode="random_C_holding",
        w=_sequence(n, count, rng),
        v=_sequence(n, count, rng),
        symbol=sym,
    )
    shapes = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = checks.run_suite("schatten", [inst])
    assert [e["name"] for e in report["checks"]] == checks.SUITES["schatten"]
    assert shapes.count((count * n, count * n)) == 1
    s = sym.stacked_svals
    assert s.shape == (count * n,) and not s.flags.writeable
    assert shapes.count((count * n, count * n)) == 1


def test_spectrum_readers_match_per_block_loops(rng):
    syms = _symbol_population(rng)
    assert len(syms) >= 100 and any(np.any(s.m == 0.0) for s in syms)
    assert any(s.dim == 1 for s in syms) and any(s.count == 1 for s in syms)
    for sym in syms:
        assert sym.r_sup == reference_r_sup(sym)
        rep = condition_c(sym)
        assert (rep.gamma, rep.delta) == reference_condition_c_constants(sym)
        assert np.array_equal(block_diag_apply(sym), reference_block_diag(sym))
        if rep.holds:
            inv_blocks = inverse_symbol_blocks(sym)
            assert np.array_equal(inv_blocks, reference_inverse_symbol_blocks(sym))


def test_schatten_checks_match_three_svd_reference(rng):
    for sym in _symbol_population(rng):
        v, w = _sequence(sym.dim, sym.count, rng), _sequence(sym.dim, sym.count, rng)
        for p in (1.0, 2.0, 4.0):
            rep = schatten_checks(sym, v, w, p)
            got = (rep.block_sval_defect, rep.composite_bound, rep.block_power, rep.rank_bound)
            assert got == reference_schatten(sym, v, w, p, DEFAULT_TOL)


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
        got = ovf.ovf_analysis(duality.random_annihilating_ovf(w, np.random.default_rng(seed)))
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
        a_v = ovf.embed_fusion(v)
        duals = [ovf.canonical_ov_dual(a_v)] + checks._sampled_duals(a_v, 4, rng, DEFAULT_TOL)
        seed = int(rng.integers(2**32))
        rep = inverse_multiplier_representation(
            sym, v, w, duals, rng=np.random.default_rng(seed)
        )
        assert rep.indeterminate is False
        stacked_q = rep.q_dagger.reshape(count * n, n)
        inv_blocks = reference_inverse_symbol_blocks(sym)
        m_inv = np.linalg.inv(assemble_multiplier(sym, v, w).matrix)
        want = reference_representation_residual(stacked_q, inv_blocks, duals, m_inv, n)
        assert rep.representation_residual == want
        e = reference_probe(w, np.random.default_rng(seed), DEFAULT_TOL)
        e_norm = spectral_norm(e)
        if e_norm > 0.0:
            e *= 0.01 * spectral_norm(stacked_q) / e_norm
        want = reference_representation_residual(stacked_q + e, inv_blocks, duals, m_inv, n)
        assert rep.probe_residual == want
        checked += 1


def test_near_cutoff_symbol_makes_inverse_representation_indeterminate(rng):
    n, count = 3, 3
    v = random_fusion_frame(n, count, rng)
    w = random_fusion_frame(n, count, rng, dims=v.dims)
    syms = (random_symbol("adversarial", n, count, rng) for _ in range(100))
    sym = next(s for s in syms if condition_c(s).holds and assemble_multiplier(s, v, w).invertible)
    duals = [ovf.canonical_ov_dual(ovf.embed_fusion(v))]
    rep = inverse_multiplier_representation(sym, v, w, duals, rng=rng)
    assert condition_c(sym).near_threshold and rep.indeterminate


def test_symbol_rejects_zero_dimensional_blocks():
    with pytest.raises(ContractViolationError):
        Symbol(np.ones(2), np.zeros((2, 0, 0)))
