"""Registry of verification checks and the suite runner.

Each check certifies one constructive statement about duals or multipliers
on a concrete instance, returning a residual that is compared against a
tolerance derived from the active ToleranceConfig. Checks draw any extra
structure they need (Riesz pairs, local frames, perturbed copies) from a
generator seeded by the instance seed and the check name, so a report is a
pure function of (instance, tolerances).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

import numpy as np

from . import duality, multipliers, ovf
from .exceptions import ContractViolationError, FusionFrameError
from .fusion import (
    FusionSequence,
    block_deviation,
    block_sum,
    build_local_frames,
    random_subspace,
)
from .instances import (
    Instance,
    cross_swap_instance,
    random_invertible_matrix,
    random_partition,
    random_riesz_basis,
    random_symbol,
)
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    relative_defect,
    saturated_product,
    spectral_norm,
    spectral_norms,
)
from .ovf import frame_bounds, is_frame

__all__ = ["CheckResult", "Check", "CHECKS", "SUITES", "run_suite", "describe_check"]


@dataclass
class CheckResult:
    residual: float
    indeterminate: bool = False
    detail: str = ""


@dataclass(frozen=True)
class Check:
    name: str
    statement: str
    anchor: str
    tolerance: Callable[[ToleranceConfig], float]
    tolerance_desc: str
    applies: Callable[[Instance, ToleranceConfig], bool]
    run: Callable[[Instance, np.random.Generator, ToleranceConfig], CheckResult]


def _always(inst: Instance, tol: ToleranceConfig) -> bool:
    return True


def _w_frame(inst: Instance, tol: ToleranceConfig) -> bool:
    return is_frame(inst.w.embedding, tol)


def _both_frames(inst: Instance, tol: ToleranceConfig) -> bool:
    return is_frame(inst.w.embedding, tol) and is_frame(inst.v.embedding, tol)


def _invertible_multiplier(inst: Instance, tol: ToleranceConfig) -> bool:
    return multipliers.assemble_multiplier(inst.symbol, inst.v, inst.w, tol).invertible


def _invertible_over_frames(inst: Instance, tol: ToleranceConfig) -> bool:
    return _both_frames(inst, tol) and _invertible_multiplier(inst, tol)


def _c_holding_invertible(inst: Instance, tol: ToleranceConfig) -> bool:
    return (
        _both_frames(inst, tol)
        and multipliers.condition_c(inst.symbol, tol).holds
        and _invertible_multiplier(inst, tol)
    )


# --- duals suite -----------------------------------------------------------


def _run_canonical_dual(inst, rng, tol):
    a = inst.w.embedding
    cand = ovf.canonical_ov_dual(a, tol)
    return CheckResult(float(ovf.duality_defects(cand.analysis[None], a.analysis)[0]))


def _run_sampled_duals(inst, rng, tol):
    a = inst.w.embedding
    defects = ovf.duality_defects(ovf.sample_ov_duals(a, 5, rng, tol), a.analysis)
    return CheckResult(float(defects.max()))


def _run_dual_span(inst, rng, tol):
    a = inst.w.embedding
    want = a.count * a.codomain_dim
    got = ovf.dual_span_dimension(a, tol)
    return CheckResult(float(abs(got - want)), detail=f"rank {got}, expected {want}")


def _run_null_certificate(inst, rng, tol):
    return CheckResult(float(ovf.null_bessel_certificate(inst.w.embedding, tol)))


def _run_left_inverse_span(inst, rng, tol):
    a = inst.w.embedding
    # an upper bound on every member's residual, or the first one above eq_rel
    _, worst, _ = ovf.sweep_dual_family(a, a.analysis, tol.eq_rel, tol)
    # not ovf.dual_span_dimension: each call of that name is read as the
    # dual_span check's certificate
    rank = ovf._dual_span_rank(a, tol)
    want = a.count * a.codomain_dim
    return CheckResult(max(worst, float(abs(rank - want))))


def _run_kpp_construction(inst, rng, tol):
    n = inst.w.ambient_dim
    u = random_invertible_matrix(n, rng)
    l = ovf.kernel_samples(inst.w.embedding, 1, rng, tol)[0]
    gd = duality.generate_fusion_dual(inst.w, u, l, tol)
    residual = relative_defect(spectral_norm(gd.composite - u), spectral_norm(u))
    adm = duality.is_admissible(gd.q, gd.v, inst.w, tol)
    if not adm.admissible:
        residual = max(residual, 1.0)
    return CheckResult(residual)


def _run_kpp_verdict(inst, rng, tol):
    n = inst.w.ambient_dim
    l = ovf.kernel_samples(inst.w.embedding, 1, rng, tol)[0]
    gd = duality.generate_fusion_dual(inst.w, np.eye(n), l, tol)
    verdict = duality.kpp_dual_check(gd.v, inst.w, gd.q, tol)
    residual = verdict.residual_to_identity
    if verdict.kind != "dual":
        residual = max(residual, 1.0)
    return CheckResult(residual, detail=f"kind={verdict.kind}")


def _run_gavruta_canonical(inst, rng, tol):
    dual = duality.canonical_gavruta_dual(inst.w, tol)
    return CheckResult(duality.gavruta_dual_check(dual, inst.w, tol))


def _run_separating_self(inst, rng, tol):
    res = duality.find_separating_dual(inst.w, inst.w, tol)
    residual = res.block_deviation
    if res.witness is not None:
        residual = max(residual, 1.0)
    return CheckResult(residual, detail=f"checked {res.checked} duals")


_PERTURB_ATTEMPTS = 100


def _perturbed_copy(w: FusionSequence, rng, tol) -> FusionSequence:
    """A fusion frame differing from w by at least 0.1 in some block.

    Random weight doublings and subspace redraws come first. They cannot
    succeed on every frame (a single full block of small weight), so after
    ``_PERTURB_ATTEMPTS`` draws the weight of the first nonzero block is
    raised by 0.1, which moves that block by 0.1 and only raises the lower
    frame bound.
    """
    for _ in range(_PERTURB_ATTEMPTS):
        idx = int(rng.integers(0, w.count))
        if w.weights[idx] == 0.0:
            continue
        if rng.random() < 0.5:
            weights = w.weights.copy()
            weights[idx] *= 2.0
            cand = FusionSequence(w.subspaces, weights)
        else:
            subs = list(w.subspaces)
            subs[idx] = random_subspace(w.ambient_dim, subs[idx].dim, rng)
            cand = FusionSequence(tuple(subs), w.weights.copy())
        if block_deviation(w, cand) >= 0.1 and is_frame(cand.embedding, tol):
            return cand
    weights = w.weights.copy()
    weights[int(np.flatnonzero(weights)[0])] += 0.1
    return FusionSequence(w.subspaces, weights)


def _run_separating_distinct(inst, rng, tol):
    other = _perturbed_copy(inst.w, rng, tol)
    res = duality.find_separating_dual(inst.w, other, tol)
    ok = res.witness is not None
    return CheckResult(
        0.0 if ok else 1.0,
        detail=f"deviation {res.block_deviation:.3f}, checked {res.checked}",
    )


# --- multipliers suite -----------------------------------------------------


def _run_norm_bound(inst, rng, tol):
    rep = multipliers.assemble_multiplier(inst.symbol, inst.v, inst.w, tol)
    excessive = max(0.0, rep.sigma_max - rep.norm_bound)
    return CheckResult(relative_defect(excessive, rep.norm_bound))


def _run_assembly_routes(inst, rng, tol):
    rep = multipliers.assemble_multiplier(inst.symbol, inst.v, inst.w, tol)
    # T_V^* D_mR T_W block by block: D_mR is block diagonal with blocks m_i R_i,
    # and block i of T_V, T_W is an embedding's block u_i P_{V_i}, w_i P_{W_i}
    t_v, t_w = inst.v.embedding.blocks, inst.w.embedding.blocks
    route = block_sum(t_v.conj().transpose(0, 2, 1) @ inst.symbol.blocks @ t_w)
    residual = relative_defect(spectral_norm(rep.matrix - route), rep.sigma_max)
    return CheckResult(residual)


def _run_condition_c_coherence(inst, rng, tol):
    sym = inst.symbol
    rep = multipliers.condition_c(sym, tol)
    if not rep.holds:
        result = CheckResult(0.0, detail="two-sided bound does not hold; nothing to certify")
    else:
        residual = 0.0 if rep.semi_normalized else 1.0
        min_m = float(np.min(np.abs(sym.m)))
        shortfall = max(0.0, rep.lower_witness - min_m)
        residual = max(residual, relative_defect(shortfall, rep.lower_witness))
        inv_blocks = multipliers.inverse_symbol_blocks(sym, tol)
        defects = spectral_norms(sym.blocks @ inv_blocks - np.eye(sym.dim))
        result = CheckResult(max(residual, float(defects.max())))
    if rep.near_threshold:
        # the policy of riesz_symbol_iff and the inverse checks: near the
        # cutoff the blockwise inverses are as ill-conditioned as the cutoff
        # allows, so their defects are tolerance noise
        result.indeterminate = True
        result.detail = (
            f"gamma {rep.gamma:.3e} is within a factor 10 of the cutoff "
            f"inv_rel * delta = {tol.inv_rel * rep.delta:.3e}"
        )
    return result


def _riesz_pair(inst, rng):
    # matched per-index dimensions: otherwise the blockwise compression is
    # rectangular and the multiplier is singular for structural reasons
    n = inst.w.ambient_dim
    count = min(inst.w.count, n)
    dims = random_partition(n, count, rng)
    w = random_riesz_basis(n, rng, dims=dims)
    v = random_riesz_basis(n, rng, dims=dims)
    return w, v, count


def _run_riesz_symbol_iff(inst, rng, tol):
    n = inst.w.ambient_dim
    w, v, count = _riesz_pair(inst, rng)
    mode = inst.symbol_mode if inst.symbol_mode != "identity" else "random_C_holding"
    sym = random_symbol(mode, n, count, rng, tol)
    verdict = multipliers.riesz_multiplier_verdict(sym, v, w, tol)
    detail = (
        f"predicted {verdict.predicted_by_c}, actual {verdict.actually_invertible}, "
        f"gamma {verdict.gamma:.3e}"
    )
    return CheckResult(
        0.0 if verdict.consistent else 1.0,
        indeterminate=verdict.indeterminate,
        detail=detail,
    )


def _run_invertible_consequences(inst, rng, tol):
    rep = multipliers.invertible_multiplier_consequences(inst.symbol, inst.v, inst.w, tol)
    ok = rep.all_frames and rep.lower_bound_ok
    detail = f"reweighted lower bound {rep.bounds_w_scaled[0]:.3e} vs {rep.lower_bound_rhs:.3e}"
    return CheckResult(0.0 if ok else 1.0, detail=detail)


def _run_excess_invariance(inst, rng, tol):
    rep = multipliers.invertible_multiplier_consequences(inst.symbol, inst.v, inst.w, tol)
    mismatch = 0.0
    if rep.excess_w_preserved is not None:
        mismatch += abs(rep.excess_w - rep.excess_w_scaled)
        mismatch += abs(rep.excess_v - rep.excess_v_scaled)
    if rep.excess_pair_equal is not None:
        mismatch += abs(rep.excess_w - rep.excess_v)
    return CheckResult(float(mismatch))


def _v_duals(inst, rng, tol):
    """The analyses of the canonical and four sampled duals of {u_i P_{V_i}}, as one
    stack, drawn from ``rng``."""
    a_v = inst.v.embedding
    canonical = ovf.canonical_ov_dual(a_v, tol).analysis
    return np.concatenate([canonical[None], ovf.sample_ov_duals(a_v, 4, rng, tol)])


def _run_inverse_representation(inst, rng, tol):
    sym, v, w = inst.symbol, inst.v, inst.w
    duals = _v_duals(inst, rng, tol)
    residuals = multipliers.inverse_representation_residuals(sym, v, w, duals, tol)
    near = multipliers.condition_c(sym, tol).near_threshold
    return CheckResult(max(residuals), indeterminate=near)


def _run_inverse_uniqueness(inst, rng, tol):
    sym, v, w = inst.symbol, inst.v, inst.w
    duals = _v_duals(inst, rng, tol)
    probe = multipliers.inverse_representation_probe(sym, v, w, duals, rng, tol)  # draws after the duals
    shortfall = max(0.0, (1e-4 - probe) / 1e-4)
    # W is a frame, so T_W has rank n and ker T_W^* has dimension (N - 1) n
    if w.count == 1:
        detail = "ker T_W^* is trivial (one full block), so the probe has no direction"
        return CheckResult(shortfall, indeterminate=True, detail=detail)
    detail = f"probe residual {probe:.3e}"
    near = multipliers.condition_c(sym, tol).near_threshold
    return CheckResult(shortfall, indeterminate=near, detail=detail)


_CROSS = cross_swap_instance()  # the crossed pair in C^2, the same for every instance


def _run_contrast(inst, rng, tol):
    v, w = _CROSS.v, _CROSS.w
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    s_inv = ovf.frame_operator_inverse(w.embedding, tol)
    # the commonly used forms are the symbols R_i = I and R_i = S_W^-1
    plain = multipliers.Symbol.identity(2, 2).assembled(v, w)[1]
    weighted = multipliers.Symbol(np.ones(2), [s_inv, s_inv]).assembled(v, w)[1]
    sym = multipliers.assemble_multiplier(_CROSS.symbol, v, w, tol).matrix
    return CheckResult(max(float(plain[0]), float(weighted[0]), spectral_norm(sym - swap)))


# --- local suite -----------------------------------------------------------


def _local_family(inst, rng):
    if inst.local is not None:
        return inst.local
    return build_local_frames(inst.w, int(rng.integers(0, 4)), rng)


def _run_local_equivalence(inst, rng, tol):
    family = _local_family(inst, rng)
    residual = multipliers.local_frame_equivalence(inst.symbol, inst.v, inst.w, family, tol)
    return CheckResult(residual)


def _run_local_negative(inst, rng, tol):
    family = build_local_frames(inst.w, 1 + int(rng.integers(0, 3)), rng)
    broken = replace(family, duals=family.frames)
    residual = multipliers.local_frame_equivalence(inst.symbol, inst.v, inst.w, broken, tol)
    shortfall = max(0.0, (1e-3 - residual) / 1e-3)
    # Only live blocks, u_i w_i > 0, enter M = T_V^* D T_W, D acting as m_i R_i
    # there and as 0 elsewhere, so ||M|| <= sqrt(beta_V beta_W) max_live |m_i|
    # ||R_i||. The broken lift is T_V^* D' T_W with blocks m_i R_i S_i, S_i the
    # local frame operator of block i with ||S_i|| <= beta. So the residual
    # ||M - M_b|| / max(1, ||M||) is at most reach = sqrt(beta_V beta_W)
    # max_live |m_i| ||R_i|| (1 + beta), 0 if m vanishes on every live block
    # and saturated at the largest float like the norm bound.
    live = inst.v.weights * inst.w.weights > 0.0
    sym = inst.symbol
    symbol_sup = float(np.max(np.abs(sym.m[live]) * sym.svals[live, 0], initial=0.0))
    beta_v, beta_w = frame_bounds(inst.v.embedding, tol)[1], frame_bounds(inst.w.embedding, tol)[1]
    reach = saturated_product(np.sqrt(beta_v), np.sqrt(beta_w), symbol_sup, 1.0 + family.beta)
    if reach < 1e-3:
        detail = f"the control can reach at most {reach:.3e} < 1e-3"
        return CheckResult(shortfall, indeterminate=True, detail=detail)
    return CheckResult(shortfall, detail=f"control residual {residual:.3e}")


# --- schatten suite --------------------------------------------------------


def _run_schatten_blocks(inst, rng, tol):
    return CheckResult(inst.symbol.block_sval_defect)


def _schatten_excess(value: str, bound: str):
    """Runner: worst relative excess of SchattenReport ``value`` over ``bound``, p in {1, 2, 4}."""
    def run(inst, rng, tol):
        worst = 0.0
        for p in (1.0, 2.0, 4.0):
            rep = multipliers.schatten_checks(inst.symbol, inst.v, inst.w, p, tol)
            lhs, rhs = getattr(rep, value), getattr(rep, bound)
            worst = max(worst, relative_defect(max(0.0, lhs - rhs), rhs))
        return CheckResult(worst)

    return run


# --- registry --------------------------------------------------------------


def _eq(tol: ToleranceConfig) -> float:
    return tol.eq_rel


def _exact(tol: ToleranceConfig) -> float:
    return 0.0


_RAW_CHECKS = [
    # duals
    (
        "ovf_canonical_dual",
        "duals",
        "The canonical operator-valued dual reconstructs: T_dual(0)^* T_A = I.",
        "T_dual(0) = T_A S_A^-1, T_dual(0)^* T_A = I",
        _eq,
        "eq_rel",
        _w_frame,
        _run_canonical_dual,
    ),
    (
        "ovf_sampled_duals",
        "duals",
        "Every kernel-perturbed dual reconstructs: T_dual(L)^* T_A = I for L = P_ker(T_A^*) G.",
        "T_dual(L) = T_A S_A^-1 + L with L^* T_A = 0",
        _eq,
        "eq_rel",
        _w_frame,
        _run_sampled_duals,
    ),
    (
        "dual_span",
        "duals",
        "The analysis ranges of the dual family jointly span the stacked space.",
        "rank[T_A S_A^-1 | P_ker(T_A^*) E_rs] = N*k",
        _exact,
        "exact (rank at rank_rel)",
        _w_frame,
        _run_dual_span,
    ),
    (
        "null_dual_certificate",
        "duals",
        "Only the zero sequence is orthogonal to every member of the dual family.",
        "T_B^* T_dual(L_t) = 0 for all t forces B = 0",
        _exact,
        "exact (nullity at rank_rel)",
        _w_frame,
        _run_null_certificate,
    ),
    (
        "left_inverse_span",
        "duals",
        "Each dual synthesis left-inverts the fusion analysis operator and "
        "their adjoint ranges exhaust the stacked space.",
        "T_D^* T_W,w = I and rank[stacked T_D] = N*n",
        _eq,
        "eq_rel",
        _w_frame,
        _run_left_inverse_span,
    ),
    (
        "kpp_construction",
        "duals",
        "The constructive dual generator reproduces its target operator.",
        "sum_i w_i u_i P_{V_i} Q_i P_{W_i} = U for A_i = (w_i U S_W^-1 + L_i^*) P_{W_i}",
        _eq,
        "eq_rel (relative to ||U||)",
        _w_frame,
        _run_kpp_construction,
    ),
    (
        "kpp_verdict_dual",
        "duals",
        "With identity target the generated pair passes the duality check with kind 'dual'.",
        "T_V,u^* D_Q T_W,w = I with Q admissible",
        _eq,
        "eq_rel",
        _w_frame,
        _run_kpp_verdict,
    ),
    (
        "gavruta_canonical",
        "duals",
        "The S^-1-image sequence with the same weights reconstructs the identity.",
        "sum_i w_i^2 P_{S^-1 W_i} S_W^-1 P_{W_i} = I",
        _eq,
        "eq_rel",
        _w_frame,
        _run_gavruta_canonical,
    ),
    (
        "separating_dual_self",
        "duals",
        "No dual of W separates W from itself.",
        "all duals of W reconstruct W; blockwise deviation stays near zero",
        lambda tol: 100.0 * tol.eq_rel,
        "100 * eq_rel",
        _w_frame,
        _run_separating_self,
    ),
    (
        "separating_dual_distinct",
        "duals",
        "A genuinely different fusion frame is separated by some dual of W.",
        "w_i P_i != w'_i P'_i for some i implies a dual of W fails on W'",
        _exact,
        "witness required",
        _w_frame,
        _run_separating_distinct,
    ),
    # multipliers
    (
        "multiplier_norm_bound",
        "multipliers",
        "The multiplier norm is controlled by the bounds and the symbol.",
        "||M|| <= sqrt(beta_V beta_W) ||m||_inf ||R||_inf",
        _eq,
        "eq_rel",
        _always,
        _run_norm_bound,
    ),
    (
        "multiplier_assembly_routes",
        "multipliers",
        "Blockwise assembly agrees with the analysis/block-diagonal/synthesis route.",
        "sum_i m_i u_i w_i P_V R_i P_W = T_V,u^* D_mR T_W,w",
        _eq,
        "eq_rel",
        _always,
        _run_assembly_routes,
    ),
    (
        "condition_c_coherence",
        "multipliers",
        "The two-sided symbol bound forces semi-normalization and blockwise inverses.",
        "gamma <= |m_i| ||R||_inf and (m_i R_i)(m_i R_i)^-1 = I",
        _eq,
        "eq_rel",
        _always,
        _run_condition_c_coherence,
    ),
    (
        "riesz_symbol_iff",
        "multipliers",
        "Over Riesz decompositions, invertibility of the multiplier matches the "
        "symbol verdict; near-cutoff symbols are flagged indeterminate.",
        "M invertible <-> two-sided symbol bound (on Riesz pairs)",
        _exact,
        "consistency required",
        _always,
        _run_riesz_symbol_iff,
    ),
    (
        "invertible_multiplier_frames",
        "multipliers",
        "An invertible multiplier forces all four weighted sequences to be frames, "
        "with a quantified reweighted lower bound.",
        "alpha(W,|m|w) >= 1/(beta_V ||R||_inf^2 ||M^-1||^2)",
        _exact,
        "boolean with a 1e-6 relative margin in the bound",
        _invertible_over_frames,
        _run_invertible_consequences,
    ),
    (
        "excess_invariance",
        "multipliers",
        "Stacked-space excess is preserved under |m|-reweighting and shared "
        "across the pair under the symbol bound.",
        "dim ker T^* invariant under semi-normalized reweighting",
        _exact,
        "exact integers",
        _invertible_over_frames,
        _run_excess_invariance,
    ),
    (
        "inverse_multiplier_dual",
        "multipliers",
        "The closed-form operator-valued dual represents the inverse multiplier "
        "through every sampled dual of {u_i P_{V_i}}.",
        "M^-1 = T_Qd^* D_(mR)^-1 T_D for every dual D",
        _eq,
        "eq_rel",
        _c_holding_invertible,
        _run_inverse_representation,
    ),
    (
        "inverse_multiplier_uniqueness",
        "multipliers",
        "Perturbing the closed-form dual in a kernel direction breaks the "
        "inverse representation.",
        "perturbed Qd violates the representation by >= 1e-4 relative",
        _exact,
        "probe >= 1e-4",
        _c_holding_invertible,
        _run_inverse_uniqueness,
    ),
    (
        "symbol_vs_projection_contrast",
        "multipliers",
        "On the crossed pair the projection-composition and S^-1-weighted "
        "multipliers vanish while the rank-one symbol multiplier is the swap.",
        "sum P_V P_W = 0, sum P_V S^-1 P_W = 0, sum P_V R_i P_W = swap",
        lambda tol: 1e-12,
        "1e-12 absolute",
        _always,
        _run_contrast,
    ),
    # local
    (
        "local_equivalence",
        "local",
        "The fusion multiplier equals its lift through local frames and their "
        "canonical duals.",
        "M = ordinary multiplier of {w_i phi_ij} against {u_i P_V R_i dual_ij}",
        _eq,
        "eq_rel (relative)",
        _both_frames,
        _run_local_equivalence,
    ),
    (
        "local_negative_control",
        "local",
        "Replacing the local duals by the frames themselves breaks the lift.",
        "non-dual local synthesis must deviate by >= 1e-3",
        _exact,
        "control >= 1e-3",
        _both_frames,
        _run_local_negative,
    ),
    # schatten
    (
        "schatten_block_svals",
        "schatten",
        "Each block m_i R_i of the block diagonal has the singular values of R_i "
        "scaled by |m_i|, so the spectrum of D_mR is the union of the scaled block spectra.",
        "svals(m_i R_i) = |m_i| svals(R_i), hence svals(D_mR) = union_i |m_i| svals(R_i)",
        _eq,
        "eq_rel",
        _always,
        _run_schatten_blocks,
    ),
    (
        "schatten_composite_bound",
        "schatten",
        "Schatten norms of the multiplier are controlled through the block diagonal.",
        "||M||_p <= ||T_V|| ||T_W|| ||D_mR||_p for p in {1, 2, 4}",
        _eq,
        "eq_rel",
        _always,
        _schatten_excess("composite_norm", "composite_bound"),
    ),
    (
        "schatten_rank_bound",
        "schatten",
        "Block ranks bound the Schatten mass of the block diagonal.",
        "||D_mR||_p^p <= sum_i rank(R_i) |m_i|^p ||R_i||^p",
        _eq,
        "eq_rel",
        _always,
        _schatten_excess("block_norm", "rank_bound"),
    ),
]


CHECKS: Dict[str, Check] = {}
SUITES: Dict[str, List[str]] = {"duals": [], "multipliers": [], "local": [], "schatten": []}
for name, suite, statement, anchor, tol_fn, tol_desc, applies, runner in _RAW_CHECKS:
    CHECKS[name] = Check(
        name=name,
        statement=statement,
        anchor=anchor,
        tolerance=tol_fn,
        tolerance_desc=tol_desc,
        applies=applies,
        run=runner,
    )
    SUITES[suite].append(name)
SUITES["all"] = [name for names in (SUITES[s] for s in ("duals", "multipliers", "local", "schatten")) for name in names]


def _check_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8"))])
    )


def run_suite(
    suite: str,
    instances: Sequence[Instance],
    tol: ToleranceConfig = DEFAULT_TOL,
    base_seed: int = 0,
) -> dict:
    """Run every applicable check of a suite over the instances.

    Entries are ordered by trial index then registry order. The report is a
    plain dict matching the ffv1-report schema; wall_time is the only
    non-deterministic field.
    """
    if suite not in SUITES:
        raise ContractViolationError(f"unknown suite {suite!r}")
    start = time.monotonic()
    entries = []
    for trial, inst in enumerate(instances):
        for name in SUITES[suite]:
            check = CHECKS[name]
            tol_value = float(check.tolerance(tol))
            try:
                if not check.applies(inst, tol):
                    continue
                result = check.run(inst, _check_rng(inst.seed, name), tol)
            except (FusionFrameError, np.linalg.LinAlgError) as exc:
                # a check that aborts, in its predicate or its run, is a failed
                # check, not a crashed report
                result = CheckResult(residual=1e300, detail=f"aborted: {exc}")
            if result.indeterminate:
                verdict = "indeterminate"
            else:
                verdict = "pass" if result.residual <= tol_value else "fail"
            entries.append(
                {
                    "name": name,
                    "trial": trial,
                    "anchor": check.anchor,
                    "residual": float(result.residual),
                    "tolerance": tol_value,
                    "verdict": verdict,
                }
            )
    summary = {
        "pass": sum(1 for e in entries if e["verdict"] == "pass"),
        "fail": sum(1 for e in entries if e["verdict"] == "fail"),
        "indeterminate": sum(1 for e in entries if e["verdict"] == "indeterminate"),
    }
    return {
        "schema": "ffv1-report",
        "suite": suite,
        "seed": int(base_seed),
        "checks": entries,
        "summary": summary,
        "wall_time": time.monotonic() - start,
    }


def describe_check(name: str) -> str:
    check = CHECKS[name]
    return (
        f"{check.name}\n"
        f"  statement: {check.statement}\n"
        f"  identity:  {check.anchor}\n"
        f"  tolerance: {check.tolerance_desc}\n"
    )
