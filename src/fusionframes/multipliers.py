"""Bessel fusion multipliers with operator symbols.

The multiplier attached to two weighted subspace sequences and a symbol
(m, R) is

    M = sum_i m_i u_i w_i P_{V_i} R_i P_{W_i}
      = T_V,u^*  D_mR  T_W,w

where D_mR acts blockwise as m_i R_i on the stacked space. It is the
block sandwich of :func:`fusion.sandwich` with middle blocks R_i, as are
the projection-composition (R_i = I) and S_W^-1-weighted (R_i = S_W^-1)
forms it is contrasted with. The two-sided symbol hypothesis

    C(m, R):  gamma ||x|| <= ||conj(m_j) R_j^* x|| <= delta ||x||  for all j

certifies blockwise invertibility of D_mR and semi-normalization of m, and
drives the invertibility, excess, and inverse-representation checks below;
near its cutoff their verdicts are flagged indeterminate. gamma, delta,
||R||_inf and the Schatten facts are read from ``Symbol.svals``, the block
singular values of one batched SVD cached on the symbol, and from
``Symbol.stacked_svals``, the cached spectrum of the block diagonal. The
symbol also memoizes, per (V, W) pair, the assembled multiplier with its
whole spectrum from one SVD (:meth:`Symbol.assembled`): ||M||, ||M||_p and
||M^-1|| = 1 / sigma_min are read from it, and invertibility and the norm
bound are derived from it at each call's tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .duality import random_annihilating_ovf
from .exceptions import ContractViolationError, PreconditionError
from .frames import VectorFrame, ordinary_multiplier
from .fusion import (
    FusionSequence,
    LocalFrameFamily,
    block_sum,
    classify,
    excess,
    fusion_analysis_ambient,
    fusion_bounds,
    inverse_frame_operator,
    sandwich,
    scale_weights,
)
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    clears_inv_cutoff,
    finite_array,
    near_inv_cutoff,
    rank_tol,
    singular_values,
    spectral_norm,
    spectrum_schatten_norm,
    svals_rank,
)
from .ovf import DualCandidate, duality_defect, embed_fusion, ovf_analysis

__all__ = [
    "Symbol",
    "block_diag_apply",
    "inverse_symbol_blocks",
    "ConditionCReport",
    "condition_c",
    "MultiplierReport",
    "assemble_multiplier",
    "RieszMultiplierVerdict",
    "riesz_multiplier_verdict",
    "InvertibleMultiplierReport",
    "invertible_multiplier_consequences",
    "InverseRepresentationReport",
    "inverse_multiplier_representation",
    "local_frame_equivalence",
    "projection_composition_multiplier",
    "gavruta_multiplier",
    "SchattenReport",
    "schatten_checks",
]


@dataclass(frozen=True)
class Symbol:
    """Scalar sequence m with an operator sequence R, one pair per block."""

    m: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        m = finite_array(np.ravel(self.m), 1, "symbol scalars")
        r = finite_array(self.r, 3, "symbol blocks")
        if r.shape[1] != r.shape[2] or r.shape[1] == 0:
            raise ContractViolationError(f"expected (N, n, n) blocks with n >= 1, got {r.shape}")
        if m.size != r.shape[0]:
            raise ContractViolationError(
                f"{m.size} scalars but {r.shape[0]} operator blocks"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", r)

    @classmethod
    def identity(cls, n: int, count: int) -> "Symbol":
        return cls(np.ones(count), np.array([np.eye(n, dtype=np.complex128)] * count))

    @property
    def count(self) -> int:
        return self.m.size

    @property
    def dim(self) -> int:
        return self.r.shape[1]

    @property
    def m_sup(self) -> float:
        return float(np.max(np.abs(self.m))) if self.count else 0.0

    @cached_property
    def svals(self) -> np.ndarray:
        """Read-only (N, n) singular values of the R_i, non-increasing, from one batched
        SVD on first use."""
        s = np.linalg.svd(self.r, compute_uv=False)
        s.flags.writeable = False
        return s

    @cached_property
    def stacked_svals(self) -> np.ndarray:
        """Read-only singular values of ``block_diag_apply(self)``, from one SVD on first use."""
        s = singular_values(block_diag_apply(self))
        s.flags.writeable = False
        return s

    @property
    def r_sup(self) -> float:
        """sup_i ||R_i||, the ell-infinity norm of the operator sequence."""
        return float(self.svals.max(initial=0.0))

    @cached_property
    def _assembled(self) -> dict:
        """(V, W) -> (M, singular values of M), filled by :meth:`assembled`."""
        return {}

    def assembled(self, v: FusionSequence, w: FusionSequence) -> tuple:
        """``(M, s)`` for M = sum_i m_i u_i w_i P_{V_i} R_i P_{W_i} and its
        non-increasing singular values s, both read-only. Built on first use per
        (V, W) pair, keyed by the identity of the two sequences, and kept as long
        as the symbol is."""
        key = (v, w)
        if key not in self._assembled:
            _check_triple(self, v, w)
            mat = sandwich(v, w, self.m * v.weights * w.weights, self.r)
            s = singular_values(mat)
            mat.flags.writeable = False
            s.flags.writeable = False
            self._assembled[key] = (mat, s)
        return self._assembled[key]


def block_diag_apply(sym: Symbol) -> np.ndarray:
    """(N*n) x (N*n) block diagonal with blocks m_i R_i."""
    n, count = sym.dim, sym.count
    out = np.zeros((count, n, count, n), dtype=np.complex128)
    out[np.arange(count), :, np.arange(count)] = sym.m[:, None, None] * sym.r
    return out.reshape(count * n, count * n)


def inverse_symbol_blocks(sym: Symbol, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Blocks (m_i R_i)^-1, legitimate only under the two-sided hypothesis."""
    report = condition_c(sym, tol)
    if not report.holds:
        raise PreconditionError(
            "blockwise inversion requires the two-sided symbol bound "
            f"(gamma={report.gamma:.3e}, delta={report.delta:.3e})"
        )
    return np.linalg.inv(sym.m[:, None, None] * sym.r)


@dataclass(frozen=True)
class ConditionCReport:
    """Quantified form of the two-sided symbol hypothesis.

    gamma and delta are the tight constants min_j |m_j| s_min(R_j) and
    max_j |m_j| s_max(R_j). ``holds`` applies the invertibility cutoff;
    ``near_threshold`` marks symbols within a factor 10 of that cutoff,
    where a boolean verdict would be tolerance noise.
    """

    gamma: float
    delta: float
    holds: bool
    semi_normalized: bool
    lower_witness: float
    near_threshold: bool


def condition_c(sym: Symbol, tol: ToleranceConfig = DEFAULT_TOL) -> ConditionCReport:
    if sym.count == 0:
        raise ContractViolationError("empty symbol")
    # np.hypot is abs() of each complex scalar; np.abs may differ by an ulp
    m_mod = np.hypot(sym.m.real, sym.m.imag)
    gamma = float(np.min(m_mod * sym.svals[:, -1]))
    delta = float(np.max(m_mod * sym.svals[:, 0]))
    r_sup = sym.r_sup
    lower_witness = gamma / r_sup if r_sup > 0.0 else 0.0
    m_abs = np.abs(sym.m)
    semi = bool(np.min(m_abs) > 0.0 and np.all(np.isfinite(m_abs)))
    return ConditionCReport(
        gamma=gamma,
        delta=delta,
        holds=clears_inv_cutoff(gamma, delta, tol),
        semi_normalized=semi,
        lower_witness=lower_witness,
        near_threshold=near_inv_cutoff(gamma, delta, tol),
    )


@dataclass(frozen=True)
class MultiplierReport:
    matrix: np.ndarray
    sigma_min: float
    sigma_max: float
    invertible: bool
    norm_bound: float


def _check_triple(sym: Symbol, v: FusionSequence, w: FusionSequence):
    if not (sym.count == v.count == w.count):
        raise ContractViolationError(
            f"lengths disagree: symbol {sym.count}, V {v.count}, W {w.count}"
        )
    if not (sym.dim == v.ambient_dim == w.ambient_dim):
        raise ContractViolationError(
            f"ambient dimensions disagree: symbol {sym.dim}, V {v.ambient_dim}, W {w.ambient_dim}"
        )


def assemble_multiplier(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> MultiplierReport:
    """Assemble sum_i m_i u_i w_i P_{V_i} R_i P_{W_i} and measure it.

    The matrix and its spectrum are those memoized on ``sym``; invertibility
    and the norm bound are derived from its extreme singular values at ``tol``.
    """
    mat, s = sym.assembled(v, w)
    sigma_min, sigma_max = float(s[-1]), float(s[0])
    _, beta_v = fusion_bounds(v, tol)
    _, beta_w = fusion_bounds(w, tol)
    bound = float(np.sqrt(beta_v * beta_w) * sym.m_sup * sym.r_sup)
    return MultiplierReport(
        matrix=mat,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        invertible=clears_inv_cutoff(sigma_min, sigma_max, tol),
        norm_bound=bound,
    )


@dataclass(frozen=True)
class RieszMultiplierVerdict:
    """Invertibility of a multiplier over Riesz decompositions vs its symbol.

    ``consistent`` compares the symbol prediction with the measured
    invertibility; near-threshold symbols are flagged ``indeterminate``
    and never counted as inconsistent.
    """

    predicted_by_c: bool
    actually_invertible: bool
    v_is_riesz: bool
    indeterminate: bool
    consistent: bool
    gamma: float
    delta: float


def riesz_multiplier_verdict(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RieszMultiplierVerdict:
    _check_triple(sym, v, w)
    if not classify(w, tol).riesz_fusion_basis:
        raise PreconditionError("the analyzed sequence must be a Riesz fusion basis")
    cond = condition_c(sym, tol)
    v_riesz = classify(v, tol).riesz_fusion_basis
    report = assemble_multiplier(sym, v, w, tol)
    actual = report.invertible
    if cond.near_threshold:
        consistent = True
    elif v_riesz:
        consistent = cond.holds == actual
    elif cond.holds:
        # invertibility is then equivalent to V being Riesz, which it is not
        consistent = actual == v_riesz
    else:
        consistent = True
    return RieszMultiplierVerdict(
        predicted_by_c=cond.holds,
        actually_invertible=actual,
        v_is_riesz=v_riesz,
        indeterminate=cond.near_threshold,
        consistent=consistent,
        gamma=cond.gamma,
        delta=cond.delta,
    )


@dataclass(frozen=True)
class InvertibleMultiplierReport:
    """What an invertible multiplier forces on its two sequences.

    Bounds are (alpha, beta) pairs for (W,w), (V,u), (W,|m|w), (V,|m|u);
    the reweighted lower bound must clear 1/(beta_V ||R||_inf^2 ||M^-1||^2).
    Excess equalities use the ambient stacked space. Fields are None when
    the corresponding hypothesis (m bounded below, symbol bound) is off.
    """

    bounds_w: tuple
    bounds_v: tuple
    bounds_w_scaled: tuple
    bounds_v_scaled: tuple
    all_frames: bool
    lower_bound_rhs: float
    lower_bound_ok: bool
    excess_w: int
    excess_v: int
    excess_w_scaled: int
    excess_v_scaled: int
    excess_w_preserved: Optional[bool]
    excess_v_preserved: Optional[bool]
    excess_pair_equal: Optional[bool]


def invertible_multiplier_consequences(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
    slack: float = 1e-6,
) -> InvertibleMultiplierReport:
    report = assemble_multiplier(sym, v, w, tol)
    if not report.invertible:
        raise PreconditionError("the multiplier must be invertible")
    w_scaled = scale_weights(w, sym.m)
    v_scaled = scale_weights(v, sym.m)
    bounds = [fusion_bounds(seq, tol) for seq in (w, v, w_scaled, v_scaled)]
    all_frames = all(clears_inv_cutoff(lo, hi, tol) for lo, hi in bounds)
    beta_v = bounds[1][1]
    # ||M^-1|| = 1 / sigma_min(M)
    rhs = report.sigma_min**2 / (beta_v * sym.r_sup**2)
    lower_ok = bounds[2][0] >= (1.0 - slack) * rhs
    e_w = excess(w, tol)[0]
    e_v = excess(v, tol)[0]
    e_ws = excess(w_scaled, tol)[0]
    e_vs = excess(v_scaled, tol)[0]
    m_min = float(np.min(np.abs(sym.m)))
    preserved_w = (e_w == e_ws) if m_min > 0.0 else None
    preserved_v = (e_v == e_vs) if m_min > 0.0 else None
    pair_equal = (e_w == e_v) if condition_c(sym, tol).holds else None
    return InvertibleMultiplierReport(
        bounds_w=bounds[0],
        bounds_v=bounds[1],
        bounds_w_scaled=bounds[2],
        bounds_v_scaled=bounds[3],
        all_frames=all_frames,
        lower_bound_rhs=rhs,
        lower_bound_ok=bool(lower_ok),
        excess_w=e_w,
        excess_v=e_v,
        excess_w_scaled=e_ws,
        excess_v_scaled=e_vs,
        excess_w_preserved=preserved_w,
        excess_v_preserved=preserved_v,
        excess_pair_equal=pair_equal,
    )


@dataclass(frozen=True)
class InverseRepresentationReport:
    """Inverse of an invertible multiplier as a reciprocal-symbol multiplier.

    ``q_dagger`` is the operator-valued dual of {w_i P_{W_i}} through which
    M^-1 = T_qd^* D_(mR)^-1 T_D holds for every supplied dual D of
    {u_i P_{V_i}}. The probe residual measures how badly a perturbed
    q_dagger breaks that representation. ``indeterminate`` marks a symbol
    near the invertibility cutoff, where neither residual is asserted.
    """

    q_dagger: np.ndarray
    l_blocks: np.ndarray
    duality_residual: float
    representation_residual: float
    probe_residual: float
    indeterminate: bool


def _representation_residual(
    stacked_q: np.ndarray,
    inv_blocks: np.ndarray,
    duals: Sequence[DualCandidate],
    m_inv: np.ndarray,
) -> float:
    """max over the duals D of ||M^-1 - sum_i Q_i^* (m_i R_i)^-1 D_i|| / ||M^-1||."""
    q_adj_inv = stacked_q.reshape(inv_blocks.shape).conj().transpose(0, 2, 1) @ inv_blocks
    scale = spectral_norm(m_inv)
    return max(spectral_norm(m_inv - block_sum(q_adj_inv @ cand.blocks)) / scale for cand in duals)


PROBE_SCALE = 0.01  # size of the uniqueness probe relative to ||Q_dagger||


def inverse_multiplier_representation(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    sampled_duals: Sequence[DualCandidate],
    tol: ToleranceConfig = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
) -> InverseRepresentationReport:
    _check_triple(sym, v, w)
    cond = condition_c(sym, tol)
    if not cond.holds:
        raise PreconditionError("the two-sided symbol bound must hold")
    report = assemble_multiplier(sym, v, w, tol)
    if not report.invertible:
        raise PreconditionError("the multiplier must be invertible")
    if not sampled_duals:
        raise ContractViolationError("at least one sampled dual is required")
    n = w.ambient_dim
    for cand in sampled_duals:
        if cand.base.blocks.shape != (v.count, n, n) or duality_defect(cand) > 10 * tol.eq_rel:
            raise ContractViolationError("sampled duals must be duals of {u_i P_{V_i}}")
    m_inv = np.linalg.inv(report.matrix)
    m_star_inv = m_inv.conj().T
    s_inv = inverse_frame_operator(w, tol)
    pw_s_inv = w.projections @ s_inv
    m_conj = np.conj(sym.m)
    r_adj = v.weights[:, None, None] * sym.r.conj().transpose(0, 2, 1)
    l_blocks = r_adj @ v.projections @ m_star_inv
    nz = sym.m != 0.0
    l_blocks[nz] = l_blocks[nz] - (w.weights[nz] / m_conj[nz])[:, None, None] * pw_s_inv[nz]
    q_dagger = w.weights[:, None, None] * pw_s_inv + m_conj[:, None, None] * l_blocks
    stacked_q = q_dagger.reshape(w.count * n, n)
    t_w = fusion_analysis_ambient(w)
    duality_residual = spectral_norm(stacked_q.conj().T @ t_w - np.eye(n))
    inv_blocks = inverse_symbol_blocks(sym, tol)
    representation_residual = _representation_residual(stacked_q, inv_blocks, sampled_duals, m_inv)
    if rng is None:
        rng = np.random.default_rng(0xD0A1)
    e = ovf_analysis(random_annihilating_ovf(w, rng, tol))
    e_norm = spectral_norm(e)
    if e_norm > 0.0:
        e = e * (PROBE_SCALE * spectral_norm(stacked_q) / e_norm)
    probe_residual = _representation_residual(stacked_q + e, inv_blocks, sampled_duals, m_inv)
    return InverseRepresentationReport(
        q_dagger=q_dagger,
        l_blocks=l_blocks,
        duality_residual=duality_residual,
        representation_residual=representation_residual,
        probe_residual=probe_residual,
        indeterminate=cond.near_threshold,
    )


def local_frame_equivalence(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    family: LocalFrameFamily,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Relative gap between the fusion multiplier and its local-frame lift.

    Expanding each projection P_{W_i} through a spanning local frame and its
    canonical dual turns the fusion multiplier into the ordinary multiplier
    with analysis vectors w_i phi_ij, synthesis vectors
    u_i P_{V_i} R_i dual_ij, and the symbol entry m_i repeated per local
    vector. The returned value is ||M_fusion - M_lifted|| relative to
    max(1, ||M_fusion||).
    """
    _check_triple(sym, v, w)
    if len(family.frames) != w.count:
        raise ContractViolationError("local family length does not match the sequences")
    anal_rows, synth_rows, m_hat = [], [], []
    for i, sub in enumerate(w.subspaces):
        if sub.dim == 0:
            continue
        phi = family.frames[i]
        dual = family.duals[i]
        if phi is None or dual is None:
            raise PreconditionError(f"block {i} has no local frame")
        if rank_tol(phi.vectors, tol) != sub.dim:
            raise PreconditionError(f"local frame of block {i} does not span its subspace")
        p_v = v.projections[i]
        for j in range(phi.count):
            anal_rows.append(w.weights[i] * phi.vectors[j])
            synth_rows.append(v.weights[i] * (p_v @ (sym.r[i] @ dual.vectors[j])))
            m_hat.append(sym.m[i])
    m_fusion = assemble_multiplier(sym, v, w, tol).matrix
    m_lifted = ordinary_multiplier(
        np.asarray(m_hat),
        VectorFrame(np.array(synth_rows)),
        VectorFrame(np.array(anal_rows)),
    )
    return spectral_norm(m_fusion - m_lifted) / max(1.0, spectral_norm(m_fusion))


def projection_composition_multiplier(m, v: FusionSequence, w: FusionSequence) -> np.ndarray:
    """sum_i m_i u_i w_i P_{V_i} P_{W_i}: the plain projection-composition form."""
    m = np.asarray(m, dtype=np.complex128).ravel()
    if not (m.size == v.count == w.count):
        raise ContractViolationError("lengths disagree")
    return sandwich(v, w, m * v.weights * w.weights)


def gavruta_multiplier(
    m, v: FusionSequence, w: FusionSequence, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """sum_i m_i u_i w_i P_{V_i} S_W^-1 P_{W_i}: the S^-1-weighted form."""
    m = np.asarray(m, dtype=np.complex128).ravel()
    if not (m.size == v.count == w.count):
        raise ContractViolationError("lengths disagree")
    s_inv = inverse_frame_operator(w, tol)
    return sandwich(v, w, m * v.weights * w.weights, s_inv)


@dataclass(frozen=True)
class SchattenReport:
    """Finite-dimensional Schatten-norm facts about a multiplier.

    block_sval_defect compares the singular values of the block diagonal
    with the sorted union of per-block singular values; the two bound checks
    compare ||M||_p against ||T_V|| ||T_W|| ||D_mR||_p and ||D_mR||_p^p
    against sum_i rank(R_i) |m_i|^p ||R_i||^p.
    """

    p: float
    block_sval_defect: float
    composite_norm: float
    composite_bound: float
    composite_ok: bool
    block_power: float
    rank_bound: float
    rank_ok: bool


def schatten_checks(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    p: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SchattenReport:
    if p < 1:
        raise ContractViolationError(f"Schatten checks need p >= 1, got {p}")
    _check_triple(sym, v, w)
    s_d = sym.stacked_svals  # non-increasing, like the sorted union
    s_union = np.sort((np.abs(sym.m)[:, None] * sym.svals).ravel())[::-1]
    block_defect = float(np.max(np.abs(s_d - s_union)) / max(1.0, float(s_d[0])))
    lhs = spectrum_schatten_norm(sym.assembled(v, w)[1], p)
    d_norm = spectrum_schatten_norm(s_d, p)
    rhs = embed_fusion(v).analysis_norm * embed_fusion(w).analysis_norm * d_norm
    composite_ok = lhs <= rhs + tol.eq_rel * max(1.0, rhs)
    lhs_c = d_norm**p
    ranks = svals_rank(sym.svals, sym.dim, tol)
    rhs_c = float(
        sum(int(k) * abs(mi) ** p * s_max**p for k, mi, s_max in zip(ranks, sym.m, sym.svals[:, 0]))
    )
    rank_ok = lhs_c <= rhs_c + tol.eq_rel * max(1.0, rhs_c)
    return SchattenReport(
        p=float(p),
        block_sval_defect=block_defect,
        composite_norm=float(lhs),
        composite_bound=float(rhs),
        composite_ok=bool(composite_ok),
        block_power=float(lhs_c),
        rank_bound=rhs_c,
        rank_ok=bool(rank_ok),
    )
