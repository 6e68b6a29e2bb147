"""Fusion-frame duality through admissible operator sequences.

A Bessel fusion sequence (V, u) is a dual of the fusion frame (W, w) when
some admissible sequence Q makes the composite

    T_V,u^*  D_Q  T_W,w  =  sum_i u_i w_i P_{V_i} Q_i P_{W_i}

equal to the identity (generalized dual: merely invertible). Admissibility
pins Q_i to act from W_i into V_i with unit norm off the zero-index set.
The composite and the S_W^-1-weighted composite of the classical
reconstruction are both :func:`fusion.sandwich` over the sequences' cached
projections, with the middle stack Q or S_W^-1 broadcast to every block.
This module checks the definition for a given Q, checks the classical
S^-1-weighted reconstruction, constructs duals from an invertible
target operator and a stacked L with L^* T_W,w = 0 (such as one drawn by
:func:`ovf.kernel_samples`), and searches the operator-valued dual family for
a dual that separates two fusion frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ContractViolationError, NotAFrameError
from .fusion import (
    FusionSequence,
    Subspace,
    block_deviation,
    fusion_synthesis_kw,
    sandwich,
)
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    clears_inv_cutoff,
    extreme_singular_values,
    relative_defect,
    spectral_norm,
    spectral_norms,
    svals_rank,
    svd,
)
from .ovf import (
    DualCandidate,
    OVFrame,
    annihilation_defects,
    dual_slack,
    frame_operator_inverse,
    is_frame,
    sweep_dual_family,
)

__all__ = [
    "index_zero_set",
    "AdmissibilityReport",
    "is_admissible",
    "DualVerdict",
    "kpp_dual_check",
    "gavruta_dual_check",
    "canonical_gavruta_dual",
    "hmbz_dual_check",
    "GeneratedDual",
    "generate_fusion_dual",
    "fusion_dual_to_ovf",
    "SeparationResult",
    "find_separating_dual",
]


def index_zero_set(v: FusionSequence, w: FusionSequence) -> frozenset:
    """Indices where either sequence has a zero block."""
    if v.count != w.count:
        raise ContractViolationError(
            f"sequences have different lengths: {v.count} and {w.count}"
        )
    return frozenset(
        i for i in range(v.count) if v.weights[i] == 0.0 or w.weights[i] == 0.0
    )


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the three per-index admissibility conditions.

    Each row of ``defects`` is (kernel_defect, range_defect, norm_defect)
    for one index; unconstrained indices (inside the zero-index set) carry
    zeros.
    """

    admissible: bool
    defects: tuple


def is_admissible(
    q_blocks,
    v: FusionSequence,
    w: FusionSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> AdmissibilityReport:
    """Check W_i-perp in ker(Q_i), ran(Q_i) in V_i, and ||Q_i|| = 1 off I_0, each
    condition by one batched SVD over the blocks off I_0."""
    q = np.asarray(q_blocks, dtype=np.complex128)
    if q.ndim != 3 or q.shape[0] != v.count or q.shape[1:] != (v.ambient_dim,) * 2:
        raise ContractViolationError(
            f"expected {v.count} square blocks of size {v.ambient_dim}, got shape {q.shape}"
        )
    zero_set = index_zero_set(v, w)
    live = np.array([i not in zero_set for i in range(v.count)])
    q_live = q[live]
    norms = spectral_norms(q_live)
    defects = np.zeros((v.count, 3))
    defects[live] = np.column_stack(
        [
            spectral_norms(q_live @ w.projections[live] - q_live),
            spectral_norms(v.projections[live] @ q_live - q_live),
            np.abs(norms - 1.0),
        ]
    )
    ok = not np.any(relative_defect(defects[live], norms[:, None]) > tol.eq_rel)
    return AdmissibilityReport(admissible=ok, defects=tuple(map(tuple, defects.tolist())))


@dataclass(frozen=True)
class DualVerdict:
    """Verdict for a given admissible candidate Q.

    kind is "dual" when the composite is the identity at tolerance,
    "generalized_dual" when it is merely invertible, and "none" otherwise
    (including inadmissible Q, whose diagnostics are attached).
    """

    kind: str
    composite: np.ndarray
    sigma_min: float
    sigma_max: float
    residual_to_identity: float
    admissibility: AdmissibilityReport


def kpp_dual_check(
    v: FusionSequence,
    w: FusionSequence,
    q_blocks,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> DualVerdict:
    """Assemble the composite for Q and decide its kind."""
    q = np.asarray(q_blocks, dtype=np.complex128)
    report = is_admissible(q, v, w, tol)
    comp = sandwich(v, w, v.weights * w.weights, q)
    sigma_min, sigma_max = extreme_singular_values(comp)
    residual = spectral_norm(comp - np.eye(v.ambient_dim))
    if not report.admissible:
        kind = "none"
    elif residual <= tol.eq_rel:
        kind = "dual"
    elif clears_inv_cutoff(sigma_min, sigma_max, tol):
        kind = "generalized_dual"
    else:
        kind = "none"
    return DualVerdict(
        kind=kind,
        composite=comp,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        residual_to_identity=residual,
        admissibility=report,
    )


def gavruta_dual_check(
    v: FusionSequence,
    w: FusionSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Normalized residual of sum_i w_i u_i P_{V_i} S_W^-1 P_{W_i} = I."""
    if v.count != w.count:
        raise ContractViolationError("sequences have different lengths")
    s_inv = frame_operator_inverse(w.embedding, tol)
    n = w.ambient_dim
    comp = sandwich(v, w, w.weights * v.weights, np.broadcast_to(s_inv, (w.count, n, n)))
    return float(np.linalg.norm(comp - np.eye(n)) / np.sqrt(n))


def _ranges(ops: np.ndarray, tol: ToleranceConfig):
    """``(subspaces, ranks, singular values)`` of an (N, n, n) stack from one stacked
    SVD: block i has rank r_i at ``tol``, and its range is spanned by its first r_i
    left singular vectors."""
    uu, ss, _ = svd(ops)
    ranks = svals_rank(ss, ops.shape[1], tol)
    return tuple(Subspace(u[:, :r]) for u, r in zip(uu, ranks)), ranks, ss


def canonical_gavruta_dual(
    w: FusionSequence, tol: ToleranceConfig = DEFAULT_TOL
) -> FusionSequence:
    """The classical dual (S_W^-1 W_i, w_i), with S_W^-1 W_i the range of S_W^-1 P_{W_i}."""
    subs, _, _ = _ranges(frame_operator_inverse(w.embedding, tol) @ w.projections, tol)
    return FusionSequence(subs, w.weights.copy())


def hmbz_dual_check(
    v: FusionSequence,
    w: FusionSequence,
    q_kw,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Residual of T_V^* Q T_W = I for a given K_W -> K_V coordinate operator."""
    q = as_matrix(q_kw)
    synth_v = fusion_synthesis_kw(v)
    synth_w = fusion_synthesis_kw(w)
    if q.shape != (synth_v.shape[1], synth_w.shape[1]):
        raise ContractViolationError(
            f"coordinate operator must be {synth_v.shape[1]} x {synth_w.shape[1]}, got {q.shape}"
        )
    comp = synth_v @ q @ synth_w.conj().T
    return spectral_norm(comp - np.eye(v.ambient_dim))


@dataclass(frozen=True)
class GeneratedDual:
    """Output of the constructive dual generator."""

    v: FusionSequence
    q: np.ndarray
    composite: np.ndarray
    operators: np.ndarray


def generate_fusion_dual(
    w: FusionSequence,
    u,
    l: Optional[np.ndarray] = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> GeneratedDual:
    """Construct a (generalized) dual of W whose composite equals U.

    Builds A_i = (w_i U S_W^-1 + L_i^*) P_{W_i}, with L_i block i of the stacked
    (N n) x n ``l`` (zero when None; see :func:`ovf.kernel_samples`), then takes
    V_i as the range of A_i, u_i = ||A_i||, and Q_i = A_i / u_i, from one batched
    product and the one stacked SVD of :func:`_ranges`. The returned Q is
    admissible by construction and the composite reproduces U; with U = I the
    output passes :func:`kpp_dual_check` with kind "dual".
    """
    s_inv = frame_operator_inverse(w.embedding, tol)
    n = w.ambient_dim
    u = as_matrix(u)
    if u.shape != (n, n):
        raise ContractViolationError(f"target operator must be {n} x {n}, got {u.shape}")
    if not clears_inv_cutoff(*extreme_singular_values(u), tol):
        raise ContractViolationError("target operator must be invertible at tolerance")
    l = np.zeros((w.count * n, n), dtype=np.complex128) if l is None else as_matrix(l)
    if l.shape != (w.count * n, n):
        raise ContractViolationError(
            f"annihilating sequence must have shape {(w.count * n, n)}, got {l.shape}"
        )
    annihilation_defects(w.embedding, l[None], tol)
    l_adj = l.reshape(w.count, n, n).conj().transpose(0, 2, 1)
    ops = (w.weights[:, None, None] * (u @ s_inv) + l_adj) @ w.projections
    subs, ranks, ss = _ranges(ops, tol)
    live = ranks > 0
    if not live.any():
        raise ContractViolationError("degenerate construction: every operator collapsed to zero")
    norms = np.where(live, ss[:, 0], 0.0)
    q_blocks = np.zeros_like(ops)
    q_blocks[live] = ops[live] / norms[live, None, None]
    v = FusionSequence(subs, norms)
    comp = sandwich(v, w, v.weights * w.weights, q_blocks)
    return GeneratedDual(v=v, q=q_blocks, composite=comp, operators=ops)


def fusion_dual_to_ovf(v: FusionSequence, q_blocks) -> OVFrame:
    """The operator-valued sequence {u_i Q_i^*} attached to a dual (V, u, Q)."""
    q = np.asarray(q_blocks, dtype=np.complex128)
    if q.ndim != 3 or q.shape[0] != v.count:
        raise ContractViolationError("one square block per index required")
    return OVFrame(
        np.array([v.weights[i] * q[i].conj().T for i in range(v.count)])
    )


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of the separating-dual sweep.

    ``witness`` is the first dual of W whose reconstruction of W' fails, or
    None when the whole family also reconstructs W'. ``block_deviation`` is
    max_i ||w_i P_i - w'_i P'_i||.
    """

    witness: Optional[DualCandidate]
    residual: float
    block_deviation: float
    checked: int


def find_separating_dual(
    w: FusionSequence,
    w_prime: FusionSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SeparationResult:
    """Sweep the dual family of W for a dual that is not a dual of W'.

    The deterministic sweep tries the canonical dual first, then all the
    elementary-matrix kernel perturbations in row-major order. A candidate
    separates when ||T_D^* T_{W'} - I|| exceeds :func:`ovf.dual_slack`.
    :func:`ovf.sweep_dual_family` decides whole stacked rows of the family by
    rank-one bounds and takes exact residuals only where the bounds leave a row
    undecided, so the witness, its residual and ``checked`` are those of a
    member by member sweep; only the witness is built as a DualCandidate. When no candidate
    separates, ``residual`` is a certified upper bound on the swept
    residuals, and the two sequences agree blockwise up to tolerance.
    """
    if w.count != w_prime.count or w.ambient_dim != w_prime.ambient_dim:
        raise ContractViolationError("sequences must share length and ambient dimension")
    if not is_frame(w.embedding, tol) or not is_frame(w_prime.embedding, tol):
        raise NotAFrameError("separating-dual search requires two fusion frames")
    deviation = block_deviation(w, w_prime)
    witness, residual, checked = sweep_dual_family(
        w.embedding, w_prime.embedding.analysis, dual_slack(tol), tol
    )
    return SeparationResult(
        witness=witness, residual=residual, block_deviation=deviation, checked=checked
    )
