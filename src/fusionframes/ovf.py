"""Operator-valued frames {A_i} in B(C^n, C^k) and their dual family.

Every dual of an operator-valued frame A has stacked analysis
T_A S_A^-1 + L where L annihilates T_A from the left (L^* T_A = 0).
In finite dimensions the coefficient space splits exactly as
ran(T_A) + ker(T_A^*), which turns the density statements about the dual
family into rank equalities that can be certified by a single SVD.

The family is spanned by the canonical dual and the N*k*n members
T_A S_A^-1 + P_ker E_rs, where P_ker projects onto ker(T_A^*). Each
P_ker E_rs is zero except for column s, which is P_ker[:, r], so the
certificates never materialise the family: the stacked analyses have the
column space of [T_A S_A^-1 | P_ker] and their adjoints the row space of
[(T_A S_A^-1)^* ; P_ker]. The reconstruction sweep over the family is
batched one stacked row r at a time, n members per batched SVD. Sampled
duals T_A S_A^-1 + P_ker G share one T_A S_A^-1 and one P_ker per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolationError, NotAFrameError
from .frames import VectorFrame
from .fusion import FusionSequence, fusion_analysis_ambient
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    clears_inv_cutoff,
    clipped_eig_bounds,
    pinv,
    rank_tol,
    spectral_norm,
    spectral_norms,
)

__all__ = [
    "OVFrame",
    "ovf_analysis",
    "ovf_frame_operator_bounds",
    "embed_ordinary",
    "embed_fusion",
    "DualCandidate",
    "duality_defect",
    "kernel_projector",
    "canonical_ov_dual",
    "sample_ov_duals",
    "sample_ov_dual",
    "spanning_dual_family",
    "dual_family_residuals",
    "dual_span_dimension",
    "null_bessel_certificate",
]


@dataclass(frozen=True)
class OVFrame:
    """A sequence of k x n operator blocks, stored as an (N, k, n) array."""

    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=np.complex128)
        if b.ndim != 3:
            raise ContractViolationError(f"expected (N, k, n) blocks, got shape {b.shape}")
        if b.size and not np.all(np.isfinite(b)):
            raise ContractViolationError("operator blocks contain NaN or Inf")
        object.__setattr__(self, "blocks", b)

    @property
    def count(self) -> int:
        return self.blocks.shape[0]

    @property
    def codomain_dim(self) -> int:
        return self.blocks.shape[1]

    @property
    def domain_dim(self) -> int:
        return self.blocks.shape[2]


def ovf_analysis(a: OVFrame) -> np.ndarray:
    """(N*k) x n stacked analysis matrix."""
    n_blocks, k, n = a.blocks.shape
    return a.blocks.reshape(n_blocks * k, n)


def ovf_frame_operator_bounds(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL):
    """Frame operator S_A = T_A^* T_A with its extreme eigenvalues."""
    t = ovf_analysis(a)
    s = t.conj().T @ t
    lo, hi = clipped_eig_bounds((s + s.conj().T) / 2.0, tol)
    return s, lo, hi


def embed_ordinary(phi: VectorFrame) -> OVFrame:
    """Vectors as rank-one analysis functionals: block i is the row phi_i^*."""
    return OVFrame(phi.vectors.conj()[:, None, :])


def embed_fusion(f: FusionSequence) -> OVFrame:
    """Fusion sequence as B(C^n)-valued frame: block i is w_i P_i."""
    n = f.ambient_dim
    return OVFrame(fusion_analysis_ambient(f).reshape(f.count, n, n))


@dataclass(frozen=True)
class DualCandidate:
    """A member T_A S_A^-1 + L of the dual family of ``base``.

    ``perturbation`` is the stacked L and ``analysis`` the stacked analysis
    of the dual itself. Membership of L in the annihilator of T_A is checked
    at construction.
    """

    base: OVFrame
    perturbation: np.ndarray
    analysis: np.ndarray

    def __post_init__(self):
        l = as_matrix(self.perturbation)
        t = ovf_analysis(self.base)
        object.__setattr__(self, "perturbation", l)
        object.__setattr__(self, "analysis", as_matrix(self.analysis))
        scale = max(1.0, spectral_norm(t) * spectral_norm(l))
        if spectral_norm(l.conj().T @ t) > DEFAULT_TOL.eq_rel * scale:
            raise ContractViolationError("perturbation does not annihilate the analysis operator")

    @property
    def blocks(self) -> np.ndarray:
        n_blocks, k, n = self.base.blocks.shape
        return self.analysis.reshape(n_blocks, k, n)


def duality_defect(cand: DualCandidate) -> float:
    """Spectral norm of T_dual^* T_A - I."""
    t = ovf_analysis(cand.base)
    n = cand.base.domain_dim
    return spectral_norm(cand.analysis.conj().T @ t - np.eye(n))


def _canonical_analysis(a: OVFrame, tol: ToleranceConfig):
    t = ovf_analysis(a)
    s, lo, hi = ovf_frame_operator_bounds(a, tol)
    if not clears_inv_cutoff(lo, hi, tol):
        raise NotAFrameError(
            f"operator-valued sequence is not a frame at tolerance (alpha={lo:.3e}, beta={hi:.3e})"
        )
    # (S^-1 T^*)^* = T S^-1 since S is Hermitian
    t_dual = np.linalg.solve(s, t.conj().T).conj().T
    return t, t_dual


def kernel_projector(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto ker(T_A^*) inside the stacked space."""
    t = ovf_analysis(a)
    m = t.shape[0]
    return np.eye(m) - t @ pinv(t, tol)


def canonical_ov_dual(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL) -> DualCandidate:
    """The dual with L = 0, read off from T_A S_A^-1."""
    t, t_dual = _canonical_analysis(a, tol)
    zero = np.zeros_like(t)
    return DualCandidate(base=a, perturbation=zero, analysis=t_dual)


def sample_ov_duals(a: OVFrame, seeds, tol: ToleranceConfig) -> list:
    """Duals T_A S_A^-1 + P_ker G, one per seed G, sharing T_A S_A^-1 and P_ker."""
    t, t_dual = _canonical_analysis(a, tol)
    pker = kernel_projector(a, tol)
    duals = []
    for g in map(as_matrix, seeds):
        if g.shape != t.shape:
            raise ContractViolationError(
                f"perturbation seed must have shape {t.shape}, got {g.shape}"
            )
        l = pker @ g
        duals.append(DualCandidate(base=a, perturbation=l, analysis=t_dual + l))
    return duals


def sample_ov_dual(a: OVFrame, g, tol: ToleranceConfig = DEFAULT_TOL) -> DualCandidate:
    """Dual obtained by projecting an arbitrary stacked matrix onto the annihilator."""
    return sample_ov_duals(a, [g], tol)[0]


def spanning_dual_family(
    a: OVFrame,
    tol: ToleranceConfig = DEFAULT_TOL,
    limit: int | None = None,
    start: int = 0,
):
    """Canonical dual followed by the elementary-matrix kernel perturbations.

    The sweep order is deterministic: L = 0 first, then the projections
    P_ker E_rs in row-major order of (r, s). Candidates are produced from
    index ``start`` of that order; ``limit`` caps how many are produced.
    """
    t, t_dual = _canonical_analysis(a, tol)
    rows, cols = t.shape
    stop = 1 + rows * cols
    if limit is not None:
        stop = min(stop, start + max(limit, 1))
    pker = kernel_projector(a, tol)
    for index in range(start, stop):
        l = np.zeros_like(t)
        if index:
            r, s = divmod(index - 1, cols)
            l[:, s] = pker[:, r]
        yield DualCandidate(base=a, perturbation=l, analysis=t_dual + l)


def _check_annihilator(t: np.ndarray, pker: np.ndarray) -> None:
    """The DualCandidate condition L^* T = 0 for every L = P_ker E_rs at once.

    (P_ker E_rs)^* T is zero except for row s, which is row r of
    P_ker^* T, and ||P_ker E_rs|| = ||P_ker[:, r]||.
    """
    defects = np.linalg.norm(pker.conj().T @ t, axis=1)
    scales = np.maximum(1.0, spectral_norm(t) * np.linalg.norm(pker, axis=0))
    if np.any(defects > DEFAULT_TOL.eq_rel * scales):
        raise ContractViolationError("perturbation does not annihilate the analysis operator")


def dual_family_residuals(a: OVFrame, t_prime, tol: ToleranceConfig = DEFAULT_TOL):
    """Residuals ||T_D^* T' - I|| over :func:`spanning_dual_family`, in its order.

    Yields an array holding the canonical dual's residual, then one array
    per stacked row r holding the residuals of the n candidates (r, s):
    T_A S_A^-1 with P_ker[:, r] added to column s. Each row is one
    (n, N*k, n) stack of analyses and one batched SVD, so memory stays at n
    members. Each value is bit for bit the spectral norm computed from that
    member of :func:`spanning_dual_family`.
    """
    t, t_dual = _canonical_analysis(a, tol)
    t_prime = as_matrix(t_prime)
    if t_prime.shape != t.shape:
        raise ContractViolationError(
            f"second analysis operator must have shape {t.shape}, got {t_prime.shape}"
        )
    rows, cols = t.shape
    eye = np.eye(cols)

    def residuals(d):
        return spectral_norms(d.conj().transpose(0, 2, 1) @ t_prime - eye)

    yield residuals(t_dual[None])
    pker = kernel_projector(a, tol)
    _check_annihilator(t, pker)
    members = np.arange(cols)
    for r in range(rows):
        d = np.repeat(t_dual[None], cols, axis=0)
        d[members, :, members] += pker[:, r]
        yield residuals(d)


def _dual_span_rank(a: OVFrame, tol: ToleranceConfig) -> int:
    """rank[T_A S_A^-1 | P_ker], the rank of the family's stacked analyses."""
    _, t_dual = _canonical_analysis(a, tol)
    return rank_tol(np.hstack([t_dual, kernel_projector(a, tol)]), tol)


def dual_span_dimension(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Rank of the horizontally stacked dual family analyses.

    The family's analyses T_A S_A^-1 + P_ker E_rs have the column space of
    [T_A S_A^-1 | P_ker]; the dual ranges exhaust the stacked space exactly
    when this rank equals N*k.
    """
    return _dual_span_rank(a, tol)


def null_bessel_certificate(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of {B : T_B^* T_dual = 0 for the whole spanning family}.

    Solves the joint linear system over the stacked unknown T_B. The
    family's adjoint analyses have the row space of [(T_A S_A^-1)^* ; P_ker];
    the dual family annihilates only the zero sequence exactly when this is 0.
    """
    t, t_dual = _canonical_analysis(a, tol)
    rows = np.vstack([t_dual.conj().T, kernel_projector(a, tol)])
    nullity = t.shape[0] - rank_tol(rows, tol)
    return int(nullity * a.domain_dim)
