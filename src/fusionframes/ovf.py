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
[(T_A S_A^-1)^* ; P_ker]. The reconstruction residual of member (r, s) is
that of the canonical dual updated by a rank-one term whose norm is the
norm of row r of P_ker^* T', so the sweep decides each stacked row r by
two bounds from one SVD and one product, and takes a batched SVD of a
row's members only where the bounds leave it undecided. Sampled duals
T_A S_A^-1 + P_ker G share one T_A S_A^-1 and one P_ker per call.

A frame caches, read-only and on first use, what no tolerance enters: its
frame operator S_A with the extreme eigenvalues of its Hermitian part,
T_A S_A^-1 and ||T_A||. The frame test is applied at each call on top of
the cached eigenvalues. P_ker depends on the rank cutoff and holds
(N k)^2 entries, so it is recomputed per call and never kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ContractViolationError, NotAFrameError
from .frames import VectorFrame
from .fusion import FusionSequence
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    clears_inv_cutoff,
    clip_eig_bounds,
    eig_extremes,
    finite_array,
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
    "sweep_dual_family",
    "dual_span_dimension",
    "null_bessel_certificate",
]


@dataclass(frozen=True)
class OVFrame:
    """A sequence of k x n operator blocks, stored as an (N, k, n) array."""

    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", finite_array(self.blocks, 3, "operator blocks"))

    @property
    def count(self) -> int:
        return self.blocks.shape[0]

    @property
    def codomain_dim(self) -> int:
        return self.blocks.shape[1]

    @property
    def domain_dim(self) -> int:
        return self.blocks.shape[2]

    @cached_property
    def frame_operator(self) -> np.ndarray:
        """Read-only S_A = T_A^* T_A, built on first use."""
        t = ovf_analysis(self)
        s = t.conj().T @ t
        s.flags.writeable = False
        return s

    @cached_property
    def frame_eigs(self) -> tuple:
        """Extreme eigenvalues (lo, hi) of the Hermitian part of S_A, unclipped, on first use."""
        s = self.frame_operator
        return eig_extremes((s + s.conj().T) / 2.0)

    @cached_property
    def canonical_analysis(self) -> np.ndarray:
        """Read-only T_A S_A^-1 from one solve on first use; read it only once the
        frame test has passed (see :func:`canonical_ov_dual`)."""
        # (S^-1 T^*)^* = T S^-1 since S is Hermitian
        t_dual = np.linalg.solve(self.frame_operator, ovf_analysis(self).conj().T).conj().T
        t_dual.flags.writeable = False
        return t_dual

    @cached_property
    def analysis_norm(self) -> float:
        """||T_A||, from one SVD on first use."""
        return spectral_norm(ovf_analysis(self))


def ovf_analysis(a: OVFrame) -> np.ndarray:
    """(N*k) x n stacked analysis matrix."""
    n_blocks, k, n = a.blocks.shape
    return a.blocks.reshape(n_blocks * k, n)


def ovf_frame_operator_bounds(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL):
    """Frame operator S_A = T_A^* T_A with its extreme eigenvalues, clipped at ``tol``."""
    lo, hi = clip_eig_bounds(*a.frame_eigs, tol)
    return a.frame_operator, lo, hi


def embed_ordinary(phi: VectorFrame) -> OVFrame:
    """Vectors as rank-one analysis functionals: block i is the row phi_i^*."""
    return OVFrame(phi.vectors.conj()[:, None, :])


def embed_fusion(f: FusionSequence) -> OVFrame:
    """Fusion sequence as B(C^n)-valued frame: block i is w_i P_i. The frame is the
    one cached on ``f``, so every caller shares its cached facts."""
    return f.embedding


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
        scale = max(1.0, self.base.analysis_norm * spectral_norm(l))
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
    """``(T_A, T_A S_A^-1)`` after the frame test at ``tol``; T_A S_A^-1 is read-only."""
    _, lo, hi = ovf_frame_operator_bounds(a, tol)
    if not clears_inv_cutoff(lo, hi, tol):
        raise NotAFrameError(
            f"operator-valued sequence is not a frame at tolerance (alpha={lo:.3e}, beta={hi:.3e})"
        )
    return ovf_analysis(a), a.canonical_analysis


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
        yield _family_member(a, t_dual, pker, index)


def _family_member(a: OVFrame, t_dual: np.ndarray, pker, index: int) -> DualCandidate:
    """Member ``index`` of :func:`spanning_dual_family`; ``pker`` is unused for index 0."""
    l = np.zeros(t_dual.shape, dtype=np.complex128)
    if index:
        r, s = divmod(index - 1, t_dual.shape[1])
        l[:, s] = pker[:, r]
    return DualCandidate(base=a, perturbation=l, analysis=t_dual + l)


def _check_annihilator(t: np.ndarray, pker: np.ndarray) -> np.ndarray:
    """The DualCandidate condition L^* T = 0 for every L = P_ker E_rs at once.

    (P_ker E_rs)^* T is zero except for row s, which is row r of
    P_ker^* T, and ||P_ker E_rs|| = ||P_ker[:, r]||. Returns P_ker^* T.
    """
    pt = pker.conj().T @ t
    defects = np.linalg.norm(pt, axis=1)
    scales = np.maximum(1.0, spectral_norm(t) * np.linalg.norm(pker, axis=0))
    if np.any(defects > DEFAULT_TOL.eq_rel * scales):
        raise ContractViolationError("perturbation does not annihilate the analysis operator")
    return pt


def sweep_dual_family(a: OVFrame, t_prime, threshold: float, budget, tol: ToleranceConfig):
    """First member of :func:`spanning_dual_family` with ||T_D^* T' - I|| > ``threshold``.

    Sweeps the first ``budget`` members (all of them when ``budget`` is None,
    at least one) and returns ``(witness, residual, checked)``: the first
    member whose residual exceeds ``threshold`` as a DualCandidate with its
    residual and ``checked`` = its index + 1, or None with a certified upper
    bound on the ``checked`` residuals.

    Member (r, s) adds P_ker[:, r] to column s of T_A S_A^-1, so its residual
    matrix is the rank-one update A + e_s x_r^* of A = (T_A S_A^-1)^* T' - I,
    where x_r^* is row r of P_ker^* T'. By Weyl's inequality every member of
    stacked row r has a residual within ||x_r|| of ||A||, the canonical
    dual's residual, so one product decides whole rows: a row is below the
    threshold when ||A|| + ||x_r|| + margin <= threshold, and above it when
    | ||A|| - ||x_r|| | - margin > threshold; only then is its first member
    computed. Other rows go through a batched SVD of their members. Every
    residual this returns for a member is the bit-for-bit spectral norm
    of that member's residual matrix, so the witness is the one a member by
    member sweep finds.

    The margin covers the rounding in both the bound and the member-wise
    residual. With u the unit roundoff, m x n the shape of T_A and
    F = (||T_A S_A^-1||_F + max_r ||P_ker[:, r]||) ||T'||_F + sqrt(n), the
    products are off by at most about m u F (standard dot-product bounds,
    with a factor for complex arithmetic), forming a column of a member and
    subtracting I by u F each, and each largest singular value by about n u F
    (backward stable SVD); 8 (m + n) u F covers the sum for both.
    """
    t, t_dual = _canonical_analysis(a, tol)
    t_prime = as_matrix(t_prime)
    if t_prime.shape != t.shape:
        raise ContractViolationError(
            f"second analysis operator must have shape {t.shape}, got {t_prime.shape}"
        )
    rows, cols = t.shape
    stop = 1 + rows * cols
    if budget is not None:
        stop = min(stop, max(budget, 1))
    eye = np.eye(cols)

    def residuals(d):
        return spectral_norms(d.conj().transpose(0, 2, 1) @ t_prime - eye)

    base = float(residuals(t_dual[None])[0])
    if base > threshold:
        return _family_member(a, t_dual, None, 0), base, 1
    if stop == 1:
        return None, base, 1
    pker = kernel_projector(a, tol)
    pt = _check_annihilator(t, pker)
    x = pt if np.array_equal(t_prime, t) else pker.conj().T @ t_prime
    x_norms = np.linalg.norm(x, axis=1)
    size = (np.linalg.norm(t_dual) + np.linalg.norm(pker, axis=0).max()) * np.linalg.norm(t_prime)
    margin = 8.0 * (rows + cols) * np.finfo(float).eps * (size + np.sqrt(cols))
    upper = base + x_norms + margin
    above_all = np.abs(base - x_norms) - margin > threshold
    worst = base
    checked = 1
    for r in range(rows):
        width = min(cols, stop - checked)
        if upper[r] <= threshold:
            worst = max(worst, float(upper[r]))
        else:
            members = np.arange(1 if above_all[r] else width)
            d = np.repeat(t_dual[None], members.size, axis=0)
            d[members, :, members] += pker[:, r]
            res = residuals(d)
            above = np.flatnonzero(res > threshold)
            if above.size:
                index = checked + int(above[0])
                return _family_member(a, t_dual, pker, index), float(res[above[0]]), index + 1
            worst = max(worst, float(res.max()))
        checked += width
        if checked == stop:
            break
    return None, worst, checked


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
