"""Operator-valued frames {A_i} in B(C^n, C^k) and their dual family.

Every dual of an operator-valued frame A has stacked analysis
T_A S_A^-1 + L where L annihilates T_A from the left (L^* T_A = 0).
In finite dimensions the coefficient space splits exactly as
ran(T_A) + ker(T_A^*), which turns the density statements about the dual
family into rank equalities that can be certified by a single SVD.

P_ker, the projector onto ker(T_A^*), is never formed. It is I - Q Q^* for
Q, an orthonormal basis of ran(T_A): the leading left singular vectors of
T_A up to the rank cutoff (:func:`range_basis`). Everything reads P_ker
through Q: P_ker G = G - Q (Q^* G) (:func:`kernel_parts`), its column r is
e_r - Q Q[r, :]^* and that column's norm is sqrt(1 - ||Q[r, :]||^2), at
O(N k n^2) work and O(N k n) memory. Every kernel perturbation L = P_ker G
of the package, for a complex Gaussian G, is drawn by :func:`kernel_samples`.

The family is spanned by the canonical dual and the N*k*n members
T_A S_A^-1 + P_ker E_rs. Each P_ker E_rs is zero except for column s, which
is P_ker[:, r], so the certificates never materialise the family: the
stacked analyses have the column space of B = [T_A S_A^-1 | P_ker] and
their adjoints the row space of B^*. Both rank certificates read one
spectrum of B per frame and rank cut, taken from a matrix of at most
(r + n) rows (:func:`_dual_family_svals`). The reconstruction residual of
member (r, s) is that of the canonical dual updated by a rank-one term
whose norm is the norm of row r of P_ker^* T', so the sweep decides each
stacked row r by two bounds from one SVD and one product, and takes a
batched SVD of a row's members only where the bounds leave it undecided.

Perturbations are checked to annihilate T_A at the caller's eq_rel by two
stacked SVDs of n x n matrices per stack (:func:`annihilation_defects`),
||L^* T_A|| and ||L^* L||, and by none for a stack of zeros. Sampled duals
travel as one (c, N k, n) stack of analyses (:func:`sample_ov_duals`),
checked once as one stack. A :class:`DualCandidate` records one dual built
on its own, the canonical dual, the sweep's witness or a dual constructed
directly, and its constructor checks its L as a stack of one. The swept
members are checked all at once from their column norms
(:func:`_check_annihilator`), so only the witness is checked twice.

Which object caches which fact, each read-only, built on first use and free
of any tolerance:

* an :class:`OVFrame` caches its frame operator S_A = T_A^* T_A, the
  extreme eigenvalues of its Hermitian part, from which its bounds, its
  frame test and ||T_A|| = sqrt(beta) are read, S_A^-1 from one inv,
  T_A S_A^-1 from that inverse, the thin SVD factors (U, s) of T_A, the one
  factorization of T_A, and, per rank cut of Q, the spectrum of B;
* a fusion sequence caches no operator fact beside these: its embedding
  ``f.embedding``, the OVFrame {w_i P_i}, owns its blocks, its stacked
  analysis, its S, its eigenvalues, its S^-1 and so its bounds and frame test,
  and the SVD whose rank cut (:func:`range_basis`) gives its excess and Riesz
  test.

Tolerance rules are applied per call on top of the cached facts: the
eigenvalue clip of :func:`frame_bounds`, the one place frame bounds are
read; the invertibility cutoff of :func:`is_frame`, the one frame test,
which :func:`frame_operator_inverse` applies before S_A^-1 or T_A S_A^-1 is
read; and the rank cutoff that cuts Q from U.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import ContractViolationError, NotAFrameError
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    clears_inv_cutoff,
    clip_eig_bounds,
    eig_extremes,
    finite_array,
    relative_defect,
    singular_values,
    spectral_norms,
    svals_rank,
    svd,
)

if TYPE_CHECKING:  # frames imports this module at load time
    from .frames import VectorFrame

__all__ = [
    "OVFrame",
    "frame_bounds",
    "is_frame",
    "frame_operator_inverse",
    "embed_ordinary",
    "DualCandidate",
    "annihilation_defects",
    "duality_defects",
    "dual_slack",
    "range_basis",
    "kernel_parts",
    "kernel_samples",
    "canonical_ov_dual",
    "sample_ov_duals",
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

    @property
    def analysis(self) -> np.ndarray:
        """The (N*k) x n stacked analysis T_A, a view of the blocks."""
        n_blocks, k, n = self.blocks.shape
        return self.blocks.reshape(n_blocks * k, n)

    @cached_property
    def frame_operator(self) -> np.ndarray:
        """Read-only S_A = T_A^* T_A, built on first use."""
        t = self.analysis
        s = t.conj().T @ t
        s.flags.writeable = False
        return s

    @cached_property
    def frame_eigs(self) -> tuple:
        """Extreme eigenvalues (lo, hi) of the Hermitian part of S_A, unclipped, on first use."""
        s = self.frame_operator
        return eig_extremes((s + s.conj().T) / 2.0)

    @cached_property
    def frame_operator_inv(self) -> np.ndarray:
        """Read-only S_A^-1 from one inv on first use; read it only once the frame
        test has passed (see :func:`frame_operator_inverse`)."""
        inv = np.linalg.inv(self.frame_operator)
        inv.flags.writeable = False
        return inv

    @cached_property
    def canonical_analysis(self) -> np.ndarray:
        """Read-only T_A S_A^-1, from the cached inverse on first use; read it only once
        the frame test has passed (see :func:`frame_operator_inverse`)."""
        t_dual = self.analysis @ self.frame_operator_inv
        t_dual.flags.writeable = False
        return t_dual

    @cached_property
    def analysis_svd(self) -> tuple:
        """Read-only thin SVD factors ``(U, s)`` of T_A, non-increasing s, from one
        SVD on first use: the one factorization of T_A, read through its rank cut
        :func:`range_basis`."""
        u, s, _ = svd(self.analysis)
        u.flags.writeable = False
        s.flags.writeable = False
        return u, s

    @cached_property
    def _family_svals(self) -> dict:
        """Rank cut of Q -> spectrum of [T_A S_A^-1 | P_ker], filled by
        :func:`_dual_family_svals`."""
        return {}

    @property
    def analysis_norm(self) -> float:
        """||T_A|| = sqrt(beta), beta the largest cached eigenvalue of S_A = T_A^* T_A."""
        return float(np.sqrt(max(self.frame_eigs[1], 0.0)))


def frame_bounds(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """Frame bounds (alpha, beta): the extreme eigenvalues of S_A, clipped at ``tol``.
    The bounds of every frame and fusion sequence are read here."""
    return clip_eig_bounds(*a.frame_eigs, tol)


def is_frame(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """The frame test: the clipped bounds clear the invertibility cutoff at ``tol``."""
    return clears_inv_cutoff(*frame_bounds(a, tol), tol)


def frame_operator_inverse(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The read-only S_A^-1 cached on ``a``, once ``a`` passes the frame test at
    ``tol``; the one gate in front of S_A^-1 and T_A S_A^-1."""
    if not is_frame(a, tol):
        lo, hi = frame_bounds(a, tol)
        raise NotAFrameError(f"not a frame at tolerance (alpha={lo:.3e}, beta={hi:.3e})")
    return a.frame_operator_inv


def embed_ordinary(phi: VectorFrame) -> OVFrame:
    """Vectors as rank-one analysis functionals: block i is the row phi_i^*."""
    return OVFrame(phi.vectors.conj()[:, None, :])


@dataclass(frozen=True)
class DualCandidate:
    """A member T_A S_A^-1 + L of the dual family of ``base``.

    ``perturbation`` is the stacked L and ``analysis`` the stacked analysis
    of the dual itself. Membership of L in the annihilator of T_A is checked
    at construction, at ``tol``, as a stack of one.
    """

    base: OVFrame
    perturbation: np.ndarray
    analysis: np.ndarray
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self):
        l = as_matrix(self.perturbation)
        object.__setattr__(self, "perturbation", l)
        object.__setattr__(self, "analysis", as_matrix(self.analysis))
        annihilation_defects(self.base, l[None], self.tol)


def annihilation_defects(a: OVFrame, stack, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The DualCandidate condition, ||L^* T_A|| relative to ||T_A|| ||L||
    (:func:`numerics.relative_defect`) at most eq_rel at ``tol``, for each L of a
    (c, N k, n) stack, from two stacked SVDs of n x n matrices: ||L^* T_A|| and
    ||L|| = ||L^* L||^(1/2). Returns the defects ||L^* T_A||, or
    raises :class:`ContractViolationError` naming the worst one. A stack of zeros,
    such as the canonical dual's L = 0, has zero defects and takes no SVD."""
    if not stack.any():
        return np.zeros(len(stack))
    adj = stack.conj().transpose(0, 2, 1)
    defects = spectral_norms(adj @ a.analysis)
    l_norms = np.sqrt(spectral_norms(adj @ stack))
    bad = relative_defect(defects, a.analysis_norm * l_norms) > tol.eq_rel
    if np.any(bad):
        raise ContractViolationError(
            "perturbation does not annihilate the analysis operator "
            f"(defect {defects[bad].max():.3e})"
        )
    return defects


def duality_defects(analyses: np.ndarray, t: np.ndarray) -> np.ndarray:
    """||D^* T - I|| for each dual analysis D of ``analyses``, a (c, m, n) stack,
    against the m x n analysis ``t``, from one n x n product per member and one
    batched SVD; each entry is bit-for-bit the spectral norm of that member's
    matrix. Only n x n products are stacked, so no copy of the analyses is made."""
    shape = np.shape(analyses)
    if len(shape) != 3 or not shape[0] or shape[1:] != t.shape:
        raise ContractViolationError(
            f"dual analyses must be a stack of one or more {t.shape} matrices, got shape {shape}"
        )
    return spectral_norms(np.array([d.conj().T @ t for d in analyses]) - np.eye(t.shape[1]))


def dual_slack(tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """10 eq_rel, the one threshold on :func:`duality_defects`: a sampled dual
    must stay within it, and a separating dual must exceed it."""
    return 10.0 * tol.eq_rel


def range_basis(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis Q of ran(T_A): the cached left singular vectors of T_A
    whose singular values clear the rank cutoff at ``tol``; its column count is
    the rank of T_A, which every rank read of T_A takes from here."""
    u, s = a.analysis_svd
    return u[:, : svals_rank(s, max(a.analysis.shape), tol)]


def canonical_ov_dual(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL) -> DualCandidate:
    """The dual with L = 0, read off from T_A S_A^-1."""
    frame_operator_inverse(a, tol)
    t_dual = a.canonical_analysis
    return DualCandidate(a, np.zeros_like(t_dual), t_dual, tol)


def kernel_parts(a: OVFrame, stacked, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """P_ker G for each stacked matrix G, as G - Q (Q^* G) from one range basis Q,
    without forming P_ker."""
    q = range_basis(a, tol)
    return [g - q @ (q.conj().T @ g) for g in stacked]


def kernel_samples(
    a: OVFrame, count: int, rng: np.random.Generator, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """A (count, N k, n) stack of kernel perturbations P_ker G, one per complex
    Gaussian G of the shape of T_A, drawn from ``rng`` member by member, real part
    then imaginary part. Every kernel perturbation of the package is drawn here."""
    shape = a.analysis.shape
    draws = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(count))
    return np.array(kernel_parts(a, draws, tol), dtype=np.complex128).reshape(-1, *shape)


def sample_ov_duals(
    a: OVFrame, count: int, rng: np.random.Generator, tol: ToleranceConfig
) -> np.ndarray:
    """The (count, N k, n) stack of dual analyses T_A S_A^-1 + L, L the kernel
    perturbations of :func:`kernel_samples`, once ``a`` passes the frame test; the
    L stack is checked to annihilate T_A once, at ``tol``."""
    frame_operator_inverse(a, tol)
    stack = kernel_samples(a, count, rng, tol)
    annihilation_defects(a, stack, tol)
    return a.canonical_analysis + stack


def _kernel_column(q: np.ndarray, r: int) -> np.ndarray:
    """P_ker[:, r] = e_r - Q Q[r, :]^* for the range basis ``q``."""
    e_r = np.zeros(q.shape[0], dtype=np.complex128)
    e_r[r] = 1.0
    return e_r - q @ q[r].conj()


def _family_member(
    a: OVFrame, t_dual: np.ndarray, q, index: int, tol: ToleranceConfig
) -> DualCandidate:
    """Member ``index`` of the dual family, checked at ``tol``: L = 0 for index 0,
    then P_ker E_rs in row-major order of (r, s); ``q`` is the range basis, unused
    for index 0."""
    l = np.zeros_like(t_dual)
    if index:
        r, s = divmod(index - 1, t_dual.shape[1])
        l[:, s] = _kernel_column(q, r)
    return DualCandidate(a, l, t_dual + l, tol)


def _check_annihilator(
    a: OVFrame, q: np.ndarray, pt: np.ndarray, tol: ToleranceConfig
) -> np.ndarray:
    """The DualCandidate condition L^* T = 0 at ``tol`` for every L = P_ker E_rs at
    once, given the range basis ``q`` and ``pt`` = P_ker^* T_A.

    (P_ker E_rs)^* T is zero except for row s, which is row r of P_ker^* T,
    and ||P_ker E_rs|| = ||P_ker[:, r]|| = sqrt(1 - ||Q[r, :]||^2). Returns
    these column norms.
    """
    col_norms = np.sqrt(np.maximum(0.0, 1.0 - np.linalg.norm(q, axis=1) ** 2))
    defects = np.linalg.norm(pt, axis=1)
    if np.any(relative_defect(defects, a.analysis_norm * col_norms) > tol.eq_rel):
        raise ContractViolationError("perturbation does not annihilate the analysis operator")
    return col_norms


def sweep_dual_family(a: OVFrame, t_prime, threshold: float, tol: ToleranceConfig):
    """First member of the dual family (see :func:`_family_member`) with
    ||T_D^* T' - I|| > ``threshold``.

    Sweeps the whole family and returns ``(witness, residual, checked)``: the
    first member whose residual exceeds ``threshold`` as a DualCandidate with
    its residual and ``checked`` = its index + 1, or None with a certified
    upper bound on every member's residual and ``checked`` = 1 + N k n, the
    family's size.

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
    frame_operator_inverse(a, tol)
    t, t_dual = a.analysis, a.canonical_analysis
    t_prime = as_matrix(t_prime)
    if t_prime.shape != t.shape:
        raise ContractViolationError(
            f"second analysis operator must have shape {t.shape}, got {t_prime.shape}"
        )
    rows, cols = t.shape
    base = float(duality_defects(t_dual[None], t_prime)[0])
    if base > threshold:
        return _family_member(a, t_dual, None, 0, tol), base, 1
    q = range_basis(a, tol)
    pt, x = kernel_parts(a, [t, t_prime], tol)
    col_norms = _check_annihilator(a, q, pt, tol)
    x_norms = np.linalg.norm(x, axis=1)
    size = (np.linalg.norm(t_dual) + col_norms.max()) * np.linalg.norm(t_prime)
    margin = 8.0 * (rows + cols) * np.finfo(float).eps * (size + np.sqrt(cols))
    upper = base + x_norms + margin
    above_all = np.abs(base - x_norms) - margin > threshold
    worst = base
    for r in range(rows):
        if upper[r] <= threshold:
            worst = max(worst, float(upper[r]))
        else:
            members = np.arange(1 if above_all[r] else cols)
            d = np.repeat(t_dual[None], members.size, axis=0)
            d[members, :, members] += _kernel_column(q, r)
            res = duality_defects(d, t_prime)
            above = np.flatnonzero(res > threshold)
            if above.size:
                index = 1 + r * cols + int(above[0])
                return _family_member(a, t_dual, q, index, tol), float(res[above[0]]), index + 1
            worst = max(worst, float(res.max()))
    return None, worst, 1 + rows * cols


def _dual_family_svals(a: OVFrame, tol: ToleranceConfig) -> np.ndarray:
    """Read-only non-increasing singular values of B = [T_A S_A^-1 | P_ker], taken
    once per frame and rank cut of Q, the only input ``tol`` enters, without
    forming B.

    With C = T_A S_A^-1, BB^* - I = C C^* - Q Q^*, whose range lies in
    span[Q | C]. So for Z, the orthonormal QR factor of [Q | C] with p <= r + n
    columns, the singular values of B are those of
    Z^* B = [Z^* C | Z^* - (Z^* Q) Q^*] together with N k - p ones, exactly. B^* = [C^* ; P_ker] has the same
    spectrum.
    """
    frame_operator_inverse(a, tol)
    t_dual = a.canonical_analysis
    q = range_basis(a, tol)
    cut = q.shape[1]
    if cut not in a._family_svals:
        z_adj = np.linalg.qr(np.hstack([q, t_dual]))[0].conj().T
        zb = np.hstack([z_adj @ t_dual, z_adj - (z_adj @ q) @ q.conj().T])
        ones = np.ones(q.shape[0] - z_adj.shape[0])
        s = np.sort(np.concatenate([singular_values(zb), ones]))[::-1]
        s.flags.writeable = False
        a._family_svals[cut] = s
    return a._family_svals[cut]


def _dual_span_rank(a: OVFrame, tol: ToleranceConfig) -> int:
    """rank[T_A S_A^-1 | P_ker], the rank of the family's stacked analyses, by the
    rank rule for its larger side N k + n."""
    s = _dual_family_svals(a, tol)
    return int(svals_rank(s, s.size + a.domain_dim, tol))


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
    family's adjoint analyses have the row space of [(T_A S_A^-1)^* ; P_ker],
    the adjoint of the matrix whose rank :func:`dual_span_dimension` takes;
    the dual family annihilates only the zero sequence exactly when this is 0.
    """
    nullity = a.analysis.shape[0] - _dual_span_rank(a, tol)
    return int(nullity * a.domain_dim)
