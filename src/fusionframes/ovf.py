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
of the package, for a complex Gaussian G, is drawn in place into its slot of a
stack by :func:`_kernel_fill`.

The family is spanned by the canonical dual and the N*k*n members
T_A S_A^-1 + P_ker E_rs. Each P_ker E_rs is zero except for column s, which
is P_ker[:, r], so the certificates never materialise the family: the
stacked analyses have the column space of B = [T_A S_A^-1 | P_ker] and
their adjoints the row space of B^*. Both rank certificates read one
spectrum of B per frame and rank cut, taken from a matrix of at most
(r + n) rows (:func:`_dual_family_svals`). The reconstruction residual of
member (r, s) is that of the canonical dual updated by a rank-one term
whose norm is the norm of row r of P_ker^* T', so the sweep bounds each
stacked row r from one SVD and one product, and takes one batched SVD of a
row's members only where the bound leaves it undecided.

Perturbations are checked to annihilate T_A at the caller's eq_rel from two
stacked n x n products per stack (:func:`check_annihilation`), L^* T_A and
L^* L: a stack whose Frobenius bounds pass :func:`numerics.frobenius_screen`
takes no SVD, any other stack takes one stacked SVD of each, and a stack of
zeros takes none. The check raises or returns nothing; no defect value is
kept. Sampled duals travel as one (c, N k, n) stack of analyses, allocated once
by :func:`canonical_and_sampled_duals`: the canonical analysis T_A S_A^-1 in
slot 0, each L drawn into its own slot and checked once as one stack before
T_A S_A^-1 is added. A :class:`DualCandidate` records one dual built on its
own, the sweep's witness or one constructed directly; it checks its L as a
stack of one and derives its analysis from L. The swept members are checked
all at once from their column norms (:func:`_check_annihilator`), so only the
witness is checked twice.

Which object caches which fact, each built on first use, free of any
tolerance and returned through :func:`numerics.read_only`; the spectra per rank
cut are kept in a :func:`numerics.memo` table:

* an :class:`OVFrame` caches its frame operator S_A = T_A^* T_A, its bounds
  (the extreme eigenvalues of its Hermitian part, floored at 0), from which its
  frame test and ||T_A|| = sqrt(beta) are read, S_A^-1 from one inv behind
  that test, T_A S_A^-1 from that inverse, the thin SVD factors (U, s) of T_A,
  the one factorization of T_A, and, per rank cut of Q, the spectrum of B;
* a fusion sequence caches no operator fact beside these: its embedding
  ``f.embedding``, the OVFrame {w_i P_i}, owns its blocks, its stacked
  analysis, its S, its bounds and so its frame test, its S^-1 and the SVD of
  its range basis; its rank is read from the K_W synthesis spectrum.

The frame test :func:`is_frame` is a tolerance-free fact too: the cached
bounds against the one invertibility cutoff :data:`numerics.INV_REL`. It gates
the facts that exist only for a frame: :attr:`OVFrame.frame_operator_inv`
raises :class:`NotAFrameError` on a sequence that fails it, and caches nothing,
and T_A S_A^-1 (:attr:`OVFrame.canonical_analysis`) is read through it, so
neither can be read for a non-frame. Tolerance rules are applied per call on
top of the cached facts, each only where it decides: the rank cutoff that cuts
Q from U, and the annihilation test of :func:`_require_annihilation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ContractViolationError, NotAFrameError
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    clears_inv_cutoff,
    eig_extremes,
    finite_array,
    frobenius_screen,
    gram_norm_floors,
    memo,
    owned,
    read_only,
    relative_defect,
    singular_values,
    spectral_norms,
    svals_rank,
    svd,
)

__all__ = [
    "OVFrame",
    "is_frame",
    "DualCandidate",
    "check_annihilation",
    "duality_gaps",
    "duality_defects",
    "dual_slack",
    "range_basis",
    "kernel_parts",
    "kernel_samples",
    "canonical_and_sampled_duals",
    "sweep_dual_family",
    "dual_span_dimension",
    "null_bessel_certificate",
]


@dataclass(frozen=True, eq=False)
class OVFrame:
    """A sequence of k x n operator blocks, held as a read-only (N, k, n) array."""

    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", owned(finite_array(self.blocks, 3, "operator blocks")))

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
    def analysis(self) -> np.ndarray:
        """The (N*k) x n stacked analysis T_A, one view of the blocks for every read."""
        n_blocks, k, n = self.blocks.shape
        return self.blocks.reshape(n_blocks * k, n)

    @cached_property
    def frame_operator(self) -> np.ndarray:
        """Read-only S_A = T_A^* T_A, built on first use."""
        t = self.analysis
        return read_only(t.conj().T @ t)

    @cached_property
    def frame_bounds(self) -> tuple:
        """Frame bounds (alpha, beta) of every frame and fusion sequence: the extreme
        eigenvalues of S_A / 2 + S_A^* / 2, which cannot overflow, floored at 0."""
        s = self.frame_operator
        lo, hi = eig_extremes(s / 2.0 + s.conj().T / 2.0)
        return max(lo, 0.0), max(hi, 0.0)

    @cached_property
    def frame_operator_inv(self) -> np.ndarray:
        """Read-only S_A^-1 from one inv on first use, once the frame test
        :func:`is_frame` passes; :class:`NotAFrameError` otherwise."""
        if not is_frame(self):
            lo, hi = self.frame_bounds
            raise NotAFrameError(f"not a frame at tolerance (alpha={lo:.3e}, beta={hi:.3e})")
        return read_only(np.linalg.inv(self.frame_operator))

    @cached_property
    def canonical_analysis(self) -> np.ndarray:
        """Read-only T_A S_A^-1, the canonical dual's analysis, from the cached
        inverse on first use, so behind the same frame test."""
        return read_only(self.analysis @ self.frame_operator_inv)

    @cached_property
    def canonical_defect(self) -> float:
        """||(T_A S_A^-1)^* T_A - I||, the canonical dual's defect on T_A, from one SVD."""
        return float(duality_defects(self.canonical_analysis[None], self.analysis)[0])

    @cached_property
    def analysis_svd(self) -> tuple:
        """Read-only thin SVD factors ``(U, s)`` of T_A, non-increasing s, from one
        SVD on first use, read through its rank cut :func:`range_basis`."""
        return read_only(svd(self.analysis)[:2])

    @property
    def analysis_norm(self) -> float:
        """||T_A|| = sqrt(beta), beta the cached upper frame bound."""
        return float(np.sqrt(self.frame_bounds[1]))


def is_frame(a: OVFrame) -> bool:
    """The frame test: the cached bounds clear the invertibility cutoff
    :data:`numerics.INV_REL`."""
    return clears_inv_cutoff(*a.frame_bounds)


@dataclass(frozen=True, eq=False)
class DualCandidate:
    """A member T_A S_A^-1 + L of the dual family of ``base``, ``perturbation`` the
    stacked L, held read-only. The frame test of ``base`` and, at ``tol``, the
    membership of L in the annihilator of T_A are checked at construction, L as a
    stack of one; the stacked analysis of the dual is derived from L.
    """

    base: OVFrame
    perturbation: np.ndarray
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self):
        self.base.frame_operator_inv  # the frame test of the base, raising NotAFrameError
        l = owned(as_matrix(self.perturbation))
        object.__setattr__(self, "perturbation", l)
        check_annihilation(self.base, l[None], self.tol)

    @cached_property
    def analysis(self) -> np.ndarray:
        """Read-only T_A S_A^-1 + L, formed on first use."""
        return read_only(self.base.canonical_analysis + self.perturbation)


def _require_annihilation(a: OVFrame, defects, l_norms, tol: ToleranceConfig) -> None:
    """The DualCandidate condition: each defect ||L^* T_A|| relative to ||T_A|| ||L||,
    ``l_norms`` the ||L||, at most eq_rel at ``tol`` (:func:`numerics.relative_defect`),
    or :class:`ContractViolationError` naming the worst defect."""
    bad = relative_defect(defects, a.analysis_norm * l_norms) > tol.eq_rel
    if np.any(bad):
        raise ContractViolationError(
            "perturbation does not annihilate the analysis operator "
            f"(defect {defects[bad].max():.3e})"
        )


def check_annihilation(a: OVFrame, stack, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """The DualCandidate condition (:func:`_require_annihilation`) for each L of a
    (c, N k, n) stack, from the n x n products L^* T_A and L^* L; returns nothing.

    The stack passes without an SVD when :func:`numerics.frobenius_screen` passes
    its ||L^* T_A|| against the scale floor ||T_A|| (tr L^* L / n)^(1/2), at most
    ||T_A|| ||L|| (:func:`numerics.gram_norm_floors`); a screen pass implies the
    SVD's pass. Any other stack is decided from two stacked SVDs, ||L^* T_A||
    and ||L|| = ||L^* L||^(1/2). A stack of zeros, such as the canonical dual's
    L = 0, passes and takes no SVD."""
    if not stack.any():
        return
    adj = stack.conj().transpose(0, 2, 1)
    products, grams = adj @ a.analysis, adj @ stack
    scale_lo = a.analysis_norm * gram_norm_floors(grams)
    if frobenius_screen(products, tol.eq_rel, scale_lo) is None:
        _require_annihilation(a, spectral_norms(products), np.sqrt(spectral_norms(grams)), tol)


def duality_gaps(analyses: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The (c, n, n) stack of D^* T - I for each dual analysis D of ``analyses``, a
    (c, m, n) stack, against the m x n analysis ``t``, from one n x n product per
    member. Only n x n products are stacked, so no copy of the analyses is made."""
    shape = np.shape(analyses)
    if len(shape) != 3 or not shape[0] or shape[1:] != t.shape:
        raise ContractViolationError(
            f"dual analyses must be a stack of one or more {t.shape} matrices, got shape {shape}"
        )
    return np.array([d.conj().T @ t for d in analyses]) - np.eye(t.shape[1])


def duality_defects(analyses: np.ndarray, t: np.ndarray) -> np.ndarray:
    """||D^* T - I|| for each member of :func:`duality_gaps`, from one batched SVD;
    each entry is bit-for-bit the spectral norm of that member's matrix."""
    return spectral_norms(duality_gaps(analyses, t))


SAMPLED_DUALS = 5  # sampled duals per check: canonical and four drawn, or five drawn


def dual_slack(tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """10 eq_rel, the one threshold on :func:`duality_defects`: a sampled dual
    must stay within it, and a separating dual must exceed it."""
    return 10.0 * tol.eq_rel


def range_basis(a: OVFrame, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis Q of ran(T_A): the cached left singular vectors of T_A
    whose singular values clear the rank cutoff at ``tol``, so P_ker = I - Q Q^*. A
    fusion sequence's rank reads cut its K_W spectrum at the same size instead."""
    u, s = a.analysis_svd
    return u[:, : svals_rank(s, max(a.analysis.shape), tol)]


def kernel_parts(a: OVFrame, stacked, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """P_ker G for each stacked matrix G, as G - Q (Q^* G) from one range basis Q,
    without forming P_ker."""
    q = range_basis(a, tol)
    return [g - q @ (q.conj().T @ g) for g in stacked]


def _kernel_fill(a: OVFrame, out: np.ndarray, rng, tol: ToleranceConfig) -> np.ndarray:
    """Write P_ker G into each slot of the (c, N k, n) stack ``out`` and return it,
    G a complex Gaussian drawn from ``rng`` slot by slot, real part then imaginary
    part, projected in place through one range basis Q."""
    q = range_basis(a, tol)
    for slot in out:
        slot.real = rng.standard_normal(slot.shape)
        slot.imag = rng.standard_normal(slot.shape)
        slot -= q @ (q.conj().T @ slot)
    return out


def kernel_samples(
    a: OVFrame, count: int, rng: np.random.Generator, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """A (count, N k, n) stack of kernel perturbations P_ker G, one per complex
    Gaussian G of the shape of T_A, filled member by member (:func:`_kernel_fill`)."""
    return _kernel_fill(a, np.empty((count, *a.analysis.shape), dtype=np.complex128), rng, tol)


def canonical_and_sampled_duals(a: OVFrame, count: int, rng, tol: ToleranceConfig) -> np.ndarray:
    """The (count, N k, n) stack of dual analyses, allocated once: slot 0 the
    canonical analysis T_A S_A^-1, once ``a`` passes the frame test, and each later
    slot T_A S_A^-1 + L, L a kernel perturbation drawn into it from ``rng`` as
    :func:`kernel_samples` draws. The L stack is checked to annihilate T_A once,
    at ``tol``, before T_A S_A^-1 is added."""
    t_dual = a.canonical_analysis
    duals = np.empty((count, *t_dual.shape), dtype=np.complex128)
    duals[0] = t_dual
    sampled = _kernel_fill(a, duals[1:], rng, tol)
    check_annihilation(a, sampled, tol)
    sampled += t_dual
    return duals


def _kernel_column(q: np.ndarray, r: int) -> np.ndarray:
    """P_ker[:, r] = e_r - Q Q[r, :]^* for the range basis ``q``."""
    e_r = np.zeros(q.shape[0], dtype=np.complex128)
    e_r[r] = 1.0
    return e_r - q @ q[r].conj()


def _family_member(a: OVFrame, q, index: int, tol: ToleranceConfig) -> DualCandidate:
    """Member ``index`` of the dual family, checked at ``tol``: L = 0 for index 0,
    then P_ker E_rs in row-major order of (r, s); ``q`` is the range basis, unused
    for index 0."""
    l = np.zeros(a.analysis.shape, dtype=np.complex128)
    if index:
        r, s = divmod(index - 1, l.shape[1])
        l[:, s] = _kernel_column(q, r)
    return DualCandidate(a, read_only(l), tol)


def _check_annihilator(
    a: OVFrame, q: np.ndarray, pt: np.ndarray, tol: ToleranceConfig
) -> np.ndarray:
    """The DualCandidate condition (:func:`_require_annihilation`) for every
    L = P_ker E_rs at once, given the range basis ``q`` and ``pt`` = P_ker^* T_A.

    (P_ker E_rs)^* T is zero except for row s, which is row r of P_ker^* T,
    and ||P_ker E_rs|| = ||P_ker[:, r]|| = sqrt(1 - ||Q[r, :]||^2). Returns
    these column norms.
    """
    col_norms = np.sqrt(np.maximum(0.0, 1.0 - np.linalg.norm(q, axis=1) ** 2))
    _require_annihilation(a, np.linalg.norm(pt, axis=1), col_norms, tol)
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
    threshold when ||A|| + ||x_r|| + margin <= threshold, and those rows enter
    the bound at once. Each other row takes one batched SVD of its members
    (:func:`duality_defects`), each entry bit for bit that member's spectral
    norm, so the witness is the one a member by member sweep finds.

    The margin covers the rounding in both the bound and the member-wise
    residual. With u the unit roundoff, m x n the shape of T_A and
    F = (||T_A S_A^-1||_F + max_r ||P_ker[:, r]||) ||T'||_F + sqrt(n), the
    products are off by at most about m u F (standard dot-product bounds,
    with a factor for complex arithmetic), forming a column of a member and
    subtracting I by u F each, and each largest singular value by about n u F
    (backward stable SVD); 8 (m + n) u F covers the sum for both.
    """
    t, t_dual = a.analysis, a.canonical_analysis
    t_prime = as_matrix(t_prime)
    if t_prime.shape != t.shape:
        raise ContractViolationError(
            f"second analysis operator must have shape {t.shape}, got {t_prime.shape}"
        )
    rows, cols = t.shape
    base = a.canonical_defect if t_prime is t else float(duality_defects(t_dual[None], t_prime)[0])
    if base > threshold:
        return _family_member(a, None, 0, tol), base, 1
    q = range_basis(a, tol)
    pt, x = kernel_parts(a, [t, t_prime], tol)
    col_norms = _check_annihilator(a, q, pt, tol)
    x_norms = np.linalg.norm(x, axis=1)
    size = (np.linalg.norm(t_dual) + col_norms.max()) * np.linalg.norm(t_prime)
    margin = 8.0 * (rows + cols) * np.finfo(float).eps * (size + np.sqrt(cols))
    upper = base + x_norms + margin
    decided = upper <= threshold
    worst = float(np.max(upper[decided], initial=base))
    members = np.arange(cols)
    for r in np.flatnonzero(~decided).tolist():
        d = np.repeat(t_dual[None], cols, axis=0)
        d[members, :, members] += _kernel_column(q, r)
        res = duality_defects(d, t_prime)
        above = np.flatnonzero(res > threshold)
        if above.size:
            index = 1 + r * cols + int(above[0])
            return _family_member(a, q, index, tol), float(res[above[0]]), index + 1
        worst = max(worst, float(res.max()))
    return None, worst, 1 + rows * cols


def _dual_family_svals(a: OVFrame, tol: ToleranceConfig) -> np.ndarray:
    """Read-only non-increasing singular values of B = [T_A S_A^-1 | P_ker], taken
    once per frame and rank cut of Q, the only input ``tol`` enters, without
    forming B, and kept in the memo table ``a._family_svals``.

    With C = T_A S_A^-1, BB^* - I = C C^* - Q Q^*, whose range lies in
    span[Q | C]. So for Z, the orthonormal QR factor of [Q | C] with p <= r + n
    columns, the singular values of B are those of
    Z^* B = [Z^* C | Z^* - (Z^* Q) Q^*] together with N k - p ones, exactly. B^* = [C^* ; P_ker] has the same
    spectrum.
    """
    t_dual = a.canonical_analysis
    q = range_basis(a, tol)

    def build():
        z_adj = np.linalg.qr(np.hstack([q, t_dual]))[0].conj().T
        zb = np.hstack([z_adj @ t_dual, z_adj - (z_adj @ q) @ q.conj().T])
        ones = np.ones(q.shape[0] - z_adj.shape[0])
        return read_only(np.sort(np.concatenate([singular_values(zb), ones]))[::-1])

    return memo(a, "_family_svals", q.shape[1], build)


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
