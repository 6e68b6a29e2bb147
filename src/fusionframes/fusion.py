"""Weighted subspace sequences: projections, analysis/synthesis, bounds, excess.

A fusion sequence is a list of subspaces of C^n with non-negative weights,
subject to the compatibility rule that a weight vanishes exactly when its
subspace is zero. A sequence caches, read-only and on first use, the facts
of it that no tolerance enters: the (N, n, n) stack of its projections, its
frame operator S, the extreme eigenvalues of S, S^-1 and its embedding as
an operator-valued frame. Tolerance rules (the eigenvalue clip, the
invertibility cutoff, ranks) are applied at each call on top of these.
:func:`sandwich` builds every block sum sum_i c_i P_{V_i} X_i P_{W_i} (dual
composites and multipliers) from the projection stacks. Two coefficient
spaces appear throughout:

* the ambient stacked space C^(N*n), where block i of the analysis operator
  is w_i P_i, and
* the restricted space K_W of per-subspace coordinates, where synthesis is
  the block-column matrix [w_1 B_1 | ... | w_N B_N].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .exceptions import ContractViolationError, NotAFrameError
from .frames import VectorFrame, canonical_dual_ordinary
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    clears_inv_cutoff,
    clip_eig_bounds,
    eig_extremes,
    rank_tol,
    spectral_norms,
    svals_rank,
    svd,
)

__all__ = [
    "Subspace",
    "random_subspace",
    "projection",
    "FusionSequence",
    "block_sum",
    "sandwich",
    "block_deviation",
    "fusion_analysis_ambient",
    "fusion_synthesis_kw",
    "fusion_frame_operator",
    "inverse_frame_operator",
    "fusion_bounds",
    "is_fusion_frame",
    "FusionClassification",
    "classify",
    "excess",
    "scale_weights",
    "LocalFrameFamily",
    "build_local_frames",
]


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n held as an n x d matrix with orthonormal columns."""

    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        object.__setattr__(self, "basis", b)
        n, d = b.shape
        if d > n:
            raise ContractViolationError(f"subspace dimension {d} exceeds ambient {n}")
        if d:
            gram = b.conj().T @ b
            if float(np.linalg.norm(gram - np.eye(d))) > DEFAULT_TOL.eq_rel * max(1.0, d):
                raise ContractViolationError("basis columns are not orthonormal")

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(np.zeros((n, 0), dtype=np.complex128))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(np.eye(n, dtype=np.complex128))

    @classmethod
    def span(cls, vectors, tol: ToleranceConfig = DEFAULT_TOL) -> "Subspace":
        """Orthonormalize a spanning set (columns) into a canonical basis."""
        u, s, _ = svd(vectors)
        return cls(u[:, : int(svals_rank(s, max(np.shape(vectors)), tol))])

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def random_subspace(n: int, d: int, rng: np.random.Generator) -> Subspace:
    """Haar-random d-dimensional subspace of C^n.

    The basis is the phase-fixed QR orthonormalization of an n x d complex
    Gaussian matrix, which makes the draw unitarily invariant and exactly
    reproducible for a fixed generator state.
    """
    if d < 0 or d > n:
        raise ContractViolationError(f"need 0 <= d <= n, got d={d}, n={n}")
    if d == 0:
        return Subspace.zero(n)
    g = (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r).copy()
    diag[np.abs(diag) == 0.0] = 1.0
    phases = diag / np.abs(diag)
    return Subspace(q * phases.conj()[None, :])


def projection(w: Subspace) -> np.ndarray:
    """Orthogonal projection matrix basis @ basis^*."""
    return w.basis @ w.basis.conj().T


@dataclass(frozen=True, eq=False)
class FusionSequence:
    """Weighted subspaces (W_i, w_i) sharing one ambient space.

    Equality and hashing are by identity, so a sequence can key the
    multiplier memo of a :class:`multipliers.Symbol`. The weights are a
    read-only copy of the array given.
    """

    subspaces: tuple
    weights: np.ndarray

    def __post_init__(self):
        subs = tuple(self.subspaces)
        wts = np.array(self.weights, dtype=np.float64).ravel()
        wts.flags.writeable = False
        object.__setattr__(self, "subspaces", subs)
        object.__setattr__(self, "weights", wts)
        if len(subs) == 0:
            raise ContractViolationError("fusion sequence needs at least one block")
        if len(subs) != wts.size:
            raise ContractViolationError(
                f"{len(subs)} subspaces but {wts.size} weights"
            )
        if not np.all(np.isfinite(wts)) or np.any(wts < 0):
            raise ContractViolationError("weights must be finite and non-negative")
        n = subs[0].ambient_dim
        for i, (sub, wt) in enumerate(zip(subs, wts)):
            if sub.ambient_dim != n:
                raise ContractViolationError("subspaces live in different ambient spaces")
            if (sub.dim == 0) != (wt == 0.0):
                raise ContractViolationError(
                    f"block {i}: zero subspace and zero weight must coincide "
                    f"(dim={sub.dim}, weight={wt})"
                )

    @property
    def ambient_dim(self) -> int:
        return self.subspaces[0].ambient_dim

    @property
    def count(self) -> int:
        return len(self.subspaces)

    @property
    def dims(self):
        return tuple(s.dim for s in self.subspaces)

    @cached_property
    def projections(self) -> np.ndarray:
        """Read-only (N, n, n) stack of the projections P_i, built on first use."""
        stack = np.array([projection(s) for s in self.subspaces])
        stack.flags.writeable = False
        return stack

    @cached_property
    def frame_operator(self) -> np.ndarray:
        """Read-only S = sum_i w_i^2 P_i, built on first use."""
        s = block_sum((self.weights * self.weights)[:, None, None] * self.projections)
        s.flags.writeable = False
        return s

    @cached_property
    def frame_operator_inv(self) -> np.ndarray:
        """Read-only S^-1 from one inv on first use; read by :func:`inverse_frame_operator`."""
        inv = np.linalg.inv(self.frame_operator)
        inv.flags.writeable = False
        return inv

    @cached_property
    def frame_eigs(self) -> tuple:
        """Extreme eigenvalues (lo, hi) of S, unclipped, from one eigvalsh on first use."""
        return eig_extremes(self.frame_operator)

    @cached_property
    def embedding(self):
        """The B(C^n)-valued frame with blocks w_i P_i, read-only, built on first use."""
        from .ovf import OVFrame  # deferred: ovf imports this module at load time

        blocks = _weighted_projections(self)
        blocks.flags.writeable = False
        return OVFrame(blocks)


def block_sum(stack: np.ndarray) -> np.ndarray:
    """Sum of an (N, r, c) stack of blocks, as a running total in block order."""
    # for n = 1, .sum(axis=0) would sum pairwise and round differently
    total = np.zeros(stack.shape[1:], dtype=np.complex128)
    for term in stack:
        total += term
    return total


def sandwich(v: FusionSequence, w: FusionSequence, coeffs, middle=None) -> np.ndarray:
    """sum_i coeffs_i P_{V_i} X_i P_{W_i}, with ``middle`` an (N, n, n) stack
    of the X_i, one shared n x n matrix, or None for P_{V_i} P_{W_i}."""
    if v.count != w.count or v.ambient_dim != w.ambient_dim:
        raise ContractViolationError("sequences must share length and ambient dimension")
    inner = v.projections if middle is None else v.projections @ middle
    return block_sum(np.asarray(coeffs)[:, None, None] * (inner @ w.projections))


def _weighted_projections(f: FusionSequence) -> np.ndarray:
    return f.weights[:, None, None] * f.projections


def block_deviation(f: FusionSequence, g: FusionSequence) -> float:
    """max_i ||w_i P_i - w'_i P'_i||, the largest blockwise distance of two sequences."""
    if f.count != g.count or f.ambient_dim != g.ambient_dim:
        raise ContractViolationError("sequences must share length and ambient dimension")
    return float(spectral_norms(_weighted_projections(f) - _weighted_projections(g)).max())


def fusion_analysis_ambient(f: FusionSequence) -> np.ndarray:
    """(N*n) x n stack whose i-th block is w_i P_i."""
    return _weighted_projections(f).reshape(f.count * f.ambient_dim, f.ambient_dim)


def fusion_synthesis_kw(f: FusionSequence) -> np.ndarray:
    """n x (sum d_i) block column [w_1 B_1 | ... | w_N B_N] on K_W coordinates."""
    return np.hstack([w * s.basis for s, w in zip(f.subspaces, f.weights)])


def fusion_frame_operator(f: FusionSequence) -> np.ndarray:
    """S = sum_i w_i^2 P_i, the read-only array cached on ``f``."""
    return f.frame_operator


def inverse_frame_operator(f: FusionSequence, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """S^-1, cached on ``f``, once ``f`` passes the frame test at ``tol``."""
    if not is_fusion_frame(f, tol):
        raise NotAFrameError("S^-1 requires a fusion frame")
    return f.frame_operator_inv


def fusion_bounds(f: FusionSequence, tol: ToleranceConfig = DEFAULT_TOL):
    """Extreme eigenvalues (alpha, beta) of the fusion frame operator, clipped at ``tol``."""
    return clip_eig_bounds(*f.frame_eigs, tol)


def is_fusion_frame(f: FusionSequence, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return clears_inv_cutoff(*fusion_bounds(f, tol), tol)


@dataclass(frozen=True)
class FusionClassification:
    bessel: bool
    frame: bool
    riesz_fusion_basis: bool
    lower: float
    upper: float


def classify(f: FusionSequence, tol: ToleranceConfig = DEFAULT_TOL) -> FusionClassification:
    """Bessel / frame / Riesz flags.

    In finite dimensions every fusion sequence is Bessel. The Riesz flag
    requires the subspace dimensions to sum to n with the K_W synthesis
    having full rank n.
    """
    lo, hi = fusion_bounds(f, tol)
    frame = clears_inv_cutoff(lo, hi, tol)
    total = sum(f.dims)
    riesz = total == f.ambient_dim and rank_tol(fusion_synthesis_kw(f), tol) == f.ambient_dim
    return FusionClassification(bessel=True, frame=frame, riesz_fusion_basis=riesz, lower=lo, upper=hi)


def excess(f: FusionSequence, tol: ToleranceConfig = DEFAULT_TOL):
    """Excess in the ambient stacked space and in K_W.

    The ambient number is N*n minus the rank of the stacked analysis
    operator (the kernel dimension of its adjoint); the K_W number is
    sum(d_i) minus the rank of the block-column synthesis.
    """
    n, big_n = f.ambient_dim, f.count
    ambient = big_n * n - rank_tol(fusion_analysis_ambient(f), tol)
    kw = sum(f.dims) - rank_tol(fusion_synthesis_kw(f), tol)
    return int(ambient), int(kw)


def scale_weights(f: FusionSequence, factors) -> FusionSequence:
    """New sequence with weights |c_i| * w_i; blocks scaled to zero are emptied."""
    factors = np.abs(np.asarray(factors, dtype=np.complex128).ravel())
    if factors.size != f.count:
        raise ContractViolationError("one scale factor per block required")
    new_w = factors * f.weights
    subs = [
        s if wt > 0.0 else Subspace.zero(f.ambient_dim)
        for s, wt in zip(f.subspaces, new_w)
    ]
    return FusionSequence(tuple(subs), new_w)


@dataclass(frozen=True)
class LocalFrameFamily:
    """Per-block vector frames spanning each nonzero subspace, with duals.

    ``frames[i]`` and ``duals[i]`` are None exactly when block i is the zero
    subspace. ``alpha``/``beta`` witness the uniform local bounds
    inf alpha_i and sup beta_i over the nonzero blocks.
    """

    frames: tuple
    duals: tuple
    alpha: float
    beta: float


def build_local_frames(
    f: FusionSequence,
    redundancy: int,
    rng: np.random.Generator,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> LocalFrameFamily:
    """Random spanning frames of each W_i with d_i + redundancy unit vectors.

    One complex Gaussian draw per block against its stored basis: the QR
    factor of its first d_i columns, an orthonormal basis of W_i, and its
    other columns normalized. The local frame operator is then I + sum e e^*,
    with bounds in [1, 1 + redundancy]; ``alpha`` and ``beta`` are their exact
    extremes. Canonical local duals are computed within each subspace.
    """
    if redundancy < 0:
        raise ContractViolationError("redundancy must be non-negative")
    frames: list[Optional[VectorFrame]] = []
    duals: list[Optional[VectorFrame]] = []
    alpha, beta = np.inf, 0.0
    for sub in f.subspaces:
        d = sub.dim
        if d == 0:
            frames.append(None)
            duals.append(None)
            continue
        count = d + redundancy
        coeff = rng.standard_normal((d, count)) + 1j * rng.standard_normal((d, count))
        coeff[:, :d] = np.linalg.qr(coeff[:, :d])[0]
        coeff[:, d:] /= np.linalg.norm(coeff[:, d:], axis=0, keepdims=True)
        ev = np.linalg.eigvalsh(coeff @ coeff.conj().T)
        alpha = min(alpha, float(ev[0]))
        beta = max(beta, float(ev[-1]))
        phi = VectorFrame((sub.basis @ coeff).T)
        frames.append(phi)
        duals.append(canonical_dual_ordinary(phi, tol))
    if not np.isfinite(alpha):
        alpha = 0.0
    return LocalFrameFamily(tuple(frames), tuple(duals), alpha, beta)
