"""Weighted subspace sequences: projections, analysis/synthesis, bounds, excess.

A fusion sequence is a list of subspaces of C^n with non-negative weights,
subject to the compatibility rule that a weight vanishes exactly when its
subspace is zero. Each fact that no tolerance enters has one owner, which
builds it read-only on first use:

* the sequence owns the (N, n, n) stack of its projections P_i and its
  embedding;
* the embedding, the operator-valued frame {w_i P_i} (:class:`ovf.OVFrame`),
  owns the blocks w_i P_i, which are the stacked analysis T, the frame
  operator S, the extreme eigenvalues of S (so the bounds and ||T||), S^-1
  from one inv, and the one thin SVD of T.

Every caller reads these facts through ``f.embedding``: the analysis
``f.embedding.analysis``, the bounds :func:`ovf.frame_bounds`, the frame test
:func:`ovf.is_frame` and S^-1 behind that test
(:func:`ovf.frame_operator_inverse`), so a sequence and its embedding cannot
disagree about being a frame. The rank of T, cut from its one SVD by
:func:`ovf.range_basis`, gives both excess numbers and the Riesz test, since
the K_W synthesis has the nonzero singular values of T. Tolerance rules (the
eigenvalue clip, the invertibility cutoff, ranks) are applied at each call on
top of the cached facts. :func:`sandwich` builds every block sum
sum_i c_i P_{V_i} X_i P_{W_i} (dual composites and multipliers) from the
projection stacks and an (N, n, n) stack of the X_i.

Two coefficient spaces appear throughout:

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

from .exceptions import ContractViolationError
from .frames import VectorFrame
from .numerics import (
    DEFAULT_TOL,
    FLOAT_MAX,
    ToleranceConfig,
    as_matrix,
    relative_defect,
    spectral_norms,
)
from .ovf import OVFrame, range_basis

__all__ = [
    "Subspace",
    "random_subspace",
    "projection",
    "frame_operator_fits",
    "FusionSequence",
    "block_sum",
    "sandwich",
    "block_deviation",
    "fusion_synthesis_kw",
    "is_riesz_fusion_basis",
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
            if relative_defect(np.linalg.norm(gram - np.eye(d)), d) > DEFAULT_TOL.eq_rel:
                raise ContractViolationError("basis columns are not orthonormal")

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(np.zeros((n, 0), dtype=np.complex128))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(np.eye(n, dtype=np.complex128))

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


def frame_operator_fits(weights) -> bool:
    """sum_i w_i^2, which bounds every entry of S = sum_i w_i^2 P_i, is at most the
    largest float, for finite non-negative weights. Compared as
    max_i w_i <= sqrt(max float / sum_i (w_i / max_i w_i)^2), which cannot overflow."""
    top = float(np.max(weights, initial=0.0))
    if top == 0.0:
        return True
    return top <= np.sqrt(FLOAT_MAX / float(np.sum((weights / top) ** 2)))


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
        if not frame_operator_fits(wts):
            raise ContractViolationError(
                "weights too large: sum_i w_i^2, the scale of the frame operator, overflows"
            )
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
    def embedding(self) -> OVFrame:
        """The B(C^n)-valued frame with read-only blocks w_i P_i, built on first use."""
        blocks = self.weights[:, None, None] * self.projections
        blocks.flags.writeable = False
        return OVFrame(blocks)


def block_sum(stack: np.ndarray) -> np.ndarray:
    """Sum of an (N, r, c) stack of blocks, as a running total in block order."""
    # for n = 1, .sum(axis=0) would sum pairwise and round differently
    total = np.zeros(stack.shape[1:], dtype=np.complex128)
    for term in stack:
        total += term
    return total


def sandwich(v: FusionSequence, w: FusionSequence, coeffs, middle) -> np.ndarray:
    """sum_i coeffs_i P_{V_i} X_i P_{W_i}, with ``middle`` the (N, n, n) stack of the X_i."""
    if v.count != w.count or v.ambient_dim != w.ambient_dim:
        raise ContractViolationError("sequences must share length and ambient dimension")
    if np.shape(middle) != v.projections.shape:
        raise ContractViolationError(
            f"middle must be a {v.projections.shape} stack, got shape {np.shape(middle)}"
        )
    return block_sum(np.asarray(coeffs)[:, None, None] * (v.projections @ middle @ w.projections))


def block_deviation(f: FusionSequence, g: FusionSequence) -> float:
    """max_i ||w_i P_i - w'_i P'_i||, the largest blockwise distance of two sequences."""
    if f.count != g.count or f.ambient_dim != g.ambient_dim:
        raise ContractViolationError("sequences must share length and ambient dimension")
    return float(spectral_norms(f.embedding.blocks - g.embedding.blocks).max())


def fusion_synthesis_kw(f: FusionSequence) -> np.ndarray:
    """n x (sum d_i) block column [w_1 B_1 | ... | w_N B_N] on K_W coordinates."""
    return np.hstack([w * s.basis for s, w in zip(f.subspaces, f.weights)])


def is_riesz_fusion_basis(f: FusionSequence, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """The subspace dimensions sum to n and the analysis has rank n at ``tol``, read
    from :func:`ovf.range_basis` (the K_W synthesis has the same rank; see
    :func:`excess`)."""
    n = f.ambient_dim
    return sum(f.dims) == n and range_basis(f.embedding, tol).shape[1] == n


def excess(f: FusionSequence, tol: ToleranceConfig = DEFAULT_TOL):
    """Excess in the ambient stacked space and in K_W: (N n - r, sum(d_i) - r).

    r is the rank of the stacked analysis T at ``tol``, the column count of
    :func:`ovf.range_basis`, from the one SVD cached on the embedding. It is also
    the rank of the K_W synthesis: with J = blockdiag(B_1, ..., B_N), an isometry,
    T = J [w_1 B_1 | ... | w_N B_N]^*, so both have the same nonzero singular values.
    """
    r = range_basis(f.embedding, tol).shape[1]
    return int(f.count * f.ambient_dim - r), int(sum(f.dims) - r)


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


MAX_REDUNDANCY = 64  # local vectors beyond a basis per block; the n and N limit of instances


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
) -> LocalFrameFamily:
    """Random spanning frames of each W_i with d_i + redundancy unit vectors.

    One complex Gaussian draw per block against its stored basis: the QR
    factor of its first d_i columns, an orthonormal basis of W_i, and its
    other columns normalized. The local frame operator is then I + sum e e^*,
    with bounds in [1, 1 + redundancy]; ``alpha`` and ``beta`` are their exact
    extremes. ``redundancy`` must lie in 0..MAX_REDUNDANCY, checked before any
    draw.

    The canonical local duals are taken in coordinates. With B the stored basis
    and C the coefficients, the frame is B C and its frame operator on C^n is
    B (C C^*) B^*, whose pseudoinverse is B (C C^*)^-1 B^*, so the duals are
    B (C C^*)^-1 C: one d x d solve against the Gram matrix C C^*, whose
    eigenvalues are the bounds, and no n x n pseudoinverse.
    """
    if not 0 <= redundancy <= MAX_REDUNDANCY:
        raise ContractViolationError(
            f"local redundancy must be in 0..{MAX_REDUNDANCY}, got {redundancy}"
        )
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
        gram = coeff @ coeff.conj().T
        ev = np.linalg.eigvalsh(gram)
        alpha = min(alpha, float(ev[0]))
        beta = max(beta, float(ev[-1]))
        frames.append(VectorFrame((sub.basis @ coeff).T))
        duals.append(VectorFrame((sub.basis @ np.linalg.solve(gram, coeff)).T))
    if not np.isfinite(alpha):
        alpha = 0.0
    return LocalFrameFamily(tuple(frames), tuple(duals), alpha, beta)
