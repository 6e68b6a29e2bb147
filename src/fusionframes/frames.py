"""Ordinary vector frames in C^n: bounds, canonical duals, multipliers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolationError, NotInvertibleError
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    clears_inv_cutoff,
    clipped_eig_bounds,
    extreme_singular_values,
    pinv,
    spectral_norm,
)

__all__ = [
    "VectorFrame",
    "frame_operator",
    "frame_bounds_ordinary",
    "is_frame",
    "canonical_dual_ordinary",
    "ordinary_multiplier",
    "sample_ordinary_duals",
    "inverse_representation_ordinary",
]


@dataclass(frozen=True)
class VectorFrame:
    """A finite sequence of vectors in C^n, stored as the rows of a matrix."""

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", as_matrix(self.vectors))

    @classmethod
    def from_vectors(cls, vecs) -> "VectorFrame":
        return cls(np.array([np.asarray(v, dtype=np.complex128) for v in vecs]))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


def frame_operator(phi: VectorFrame) -> np.ndarray:
    """S = sum_i phi_i phi_i^*, Hermitian positive semidefinite."""
    v = phi.vectors
    return v.T @ v.conj()


def frame_bounds_ordinary(phi: VectorFrame, tol: ToleranceConfig = DEFAULT_TOL):
    """Extreme eigenvalues (alpha, beta) of the frame operator."""
    if phi.count == 0:
        raise ContractViolationError("frame bounds need at least one vector")
    return clipped_eig_bounds(frame_operator(phi), tol)


def is_frame(phi: VectorFrame, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return clears_inv_cutoff(*frame_bounds_ordinary(phi, tol), tol)


def canonical_dual_ordinary(phi: VectorFrame, tol: ToleranceConfig = DEFAULT_TOL) -> VectorFrame:
    """Dual vectors psi_i = pinv(S) phi_i, computed within the span of phi."""
    sp = pinv(frame_operator(phi), tol)
    return VectorFrame((sp @ phi.vectors.T).T)


def ordinary_multiplier(m, synth: VectorFrame, anal: VectorFrame) -> np.ndarray:
    """Matrix of x -> sum_i m_i <x, anal_i> synth_i.

    Synthesis and analysis roles are explicit arguments; there is no hidden
    convention about which frame analyzes and which reconstructs.
    """
    m = np.asarray(m, dtype=np.complex128).ravel()
    if len(m) != synth.count or synth.count != anal.count:
        raise ContractViolationError(
            f"length mismatch: {len(m)} symbols, {synth.count} synthesis and "
            f"{anal.count} analysis vectors"
        )
    if synth.dim != anal.dim:
        raise ContractViolationError("synthesis and analysis frames live in different spaces")
    return synth.vectors.T @ (m[:, None] * anal.vectors.conj())


def sample_ordinary_duals(
    phi: VectorFrame,
    count: int,
    rng: np.random.Generator,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Canonical dual of ``phi`` plus ``count - 1`` kernel-perturbed duals.

    Duals are drawn through the operator-valued dual parametrization of the
    embedded frame, so each returned frame ``d`` satisfies
    ``sum_i <x, d_i> phi_i = x``.
    """
    from . import ovf  # deferred: ovf imports this module at load time

    a = ovf.embed_ordinary(phi)
    shape = phi.vectors.shape
    seeds = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(count - 1)]
    duals = [ovf.canonical_ov_dual(a, tol)] + ovf.sample_ov_duals(a, seeds, tol)
    return [VectorFrame(d.analysis.conj()) for d in duals]


SAMPLED_DUALS = 5  # duals over which the inverse representation residual is taken


def inverse_representation_ordinary(
    m,
    synth: VectorFrame,
    anal: VectorFrame,
    tol: ToleranceConfig = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
):
    """Inverse of an invertible vector multiplier as a reciprocal multiplier.

    For M = ordinary_multiplier(m, synth, anal) invertible and m bounded away
    from zero, the frame ``psi_dag_i = M^-1 (m_i synth_i)`` represents the
    inverse: ``M^-1 = ordinary_multiplier(1/m, psi_dag, d)`` for every dual
    ``d`` of the synthesis frame. Returns ``(psi_dag, residual)`` where the
    residual is the worst relative deviation over sampled duals.
    """
    m = np.asarray(m, dtype=np.complex128).ravel()
    mat = ordinary_multiplier(m, synth, anal)
    sigma_min, sigma_max = extreme_singular_values(mat)
    if not clears_inv_cutoff(sigma_min, sigma_max, tol):
        raise NotInvertibleError(
            f"multiplier is singular at tolerance (sigma_min={sigma_min:.3e})",
            sigma_min=sigma_min,
        )
    if np.min(np.abs(m)) == 0.0:
        raise ContractViolationError("symbol is not semi-normalized: zero entry")
    minv = np.linalg.inv(mat)
    psi_dag = VectorFrame((minv @ (m[:, None] * synth.vectors).T).T)
    if rng is None:
        rng = np.random.default_rng(0x5EED)
    residual = 0.0
    scale = spectral_norm(minv)
    for d in sample_ordinary_duals(synth, SAMPLED_DUALS, rng, tol):
        rep = ordinary_multiplier(1.0 / m, psi_dag, d)
        residual = max(residual, spectral_norm(minv - rep) / scale)
    return psi_dag, residual
