"""Ordinary vector frames in C^n: multipliers, sampled duals, inverse representation.

Bounds and the frame test of a vector frame are those of its embedding
(:func:`ovf.embed_ordinary`), and its sampled duals are the embedding's
canonical dual and the analysis stack of :func:`ovf.sample_ov_duals`, read
back as vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ovf
from .exceptions import ContractViolationError, NotInvertibleError
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    clears_inv_cutoff,
    extreme_singular_values,
    spectral_norm,
)

__all__ = [
    "VectorFrame",
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

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


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
    a = ovf.embed_ordinary(phi)
    canonical = ovf.canonical_ov_dual(a, tol).analysis
    duals = np.concatenate([canonical[None], ovf.sample_ov_duals(a, count - 1, rng, tol)])
    return [VectorFrame(d.conj()) for d in duals]


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
