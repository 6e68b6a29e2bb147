"""Ordinary vector frames in C^n: multipliers, sampled duals, inverse representation.

A frame of k vectors in C^n is a (k, n) complex128 array, one vector per row;
each function here passes it through :func:`numerics.as_matrix` on entry.
Bounds and the frame test of a vector frame are those of its embedding
(:func:`embed_ordinary`), and its sampled duals are the analysis stack of
:func:`ovf.canonical_and_sampled_duals` on the embedding, read back as vectors."""

from __future__ import annotations

import numpy as np

from . import ovf
from .exceptions import ContractViolationError, NotInvertibleError
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    clears_inv_cutoff,
    extreme_singular_values,
    read_only,
    spectral_norm,
)

__all__ = [
    "embed_ordinary",
    "ordinary_multiplier",
    "sample_ordinary_duals",
    "inverse_representation_ordinary",
]


def embed_ordinary(phi) -> ovf.OVFrame:
    """Vectors as rank-one analysis functionals: block i is the row phi_i^*."""
    return ovf.OVFrame(read_only(as_matrix(phi).conj()[:, None, :]))


def ordinary_multiplier(m, synth, anal) -> np.ndarray:
    """Matrix of x -> sum_i m_i <x, anal_i> synth_i.

    Synthesis and analysis roles are explicit arguments; there is no hidden
    convention about which frame analyzes and which reconstructs. A matrix that
    overflows raises :class:`ContractViolationError`.
    """
    m = np.asarray(m, dtype=np.complex128).ravel()
    synth, anal = as_matrix(synth), as_matrix(anal)
    if len(m) != len(synth) or len(synth) != len(anal):
        raise ContractViolationError(
            f"length mismatch: {len(m)} symbols, {len(synth)} synthesis and "
            f"{len(anal)} analysis vectors"
        )
    if synth.shape[1] != anal.shape[1]:
        raise ContractViolationError("synthesis and analysis frames live in different spaces")
    with np.errstate(over="ignore", invalid="ignore"):
        mat = synth.T @ (m[:, None] * anal.conj())
    if not np.isfinite(mat).all():
        raise ContractViolationError("multiplier overflows the float range")
    return mat


def sample_ordinary_duals(
    phi,
    count: int,
    rng: np.random.Generator,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Canonical dual of ``phi`` plus ``count - 1`` kernel-perturbed duals.

    Duals are drawn through the operator-valued dual parametrization of the
    embedded frame, so each returned frame ``d`` satisfies
    ``sum_i <x, d_i> phi_i = x``.
    """
    duals = ovf.canonical_and_sampled_duals(embed_ordinary(phi), count, rng, tol)
    return [d.conj() for d in duals]


def inverse_representation_ordinary(
    m,
    synth,
    anal,
    rng: np.random.Generator,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Inverse of an invertible vector multiplier as a reciprocal multiplier.

    For M = ordinary_multiplier(m, synth, anal) invertible and m bounded away
    from zero, the frame ``psi_dag_i = M^-1 (m_i synth_i)`` represents the
    inverse: ``M^-1 = ordinary_multiplier(1/m, psi_dag, d)`` for every dual
    ``d`` of the synthesis frame. Returns ``(psi_dag, residual)`` where the
    residual is the worst relative deviation over the canonical dual and
    ``ovf.SAMPLED_DUALS - 1`` duals drawn from ``rng``.
    """
    m = np.asarray(m, dtype=np.complex128).ravel()
    synth = as_matrix(synth)
    mat = ordinary_multiplier(m, synth, anal)
    sigma_min, sigma_max = extreme_singular_values(mat)
    if not clears_inv_cutoff(sigma_min, sigma_max):
        raise NotInvertibleError(
            f"multiplier is singular at tolerance (sigma_min={sigma_min:.3e})",
            sigma_min=sigma_min,
        )
    if np.min(np.abs(m)) == 0.0:
        raise ContractViolationError("symbol is not semi-normalized: zero entry")
    minv = np.linalg.inv(mat)
    psi_dag = (minv @ (m[:, None] * synth).T).T
    residual = 0.0
    scale = spectral_norm(minv)
    for d in sample_ordinary_duals(synth, ovf.SAMPLED_DUALS, rng, tol):
        rep = ordinary_multiplier(1.0 / m, psi_dag, d)
        residual = max(residual, spectral_norm(minv - rep) / scale)
    return psi_dag, residual
