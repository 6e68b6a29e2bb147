"""The ordinary multiplier of two vector frames in C^n.

A frame of k vectors in C^n is a (k, n) complex128 array, one vector per row.
:func:`ordinary_multiplier` is the matrix the local-frame lift of a fusion
multiplier is compared against (:func:`multipliers.local_frame_equivalence`)."""

from __future__ import annotations

import numpy as np

from .exceptions import ContractViolationError
from .numerics import as_matrix

__all__ = ["ordinary_multiplier"]


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
