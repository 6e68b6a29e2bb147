"""Dense complex linear algebra with a single shared tolerance policy.

Every matrix in the package is a numpy ``complex128`` array, coerced and
checked for finiteness by :func:`finite_array`. Every SVD runs through one
LAPACK call that reports non-convergence as :class:`NumericFailureError`.
All rank, equality, and invertibility decisions route through one
:class:`ToleranceConfig` so that no two checks can disagree about what
counts as zero; an inverse is taken only where the caller has already
applied the invertibility cutoff to the same singular values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolationError, NumericFailureError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "finite_array",
    "as_matrix",
    "svd",
    "singular_values",
    "rank_tol",
    "svals_rank",
    "spectral_norm",
    "spectral_norms",
    "extreme_singular_values",
    "clears_inv_cutoff",
    "near_inv_cutoff",
    "eig_extremes",
    "clip_eig_bounds",
    "clipped_eig_bounds",
    "pinv",
    "schatten_norm",
    "spectrum_schatten_norm",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative cutoffs used by every numerical verdict.

    rank_rel
        Singular values below ``rank_rel * max(rows, cols) * s_max`` are
        treated as zero when ranking and pseudo-inverting.
    eq_rel
        Two operators are equal when their difference has norm at most
        ``eq_rel`` times the comparison scale.
    inv_rel
        A square operator is invertible when ``s_min > inv_rel * s_max``.
    """

    rank_rel: float = 1e-10
    eq_rel: float = 1e-8
    inv_rel: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "eq_rel", "inv_rel"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ContractViolationError(
                    f"{name} must lie strictly between 0 and 1, got {value!r}"
                )


DEFAULT_TOL = ToleranceConfig()


def finite_array(a, ndim: int, name: str) -> np.ndarray:
    """Coerce to a finite complex128 array with ``ndim`` axes, or raise
    :class:`ContractViolationError` naming ``name``."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != ndim:
        raise ContractViolationError(f"{name} must have {ndim} axes, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ContractViolationError(f"{name} contains NaN or Inf entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    return finite_array(a, 2, "matrix")


def _lapack_svd(m: np.ndarray, **kwargs):
    """``np.linalg.svd`` of a validated matrix or stack, with non-convergence
    raised as :class:`NumericFailureError`."""
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        what = "stack of matrices" if m.ndim == 3 else "matrix"
        raise NumericFailureError(f"svd did not converge on a {what} of shape {m.shape}") from exc


def svd(a):
    """Thin singular value decomposition ``a = u @ diag(s) @ vh``.

    Returns
    -------
    (u, s, vh)
        ``u`` and ``vh.conj().T`` have orthonormal columns and ``s`` is
        non-increasing and non-negative.
    """
    return _lapack_svd(as_matrix(a), full_matrices=False)


def singular_values(a) -> np.ndarray:
    m = as_matrix(a)
    if min(m.shape) == 0:
        return np.zeros(0)
    return _lapack_svd(m, compute_uv=False)


def rank_tol(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: count of singular values above the relative cutoff."""
    return int(svals_rank(singular_values(a), max(np.shape(a)), tol))


def svals_rank(s: np.ndarray, size: int, tol: ToleranceConfig):
    """:func:`rank_tol` along the last axis of non-increasing singular values ``s`` of
    matrices whose larger side is ``size``."""
    return np.count_nonzero(s > tol.rank_rel * size * s[..., :1], axis=-1)


def spectral_norm(a) -> float:
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix in an (m, r, c) stack.

    Each entry is bit-for-bit the :func:`spectral_norm` of that matrix: the
    batched SVD runs the same LAPACK routine on every matrix of the stack.
    """
    a = finite_array(stack, 3, "matrix stack")
    if min(a.shape[1:]) == 0:
        return np.zeros(a.shape[0])
    return _lapack_svd(a, compute_uv=False)[:, 0]


def extreme_singular_values(a):
    """``(s_min, s_max)`` of a matrix; ``(0.0, 0.0)`` when it has no singular values."""
    s = singular_values(a)
    if not s.size:
        return 0.0, 0.0
    return float(s[-1]), float(s[0])


def clears_inv_cutoff(lo: float, hi: float, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """The invertibility rule ``lo > inv_rel * hi`` on extreme singular values or bounds."""
    return bool(lo > tol.inv_rel * hi)


def near_inv_cutoff(lo: float, hi: float, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """``lo`` lies within a factor 10 of the cutoff ``inv_rel * hi``, on either side."""
    cutoff = tol.inv_rel * hi
    return bool(cutoff > 0.0 and cutoff / 10.0 < lo <= 10.0 * cutoff)


def eig_extremes(a):
    """Extreme eigenvalues ``(lo, hi)`` of a Hermitian matrix, from one ``eigvalsh``."""
    w = np.linalg.eigvalsh(a)
    return float(w[0]), float(w[-1])


def clip_eig_bounds(lo: float, hi: float, tol: ToleranceConfig = DEFAULT_TOL):
    """Frame bounds ``(lo, hi)`` from the extreme eigenvalues of a Hermitian positive
    semidefinite matrix, with a rounding-level negative ``lo`` (within
    ``eq_rel * max(1, hi)``) clipped to 0."""
    if lo < 0.0 and abs(lo) <= tol.eq_rel * max(1.0, hi):
        lo = 0.0
    return lo, hi


def clipped_eig_bounds(a, tol: ToleranceConfig = DEFAULT_TOL):
    """:func:`clip_eig_bounds` of the :func:`eig_extremes` of ``a``."""
    return clip_eig_bounds(*eig_extremes(a), tol)


def pinv(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse truncated at the rank cutoff."""
    m = as_matrix(a)
    if min(m.shape) == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    return np.linalg.pinv(m, rcond=tol.rank_rel * max(m.shape))


def schatten_norm(a, p: float) -> float:
    """Schatten p-norm ``(sum_i s_i**p) ** (1/p)`` for ``p >= 1``."""
    return spectrum_schatten_norm(singular_values(a), p)


def spectrum_schatten_norm(s: np.ndarray, p: float) -> float:
    """``(sum_i s_i**p) ** (1/p)`` of singular values ``s``, summed in the order given."""
    if p < 1:
        raise ContractViolationError(f"Schatten norm needs p >= 1, got {p}")
    if s.size == 0:
        return 0.0
    return float(np.sum(s**p) ** (1.0 / p))
