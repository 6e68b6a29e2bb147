"""Dense complex linear algebra with a single shared tolerance policy.

Every matrix in the package is a numpy ``complex128`` array, coerced and
checked for finiteness by :func:`finite_array`. Every SVD in the package, of
one matrix or of an (m, r, c) stack, goes through :func:`svd` or
:func:`singular_values`, which take either and report non-convergence as
:class:`NumericFailureError`; so does the ``eigvalsh`` of :func:`eig_extremes`.
All rank, equality, and invertibility decisions route through one
:class:`ToleranceConfig` so that no two checks can disagree about what
counts as zero, and every relative residual and every ``eq_rel`` test takes
its comparison scale from one rule, :func:`relative_defect`; an inverse is
taken only where the caller has already applied the invertibility cutoff to
the same singular values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolationError, NumericFailureError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "FLOAT_MAX",
    "relative_defect",
    "saturated_product",
    "finite_array",
    "as_matrix",
    "svd",
    "singular_values",
    "svals_rank",
    "spectral_norm",
    "spectral_norms",
    "extreme_singular_values",
    "clears_inv_cutoff",
    "near_inv_cutoff",
    "eig_extremes",
    "clip_eig_bounds",
    "spectrum_schatten_norm",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative cutoffs used by every numerical verdict.

    rank_rel
        Singular values below ``rank_rel * max(rows, cols) * s_max`` are
        treated as zero when ranking.
    eq_rel
        Two operators are equal when the :func:`relative_defect` of their
        difference's norm against the comparison scale is at most ``eq_rel``.
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

FLOAT_MAX = float(np.finfo(np.float64).max)


def relative_defect(defect, scale):
    """``defect / max(1, scale)``, elementwise: the one comparison-scale rule, so a
    relative residual reads ``relative_defect(d, s)`` and an equality test
    ``relative_defect(d, s) <= eq_rel``. The scale floors at 1, and a NaN scale
    falls back to 1 (``np.fmax``), as Python's ``max(1.0, nan)`` does."""
    return defect / np.fmax(1.0, scale)


def saturated_product(*factors) -> float:
    """The product of finite non-negative factors, taken left to right, with an
    overflow saturated at :data:`FLOAT_MAX`: a norm bound formed this way stays
    finite and still bounds every finite norm the exact product bounds. A zero
    factor gives 0, so an overflowed partial product never meets it."""
    if 0.0 in factors:
        return 0.0
    return min(math.prod(map(float, factors)), FLOAT_MAX)


def finite_array(a, ndim: int, name: str) -> np.ndarray:
    """Coerce to a finite complex128 array with ``ndim`` axes, or raise
    :class:`ContractViolationError` naming ``name``."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != ndim:
        raise ContractViolationError(f"{name} must have {ndim} axes, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ContractViolationError(f"{name} contains NaN or Inf entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    return finite_array(a, 2, "matrix")


def _matrix_or_stack(a) -> np.ndarray:
    """Coerce to a finite complex128 matrix or (m, r, c) stack of matrices."""
    a = np.asarray(a, dtype=np.complex128)
    return finite_array(a, 3 if a.ndim == 3 else 2, "matrix or matrix stack")


def _lapack_svd(m: np.ndarray, **kwargs):
    """``np.linalg.svd`` of a validated matrix or stack, with non-convergence
    raised as :class:`NumericFailureError`."""
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        what = "stack of matrices" if m.ndim == 3 else "matrix"
        raise NumericFailureError(f"svd did not converge on a {what} of shape {m.shape}") from exc


def svd(a):
    """Thin singular value decomposition ``a = u @ diag(s) @ vh`` of a matrix, or of
    each matrix of an (m, r, c) stack from one LAPACK call, with a leading axis of
    length m on every factor; each matrix's factors are bit-for-bit those of the
    matrix alone.

    Returns
    -------
    (u, s, vh)
        ``u`` and ``vh.conj().T`` have orthonormal columns and ``s`` is
        non-increasing and non-negative.
    """
    return _lapack_svd(_matrix_or_stack(a), full_matrices=False)


def _svals(m: np.ndarray) -> np.ndarray:
    """Singular values of a validated matrix or stack, from one values-only SVD."""
    if min(m.shape[-2:]) == 0:
        return np.zeros((*m.shape[:-2], 0))
    return _lapack_svd(m, compute_uv=False)


def singular_values(a) -> np.ndarray:
    """Non-increasing singular values of a matrix, or (m, min(r, c)) of a stack."""
    return _svals(_matrix_or_stack(a))


def svals_rank(s: np.ndarray, size: int, tol: ToleranceConfig):
    """Numerical rank along the last axis of non-increasing singular values ``s`` of
    matrices whose larger side is ``size``: the count above the relative cutoff."""
    return np.count_nonzero(s > tol.rank_rel * size * s[..., :1], axis=-1)


def spectral_norm(a) -> float:
    s = _svals(as_matrix(a))
    return float(s[0]) if s.size else 0.0


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix in an (m, r, c) stack.

    Each entry is bit-for-bit the :func:`spectral_norm` of that matrix: the
    batched SVD runs the same LAPACK routine on every matrix of the stack.
    """
    s = _svals(finite_array(stack, 3, "matrix stack"))
    return s[:, 0] if s.shape[1] else np.zeros(len(s))


def extreme_singular_values(a):
    """``(s_min, s_max)`` of a matrix; ``(0.0, 0.0)`` when it has no singular values."""
    s = _svals(as_matrix(a))
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
    """Extreme eigenvalues ``(lo, hi)`` of a Hermitian matrix, from one ``eigvalsh``,
    with non-convergence raised as :class:`NumericFailureError`."""
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(
            f"eigvalsh did not converge on a matrix of shape {np.shape(a)}"
        ) from exc
    return float(w[0]), float(w[-1])


def clip_eig_bounds(lo: float, hi: float, tol: ToleranceConfig = DEFAULT_TOL):
    """Frame bounds ``(lo, hi)`` from the extreme eigenvalues of a Hermitian positive
    semidefinite matrix, with a rounding-level negative ``lo`` (its
    :func:`relative_defect` against ``hi`` at most ``eq_rel``) clipped to 0."""
    if lo < 0.0 and relative_defect(abs(lo), hi) <= tol.eq_rel:
        lo = 0.0
    return lo, hi


def spectrum_schatten_norm(s: np.ndarray, p: float) -> float:
    """``(sum_i s_i**p) ** (1/p)`` of singular values ``s``, taken as
    ``s_max * (sum_i (s_i / s_max)**p) ** (1/p)``, summed in the order given, so it
    overflows only where the norm itself does."""
    if p < 1:
        raise ContractViolationError(f"Schatten norm needs p >= 1, got {p}")
    top = float(np.max(s, initial=0.0))
    if top == 0.0:
        return 0.0
    return top * float(np.sum((s / top) ** p) ** (1.0 / p))
