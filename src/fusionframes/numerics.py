"""Dense complex linear algebra with a single shared tolerance policy.

Every matrix in the package is a numpy ``complex128`` array, coerced and checked for
finiteness by :func:`finite_array` unless built finite (``fusion._trusted``). Every
SVD in the package, of one matrix or of an (m, r, c) stack, goes through :func:`svd`
or :func:`singular_values`, which take either and report non-convergence as
:class:`NumericFailureError`; so does the ``eigvalsh`` of :func:`eig_extremes`. Each
SVD operand passes :func:`finite_array` first: LAPACK's SVD raises on a NaN but may
never return on an infinite entry, so an overflowed operand must end in
:class:`ContractViolationError` before it, not in a hang. A guard that only compares
spectral norms with a threshold first tries :func:`frobenius_screen`, which passes a
stack on certified Frobenius bounds at :data:`SCREEN_MARGIN` of the threshold and
takes no SVD; only a stack it leaves undecided takes the SVD.
All rank and equality decisions route through one :class:`ToleranceConfig`
so that no two checks can disagree about what counts as zero, and every
relative residual and every ``eq_rel`` test takes its comparison scale from
one rule, :func:`relative_defect`. Every invertibility decision, of a frame
operator, a symbol block or a multiplier, goes through the one constant
:data:`INV_REL` (:func:`clears_inv_cutoff`); an inverse is taken only where
the caller has already applied that cutoff to the same singular values.

Every cached fact is frozen by :func:`read_only`, every array handed to the public
constructor of a frame, sequence, symbol, subspace, candidate or local-frame family
is held by :func:`owned`, every memo table by :func:`memo`, and matrices of one
shape go to LAPACK as one stack grouped by :func:`by_shape`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolationError, NumericFailureError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "INV_REL",
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
    "SCREEN_MARGIN",
    "frobenius_screen",
    "gram_norm_floors",
    "clears_inv_cutoff",
    "near_inv_cutoff",
    "eig_extremes",
    "spectrum_schatten_norm",
    "read_only",
    "owned",
    "memo",
    "by_shape",
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
    """

    rank_rel: float = 1e-10
    eq_rel: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "eq_rel"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ContractViolationError(
                    f"{name} must lie strictly between 0 and 1, got {value!r}"
                )


DEFAULT_TOL = ToleranceConfig()

INV_REL = 1e-8  # a square operator is invertible when s_min > INV_REL * s_max

FLOAT_MAX = float(np.finfo(np.float64).max)
EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)


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


SCREEN_MARGIN = 0.5  # a Frobenius bound passes a norm only within half its threshold


def frobenius_screen(stack: np.ndarray, threshold: float, scale_lo=0.0):
    """Certified upper bounds on the spectral norms of an (m, r, c) stack when every
    one passes the screen at the finite ``threshold``, else None, from one sum of
    squares and no SVD.

    The bound on ||X||_2 is ||X||_F (||X||_2 <= ||X||_F <= sqrt(rank) ||X||_2,
    Golub and Van Loan, Matrix Computations, 2.3), with r c tiny added under the
    root for squares that underflow and a factor 1 + (r c + r + c) eps for the
    rounding of the sum and the backward error of an SVD, so it bounds the
    computed :func:`spectral_norms` too. The screen passes when every
    ``scale_lo``, a lower bound of the comparison scale, is finite and each
    bound's :func:`relative_defect` against its ``scale_lo`` is at most
    :data:`SCREEN_MARGIN` times ``threshold``, which no infinite or NaN bound
    is; a norm test ``relative_defect(norm, scale) <= threshold`` then passes
    for every matrix, so a guard that tests it decides as the SVD would. A
    stack that does not pass takes the SVD and its decision there, so an
    overflowed product still ends in the SVD's :func:`finite_array` error."""
    _, r, c = stack.shape
    x = np.ascontiguousarray(stack).view(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.einsum("kij,kij->k", x, x)
        bounds = np.sqrt(squares + r * c * TINY) * (1.0 + (r * c + r + c) * EPS)
    if np.isfinite(scale_lo).all() and (
        relative_defect(bounds, scale_lo) <= SCREEN_MARGIN * threshold
    ).all():
        return bounds
    return None


def gram_norm_floors(grams: np.ndarray) -> np.ndarray:
    """Lower bounds ||L||_2 >= (tr L^*L / n)^(1/2) from an (m, n, n) stack of Gram
    matrices L^*L, one per matrix; infinite where the trace overflows."""
    n = grams.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.einsum("kii->k", grams.real) / n)


def clears_inv_cutoff(lo: float, hi: float) -> bool:
    """The invertibility rule ``lo > INV_REL * hi`` on extreme singular values or bounds."""
    return bool(lo > INV_REL * hi)


def near_inv_cutoff(lo: float, hi: float) -> bool:
    """``lo`` lies within a factor 10 of the cutoff ``INV_REL * hi``, on either side."""
    cutoff = INV_REL * hi
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


def read_only(value):
    """Freeze an array, or each array of a tuple, and return it: every fact cached on
    a frame, symbol or multiplier is returned through here, so no caller can write
    into an array another caller reads."""
    for arr in value if isinstance(value, tuple) else (value,):
        arr.flags.writeable = False
    return value


def owned(a: np.ndarray) -> np.ndarray:
    """``a`` when it is read-only, else a read-only copy, so no later write by the
    caller reaches an object that holds it or a fact cached from it."""
    return read_only(a.copy()) if a.flags.writeable else a


def memo(owner, table: str, key, build):
    """Entry ``key`` of the memo table ``table``, a dict in ``owner.__dict__`` beside
    its cached properties: ``build()`` on first use per key, the same object after.
    Sequences hash by identity, so a key of sequences names the operands."""
    entries = vars(owner).setdefault(table, {})
    if key not in entries:
        entries[key] = build()
    return entries[key]


def by_shape(arrays) -> list:
    """``(indices, stack)`` for each distinct shape of ``arrays``, in order of first
    appearance: the list indices of the arrays of that shape, increasing, and the
    (k, ...) stack of those arrays, so that one LAPACK call serves a whole shape."""
    groups: dict = {}
    for i, a in enumerate(arrays):
        groups.setdefault(a.shape, []).append(i)
    return [(idx, np.array([arrays[i] for i in idx])) for idx in groups.values()]
