"""Weighted subspace sequences: projections, analysis/synthesis, bounds, excess.

A fusion sequence is a list of subspaces of C^n with non-negative weights,
subject to the compatibility rule that a weight vanishes exactly when its
subspace is zero; two sequences pair by :func:`check_pairing`. Each fact that no
tolerance enters has one owner, which builds it on first use and returns it
through :func:`numerics.read_only`:

* the sequence owns the tuple of its dimensions d_i, the (N, n, n) stack of
  its projections P_i, its embedding and the singular values of its K_W
  synthesis;
* the embedding, the operator-valued frame {w_i P_i} (:class:`ovf.OVFrame`),
  owns the blocks w_i P_i, which are the stacked analysis T, the frame
  operator S, the frame bounds (so ||T||), S^-1 from one inv, and the one
  thin SVD of T, which only P_ker reads.

Every caller reads these facts through ``f.embedding``: the analysis
``f.embedding.analysis``, the bounds ``f.embedding.frame_bounds``, the frame test
:func:`ovf.is_frame` and S^-1 (``f.embedding.frame_operator_inv``, which raises
:class:`NotAFrameError` unless that test passes), so a sequence and its
embedding cannot disagree about being a frame. The rank of T, cut from the K_W
synthesis spectrum (the nonzero singular values of T) as :func:`ovf.range_basis`
cuts, gives both excess numbers and the Riesz test with no embedding. Tolerance
rules (the invertibility cutoff, ranks) are applied at each call on top of the
cached facts. :func:`sandwich` builds every block sum
sum_i c_i P_{V_i} X_i P_{W_i} (dual composites and multipliers) from the
projection stacks and an (N, n, n) stack of the X_i.

Bases of one shape are tested, and local frames of one dimension factored, as
one stack from :func:`numerics.by_shape`; what the package builds is held by
:func:`_trusted` without a test where its rules hold by construction. The
reweighted sequence of :func:`scale_weights` is held that way as a view of its
parent: it shares the parent's subspaces and projection stack, replaces only
the blocks the scaling empties (one zero subspace, and zeros in one masked
copy of the stack), and tests only the rules a new weight can break.

Two coefficient spaces appear throughout:

* the ambient stacked space C^(N*n), where block i of the analysis operator
  is w_i P_i, and
* the restricted space K_W of per-subspace coordinates, where synthesis is
  the block-column matrix [w_1 B_1 | ... | w_N B_N].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ContractViolationError
from .numerics import (
    DEFAULT_TOL,
    FLOAT_MAX,
    ToleranceConfig,
    as_matrix,
    by_shape,
    memo,
    owned,
    read_only,
    relative_defect,
    singular_values,
    spectral_norms,
    svals_rank,
)
from .ovf import OVFrame

__all__ = [
    "Subspace",
    "orthonormal_subspaces",
    "leading_subspaces",
    "subspace_draw",
    "haar_subspaces",
    "random_subspace",
    "orthogonal_split",
    "projection",
    "frame_operator_fits",
    "FusionSequence",
    "check_pairing",
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


@np.errstate(over="ignore", invalid="ignore")
def _orthonormality_faults(stack: np.ndarray) -> np.ndarray:
    """The orthonormality rule on a (k, n, d) stack: True where a matrix B fails it,
    that is where ||B^* B - I|| in Frobenius norm, relative to max(1, d)
    (:func:`relative_defect`), exceeds ``eq_rel`` at the default tolerance or is NaN.
    A non-finite entry makes B^* B non-finite, and so does an overflow, so both fail."""
    d = stack.shape[-1]
    gram = stack.conj().transpose(0, 2, 1) @ stack
    defects = relative_defect(np.linalg.norm(gram - np.eye(d), axis=(1, 2)), d)
    return ~(defects <= DEFAULT_TOL.eq_rel)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n held as a read-only n x d matrix with orthonormal columns.
    Equality and hashing are by identity, as for every class that holds arrays."""

    basis: np.ndarray

    def __post_init__(self):
        b = owned(as_matrix(self.basis))
        object.__setattr__(self, "basis", b)
        n, d = b.shape
        if d > n:
            raise ContractViolationError(f"subspace dimension {d} exceeds ambient {n}")
        if d and _orthonormality_faults(b[None])[0]:
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


def _trusted(cls, *values):
    """A ``cls`` on ``values`` in field order, arrays (also in tuples) frozen in place and
    ``__post_init__`` not run: the one path for a holder the package built whose rules
    hold by construction. QR and SVD factors are orthonormal to O(n u) (Higham, 19.3)."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values, strict=True):
        object.__setattr__(obj, name, value)
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
    return obj


def orthonormal_subspaces(bases, names=None) -> tuple:
    """One :class:`Subspace` per n x d complex128 matrix of ``bases``, any mix of shapes,
    under the rules of :class:`Subspace` applied once to the stack of each shape from
    :func:`numerics.by_shape`, each basis then held as a row of its stack. A failure
    raises ContractViolationError naming the first faulty matrix in list order by
    ``names[i]`` (default ``basis i``), as non-finite if it has a NaN or Inf entry."""
    bases = list(bases)
    subs = [None] * len(bases)
    faulty = np.zeros(len(bases), dtype=bool)
    for idx, stack in by_shape(bases):
        if stack.shape[-1]:  # an empty basis has nothing to test
            faulty[idx] = _orthonormality_faults(stack)
        for i, b in zip(idx, stack):
            subs[i] = _trusted(Subspace, b)
    if faulty.any():
        i = int(np.argmax(faulty))
        name = f"basis {i}" if names is None else names[i]
        raise ContractViolationError(
            f"{name}: basis columns are not orthonormal" if np.isfinite(subs[i].basis).all()
            else f"{name} contains NaN or Inf entries"
        )
    return tuple(subs)


def leading_subspaces(stack: np.ndarray, ranks) -> tuple:
    """The subspace spanned by the first ``ranks[i]`` columns of matrix i of a (k, n, m)
    stack of U factors of :func:`numerics.svd`, whose operand passed its finiteness scan,
    held without a test: each leading block of a U has orthonormal columns."""
    return tuple(_trusted(Subspace, u[:, :r]) for u, r in zip(stack, ranks))


def subspace_draw(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """The n x d complex Gaussian draw whose column span is a Haar-random
    d-dimensional subspace of C^n (see :func:`haar_subspaces`)."""
    if d < 0 or d > n:
        raise ContractViolationError(f"need 0 <= d <= n, got d={d}, n={n}")
    return (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) / np.sqrt(2.0)


def _phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """The Q factors of the QR factorizations of a (k, n, d) stack, one stacked LAPACK
    call, each column scaled by the conjugate phase of its diagonal entry of R."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[np.abs(diag) == 0.0] = 1.0
    phases = diag / np.abs(diag)
    return q * phases.conj()[:, None, :]


def haar_subspaces(draws) -> tuple:
    """The Haar-random subspaces spanned by :func:`subspace_draw` draws of any mix of
    dimensions: one phase-fixed QR per distinct dimension, which makes each draw
    unitarily invariant, and each Q held without a test, bit for bit the one the draw
    would give alone, since a stacked QR runs the same LAPACK routine on every matrix."""
    draws = list(draws)
    subs = [None] * len(draws)
    for idx, g in by_shape(draws):
        for i, b in zip(idx, _phase_fixed_q(g) if g.shape[-1] else g):
            subs[i] = _trusted(Subspace, b)
    return tuple(subs)


def random_subspace(n: int, d: int, rng: np.random.Generator) -> Subspace:
    """Haar-random d-dimensional subspace of C^n.

    The basis is the phase-fixed QR orthonormalization of an n x d complex
    Gaussian matrix, which makes the draw unitarily invariant and exactly
    reproducible for a fixed generator state.
    """
    return haar_subspaces([subspace_draw(n, d, rng)])[0]


def orthogonal_split(unitary: Subspace, dims) -> tuple:
    """Mutually orthogonal subspaces of C^n of the given dims, spanned by consecutive
    column blocks of the n x n ``unitary``; each block, whose Gram matrix is a
    diagonal block of the unitary's, is held without a test."""
    n = unitary.ambient_dim
    if sum(dims) != n or any(d < 0 for d in dims):
        raise ContractViolationError(f"dims {tuple(dims)} must be non-negative and sum to {n}")
    stops = np.cumsum(dims)
    return tuple(_trusted(Subspace, unitary.basis[:, stop - d : stop]) for d, stop in zip(dims, stops))


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


def _check_weights(wts: np.ndarray) -> None:
    """The rules a weight vector breaks alone: finite, non-negative, and a frame
    operator that fits (:func:`frame_operator_fits`), or ContractViolationError."""
    if not np.all(np.isfinite(wts)) or np.any(wts < 0):
        raise ContractViolationError("weights must be finite and non-negative")
    if not frame_operator_fits(wts):
        raise ContractViolationError(
            "weights too large: sum_i w_i^2, the scale of the frame operator, overflows"
        )


@dataclass(frozen=True, eq=False)
class FusionSequence:
    """Weighted subspaces (W_i, w_i) sharing one ambient space.

    Equality and hashing are by identity, so a sequence can key the
    multiplier memo of a :class:`multipliers.Symbol`. The weights are held
    read-only (:func:`numerics.owned`).
    """

    subspaces: tuple
    weights: np.ndarray

    def __post_init__(self):
        subs = tuple(self.subspaces)
        wts = owned(np.asarray(self.weights, dtype=np.float64).ravel())
        object.__setattr__(self, "subspaces", subs)
        object.__setattr__(self, "weights", wts)
        if len(subs) == 0:
            raise ContractViolationError("fusion sequence needs at least one block")
        if len(subs) != wts.size:
            raise ContractViolationError(
                f"{len(subs)} subspaces but {wts.size} weights"
            )
        _check_weights(wts)
        ambient, dims = np.array([s.basis.shape for s in subs]).T
        bad = (ambient != ambient[0]) | ((dims == 0) != (wts == 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            if ambient[i] != ambient[0]:
                raise ContractViolationError("subspaces live in different ambient spaces")
            raise ContractViolationError(
                f"block {i}: zero subspace and zero weight must coincide "
                f"(dim={dims[i]}, weight={wts[i]})"
            )

    @property
    def ambient_dim(self) -> int:
        return self.subspaces[0].ambient_dim

    @property
    def count(self) -> int:
        return len(self.subspaces)

    @cached_property
    def dims(self) -> tuple:
        """The subspace dimensions d_i, read once from the bases."""
        return tuple(s.dim for s in self.subspaces)

    @cached_property
    def projections(self) -> np.ndarray:
        """Read-only (N, n, n) stack of the projections P_i, built on first use."""
        return read_only(np.array([projection(s) for s in self.subspaces]))

    @cached_property
    def embedding(self) -> OVFrame:
        """The B(C^n)-valued frame {w_i P_i}, built on first use; its blocks, finite for
        finite weights, are held without a scan."""
        return _trusted(OVFrame, self.weights[:, None, None] * self.projections)

    @cached_property
    def synthesis_svals(self) -> np.ndarray:
        """Read-only singular values of :func:`fusion_synthesis_kw`, non-increasing,
        from one values-only SVD on first use."""
        return read_only(singular_values(fusion_synthesis_kw(self)))


def check_pairing(v: FusionSequence, w: FusionSequence) -> None:
    """The pairing rule of every operation on two sequences: they share length and
    ambient dimension, or ContractViolationError."""
    if v.count != w.count or v.ambient_dim != w.ambient_dim:
        raise ContractViolationError("sequences must share length and ambient dimension")


def block_sum(stack: np.ndarray) -> np.ndarray:
    """Sum of an (N, r, c) stack of blocks, as a running total in block order."""
    # for n = 1, .sum(axis=0) would sum pairwise and round differently
    total = np.zeros(stack.shape[1:], dtype=np.complex128)
    for term in stack:
        total += term
    return total


def sandwich(v: FusionSequence, w: FusionSequence, coeffs, middle) -> np.ndarray:
    """sum_i coeffs_i P_{V_i} X_i P_{W_i}, with ``middle`` the (N, n, n) stack of the X_i."""
    check_pairing(v, w)
    if np.shape(middle) != v.projections.shape:
        raise ContractViolationError(
            f"middle must be a {v.projections.shape} stack, got shape {np.shape(middle)}"
        )
    return block_sum(np.asarray(coeffs)[:, None, None] * (v.projections @ middle @ w.projections))


def block_deviation(f: FusionSequence, g: FusionSequence) -> float:
    """max_i ||w_i P_i - w'_i P'_i||, kept in ``g``'s memo table ``_deviations`` keyed
    by ``f``, so a copy drawn from ``f`` carries its distance and ``f`` holds none."""
    check_pairing(f, g)
    if f is g:  # each block minus itself is exactly 0; a self key would be a cycle
        return 0.0
    blocks = f.embedding.blocks, g.embedding.blocks
    return memo(g, "_deviations", f, lambda: float(spectral_norms(blocks[0] - blocks[1]).max()))


def fusion_synthesis_kw(f: FusionSequence) -> np.ndarray:
    """n x (sum d_i) block column [w_1 B_1 | ... | w_N B_N] on K_W coordinates."""
    return np.hstack([w * s.basis for s, w in zip(f.subspaces, f.weights)])


def _rank(f: FusionSequence, tol: ToleranceConfig) -> int:
    """The rank of T at ``tol`` (see :func:`excess`)."""
    return int(svals_rank(f.synthesis_svals, f.count * f.ambient_dim, tol))


def is_riesz_fusion_basis(f: FusionSequence, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """The subspace dimensions sum to n and the analysis has rank n at ``tol``, read
    as by :func:`excess`."""
    n = f.ambient_dim
    return sum(f.dims) == n and _rank(f, tol) == n


def excess(f: FusionSequence, tol: ToleranceConfig = DEFAULT_TOL):
    """Excess in the ambient stacked space and in K_W: (N n - r, sum(d_i) - r).

    r is the rank of the stacked analysis T at ``tol``, cut from the cached
    :attr:`FusionSequence.synthesis_svals` at the size N n of :func:`ovf.range_basis`.
    With J = blockdiag(B_1, ..., B_N), an isometry, T = J [w_1 B_1 | ... | w_N B_N]^*,
    so both have the same nonzero singular values, and r is the column count of
    that basis in exact arithmetic; no embedding is built.
    """
    r = _rank(f, tol)
    return int(f.count * f.ambient_dim - r), int(sum(f.dims) - r)


def scale_weights(f: FusionSequence, factors) -> FusionSequence:
    """The sequence (W_i, |c_i| w_i), a view of ``f`` held through :func:`_trusted`.

    It shares the subspaces of ``f`` and its projection stack. A block that the
    scaling empties (a new weight of 0 on a nonzero subspace) gets a zero subspace,
    one per call, and the view then holds one copy of the stack with zeros on those
    blocks. Only the rules a factor can break are tested, with the constructor's
    messages: one factor per block, and new weights that pass :func:`_check_weights`;
    ``f`` passed the others.
    """
    factors = np.abs(np.asarray(factors, dtype=np.complex128).ravel())
    if factors.size != f.count:
        raise ContractViolationError("one scale factor per block required")
    new_w = factors * f.weights
    _check_weights(new_w)
    emptied = (new_w == 0.0) & (f.weights > 0.0)
    subs, projections = f.subspaces, f.projections
    if emptied.any():
        zero = Subspace.zero(f.ambient_dim)
        subs = tuple(zero if out else s for s, out in zip(subs, emptied))
        projections = np.where(emptied[:, None, None], 0.0, projections)
    view = _trusted(FusionSequence, subs, new_w)
    object.__setattr__(view, "projections", read_only(projections))
    return view


MAX_REDUNDANCY = 64  # local vectors beyond a basis per block; the n and N limit of instances


@dataclass(frozen=True, eq=False)
class LocalFrameFamily:
    """Per-block vector frames spanning each nonzero subspace, with duals.

    A frame of k vectors in C^n is a (k, n) complex128 array, one vector per row,
    as in :mod:`frames`. ``frames[i]`` and ``duals[i]`` are None exactly when block
    i is the zero subspace; the others are held read-only (:func:`numerics.owned`).
    ``redundancy`` is the number of vectors each frame has beyond a basis of its
    subspace. ``alpha``/``beta`` witness the uniform local bounds inf alpha_i and
    sup beta_i over the nonzero blocks. Equality and hashing are by identity.

    Constructed here, every array is scanned for finiteness; a family the package
    builds (:func:`build_local_frames`, a loaded instance once scanned, the negative
    control's swap) is held through :func:`_trusted` without that scan.
    """

    frames: tuple
    duals: tuple
    redundancy: int
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("frames", "duals"):
            held = tuple(None if a is None else owned(as_matrix(a)) for a in getattr(self, name))
            object.__setattr__(self, name, held)


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

    The draws are taken block by block in order; the blocks of each distinct
    dimension are then factored together, one stacked QR, ``eigvalsh`` and
    ``solve`` per dimension, which give each block bit for bit its own factors.
    """
    if not 0 <= redundancy <= MAX_REDUNDANCY:
        raise ContractViolationError(
            f"local redundancy must be in 0..{MAX_REDUNDANCY}, got {redundancy}"
        )
    dims = f.dims
    live = [i for i, d in enumerate(dims) if d]
    draws = []
    for i in live:
        shape = (dims[i], dims[i] + redundancy)
        draws.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    frames, duals = [None] * f.count, [None] * f.count
    alpha, beta = np.inf, 0.0
    for idx, coeff in by_shape(draws):
        idx, d = [live[j] for j in idx], coeff.shape[1]
        coeff[:, :, :d] = np.linalg.qr(coeff[:, :, :d])[0]
        coeff[:, :, d:] /= np.linalg.norm(coeff[:, :, d:], axis=1, keepdims=True)
        gram = coeff @ coeff.conj().transpose(0, 2, 1)
        ev = np.linalg.eigvalsh(gram)
        alpha = min(alpha, float(ev[:, 0].min()))
        beta = max(beta, float(ev[:, -1].max()))
        bases = np.stack([f.subspaces[i].basis for i in idx])
        for i, frame, dual in zip(idx, bases @ coeff, bases @ np.linalg.solve(gram, coeff)):
            frames[i], duals[i] = frame.T, dual.T
    if not np.isfinite(alpha):
        alpha = 0.0
    return _trusted(LocalFrameFamily, tuple(frames), tuple(duals), redundancy, alpha, beta)
