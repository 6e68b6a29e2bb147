"""Bessel fusion multipliers with operator symbols.

The multiplier attached to two weighted subspace sequences and a symbol
(m, R) is

    M = sum_i m_i u_i w_i P_{V_i} R_i P_{W_i}
      = T_V,u^*  D_mR  T_W,w

where D_mR acts blockwise as m_i R_i on the stacked space and is kept only
as that (N, n, n) stack (``Symbol.blocks``). M is the block sandwich of
:func:`fusion.sandwich` with middle blocks R_i. The commonly used
definitions are its cases R_i = I (projection composition,
``Symbol.identity``) and R_i = S_W^-1 (the S_W^-1-weighted form), so they
are :class:`Symbol` multipliers too. The two-sided symbol hypothesis

    C(m, R):  gamma ||x|| <= ||conj(m_j) R_j^* x|| <= delta ||x||  for all j

certifies blockwise invertibility of D_mR and semi-normalization of m, and
drives the invertibility, excess, and inverse-representation checks below;
near its cutoff their verdicts are flagged indeterminate. gamma, delta,
||R||_inf and the Schatten facts are read from ``Symbol.svals``, the block
singular values of one batched SVD cached on the symbol. D_mR is block
diagonal, so its spectrum is the union of the |m_i| sigma(R_i)
(``Symbol.block_diag_svals``) and no (N n) x (N n) matrix is formed; what the
``schatten_block_svals`` check certifies is the scaling identity behind that
union, sigma(m_i R_i) = |m_i| sigma(R_i): ``Symbol.block_sval_defect`` compares
one batched SVD of the stack with the scaled block spectra, once per symbol.
The symbol also memoizes, per (V, W) pair, the assembled multiplier with its
whole spectrum from one SVD (:meth:`Symbol.assembled`): ||M||, ||M||_p and
||M^-1|| = 1 / sigma_min are read from it, and invertibility and the norm
bound are derived from it at each call's tolerance. Three more facts are
kept on the symbol, each formed once: the blocks (m_i R_i)^-1, the
|m|-scaled sequences (:meth:`Symbol.scaled`, whose embeddings' cached bounds
and analysis SVD serve both consequence checks) and, per (V, W) pair, the
closed-form inverse M^-1 with L and Q_dagger
(:meth:`Symbol.inverse_closed_form`). The inverse and the closed form are
read only after the caller's cutoffs have passed. The inverse representation
splits into its two halves, :func:`inverse_representation_residuals` (duality
and representation) and :func:`inverse_representation_probe` (uniqueness),
one per check. They are handed the sampled duals of {u_i P_{V_i}} as one
(c, N n, n) stack of analyses, re-validated against T_V with one batched
SVD (:func:`ovf.duality_defects`), and the probe's kernel direction is drawn
by :func:`ovf.kernel_samples` through the cached range basis of T_W, so no
(N n) x (N n) projector is formed on this path. The Riesz verdict reads
:func:`fusion.is_riesz_fusion_basis`. The frame facts of V and W are read
through their embeddings: beta_V and beta_W of the norm bound from
:func:`ovf.frame_bounds`, ||T_V|| and ||T_W|| from
:attr:`ovf.OVFrame.analysis_norm`, and S_W^-1 only behind the frame test of
:func:`ovf.frame_operator_inverse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .exceptions import ContractViolationError, PreconditionError
from .frames import VectorFrame, ordinary_multiplier
from .fusion import (
    FusionSequence,
    LocalFrameFamily,
    excess,
    is_riesz_fusion_basis,
    sandwich,
    scale_weights,
)
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    clears_inv_cutoff,
    finite_array,
    near_inv_cutoff,
    relative_defect,
    saturated_product,
    singular_values,
    spectral_norm,
    spectral_norms,
    spectrum_schatten_norm,
    svals_rank,
)
from .ovf import (
    dual_slack,
    duality_defects,
    frame_bounds,
    frame_operator_inverse,
    is_frame,
    kernel_samples,
)

__all__ = [
    "Symbol",
    "inverse_symbol_blocks",
    "ConditionCReport",
    "condition_c",
    "MultiplierReport",
    "assemble_multiplier",
    "RieszMultiplierVerdict",
    "riesz_multiplier_verdict",
    "InvertibleMultiplierReport",
    "invertible_multiplier_consequences",
    "inverse_representation_residuals",
    "inverse_representation_probe",
    "local_frame_equivalence",
    "SchattenReport",
    "schatten_checks",
]


@dataclass(frozen=True)
class Symbol:
    """Scalar sequence m with an operator sequence R, one pair per block."""

    m: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        m = finite_array(np.ravel(self.m), 1, "symbol scalars")
        r = finite_array(self.r, 3, "symbol blocks")
        if r.shape[1] != r.shape[2] or r.shape[1] == 0:
            raise ContractViolationError(f"expected (N, n, n) blocks with n >= 1, got {r.shape}")
        if m.size != r.shape[0]:
            raise ContractViolationError(
                f"{m.size} scalars but {r.shape[0]} operator blocks"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", r)

    @classmethod
    def identity(cls, n: int, count: int) -> "Symbol":
        return cls(np.ones(count), np.array([np.eye(n, dtype=np.complex128)] * count))

    @property
    def count(self) -> int:
        return self.m.size

    @property
    def dim(self) -> int:
        return self.r.shape[1]

    @property
    def m_sup(self) -> float:
        return float(np.max(np.abs(self.m))) if self.count else 0.0

    @cached_property
    def svals(self) -> np.ndarray:
        """Read-only (N, n) singular values of the R_i, non-increasing, from one batched
        SVD on first use."""
        s = singular_values(self.r)
        s.flags.writeable = False
        return s

    @cached_property
    def block_diag_svals(self) -> np.ndarray:
        """Read-only singular values of D_mR, non-increasing: the sorted union of the
        |m_i| sigma(R_i), built from :attr:`svals` on first use. D_mR is block
        diagonal with blocks m_i R_i, so this union is its spectrum."""
        s = np.sort((np.abs(self.m)[:, None] * self.svals).ravel())[::-1]
        s.flags.writeable = False
        return s

    @cached_property
    def blocks(self) -> np.ndarray:
        """Read-only (N, n, n) stack of the blocks m_i R_i of D_mR, formed on first use."""
        b = self.m[:, None, None] * self.r
        b.flags.writeable = False
        return b

    @cached_property
    def block_sval_defect(self) -> float:
        """max_i ||sigma(m_i R_i) - |m_i| sigma(R_i)||_inf relative to ||D_mR||, from one
        batched SVD of :attr:`blocks` on first use: how far the stack that is applied
        as D_mR lies from the scaled block spectra :attr:`block_diag_svals` is built from."""
        s = singular_values(self.blocks)
        defect = float(np.max(np.abs(s - np.abs(self.m)[:, None] * self.svals)))
        return relative_defect(defect, float(self.block_diag_svals[0]))

    @property
    def r_sup(self) -> float:
        """sup_i ||R_i||, the ell-infinity norm of the operator sequence."""
        return float(self.svals.max(initial=0.0))

    @cached_property
    def _assembled(self) -> dict:
        """(V, W) -> (M, singular values of M), filled by :meth:`assembled`."""
        return {}

    def assembled(self, v: FusionSequence, w: FusionSequence) -> tuple:
        """``(M, s)`` for M = sum_i m_i u_i w_i P_{V_i} R_i P_{W_i} and its
        non-increasing singular values s, both read-only. Built on first use per
        (V, W) pair, keyed by the identity of the two sequences, and kept as long
        as the symbol is."""
        key = (v, w)
        if key not in self._assembled:
            _check_triple(self, v, w)
            mat = sandwich(v, w, self.m * v.weights * w.weights, self.r)
            s = singular_values(mat)
            mat.flags.writeable = False
            s.flags.writeable = False
            self._assembled[key] = (mat, s)
        return self._assembled[key]

    @cached_property
    def inverse_blocks(self) -> np.ndarray:
        """Read-only blocks (m_i R_i)^-1 from one batched inv on first use; read them
        only once the two-sided symbol bound has passed (see :func:`inverse_symbol_blocks`)."""
        inv = np.linalg.inv(self.blocks)
        inv.flags.writeable = False
        return inv

    @cached_property
    def _scaled(self) -> dict:
        """f -> ``scale_weights(f, m)``, filled by :meth:`scaled`."""
        return {}

    def scaled(self, f: FusionSequence) -> FusionSequence:
        """The sequence with weights |m_i| f_i, built on first use per sequence, keyed
        by its identity, so its own cached facts serve every later caller."""
        if f not in self._scaled:
            self._scaled[f] = scale_weights(f, self.m)
        return self._scaled[f]

    @cached_property
    def _inverses(self) -> dict:
        """(V, W) -> (M^-1, L, Q_dagger), filled by :meth:`inverse_closed_form`."""
        return {}

    def inverse_closed_form(self, v: FusionSequence, w: FusionSequence) -> tuple:
        """``(M^-1, L, Q_dagger)`` for the memoized M of (V, W), all read-only, from
        one inv on first use per pair, keyed like :meth:`assembled`. Read it only
        once M is invertible and W is a frame at the caller's tolerance (see
        :func:`inverse_representation_residuals`).

        L_i = u_i R_i^* P_{V_i} M^-* - (w_i / conj(m_i)) P_{W_i} S_W^-1, the second
        term only where m_i != 0, and Q_dagger_i = w_i P_{W_i} S_W^-1 + conj(m_i) L_i.
        """
        key = (v, w)
        if key not in self._inverses:
            m_inv = np.linalg.inv(self.assembled(v, w)[0])
            pw_s_inv = w.projections @ w.embedding.frame_operator_inv
            m_conj = np.conj(self.m)
            r_adj = v.weights[:, None, None] * self.r.conj().transpose(0, 2, 1)
            l_blocks = r_adj @ v.projections @ m_inv.conj().T
            nz = self.m != 0.0
            l_blocks[nz] = l_blocks[nz] - (w.weights[nz] / m_conj[nz])[:, None, None] * pw_s_inv[nz]
            q_dagger = w.weights[:, None, None] * pw_s_inv + m_conj[:, None, None] * l_blocks
            for arr in (m_inv, l_blocks, q_dagger):
                arr.flags.writeable = False
            self._inverses[key] = (m_inv, l_blocks, q_dagger)
        return self._inverses[key]


def inverse_symbol_blocks(sym: Symbol, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The read-only blocks (m_i R_i)^-1 cached on ``sym``, once the two-sided
    hypothesis holds at ``tol``."""
    report = condition_c(sym, tol)
    if not report.holds:
        raise PreconditionError(
            "blockwise inversion requires the two-sided symbol bound "
            f"(gamma={report.gamma:.3e}, delta={report.delta:.3e})"
        )
    return sym.inverse_blocks


@dataclass(frozen=True)
class ConditionCReport:
    """Quantified form of the two-sided symbol hypothesis.

    gamma and delta are the tight constants min_j |m_j| s_min(R_j) and
    max_j |m_j| s_max(R_j). ``holds`` applies the invertibility cutoff;
    ``near_threshold`` marks symbols within a factor 10 of that cutoff,
    where a boolean verdict would be tolerance noise.
    """

    gamma: float
    delta: float
    holds: bool
    semi_normalized: bool
    lower_witness: float
    near_threshold: bool


def condition_c(sym: Symbol, tol: ToleranceConfig = DEFAULT_TOL) -> ConditionCReport:
    if sym.count == 0:
        raise ContractViolationError("empty symbol")
    # np.hypot is abs() of each complex scalar; np.abs may differ by an ulp
    m_mod = np.hypot(sym.m.real, sym.m.imag)
    gamma = float(np.min(m_mod * sym.svals[:, -1]))
    delta = float(np.max(m_mod * sym.svals[:, 0]))
    r_sup = sym.r_sup
    lower_witness = gamma / r_sup if r_sup > 0.0 else 0.0
    m_abs = np.abs(sym.m)
    semi = bool(np.min(m_abs) > 0.0 and np.all(np.isfinite(m_abs)))
    return ConditionCReport(
        gamma=gamma,
        delta=delta,
        holds=clears_inv_cutoff(gamma, delta, tol),
        semi_normalized=semi,
        lower_witness=lower_witness,
        near_threshold=near_inv_cutoff(gamma, delta, tol),
    )


@dataclass(frozen=True)
class MultiplierReport:
    matrix: np.ndarray
    sigma_min: float
    sigma_max: float
    invertible: bool
    norm_bound: float


def _check_triple(sym: Symbol, v: FusionSequence, w: FusionSequence):
    if not (sym.count == v.count == w.count):
        raise ContractViolationError(
            f"lengths disagree: symbol {sym.count}, V {v.count}, W {w.count}"
        )
    if not (sym.dim == v.ambient_dim == w.ambient_dim):
        raise ContractViolationError(
            f"ambient dimensions disagree: symbol {sym.dim}, V {v.ambient_dim}, W {w.ambient_dim}"
        )


def assemble_multiplier(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> MultiplierReport:
    """Assemble sum_i m_i u_i w_i P_{V_i} R_i P_{W_i} and measure it.

    The matrix and its spectrum are those memoized on ``sym``; invertibility
    and the norm bound are derived from its extreme singular values at ``tol``.
    The norm bound sqrt(beta_V) sqrt(beta_W) m_sup r_sup saturates at the largest
    float, so it stays finite and still bounds sigma_max.
    """
    mat, s = sym.assembled(v, w)
    sigma_min, sigma_max = float(s[-1]), float(s[0])
    _, beta_v = frame_bounds(v.embedding, tol)
    _, beta_w = frame_bounds(w.embedding, tol)
    bound = saturated_product(np.sqrt(beta_v), np.sqrt(beta_w), sym.m_sup, sym.r_sup)
    return MultiplierReport(
        matrix=mat,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        invertible=clears_inv_cutoff(sigma_min, sigma_max, tol),
        norm_bound=bound,
    )


@dataclass(frozen=True)
class RieszMultiplierVerdict:
    """Invertibility of a multiplier over Riesz decompositions vs its symbol.

    ``consistent`` compares the symbol prediction with the measured
    invertibility; near-threshold symbols are flagged ``indeterminate``
    and never counted as inconsistent.
    """

    predicted_by_c: bool
    actually_invertible: bool
    v_is_riesz: bool
    indeterminate: bool
    consistent: bool
    gamma: float
    delta: float


def riesz_multiplier_verdict(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RieszMultiplierVerdict:
    _check_triple(sym, v, w)
    if not is_riesz_fusion_basis(w, tol):
        raise PreconditionError("the analyzed sequence must be a Riesz fusion basis")
    cond = condition_c(sym, tol)
    v_riesz = is_riesz_fusion_basis(v, tol)
    report = assemble_multiplier(sym, v, w, tol)
    actual = report.invertible
    if cond.near_threshold:
        consistent = True
    elif v_riesz:
        consistent = cond.holds == actual
    elif cond.holds:
        # invertibility is then equivalent to V being Riesz, which it is not
        consistent = actual == v_riesz
    else:
        consistent = True
    return RieszMultiplierVerdict(
        predicted_by_c=cond.holds,
        actually_invertible=actual,
        v_is_riesz=v_riesz,
        indeterminate=cond.near_threshold,
        consistent=consistent,
        gamma=cond.gamma,
        delta=cond.delta,
    )


@dataclass(frozen=True)
class InvertibleMultiplierReport:
    """What an invertible multiplier forces on its two sequences.

    Bounds are (alpha, beta) pairs for (W,w), (V,u), (W,|m|w), (V,|m|u);
    the reweighted lower bound must clear 1/(beta_V ||R||_inf^2 ||M^-1||^2).
    Excess equalities use the ambient stacked space. Fields are None when
    the corresponding hypothesis (m bounded below, symbol bound) is off.
    """

    bounds_w: tuple
    bounds_v: tuple
    bounds_w_scaled: tuple
    bounds_v_scaled: tuple
    all_frames: bool
    lower_bound_rhs: float
    lower_bound_ok: bool
    excess_w: int
    excess_v: int
    excess_w_scaled: int
    excess_v_scaled: int
    excess_w_preserved: Optional[bool]
    excess_v_preserved: Optional[bool]
    excess_pair_equal: Optional[bool]


PROBE_SCALE = 0.01  # size of the uniqueness probe relative to ||Q_dagger||
LOWER_BOUND_REL = 1e-6  # relative margin allowed below the reweighted lower bound


def invertible_multiplier_consequences(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> InvertibleMultiplierReport:
    report = assemble_multiplier(sym, v, w, tol)
    if not report.invertible:
        raise PreconditionError("the multiplier must be invertible")
    w_scaled = sym.scaled(w)
    v_scaled = sym.scaled(v)
    seqs = (w, v, w_scaled, v_scaled)
    bounds = [frame_bounds(seq.embedding, tol) for seq in seqs]
    all_frames = all(is_frame(seq.embedding, tol) for seq in seqs)
    beta_v = bounds[1][1]
    # ||M^-1|| = 1 / sigma_min(M)
    rhs = report.sigma_min**2 / (beta_v * sym.r_sup**2)
    lower_ok = bounds[2][0] >= (1.0 - LOWER_BOUND_REL) * rhs
    e_w = excess(w, tol)[0]
    e_v = excess(v, tol)[0]
    e_ws = excess(w_scaled, tol)[0]
    e_vs = excess(v_scaled, tol)[0]
    m_min = float(np.min(np.abs(sym.m)))
    preserved_w = (e_w == e_ws) if m_min > 0.0 else None
    preserved_v = (e_v == e_vs) if m_min > 0.0 else None
    pair_equal = (e_w == e_v) if condition_c(sym, tol).holds else None
    return InvertibleMultiplierReport(
        bounds_w=bounds[0],
        bounds_v=bounds[1],
        bounds_w_scaled=bounds[2],
        bounds_v_scaled=bounds[3],
        all_frames=all_frames,
        lower_bound_rhs=rhs,
        lower_bound_ok=bool(lower_ok),
        excess_w=e_w,
        excess_v=e_v,
        excess_w_scaled=e_ws,
        excess_v_scaled=e_vs,
        excess_w_preserved=preserved_w,
        excess_v_preserved=preserved_v,
        excess_pair_equal=pair_equal,
    )


def _representation_residual(
    stacked_q: np.ndarray,
    inv_blocks: np.ndarray,
    duals: np.ndarray,
    m_inv: np.ndarray,
) -> float:
    """max over the dual analyses D of the (c, N n, n) stack ``duals`` of
    ||M^-1 - sum_i Q_i^* (m_i R_i)^-1 D_i|| / ||M^-1||, the sums of all duals formed
    together, block by block in block order, and their norms taken by one batched
    SVD."""
    q_adj_inv = stacked_q.reshape(inv_blocks.shape).conj().transpose(0, 2, 1) @ inv_blocks
    blocks = duals.reshape(len(duals), *inv_blocks.shape)
    reps = np.zeros((len(duals), *m_inv.shape), dtype=np.complex128)
    for i, term in enumerate(q_adj_inv):
        reps += term @ blocks[:, i]
    return float(spectral_norms(m_inv - reps).max()) / spectral_norm(m_inv)


def _closed_form(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    sampled_duals: np.ndarray,
    tol: ToleranceConfig,
):
    """``(M^-1, stacked Q_dagger, (m_i R_i)^-1)`` from the memos on ``sym``, once the
    symbol bound, the invertibility of M, the duals and the frame test of W pass at
    ``tol``."""
    _check_triple(sym, v, w)
    if not condition_c(sym, tol).holds:
        raise PreconditionError("the two-sided symbol bound must hold")
    if not assemble_multiplier(sym, v, w, tol).invertible:
        raise PreconditionError("the multiplier must be invertible")
    if np.any(duality_defects(sampled_duals, v.embedding.analysis) > dual_slack(tol)):
        raise ContractViolationError("sampled duals must be duals of {u_i P_{V_i}}")
    frame_operator_inverse(w.embedding, tol)  # the frame test of W, raising NotAFrameError
    m_inv, _, q_dagger = sym.inverse_closed_form(v, w)
    return m_inv, q_dagger.reshape(w.count * w.ambient_dim, w.ambient_dim), sym.inverse_blocks


def inverse_representation_residuals(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    sampled_duals: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple:
    """``(duality, representation)`` residuals of the closed-form dual Q_dagger:
    ||Q_dagger^* T_W - I|| and the worst relative gap of
    M^-1 = T_Qd^* D_(mR)^-1 T_D over the duals of {u_i P_{V_i}} whose analyses T_D
    the (c, N n, n) stack ``sampled_duals`` holds."""
    m_inv, stacked_q, inv_blocks = _closed_form(sym, v, w, sampled_duals, tol)
    n = w.ambient_dim
    duality_residual = spectral_norm(stacked_q.conj().T @ w.embedding.analysis - np.eye(n))
    return duality_residual, _representation_residual(stacked_q, inv_blocks, sampled_duals, m_inv)


def inverse_representation_probe(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    sampled_duals: np.ndarray,
    rng: np.random.Generator,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Representation residual of Q_dagger + E, E a kernel direction of T_W^* drawn
    from ``rng`` and scaled to PROBE_SCALE ||Q_dagger||: how badly a perturbed
    closed-form dual breaks the inverse representation."""
    m_inv, stacked_q, inv_blocks = _closed_form(sym, v, w, sampled_duals, tol)
    e = kernel_samples(w.embedding, 1, rng, tol)[0]
    e_norm = spectral_norm(e)
    if e_norm > 0.0:
        e = e * (PROBE_SCALE * spectral_norm(stacked_q) / e_norm)
    return _representation_residual(stacked_q + e, inv_blocks, sampled_duals, m_inv)


def local_frame_equivalence(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    family: LocalFrameFamily,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Relative gap between the fusion multiplier and its local-frame lift.

    Expanding each projection P_{W_i} through a spanning local frame and its
    canonical dual turns the fusion multiplier into the ordinary multiplier
    with analysis vectors w_i phi_ij, synthesis vectors
    u_i P_{V_i} R_i dual_ij, and the symbol entry m_i repeated per local
    vector. The returned value is ||M_fusion - M_lifted|| relative to
    ||M_fusion|| (:func:`numerics.relative_defect`). Each block's synthesis
    vectors are one matrix product, u_i P_{V_i} R_i [dual_i1 ... dual_ik].
    That the local frames span their subspaces is not re-tested here:
    :func:`fusion.build_local_frames` spans by construction, and loading a
    stored family checks that each frame and its duals reconstruct P_{W_i}.
    """
    _check_triple(sym, v, w)
    if len(family.frames) != w.count:
        raise ContractViolationError("local family length does not match the sequences")
    n = w.ambient_dim
    # one (0, n) start per list, so a W without nonzero blocks lifts to 0
    anal_rows, synth_rows, m_hat = [np.zeros((0, n))], [np.zeros((0, n))], [np.zeros(0)]
    for i, sub in enumerate(w.subspaces):
        if sub.dim == 0:
            continue
        phi = family.frames[i]
        dual = family.duals[i]
        if phi is None or dual is None:
            raise PreconditionError(f"block {i} has no local frame")
        anal_rows.append(w.weights[i] * phi.vectors)
        synth_rows.append(v.weights[i] * (v.projections[i] @ (sym.r[i] @ dual.vectors.T)).T)
        m_hat.append(np.full(phi.count, sym.m[i]))
    m_fusion = assemble_multiplier(sym, v, w, tol).matrix
    m_lifted = ordinary_multiplier(
        np.concatenate(m_hat),
        VectorFrame(np.vstack(synth_rows)),
        VectorFrame(np.vstack(anal_rows)),
    )
    return relative_defect(spectral_norm(m_fusion - m_lifted), spectral_norm(m_fusion))


@dataclass(frozen=True)
class SchattenReport:
    """Schatten p-norm facts about a multiplier, each pair compared as value <= bound
    by the checks: ``composite_norm`` = ||M||_p against ``composite_bound`` =
    ||T_V|| ||T_W|| ||D_mR||_p, and ``block_norm`` = ||D_mR||_p against
    ``rank_bound`` = (sum_i rank(R_i) (|m_i| ||R_i||)^p)^(1/p). Every norm is the
    overflow-free :func:`numerics.spectrum_schatten_norm` of a spectrum; the rank
    bound is that of the block maxima |m_i| ||R_i||, each repeated rank(R_i) times."""

    composite_norm: float
    composite_bound: float
    block_norm: float
    rank_bound: float


def schatten_checks(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    p: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SchattenReport:
    _check_triple(sym, v, w)
    d_norm = spectrum_schatten_norm(sym.block_diag_svals, p)
    ranks = svals_rank(sym.svals, sym.dim, tol)
    # np.hypot is abs() of each complex scalar; np.abs may differ by an ulp
    tops = np.hypot(sym.m.real, sym.m.imag) * sym.svals[:, 0]
    return SchattenReport(
        composite_norm=spectrum_schatten_norm(sym.assembled(v, w)[1], p),
        composite_bound=float(v.embedding.analysis_norm * w.embedding.analysis_norm * d_norm),
        block_norm=d_norm,
        rank_bound=spectrum_schatten_norm(np.repeat(tops, ranks), p),
    )
