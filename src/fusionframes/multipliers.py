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
The symbol also memoizes, per (V, W) pair, the whole report of
:func:`assemble_multiplier`: M with its spectrum from one SVD and its
invertibility against the one cutoff :data:`numerics.INV_REL`, free of any
tolerance and of the embeddings. ||M|| (also the scale of the
local-frame lift's gap), ||M||_p and ||M^-1|| = 1 / sigma_min are read from
it. The symbol bound :attr:`Symbol.condition_c` reads the same cutoff, so it
is a tolerance-free fact too. Two more facts are kept on the symbol, each
formed once: the blocks (m_i R_i)^-1 and, per (V, W) pair, the closed-form
inverse M^-1 with Q_dagger (:meth:`Symbol.inverse_closed_form`), the latter in a
:func:`numerics.memo` table and every array through :func:`numerics.read_only`.
Q_dagger is formed in place, in the stack P_{W_i} S_W^-1 it starts from, so its
build holds at most two more (N, n, n) stacks at a time beside the one it returns.
The |m|-scaled sequences of :func:`invertible_multiplier_consequences` are kept
too, one per sequence in the memo table ``_scaled``, each with its frame bounds:
views of V and W (:func:`fusion.scale_weights`) that share their subspaces and
projection stacks. The bounds are read from an embedding that is built once and
not kept, so a view holds its weights and the K_W spectrum cached on it but no
embedding, and a second call reads the bounds and spectra instead of taking them
again.
The inverse blocks and the closed form each check their own hypothesis when
built, and a build that fails caches nothing: the blocks raise
:class:`PreconditionError` unless the symbol bound holds, and the closed form
unless M is invertible, or :class:`NotAFrameError` unless W is a frame. The
inverse representation splits into its two halves,
:func:`inverse_representation_residuals` (duality and representation) and
:func:`inverse_representation_probe` (uniqueness), one per check. They are handed the sampled duals of {u_i P_{V_i}} as one
(c, N n, n) stack of analyses, re-validated against T_V from their gaps
D^* T_V - I (:func:`ovf.duality_gaps`): a stack that
:func:`numerics.frobenius_screen` passes takes no SVD, any other one batched
SVD. :func:`ovf.duality_defects` gives Q_dagger's duality residual
||Q_dagger^* T_W - I||, and the probe's kernel direction is drawn
by :func:`ovf.kernel_samples` through the cached range basis of T_W, so no
(N n) x (N n) projector is formed on this path. The Riesz verdict reads
:func:`fusion.is_riesz_fusion_basis`. The frame facts of V and W are read
through their embeddings: the cached :attr:`ovf.OVFrame.frame_bounds`, ||T_V||
and ||T_W|| of every norm bound from :attr:`ovf.OVFrame.analysis_norm`, and
S_W^-1 from :attr:`ovf.OVFrame.frame_operator_inv`, which carries the frame test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import ContractViolationError, PreconditionError
from .frames import ordinary_multiplier
from .fusion import (
    FusionSequence,
    LocalFrameFamily,
    _trusted,
    check_pairing,
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
    frobenius_screen,
    memo,
    near_inv_cutoff,
    owned,
    read_only,
    relative_defect,
    saturated_product,
    singular_values,
    spectral_norm,
    spectral_norms,
    spectrum_schatten_norm,
    svals_rank,
)
from .ovf import (
    OVFrame,
    dual_slack,
    duality_defects,
    duality_gaps,
    kernel_samples,
)

__all__ = [
    "Symbol",
    "ConditionCReport",
    "MultiplierReport",
    "assemble_multiplier",
    "norm_bound",
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


@dataclass(frozen=True, eq=False)
class Symbol:
    """Scalar sequence m with an operator sequence R, one pair per block, both held
    read-only (:func:`numerics.owned`). Equality and hashing are by identity."""

    m: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        m = finite_array(np.ravel(self.m), 1, "symbol.m")
        r = finite_array(self.r, 3, "symbol.r")
        if r.shape[1] != r.shape[2] or r.shape[1] == 0:
            raise ContractViolationError(f"expected (N, n, n) blocks with n >= 1, got {r.shape}")
        if m.size != r.shape[0]:
            raise ContractViolationError(
                f"{m.size} scalars but {r.shape[0]} operator blocks"
            )
        object.__setattr__(self, "m", owned(m))
        object.__setattr__(self, "r", owned(r))

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
        return read_only(singular_values(self.r))

    @cached_property
    def block_diag_svals(self) -> np.ndarray:
        """Read-only singular values of D_mR, non-increasing: the sorted union of the
        |m_i| sigma(R_i), built from :attr:`svals` on first use. D_mR is block
        diagonal with blocks m_i R_i, so this union is its spectrum."""
        return read_only(np.sort((np.abs(self.m)[:, None] * self.svals).ravel())[::-1])

    @cached_property
    def blocks(self) -> np.ndarray:
        """Read-only (N, n, n) stack of the blocks m_i R_i of D_mR, formed on first use."""
        return read_only(self.m[:, None, None] * self.r)

    @cached_property
    def block_sval_defect(self) -> float:
        """max_i ||sigma(m_i R_i) - |m_i| sigma(R_i)||_inf relative to ||D_mR||, from one
        batched SVD of :attr:`blocks` on first use: how far the stack that is applied
        as D_mR lies from the scaled block spectra :attr:`block_diag_svals` is built from."""
        s = singular_values(self.blocks)
        defect = float(np.max(np.abs(s - np.abs(self.m)[:, None] * self.svals)))
        return relative_defect(defect, float(self.block_diag_svals[0]))

    @cached_property
    def condition_c(self) -> "ConditionCReport":
        """The :class:`ConditionCReport` of the symbol, read from :attr:`svals` on
        first use: like them, a fact of the symbol alone, free of any tolerance."""
        if self.count == 0:
            raise ContractViolationError("empty symbol")
        m_abs = np.abs(self.m)
        gamma = float(np.min(m_abs * self.svals[:, -1]))
        delta = float(np.max(m_abs * self.svals[:, 0]))
        r_sup = self.r_sup
        lower_witness = gamma / r_sup if r_sup > 0.0 else 0.0
        semi = bool(np.min(m_abs) > 0.0 and np.all(np.isfinite(m_abs)))
        return ConditionCReport(
            gamma=gamma,
            delta=delta,
            holds=clears_inv_cutoff(gamma, delta),
            semi_normalized=semi,
            lower_witness=lower_witness,
            near_threshold=near_inv_cutoff(gamma, delta),
        )

    @property
    def r_sup(self) -> float:
        """sup_i ||R_i||, the ell-infinity norm of the operator sequence."""
        return float(self.svals.max(initial=0.0))

    @cached_property
    def inverse_blocks(self) -> np.ndarray:
        """Read-only blocks (m_i R_i)^-1 from one batched inv on first use, once the
        two-sided symbol bound of :attr:`condition_c` holds; :class:`PreconditionError`
        otherwise."""
        report = self.condition_c
        if not report.holds:
            raise PreconditionError(
                "blockwise inversion requires the two-sided symbol bound "
                f"(gamma={report.gamma:.3e}, delta={report.delta:.3e})"
            )
        return read_only(np.linalg.inv(self.blocks))

    def inverse_closed_form(self, v: FusionSequence, w: FusionSequence) -> tuple:
        """``(M^-1, Q_dagger)`` for the memoized M of (V, W), both read-only, from
        one inv on first use per pair, keyed like :func:`assemble_multiplier`, in the
        memo table ``_inverses``, once M is invertible (:class:`PreconditionError`
        otherwise) and W is a frame (:attr:`ovf.OVFrame.frame_operator_inv`).

        Q_dagger_i = w_i P_{W_i} S_W^-1 + conj(m_i) L_i with
        L_i = u_i R_i^* P_{V_i} M^-* - (w_i / conj(m_i)) P_{W_i} S_W^-1, the second
        term only where m_i != 0.
        """

        def build():
            report = assemble_multiplier(self, v, w)
            if not report.invertible:
                raise PreconditionError("the multiplier must be invertible")
            m_inv = np.linalg.inv(report.matrix)
            pw_s_inv = w.projections @ w.embedding.frame_operator_inv
            m_conj = np.conj(self.m)
            # every stack below is formed in place or dropped once read; products keep
            # their operand order, since complex m * l and l * m can differ in the last bit
            r_adj = np.conj(self.r)
            np.multiply(v.weights[:, None, None], r_adj, out=r_adj)
            l_blocks = r_adj.transpose(0, 2, 1) @ v.projections
            del r_adj
            l_blocks = l_blocks @ m_inv.conj().T
            nz = np.flatnonzero(self.m)
            for i, coeff in zip(nz, w.weights[nz] / m_conj[nz]):
                l_blocks[i] -= coeff * pw_s_inv[i]
            np.multiply(m_conj[:, None, None], l_blocks, out=l_blocks)
            np.multiply(w.weights[:, None, None], pw_s_inv, out=pw_s_inv)
            pw_s_inv += l_blocks
            return read_only((m_inv, pw_s_inv))

        return memo(self, "_inverses", (v, w), build)


class ConditionCReport(NamedTuple):
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


class MultiplierReport(NamedTuple):
    """M = sum_i m_i u_i w_i P_{V_i} R_i P_{W_i} and its non-increasing singular
    values ``svals``, both read-only, with the facts read from them."""

    matrix: np.ndarray
    svals: np.ndarray
    sigma_min: float
    sigma_max: float
    invertible: bool


def _check_triple(sym: Symbol, v: FusionSequence, w: FusionSequence):
    """The pairing rule of :func:`fusion.check_pairing` on V and W, and the symbol
    sized to them."""
    check_pairing(v, w)
    if (sym.count, sym.dim) != (v.count, v.ambient_dim):
        raise ContractViolationError(
            f"symbol of {sym.count} blocks on C^{sym.dim} does not fit sequences "
            f"of {v.count} blocks on C^{v.ambient_dim}"
        )


def assemble_multiplier(sym: Symbol, v: FusionSequence, w: FusionSequence) -> MultiplierReport:
    """Assemble sum_i m_i u_i w_i P_{V_i} R_i P_{W_i} and measure it.

    The report is built on first use per (V, W) pair, keyed by the identity of
    the two sequences, and kept as long as the symbol is, in the memo table
    ``_assembled``: M by :func:`fusion.sandwich`, its spectrum from one SVD and its
    invertibility against :data:`numerics.INV_REL`.
    """

    def build():
        _check_triple(sym, v, w)
        mat = sandwich(v, w, sym.m * v.weights * w.weights, sym.r)
        s = singular_values(mat)
        sigma_min, sigma_max = float(s[-1]), float(s[0])
        return MultiplierReport(
            matrix=read_only(mat),
            svals=read_only(s),
            sigma_min=sigma_min,
            sigma_max=sigma_max,
            invertible=clears_inv_cutoff(sigma_min, sigma_max),
        )

    return memo(sym, "_assembled", (v, w), build)


def norm_bound(sym: Symbol, v: FusionSequence, w: FusionSequence) -> float:
    """||T_V|| ||T_W|| m_sup r_sup, saturated at the largest float, so it stays
    finite and still bounds sigma_max."""
    _check_triple(sym, v, w)
    norms = v.embedding.analysis_norm, w.embedding.analysis_norm
    return saturated_product(*norms, sym.m_sup, sym.r_sup)


class RieszMultiplierVerdict(NamedTuple):
    """Invertibility of a multiplier over Riesz decompositions vs its symbol.

    ``consistent`` compares the symbol prediction with the measured
    invertibility; near-threshold symbols are flagged ``indeterminate``
    and never counted as inconsistent.
    """

    predicted_by_c: bool
    actually_invertible: bool
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
    cond = sym.condition_c
    v_riesz = is_riesz_fusion_basis(v, tol)
    report = assemble_multiplier(sym, v, w)
    actual = report.invertible
    if cond.near_threshold:
        consistent = True
    elif v_riesz:
        consistent = cond.holds == actual
    else:
        # under the symbol bound invertibility is equivalent to V being Riesz,
        # which it is not; without the bound nothing is predicted
        consistent = not (cond.holds and actual)
    return RieszMultiplierVerdict(
        predicted_by_c=cond.holds,
        actually_invertible=actual,
        indeterminate=cond.near_threshold,
        consistent=consistent,
        gamma=cond.gamma,
        delta=cond.delta,
    )


class InvertibleMultiplierReport(NamedTuple):
    """What an invertible multiplier forces on its two sequences.

    ``all_frames`` holds when (W,w), (V,u), (W,|m|w) and (V,|m|u) all pass the
    frame test; the lower bound alpha of (W,|m|w) must clear
    sigma_min(M)^2 / (beta_V ||R||_inf^2), compared without overflow as
    ``lower_bound_lhs`` = sqrt(alpha) sqrt(beta_V) ||R||_inf (saturated) >=
    ``lower_bound_rhs`` = sqrt(1 - LOWER_BOUND_REL) sigma_min(M). Excess
    equalities use the ambient stacked space. ``excess_w_preserved`` is None
    unless m is bounded below, and ``excess_pair_equal`` unless the symbol bound
    holds.
    """

    all_frames: bool
    lower_bound_lhs: float
    lower_bound_rhs: float
    lower_bound_ok: bool
    excess_w: int
    excess_v: int
    excess_w_scaled: int
    excess_v_scaled: int
    excess_w_preserved: Optional[bool]
    excess_pair_equal: Optional[bool]


def _bounded_view(f: FusionSequence, m: np.ndarray) -> tuple:
    """``(view, frame_bounds)`` of the |m|-scaled view of ``f`` (:func:`fusion.scale_weights`),
    the bounds from an embedding that is built for them alone and then dropped, so
    the view holds none."""
    view = scale_weights(f, m)
    return view, _trusted(OVFrame, view.weights[:, None, None] * view.projections).frame_bounds


PROBE_SCALE = 0.01  # size of the uniqueness probe relative to ||Q_dagger||
LOWER_BOUND_REL = 1e-6  # relative margin allowed below the reweighted lower bound


def invertible_multiplier_consequences(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> InvertibleMultiplierReport:
    report = assemble_multiplier(sym, v, w)
    if not report.invertible:
        raise PreconditionError("the multiplier must be invertible")
    w_scaled, w_scaled_bounds = memo(sym, "_scaled", w, lambda: _bounded_view(w, sym.m))
    v_scaled, v_scaled_bounds = memo(sym, "_scaled", v, lambda: _bounded_view(v, sym.m))
    bounds = (w.embedding.frame_bounds, v.embedding.frame_bounds, w_scaled_bounds, v_scaled_bounds)
    all_frames = all(clears_inv_cutoff(*b) for b in bounds)  # the frame test of each
    alpha = w_scaled_bounds[0]
    lhs = saturated_product(np.sqrt(alpha), v.embedding.analysis_norm, sym.r_sup)
    rhs = np.sqrt(1.0 - LOWER_BOUND_REL) * report.sigma_min
    e_w = excess(w, tol)[0]
    e_v = excess(v, tol)[0]
    e_ws = excess(w_scaled, tol)[0]
    e_vs = excess(v_scaled, tol)[0]
    m_min = float(np.min(np.abs(sym.m)))
    preserved_w = (e_w == e_ws) if m_min > 0.0 else None
    pair_equal = (e_w == e_v) if sym.condition_c.holds else None
    return InvertibleMultiplierReport(
        all_frames=all_frames,
        lower_bound_lhs=lhs,
        lower_bound_rhs=rhs,
        lower_bound_ok=bool(lhs >= rhs),
        excess_w=e_w,
        excess_v=e_v,
        excess_w_scaled=e_ws,
        excess_v_scaled=e_vs,
        excess_w_preserved=preserved_w,
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
    """``(M^-1, stacked Q_dagger, (m_i R_i)^-1)`` from the memos on ``sym``, each
    behind its own hypothesis (the symbol bound, then the invertibility of M and the
    frame test of W), once the duals pass at ``tol``: each ||D^* T_V - I|| within
    :func:`ovf.dual_slack`, passed by :func:`numerics.frobenius_screen` or else
    decided by one batched SVD."""
    _check_triple(sym, v, w)
    inv_blocks = sym.inverse_blocks
    m_inv, q_dagger = sym.inverse_closed_form(v, w)
    gaps, slack = duality_gaps(sampled_duals, v.embedding.analysis), dual_slack(tol)
    if frobenius_screen(gaps, slack) is None and np.any(spectral_norms(gaps) > slack):
        raise ContractViolationError("sampled duals must be duals of {u_i P_{V_i}}")
    return m_inv, q_dagger.reshape(w.count * w.ambient_dim, w.ambient_dim), inv_blocks


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
    duality_residual = float(duality_defects(stacked_q[None], w.embedding.analysis)[0])
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
        e *= PROBE_SCALE * spectral_norm(stacked_q) / e_norm
    e += stacked_q
    return _representation_residual(e, inv_blocks, sampled_duals, m_inv)


def local_frame_equivalence(
    sym: Symbol,
    v: FusionSequence,
    w: FusionSequence,
    family: LocalFrameFamily,
) -> float:
    """Relative gap between the fusion multiplier and its local-frame lift.

    Expanding each projection P_{W_i} through a spanning local frame and its
    canonical dual turns the fusion multiplier into the ordinary multiplier
    with analysis vectors w_i phi_ij, synthesis vectors
    u_i P_{V_i} R_i dual_ij, and the symbol entry m_i repeated per local
    vector. The returned value is ||M_fusion - M_lifted|| relative to
    ||M_fusion|| (:func:`numerics.relative_defect`), the latter read from the
    spectrum cached with M (:func:`assemble_multiplier`). Each block's synthesis
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
        anal_rows.append(w.weights[i] * phi)
        synth_rows.append(v.weights[i] * (v.projections[i] @ (sym.r[i] @ dual.T)).T)
        m_hat.append(np.full(len(phi), sym.m[i]))
    rep = assemble_multiplier(sym, v, w)
    m_lifted = ordinary_multiplier(np.concatenate(m_hat), np.vstack(synth_rows), np.vstack(anal_rows))
    return relative_defect(spectral_norm(rep.matrix - m_lifted), rep.sigma_max)


class SchattenReport(NamedTuple):
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
    tops = np.abs(sym.m) * sym.svals[:, 0]
    return SchattenReport(
        composite_norm=spectrum_schatten_norm(assemble_multiplier(sym, v, w).svals, p),
        composite_bound=saturated_product(v.embedding.analysis_norm, w.embedding.analysis_norm, d_norm),
        block_norm=d_norm,
        rank_bound=spectrum_schatten_norm(np.repeat(tops, ranks), p),
    )
