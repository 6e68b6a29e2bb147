import json
from typing import Optional

import numpy as np
import pytest

from fusionframes.exceptions import ContractViolationError, FusionFrameError
from fusionframes.frames import VectorFrame
from fusionframes.fusion import FusionSequence, LocalFrameFamily, Subspace
from fusionframes.instances import Instance
from fusionframes.multipliers import Symbol
from fusionframes.numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    singular_values,
    spectral_norms,
    spectrum_schatten_norm,
    svals_rank,
)
from fusionframes.ovf import (
    OVFrame,
    _check_annihilator,
    frame_operator_inverse,
    kernel_parts,
    range_basis,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


# Dense reference kernels: the library reads ranks, Schatten norms and duals
# from cached spectra; these compute them directly from one matrix.


def pinv(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse truncated at the rank cutoff."""
    m = as_matrix(a)
    if min(m.shape) == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    return np.linalg.pinv(m, rcond=tol.rank_rel * max(m.shape))


def rank_tol(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: count of singular values above the relative cutoff."""
    return int(svals_rank(singular_values(a), max(np.shape(a)), tol))


def schatten_norm(a, p: float) -> float:
    """Schatten p-norm ``(sum_i s_i**p) ** (1/p)`` for ``p >= 1``."""
    return spectrum_schatten_norm(singular_values(a), p)


def canonical_dual_ordinary(phi: VectorFrame, tol: ToleranceConfig = DEFAULT_TOL) -> VectorFrame:
    """Dual vectors psi_i = pinv(S) phi_i, S = sum_i phi_i phi_i^*, computed within the
    span of phi."""
    v = phi.vectors
    return VectorFrame((pinv(v.T @ v.conj(), tol) @ v.T).T)


def line(vec) -> Subspace:
    v = np.asarray(vec, dtype=np.complex128)
    return Subspace((v / np.linalg.norm(v))[:, None])


def coordinate_decomposition(n, weights=None) -> FusionSequence:
    """The standard decomposition of C^n into coordinate lines."""
    if weights is None:
        weights = np.ones(n)
    eye = np.eye(n, dtype=np.complex128)
    subs = tuple(Subspace(eye[:, [i]]) for i in range(n))
    return FusionSequence(subs, np.asarray(weights, dtype=np.float64))


@pytest.fixture
def diag_pair():
    """Coordinate decomposition of C^2 with weights (1, 2): S_W = diag(1, 4)."""
    return coordinate_decomposition(2, [1.0, 2.0])


def reference_kernel_column(q, r):
    """Column r of P_ker = I - Q Q^*, built as e_r - Q Q[r, :]^*."""
    e_r = np.zeros(q.shape[0], dtype=np.complex128)
    e_r[r] = 1.0
    return e_r - q @ q[r].conj()


def reference_dual_perturbations(a, tol):
    """The member-wise dual family sweep the structured code replaced.

    Yields L = 0, then P_ker E_rs, zero except for column s, which is
    P_ker[:, r], in row-major order of (r, s).
    """
    t = a.analysis
    rows, cols = t.shape
    yield np.zeros_like(t)
    q = range_basis(a, tol)
    for r in range(rows):
        col = reference_kernel_column(q, r)
        for s in range(cols):
            l = np.zeros((rows, cols), dtype=np.complex128)
            l[:, s] = col
            yield l


# The exact batched sweep that ovf.sweep_dual_family replaced, kept verbatim
# as the reference its bounds must dominate and its witnesses must match.


def dual_family_residuals(a: OVFrame, t_prime, tol: ToleranceConfig = DEFAULT_TOL):
    """Residuals ||T_D^* T' - I|| over the dual family, in the order of
    :func:`reference_dual_perturbations`.

    Yields an array holding the canonical dual's residual, then one array
    per stacked row r holding the residuals of the n candidates (r, s):
    T_A S_A^-1 with P_ker[:, r] = e_r - Q Q[r, :]^* added to column s. Each
    row is one (n, N*k, n) stack of analyses and one batched SVD, so memory
    stays at n members. Each value is bit for bit the spectral norm computed
    from that member.
    """
    frame_operator_inverse(a, tol)
    t, t_dual = a.analysis, a.canonical_analysis
    t_prime = as_matrix(t_prime)
    if t_prime.shape != t.shape:
        raise ContractViolationError(
            f"second analysis operator must have shape {t.shape}, got {t_prime.shape}"
        )
    rows, cols = t.shape
    eye = np.eye(cols)

    def residuals(d):
        return spectral_norms(d.conj().transpose(0, 2, 1) @ t_prime - eye)

    yield residuals(t_dual[None])
    q = range_basis(a, tol)
    _check_annihilator(a, q, kernel_parts(a, [t], tol)[0], tol)
    members = np.arange(cols)
    for r in range(rows):
        d = np.repeat(t_dual[None], cols, axis=0)
        d[members, :, members] += reference_kernel_column(q, r)
        yield residuals(d)


# The per-block loops that fusion.sandwich replaced, kept verbatim as the
# reference the kernel must reproduce bit for bit.


def reference_composite(v, w, q):
    """sum_i u_i w_i P_{V_i} Q_i P_{W_i}, as duality._composite built it."""
    from fusionframes.fusion import projection

    n = v.ambient_dim
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(v.count):
        coeff = v.weights[i] * w.weights[i]
        if coeff == 0.0:
            continue
        out += coeff * (projection(v.subspaces[i]) @ q[i] @ projection(w.subspaces[i]))
    return out


def reference_gavruta_composite(v, w, s_inv):
    """sum_i w_i u_i P_{V_i} S_W^-1 P_{W_i}, as gavruta_dual_check built it."""
    from fusionframes.fusion import projection

    n = w.ambient_dim
    comp = np.zeros((n, n), dtype=np.complex128)
    for i in range(w.count):
        coeff = w.weights[i] * v.weights[i]
        if coeff == 0.0:
            continue
        comp += coeff * (projection(v.subspaces[i]) @ s_inv @ projection(w.subspaces[i]))
    return comp


def reference_multiplier(m, r, v, w):
    """sum_i m_i u_i w_i P_{V_i} R_i P_{W_i}, as assemble_multiplier built it."""
    from fusionframes.fusion import projection

    n = w.ambient_dim
    mat = np.zeros((n, n), dtype=np.complex128)
    for i in range(w.count):
        coeff = m[i] * v.weights[i] * w.weights[i]
        if coeff == 0.0:
            continue
        mat += coeff * (projection(v.subspaces[i]) @ r[i] @ projection(w.subspaces[i]))
    return mat


def reference_projection_composition(m, v, w):
    """sum_i m_i u_i w_i P_{V_i} P_{W_i}, as projection_composition_multiplier built it."""
    from fusionframes.fusion import projection

    n = w.ambient_dim
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(w.count):
        coeff = m[i] * v.weights[i] * w.weights[i]
        if coeff == 0.0:
            continue
        out += coeff * (projection(v.subspaces[i]) @ projection(w.subspaces[i]))
    return out


def reference_gavruta_multiplier(m, v, w, s_inv):
    """sum_i m_i u_i w_i P_{V_i} S_W^-1 P_{W_i}, as gavruta_multiplier built it."""
    from fusionframes.fusion import projection

    n = w.ambient_dim
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(w.count):
        coeff = m[i] * v.weights[i] * w.weights[i]
        if coeff == 0.0:
            continue
        out += coeff * (projection(v.subspaces[i]) @ s_inv @ projection(w.subspaces[i]))
    return out


# The per-block symbol-spectrum loops that Symbol.svals replaced, and the
# per-dual sampling loops that ovf.sample_ov_duals replaced, kept verbatim
# as the references the new code must reproduce bit for bit.


def reference_r_sup(sym):
    """sup_i ||R_i||, as Symbol.r_sup computed it."""
    from fusionframes.numerics import spectral_norm

    return max((spectral_norm(ri) for ri in sym.r), default=0.0)


def reference_condition_c_constants(sym):
    """(gamma, delta), as condition_c's per-block loop computed them."""
    from fusionframes.numerics import extreme_singular_values

    gammas, deltas = [], []
    for i in range(sym.count):
        bot, top = extreme_singular_values(sym.r[i])
        gammas.append(abs(sym.m[i]) * bot)
        deltas.append(abs(sym.m[i]) * top)
    return float(min(gammas)), float(max(deltas))


def reference_inverse_symbol_blocks(sym):
    """Blocks (m_i R_i)^-1, as inverse_symbol_blocks computed them."""
    return np.array([np.linalg.inv(sym.m[i] * sym.r[i]) for i in range(sym.count)])


def reference_block_diag(sym):
    """The dense (N n) x (N n) block diagonal D_mR with blocks m_i R_i, the oracle
    for the stack ``Symbol.blocks`` and the union ``Symbol.block_diag_svals``."""
    n, count = sym.dim, sym.count
    out = np.zeros((count * n, count * n), dtype=np.complex128)
    for i in range(count):
        out[i * n : (i + 1) * n, i * n : (i + 1) * n] = sym.m[i] * sym.r[i]
    return out


def reference_schatten(sym, v, w, p, tol):
    """(composite_bound, block_power, rank_bound), as schatten_checks computed
    them with SVDs of the dense block diagonal and of both analysis operators."""
    from fusionframes.numerics import spectral_norm

    d = reference_block_diag(sym)
    rhs = (
        spectral_norm(v.embedding.analysis)
        * spectral_norm(w.embedding.analysis)
        * schatten_norm(d, p)
    )
    lhs_c = schatten_norm(d, p) ** p
    rhs_c = float(
        sum(
            rank_tol(sym.r[i], tol) * abs(sym.m[i]) ** p * spectral_norm(sym.r[i]) ** p
            for i in range(sym.count)
        )
    )
    return float(rhs), float(lhs_c), rhs_c


def reference_block_scaling_defect(sym):
    """max_i ||sigma(m_i R_i) - |m_i| sigma(R_i)||_inf / max(1, max_i |m_i| ||R_i||),
    from two SVDs per block, as schatten_block_svals measures it from one batched
    SVD of the stack m_i R_i."""
    gaps, top = [], 1.0
    for i in range(sym.count):
        s_r = np.linalg.svd(sym.r[i], compute_uv=False)
        s_block = np.linalg.svd(sym.m[i] * sym.r[i], compute_uv=False)
        gaps.append(float(np.max(np.abs(s_block - np.abs(sym.m[i]) * s_r))))
        top = max(top, float(np.abs(sym.m[i]) * s_r[0]))
    return max(gaps) / top


def reference_block_sval_defect(sym):
    """max_k |sigma_k(D) - union_k| / max(1, sigma_max(D)), from a dense SVD of the
    block diagonal against per-block SVDs: the dense check of the union."""
    from fusionframes.numerics import singular_values

    s_full = singular_values(reference_block_diag(sym))
    per_block = np.concatenate(
        [np.abs(sym.m[i]) * singular_values(sym.r[i]) for i in range(sym.count)]
    )
    s_union = np.sort(per_block)[::-1]
    return float(np.max(np.abs(s_full - s_union)) / max(1.0, float(s_full[0])))


def reference_coherence_defects(sym, inv_blocks):
    """||(m_i R_i)(m_i R_i)^-1 - I|| per block, as the coherence check looped them."""
    from fusionframes.numerics import spectral_norm

    eye = np.eye(sym.dim)
    return [spectral_norm(sym.m[i] * sym.r[i] @ inv_blocks[i] - eye) for i in range(sym.count)]


def reference_adversarial_symbol(n, count, rng, tol):
    """random_symbol("adversarial", ...) with its per-block delta loop."""
    from fusionframes.instances import _annulus, random_invertible_matrix
    from fusionframes.multipliers import Symbol
    from fusionframes.numerics import singular_values

    r = np.array([random_invertible_matrix(n, rng, 0.5, 2.0) for _ in range(count)])
    m = np.array([_annulus(rng) for _ in range(count)])
    sym = Symbol(m, r)
    delta = max(abs(sym.m[i]) * singular_values(sym.r[i])[0] for i in range(count))
    ratio = tol.inv_rel * float(np.exp(rng.uniform(np.log(1 / 3), np.log(3.0))))
    target = ratio * delta / abs(m[0])
    u, s, vh = np.linalg.svd(r[0])
    s[-1] = target
    r = r.copy()
    r[0] = u @ np.diag(s) @ vh
    return Symbol(m, r)


def reference_sampled_duals(a, count, rng, tol, canonical=False):
    """(perturbation, analysis) pairs from the per-dual loop: each sampled dual
    recomputed the canonical analysis and the range basis Q, and applied
    P_ker G = G - Q (Q^* G) as sample_ov_duals does."""
    t = a.analysis
    out = []
    if canonical:
        frame_operator_inverse(a, tol)
        out.append((np.zeros_like(t), a.canonical_analysis))
    for _ in range(count):
        g = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
        frame_operator_inverse(a, tol)
        t_dual = a.canonical_analysis
        q = range_basis(a, tol)
        l = g - q @ (q.conj().T @ g)
        out.append((l, t_dual + l))
    return out


def reference_representation_residual(stacked_q, inv_blocks, duals, m_inv, n):
    """max over duals of ||M^-1 - sum_i Q_i^* (m_i R_i)^-1 D_i|| / ||M^-1||, block by block."""
    from fusionframes.numerics import spectral_norm

    scale = spectral_norm(m_inv)
    worst = 0.0
    count = stacked_q.shape[0] // n
    q_blocks = stacked_q.reshape(count, n, n)
    for d in duals:
        d_blocks = d.reshape(count, n, n)
        rep = np.zeros((n, n), dtype=np.complex128)
        for i in range(count):
            rep += q_blocks[i].conj().T @ inv_blocks[i] @ d_blocks[i]
        worst = max(worst, spectral_norm(m_inv - rep) / scale)
    return worst


def reference_probe(w, rng, tol):
    """The uniqueness probe's kernel direction, as the one-pass inverse
    representation drew it, with P_ker G applied as G - Q (Q^* G)."""
    n = w.ambient_dim
    g = rng.standard_normal((w.count * n, n)) + 1j * rng.standard_normal((w.count * n, n))
    q = range_basis(w.embedding, tol)
    return g - q @ (q.conj().T @ g)


def reference_kernel_projector(a, tol):
    """The dense projector I - T T^+ onto ker(T_A^*), built from a pseudoinverse:
    the reference the implicit P_ker G = G - Q (Q^* G), its columns
    e_r - Q Q[r, :]^* and the spectrum of [T_A S_A^-1 | P_ker] must meet within
    rounding."""
    t = a.analysis
    return np.eye(t.shape[0]) - t @ pinv(t, tol)


def reference_inverse_representation(sym, v, w, duals, tol, rng):
    """(duality, representation, probe) residuals in one pass and without the
    memos, as the inverse representation was computed before its two halves
    were split: M^-1, S^-1 and the (m_i R_i)^-1 are formed afresh; the probe
    draws from ``rng`` after the residuals."""
    from fusionframes.multipliers import assemble_multiplier
    from fusionframes.numerics import spectral_norm

    n, count = w.ambient_dim, w.count
    m_inv = np.linalg.inv(np.array(assemble_multiplier(sym, v, w, tol).matrix))
    pw_s_inv = w.projections @ np.linalg.inv(np.array(w.embedding.frame_operator))
    m_conj = np.conj(sym.m)
    r_adj = v.weights[:, None, None] * sym.r.conj().transpose(0, 2, 1)
    l_blocks = r_adj @ v.projections @ m_inv.conj().T
    nz = sym.m != 0.0
    l_blocks[nz] = l_blocks[nz] - (w.weights[nz] / m_conj[nz])[:, None, None] * pw_s_inv[nz]
    q = w.weights[:, None, None] * pw_s_inv + m_conj[:, None, None] * l_blocks
    stacked_q = q.reshape(count * n, n)
    duality = spectral_norm(stacked_q.conj().T @ w.embedding.analysis - np.eye(n))
    inv_blocks = reference_inverse_symbol_blocks(sym)
    representation = reference_representation_residual(stacked_q, inv_blocks, duals, m_inv, n)
    e = reference_probe(w, rng, tol)
    e_norm = spectral_norm(e)
    if e_norm > 0.0:
        e = e * (0.01 * spectral_norm(stacked_q) / e_norm)
    probe = reference_representation_residual(stacked_q + e, inv_blocks, duals, m_inv, n)
    return duality, representation, probe


# The ffv1 reader and writer that instances._encode and instances._decode
# replaced, kept verbatim (entry by entry through complex()) as the
# references the shape-checked codec must reproduce byte for byte and bit
# for bit on every valid document.


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _matrix_out(m) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(m, dtype=np.complex128)]


def _matrix_in(rows, expect_cols: Optional[int] = None) -> np.ndarray:
    data = np.array(
        [[complex(p[0], p[1]) for p in row] for row in rows], dtype=np.complex128
    )
    if data.size == 0:
        data = data.reshape(len(rows), expect_cols if expect_cols else 0)
    return data


def _sequence_out(f: FusionSequence) -> dict:
    return {
        "weights": [float(x) for x in f.weights],
        "subspaces": [
            {"dim": s.dim, "basis": _matrix_out(s.basis) if s.dim else []}
            for s in f.subspaces
        ],
    }


def _sequence_in(obj: dict, n: int) -> FusionSequence:
    subs = []
    for item in obj["subspaces"]:
        if item["dim"] == 0:
            subs.append(Subspace.zero(n))
        else:
            subs.append(Subspace(_matrix_in(item["basis"])))
    return FusionSequence(tuple(subs), np.asarray(obj["weights"], dtype=np.float64))


def _vecframe_out(frame: Optional[VectorFrame]) -> Optional[list]:
    if frame is None:
        return None
    return _matrix_out(frame.vectors)


def _vecframe_in(rows, n: int) -> Optional[VectorFrame]:
    if rows is None:
        return None
    return VectorFrame(_matrix_in(rows, expect_cols=n))


def reference_instance_to_json(inst: Instance) -> str:
    doc = {
        "schema": "ffv1",
        "seed": int(inst.seed),
        "symbol_mode": inst.symbol_mode,
        "n": inst.w.ambient_dim,
        "blocks": inst.w.count,
        "w": _sequence_out(inst.w),
        "v": _sequence_out(inst.v),
        "symbol": {
            "m": [_pair(z) for z in inst.symbol.m],
            "r": [_matrix_out(ri) for ri in inst.symbol.r],
        },
        "local": None,
    }
    if inst.local is not None:
        doc["local"] = {
            "redundancy": inst.local_redundancy,
            "alpha": inst.local.alpha,
            "beta": inst.local.beta,
            "frames": [_vecframe_out(fr) for fr in inst.local.frames],
            "duals": [_vecframe_out(du) for du in inst.local.duals],
        }
    return json.dumps(doc, indent=2) + "\n"


def reference_instance_from_json(text: str) -> Instance:
    """Parse an ffv1 document; a missing key or malformed value is a ContractViolationError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContractViolationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != "ffv1":
        raise ContractViolationError("not an ffv1 instance document")
    try:
        return _instance_from_doc(doc)
    except FusionFrameError:
        raise
    except KeyError as exc:
        raise ContractViolationError(f"malformed ffv1 document: missing key {exc}") from exc
    except (TypeError, IndexError, ValueError) as exc:
        raise ContractViolationError(f"malformed ffv1 document: {exc}") from exc


def _instance_from_doc(doc: dict) -> Instance:
    n = int(doc["n"])
    w = _sequence_in(doc["w"], n)
    v = _sequence_in(doc["v"], n)
    symbol = Symbol(
        np.array([complex(p[0], p[1]) for p in doc["symbol"]["m"]]),
        np.array([_matrix_in(ri) for ri in doc["symbol"]["r"]]),
    )
    local = None
    redundancy = None
    if doc.get("local"):
        obj = doc["local"]
        redundancy = obj.get("redundancy")
        local = LocalFrameFamily(
            frames=tuple(_vecframe_in(fr, n) for fr in obj["frames"]),
            duals=tuple(_vecframe_in(du, n) for du in obj["duals"]),
            alpha=float(obj["alpha"]),
            beta=float(obj["beta"]),
        )
    return Instance(
        seed=int(doc["seed"]),
        symbol_mode=str(doc["symbol_mode"]),
        w=w,
        v=v,
        symbol=symbol,
        local=local,
        local_redundancy=redundancy,
    )


# The per-candidate, per-block and per-vector loops that the stacked LAPACK
# calls replaced, kept verbatim as the references the stacked code must
# reproduce: bit for bit where the same LAPACK routine runs on the same
# operand, within rounding where a product changed shape.


def reference_annihilation_defects(a, perturbations):
    """||L^* T_A|| of each perturbation, checked one candidate at a time as
    DualCandidate.__post_init__ did, with ||L|| from the whole (N k) x n L."""
    from fusionframes.numerics import spectral_norm

    t = a.analysis
    defects = []
    for l in perturbations:
        scale = max(1.0, a.analysis_norm * spectral_norm(l))
        defect = spectral_norm(l.conj().T @ t)
        if defect > DEFAULT_TOL.eq_rel * scale:
            raise ContractViolationError("perturbation does not annihilate the analysis operator")
        defects.append(defect)
    return np.array(defects)


def reference_admissibility(q_blocks, v, w, tol):
    """(admissible, defects), as is_admissible looped the blocks off I_0."""
    from fusionframes.duality import index_zero_set
    from fusionframes.numerics import spectral_norm

    q = np.asarray(q_blocks, dtype=np.complex128)
    zero_set = index_zero_set(v, w)
    rows = []
    ok = True
    for i in range(v.count):
        if i in zero_set:
            rows.append((0.0, 0.0, 0.0))
            continue
        qi = q[i]
        norm_q = spectral_norm(qi)
        kernel_defect = spectral_norm(qi @ w.projections[i] - qi)
        range_defect = spectral_norm(v.projections[i] @ qi - qi)
        norm_defect = abs(norm_q - 1.0)
        rows.append((kernel_defect, range_defect, norm_defect))
        bound = tol.eq_rel * max(1.0, norm_q)
        if kernel_defect > bound or range_defect > bound or norm_defect > bound:
            ok = False
    return ok, tuple(rows)


def reference_generated_dual(w, u, l_blocks, tol):
    """(V, Q, composite, operators), as generate_fusion_dual built them with one
    product and one SVD per block; ``l_blocks`` is the (N, n, n) stack of L_i."""
    from fusionframes.fusion import sandwich
    from fusionframes.numerics import svals_rank, svd

    s_inv = frame_operator_inverse(w.embedding, tol)
    n = w.ambient_dim
    subs, weights, q_blocks, ops = [], [], [], []
    for i in range(w.count):
        a_i = (w.weights[i] * (u @ s_inv) + l_blocks[i].conj().T) @ w.projections[i]
        ops.append(a_i)
        uu, ss, _ = svd(a_i)
        r = int(svals_rank(ss, n, tol))
        if r == 0:
            subs.append(Subspace.zero(n))
            weights.append(0.0)
            q_blocks.append(np.zeros((n, n), dtype=np.complex128))
            continue
        subs.append(Subspace(uu[:, :r]))
        nrm = float(ss[0])
        weights.append(nrm)
        q_blocks.append(a_i / nrm)
    v = FusionSequence(tuple(subs), np.asarray(weights))
    q = np.array(q_blocks)
    comp = sandwich(v, w, v.weights * w.weights, q)
    return v, q, comp, np.array(ops)


def reference_canonical_gavruta_dual(w, tol):
    """(S_W^-1 W_i, w_i) as canonical_gavruta_dual built it before its ranges came
    from one stacked SVD: one SVD of S_W^-1 B_i per nonzero block, cut at the rank
    rule for its larger side."""
    from fusionframes.numerics import svals_rank, svd

    s_inv = frame_operator_inverse(w.embedding, tol)
    subs = []
    for sub in w.subspaces:
        if not sub.dim:
            subs.append(Subspace.zero(w.ambient_dim))
            continue
        vectors = s_inv @ sub.basis
        u, s, _ = svd(vectors)
        subs.append(Subspace(u[:, : int(svals_rank(s, max(vectors.shape), tol))]))
    return FusionSequence(tuple(subs), w.weights.copy())


def reference_dual_representation_residual(stacked_q, inv_blocks, duals, m_inv):
    """max over the duals of ||M^-1 - sum_i Q_i^* (m_i R_i)^-1 D_i|| / ||M^-1||, one
    SVD per dual, as _representation_residual took it."""
    from fusionframes.fusion import block_sum
    from fusionframes.numerics import spectral_norm

    q_adj_inv = stacked_q.reshape(inv_blocks.shape).conj().transpose(0, 2, 1) @ inv_blocks
    scale = spectral_norm(m_inv)
    return max(
        spectral_norm(m_inv - block_sum(q_adj_inv @ d.reshape(inv_blocks.shape))) / scale
        for d in duals
    )


def reference_local_frame_equivalence(sym, v, w, family, tol):
    """local_frame_equivalence with one matrix-vector product per local vector."""
    from fusionframes.frames import ordinary_multiplier
    from fusionframes.multipliers import assemble_multiplier
    from fusionframes.numerics import spectral_norm

    anal_rows, synth_rows, m_hat = [], [], []
    for i, sub in enumerate(w.subspaces):
        if sub.dim == 0:
            continue
        phi = family.frames[i]
        dual = family.duals[i]
        p_v = v.projections[i]
        for j in range(phi.count):
            anal_rows.append(w.weights[i] * phi.vectors[j])
            synth_rows.append(v.weights[i] * (p_v @ (sym.r[i] @ dual.vectors[j])))
            m_hat.append(sym.m[i])
    m_fusion = assemble_multiplier(sym, v, w, tol).matrix
    m_lifted = ordinary_multiplier(
        np.asarray(m_hat),
        VectorFrame(np.array(synth_rows)),
        VectorFrame(np.array(anal_rows)),
    )
    return spectral_norm(m_fusion - m_lifted) / max(1.0, spectral_norm(m_fusion))


def reference_local_duals(family, tol):
    """Canonical local duals pinv(S) phi_j from the n x n pseudoinverse of each
    local frame operator, as build_local_frames took them."""
    return [None if phi is None else canonical_dual_ordinary(phi, tol) for phi in family.frames]
