import numpy as np
import pytest

from fusionframes.fusion import FusionSequence, Subspace


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


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


def reference_dual_perturbations(a, tol, limit=None):
    """The member-wise dual family sweep the structured code replaced.

    Yields L = 0, then P_ker E_rs as a full product with the elementary
    matrix, in row-major order of (r, s); like ``spanning_dual_family``
    it yields at least one member whatever ``limit`` is.
    """
    from fusionframes.ovf import kernel_projector, ovf_analysis

    t = ovf_analysis(a)
    rows, cols = t.shape
    produced = 0
    yield np.zeros_like(t)
    produced += 1
    if limit is not None and produced >= limit:
        return
    pker = kernel_projector(a, tol)
    for r in range(rows):
        for s in range(cols):
            e = np.zeros((rows, cols), dtype=np.complex128)
            e[r, s] = 1.0
            yield pker @ e
            produced += 1
            if limit is not None and produced >= limit:
                return


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
