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
