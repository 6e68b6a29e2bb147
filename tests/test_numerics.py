"""Tolerance policy and dense kernel contracts."""

import numpy as np
import pytest

from fusionframes.exceptions import ContractViolationError
from fusionframes.fusion import projection, random_subspace
from fusionframes.numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    clears_inv_cutoff,
    clipped_eig_bounds,
    extreme_singular_values,
    inverse,
    near_inv_cutoff,
    pinv,
    rank_tol,
    schatten_norm,
    spectral_norm,
    svd,
)


def test_tolerance_config_validates():
    with pytest.raises(ContractViolationError):
        ToleranceConfig(eq_rel=0.0)
    with pytest.raises(ContractViolationError):
        ToleranceConfig(rank_rel=1.5)
    cfg = ToleranceConfig(eq_rel=1e-6)
    assert cfg.eq_rel == 1e-6 and cfg.rank_rel == 1e-10


def test_svd_identity_and_diagonal():
    _, s, _ = svd(np.eye(2))
    np.testing.assert_allclose(s, [1.0, 1.0])
    _, s, _ = svd(np.diag([3.0, 0.0]))
    np.testing.assert_allclose(s, [3.0, 0.0])


def test_svd_nilpotent_jordan_block():
    # s_i = sqrt(eig(A^* A)); A^* A = diag(0, 1) so s = (1, 0)
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    _, s, _ = svd(a)
    np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-15)
    assert spectral_norm(a) == pytest.approx(1.0)


def test_svd_rejects_nonfinite():
    with pytest.raises(ContractViolationError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_svd_roundtrip_on_random_matrices(rng):
    for _ in range(1000):
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 33))
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        u, s, vh = svd(a)
        resid = spectral_norm(a - (u * s) @ vh)
        assert resid <= DEFAULT_TOL.eq_rel * max(1.0, s[0])
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(vh.shape[0]), atol=1e-12)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_rank_tol_cases():
    assert rank_tol(np.zeros((3, 3))) == 0
    assert rank_tol(np.eye(4)) == 4
    assert rank_tol(np.diag([1.0, 1e-14])) == 1


def test_pinv_cases():
    np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)
    z = pinv(np.zeros((2, 3)))
    assert z.shape == (3, 2) and np.all(z == 0)
    np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_moore_penrose_identities(rng):
    for _ in range(50):
        rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        r = int(rng.integers(1, min(rows, cols) + 1))
        a = (rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))) @ (
            rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols))
        )
        ap = pinv(a)
        scale = max(1.0, spectral_norm(a))
        assert spectral_norm(a @ ap @ a - a) <= DEFAULT_TOL.eq_rel * scale
        assert spectral_norm(ap @ a @ ap - ap) <= DEFAULT_TOL.eq_rel * max(1.0, spectral_norm(ap))
        assert spectral_norm((a @ ap).conj().T - a @ ap) <= DEFAULT_TOL.eq_rel * scale
        assert spectral_norm((ap @ a).conj().T - ap @ a) <= DEFAULT_TOL.eq_rel * scale


def test_clipped_eig_bounds():
    assert clipped_eig_bounds(np.diag([1.0, 4.0])) == (1.0, 4.0)
    assert clipped_eig_bounds(np.eye(5)) == (1.0, 1.0)
    assert clipped_eig_bounds(np.diag([0.0, 2.0, 5.0])) == (0.0, 5.0)
    # rounding below zero is clipped; a genuinely negative eigenvalue is not
    assert clipped_eig_bounds(np.diag([-1e-12, 3.0])) == (0.0, 3.0)
    assert clipped_eig_bounds(np.diag([-1e-3, 3.0])) == (-1e-3, 3.0)


def test_inv_cutoff_rules():
    assert extreme_singular_values(np.diag([3.0, 0.5])) == (0.5, 3.0)
    assert extreme_singular_values(np.zeros((0, 2))) == (0.0, 0.0)
    assert clears_inv_cutoff(1.0, 2.0)
    assert not clears_inv_cutoff(0.0, 0.0)
    assert not clears_inv_cutoff(1e-8, 1.0)
    assert clears_inv_cutoff(2e-8, 1.0)
    assert near_inv_cutoff(2e-8, 1.0) and near_inv_cutoff(1e-8, 1.0)
    assert not near_inv_cutoff(1e-6, 1.0) and not near_inv_cutoff(0.0, 0.0)


def test_schatten_norm():
    assert schatten_norm(np.eye(3), 2) == pytest.approx(np.sqrt(3))
    assert schatten_norm(np.diag([3.0, 4.0]), 1) == pytest.approx(7.0)
    assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0)
    with pytest.raises(ContractViolationError):
        schatten_norm(np.eye(2), 0.5)


def test_schatten_two_equals_frobenius(rng):
    for _ in range(20):
        a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        assert schatten_norm(a, 2) == pytest.approx(float(np.linalg.norm(a)), rel=1e-12)


def test_inverse_guarded(rng):
    from fusionframes.exceptions import NotInvertibleError

    with pytest.raises(NotInvertibleError) as info:
        inverse(np.diag([1.0, 0.0]))
    assert info.value.sigma_min == 0.0
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 3 * np.eye(4)
    np.testing.assert_allclose(inverse(a) @ a, np.eye(4), atol=1e-10)


def test_random_subspace_contracts(rng):
    zero = random_subspace(3, 0, rng)
    assert zero.dim == 0
    np.testing.assert_allclose(projection(zero), np.zeros((3, 3)))
    full = random_subspace(3, 3, rng)
    np.testing.assert_allclose(projection(full), np.eye(3), atol=1e-12)
    with pytest.raises(ContractViolationError):
        random_subspace(3, 4, rng)


def test_random_subspace_seeding_determinism():
    a = random_subspace(4, 2, np.random.default_rng(7))
    b = random_subspace(4, 2, np.random.default_rng(7))
    np.testing.assert_array_equal(a.basis, b.basis)


def test_random_subspace_orthonormal(rng):
    for _ in range(25):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(0, n + 1))
        s = random_subspace(n, d, rng)
        gram = s.basis.conj().T @ s.basis
        assert np.linalg.norm(gram - np.eye(d)) <= DEFAULT_TOL.eq_rel
