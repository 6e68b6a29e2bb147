"""Tolerance policy and dense kernel contracts."""

import re
from pathlib import Path

import numpy as np
import pytest

from conftest import pinv, rank_tol, schatten_norm
from fusionframes import numerics
from fusionframes.exceptions import ContractViolationError, NumericFailureError
from fusionframes.fusion import projection, random_subspace
from fusionframes.multipliers import Symbol
from fusionframes.numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    clears_inv_cutoff,
    extreme_singular_values,
    near_inv_cutoff,
    relative_defect,
    singular_values,
    spectral_norm,
    spectral_norms,
    svd,
)
from fusionframes.ovf import OVFrame


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


@pytest.mark.parametrize(
    "name",
    [
        "svd",
        "stacked_svd",
        "singular_values",
        "stacked_singular_values",
        "spectral_norm",
        "spectral_norms",
        "extreme_singular_values",
    ],
)
def test_svd_non_convergence_is_a_numeric_failure(monkeypatch, name):
    # svd and singular_values take a matrix or a stack; "stacked_" names the stack
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    stacked = name.startswith("stacked_") or name == "spectral_norms"
    operand = np.eye(2)[None] if stacked else np.eye(2)
    with pytest.raises(NumericFailureError):
        getattr(numerics, name.removeprefix("stacked_"))(operand)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(np.inf, 0.0), np.nan])
@pytest.mark.parametrize(
    "name",
    [
        "svd",
        "stacked_svd",
        "singular_values",
        "stacked_singular_values",
        "spectral_norm",
        "spectral_norms",
        "extreme_singular_values",
    ],
)
def test_no_svd_reader_hands_lapack_a_nonfinite_operand(monkeypatch, name, bad):
    # LAPACK's SVD raises on a NaN, but on an infinite entry it may never return,
    # so the finiteness scan must stop the operand before np.linalg.svd sees it
    def unreachable(*args, **kwargs):
        pytest.fail("np.linalg.svd was handed a non-finite operand")

    monkeypatch.setattr(np.linalg, "svd", unreachable)
    operand = np.ones((5, 3), dtype=np.complex128)
    operand[0, 0] = bad
    stacked = name.startswith("stacked_") or name == "spectral_norms"
    with pytest.raises(ContractViolationError, match="NaN or Inf"):
        getattr(numerics, name.removeprefix("stacked_"))(operand[None] if stacked else operand)


def test_every_svd_of_the_package_goes_through_numerics():
    # so each reports non-convergence as NumericFailureError (see above)
    package = Path(numerics.__file__).parent
    direct = re.compile(r"linalg\.svd\b|from\s+numpy\.linalg\s+import[^\n]*\bsvd\b")
    callers = sorted(p.name for p in package.glob("*.py") if direct.search(p.read_text()))
    assert callers == ["numerics.py"]


def test_the_comparison_scale_floor_is_written_only_in_numerics():
    # every relative residual and eq_rel test takes its scale from relative_defect
    package = Path(numerics.__file__).parent
    floor = re.compile(r"\b(?:max|maximum|fmax)\(1\.0,")
    writers = sorted(p.name for p in package.glob("*.py") if floor.search(p.read_text()))
    assert writers == ["numerics.py"]


def test_relative_defect_is_the_defect_over_max_one_scale_bit_for_bit():
    scales = [0.0, 0.5, 1.0, 2.0, np.inf, np.nan]
    defects = [0.0, 3e-9, 0.75, 7.0, 1e300]
    for x in defects:
        for scale in scales:
            got = relative_defect(x, scale)
            assert np.float64(got).tobytes() == np.float64(x / max(1.0, scale)).tobytes()
    # elementwise, with broadcasting, as the stacked tests apply it
    x = np.array(defects)[:, None] * np.ones(len(scales))
    want = np.array([[xi / max(1.0, s) for s in scales] for xi in defects])
    assert relative_defect(x, np.array(scales)).tobytes() == want.tobytes()


def test_eigvalsh_failure_is_a_numeric_failure():
    # the frame operator of weights whose squares overflow, as it was formed
    # before FusionSequence rejected them: eigvalsh raises LinAlgError on it
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.full((4, 4), np.inf) * np.eye(4)
    with pytest.raises(NumericFailureError, match="eigvalsh"):
        numerics.eig_extremes(s)


def test_svd_of_a_stack_matches_svd_per_matrix(rng):
    for shape in ((5, 4, 4), (3, 6, 2), (2, 1, 1), (0, 3, 3), (2, 3, 0)):
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s_only = singular_values(stack)
        assert s_only.shape == (shape[0], min(shape[1:]))
        if min(shape[1:]):
            u, s, vh = svd(stack)
            assert u.shape[0] == s.shape[0] == vh.shape[0] == shape[0]
        for k, matrix in enumerate(stack):
            assert np.array_equal(s_only[k], singular_values(matrix))
            if min(shape[1:]):
                for got, want in zip((u[k], s[k], vh[k]), svd(matrix)):
                    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(3,), (1, 2, 3, 3)])
def test_svd_takes_only_a_matrix_or_a_stack(shape):
    for fn in (svd, singular_values):
        with pytest.raises(ContractViolationError):
            fn(np.ones(shape))
    for fn in (spectral_norm, extreme_singular_values):
        with pytest.raises(ContractViolationError):
            fn(np.ones((2, 3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_stacks_and_symbols_reject_nonfinite_entries(bad):
    stack = np.ones((2, 3, 3), dtype=np.complex128)
    stack[1, 0, 2] = bad
    with pytest.raises(ContractViolationError):
        spectral_norms(stack)
    with pytest.raises(ContractViolationError):
        OVFrame(stack)
    with pytest.raises(ContractViolationError):
        Symbol(np.ones(2), stack)
    with pytest.raises(ContractViolationError):
        Symbol(np.array([1.0, bad]), np.ones((2, 3, 3)))


@pytest.mark.parametrize("shape", [(3, 3), (1, 2, 3, 3)])
def test_stacks_and_symbols_reject_a_wrong_number_of_axes(shape):
    with pytest.raises(ContractViolationError):
        spectral_norms(np.ones(shape))
    with pytest.raises(ContractViolationError):
        OVFrame(np.ones(shape))
    with pytest.raises(ContractViolationError):
        Symbol(np.ones(shape[0]), np.ones(shape))


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
