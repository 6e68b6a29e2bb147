"""Vector frames: bounds (through the embedding), duals, multipliers, inverse
representation."""

import numpy as np
import pytest

from conftest import canonical_dual_ordinary
from fusionframes.exceptions import ContractViolationError, NotInvertibleError
from fusionframes.frames import (
    embed_ordinary,
    inverse_representation_ordinary,
    ordinary_multiplier,
    sample_ordinary_duals,
)
from fusionframes.numerics import DEFAULT_TOL, spectral_norm
from fusionframes.ovf import is_frame

E1 = np.array([1.0, 0.0], dtype=np.complex128)
E2 = np.array([0.0, 1.0], dtype=np.complex128)


def _bounds(phi):
    return embed_ordinary(phi).frame_bounds


def test_bounds_parseval():
    onb = np.eye(2)
    assert _bounds(onb) == pytest.approx((1.0, 1.0))


def test_bounds_redundant():
    phi = np.array([E1, E1, E2])
    np.testing.assert_allclose(embed_ordinary(phi).frame_operator, np.diag([2.0, 1.0]))
    assert _bounds(phi) == pytest.approx((1.0, 2.0))


def test_bounds_rank_deficient():
    phi = np.array([E1])
    lo, hi = _bounds(phi)
    assert lo == pytest.approx(0.0, abs=1e-15) and hi == pytest.approx(1.0)
    assert not is_frame(embed_ordinary(phi))


def test_canonical_dual_examples():
    onb = np.eye(3)
    np.testing.assert_allclose(canonical_dual_ordinary(onb), np.eye(3), atol=1e-14)
    twice = np.array([E1, E1])
    np.testing.assert_allclose(
        canonical_dual_ordinary(twice), np.array([E1 / 2, E1 / 2]), atol=1e-14
    )
    scaled = np.array([2 * E1, E2])
    np.testing.assert_allclose(
        canonical_dual_ordinary(scaled), np.array([E1 / 2, E2]), atol=1e-14
    )


def test_canonical_dual_reconstructs_random_frames(rng):
    for _ in range(200):
        n = int(rng.integers(1, 9))
        count = int(rng.integers(n, 17))
        vecs = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        phi = vecs
        if not is_frame(embed_ordinary(phi)):
            continue
        dual = canonical_dual_ordinary(phi)
        recon = ordinary_multiplier(np.ones(count), phi, dual)
        assert spectral_norm(recon - np.eye(n)) <= 1e-7
        # the library's canonical dual, T S^-1 of the embedding, is the same frame
        (canonical,) = sample_ordinary_duals(phi, 1, rng)
        assert spectral_norm(canonical - dual) <= 1e-7 * max(
            1.0, spectral_norm(dual)
        )


def test_multiplier_examples():
    onb = np.eye(2)
    np.testing.assert_allclose(ordinary_multiplier(np.ones(2), onb, onb), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(
        ordinary_multiplier([2.0, 3.0], onb, onb), np.diag([2.0, 3.0]), atol=1e-15
    )
    swapped = ordinary_multiplier(
        np.ones(2),
        np.array([E2, E1]),
        np.array([E1, E2]),
    )
    np.testing.assert_allclose(swapped, np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_multiplier_length_mismatch():
    onb = np.eye(2)
    with pytest.raises(ContractViolationError):
        ordinary_multiplier(np.ones(3), onb, onb)


def test_multiplier_sesquilinearity(rng):
    n, count = 3, 5
    synth = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    anal = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    m = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    c = complex(rng.standard_normal(), rng.standard_normal())
    base = ordinary_multiplier(m, synth, anal)
    scaled_synth = ordinary_multiplier(m, c * synth, anal)
    np.testing.assert_allclose(scaled_synth, c * base, atol=1e-12)
    scaled_anal = ordinary_multiplier(m, synth, c * anal)
    np.testing.assert_allclose(scaled_anal, np.conj(c) * base, atol=1e-12)


def test_inverse_representation_identity_symbol():
    onb = np.eye(2)
    psi, residual = inverse_representation_ordinary(np.ones(2), onb, onb, np.random.default_rng(0x5EED))
    np.testing.assert_allclose(psi, np.eye(2), atol=1e-12)
    assert residual <= DEFAULT_TOL.eq_rel


def test_inverse_representation_diagonal_symbol():
    onb = np.eye(2)
    psi, residual = inverse_representation_ordinary([2.0, 4.0], onb, onb, np.random.default_rng(0x5EED))
    np.testing.assert_allclose(psi, np.eye(2), atol=1e-12)
    assert residual <= DEFAULT_TOL.eq_rel


def test_inverse_representation_singular_symbol():
    onb = np.eye(2)
    with pytest.raises(NotInvertibleError):
        inverse_representation_ordinary([1.0, 0.0], onb, onb, np.random.default_rng(0x5EED))


def test_inverse_representation_random_redundant(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        count = n + int(rng.integers(0, 3))
        phi = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        psi = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        m = np.exp(1j * rng.uniform(0, 2 * np.pi, count)) * rng.uniform(0.5, 2.0, count)
        mat = ordinary_multiplier(m, phi, psi)
        s = np.linalg.svd(mat, compute_uv=False)
        if s[-1] <= 1e-3 * s[0]:
            continue
        _, residual = inverse_representation_ordinary(m, phi, psi, rng=rng)
        assert residual <= DEFAULT_TOL.eq_rel


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ordinary_multiplier(np.ones(2), np.eye(2), np.ones((2, 3))),
         "live in different spaces"),
        # M = e1 e1^* + e2 e2^* = I is invertible, but the symbol vanishes on phi_3
        (lambda: inverse_representation_ordinary(
            [1.0, 1.0, 0.0], np.array([E1, E2, E1 + E2]),
            np.array([E1, E2, E1 + E2]), np.random.default_rng(0x5EED),
        ), "symbol is not semi-normalized: zero entry"),
    ],
    ids=["multiplier_spaces", "zero_symbol_entry"],
)
def test_vector_multiplier_contracts_raise_contract_violations(call, message):
    with pytest.raises(ContractViolationError, match=message):
        call()
