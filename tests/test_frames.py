"""Vector frames: bounds and canonical duals (through the rank-one frame of the
vectors), and the ordinary multiplier."""

import numpy as np
import pytest

from conftest import canonical_dual_ordinary, rank_one_frame
from fusionframes.exceptions import ContractViolationError
from fusionframes.frames import ordinary_multiplier
from fusionframes.numerics import spectral_norm
from fusionframes.ovf import is_frame

E1 = np.array([1.0, 0.0], dtype=np.complex128)
E2 = np.array([0.0, 1.0], dtype=np.complex128)


def _bounds(phi):
    return rank_one_frame(phi).frame_bounds


def test_bounds_parseval():
    onb = np.eye(2)
    assert _bounds(onb) == pytest.approx((1.0, 1.0))


def test_bounds_redundant():
    phi = np.array([E1, E1, E2])
    np.testing.assert_allclose(rank_one_frame(phi).frame_operator, np.diag([2.0, 1.0]))
    assert _bounds(phi) == pytest.approx((1.0, 2.0))


def test_bounds_rank_deficient():
    phi = np.array([E1])
    lo, hi = _bounds(phi)
    assert lo == pytest.approx(0.0, abs=1e-15) and hi == pytest.approx(1.0)
    assert not is_frame(rank_one_frame(phi))


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
        if not is_frame(rank_one_frame(phi)):
            continue
        dual = canonical_dual_ordinary(phi)
        recon = ordinary_multiplier(np.ones(count), phi, dual)
        assert spectral_norm(recon - np.eye(n)) <= 1e-7
        # the library's canonical dual, T S^-1 of the rank-one frame, read back as
        # vectors, is the same frame
        canonical = rank_one_frame(phi).canonical_analysis.conj()
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ordinary_multiplier(np.ones(2), np.eye(2), np.ones((2, 3))),
         "live in different spaces"),
    ],
    ids=["multiplier_spaces"],
)
def test_vector_multiplier_contracts_raise_contract_violations(call, message):
    with pytest.raises(ContractViolationError, match=message):
        call()
