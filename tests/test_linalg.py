"""Tests for the dense matrix kernels and tensor reshuffles."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from qsconc import linalg, states
from qsconc.errors import (
    DimensionMismatchError,
    NonFiniteInputError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
    RangeError,
)

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5

# Partial transpose of the Bell projector, written out by hand from the
# index map p[(i,j),(k,l)] -> p[(k,j),(i,l)].
BELL_PT = np.array(
    [
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.5],
    ],
    dtype=complex,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _exact_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2
    assert np.array_equal(h, h.conj().T)
    return h


def _svd_sum(m):
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "kernel",
    [
        linalg.hermitian_eigenvalues,
        linalg.singular_values,
        linalg.trace_norm,
        lambda m: linalg.schatten_norm(m, 2),
    ],
    ids=["hermitian_eigenvalues", "singular_values", "trace_norm", "schatten_norm"],
)
def test_non_finite_rejected(kernel, bad):
    with pytest.raises(NonFiniteInputError):
        kernel(np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex))


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(linalg.hermitian_eigenvalues(np.eye(2)), [1, 1])

    def test_diagonal(self):
        w = linalg.hermitian_eigenvalues(np.diag([0.3, 0.7]))
        assert np.allclose(w, [0.7, 0.3])

    def test_bell_partial_transpose_spectrum(self):
        w = linalg.hermitian_eigenvalues(BELL_PT)
        assert np.allclose(w, [0.5, 0.5, 0.5, -0.5], atol=1e-12)

    def test_tiny_values_clamped(self):
        w = linalg.hermitian_eigenvalues(np.diag([1.0, 1e-12, -1e-12]))
        assert w[1] == 0.0 and w[2] == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            linalg.hermitian_eigenvalues(np.ones((2, 3)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            linalg.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSingularAndNorms:
    def test_zero_matrix(self):
        assert np.allclose(linalg.singular_values(np.zeros((3, 3))), 0)

    def test_unitary_has_unit_singulars(self):
        u = states.haar_random_unitary(4, seed=5)
        assert np.allclose(linalg.singular_values(u), 1.0)

    def test_realigned_bell_singulars(self):
        r = linalg.realign(BELL, (2, 2))
        assert np.allclose(linalg.singular_values(r), [0.5, 0.5, 0.5, 0.5])

    def test_density_trace_norm_is_one(self):
        rho = states.random_mixed((2, 2), 3, seed=0)
        assert linalg.trace_norm(rho.matrix) == pytest.approx(1.0, abs=1e-10)

    def test_bell_partial_transpose_trace_norm(self):
        assert linalg.trace_norm(BELL_PT) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("f,d", [(0.5, 2), (0.8, 3), (1.0, 4), (0.4, 3)])
    def test_isotropic_pt_norm_is_dF(self, f, d):
        if f < 1.0 / d:
            pytest.skip("norm formula holds in the entangled regime")
        rho = states.isotropic(f, d)
        pt = linalg.partial_transpose(rho.matrix, (d, d))
        assert linalg.trace_norm(pt) == pytest.approx(d * f, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 32, 64])
    def test_exact_hermitian_matches_singular_sum(self, n):
        h = _exact_hermitian(n, seed=n)
        assert abs(linalg.trace_norm(h) - _svd_sum(h)) <= 1e-12 * n

    def test_exact_hermitian_skips_svd(self, monkeypatch):
        h = _exact_hermitian(6, seed=1)
        expected = _svd_sum(h)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called on an exactly Hermitian matrix")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert linalg.trace_norm(h) == pytest.approx(expected, abs=1e-12)

    def test_nearly_hermitian_takes_svd(self):
        h = _exact_hermitian(6, seed=2)
        b = _exact_hermitian(6, seed=3)
        m = h + 1e-10j * b  # i times a Hermitian matrix is anti-Hermitian
        assert not np.array_equal(m, m.conj().T)
        assert linalg.trace_norm(m) == _svd_sum(m)

    def test_trace_norm_dominates_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert linalg.trace_norm(m) >= abs(np.trace(m)) - 1e-10


class TestSchattenNorm:
    def test_half_half_q2(self):
        val = linalg.schatten_norm(np.diag([0.5, 0.5]), 2)
        assert val == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_identity_q1_is_dimension(self):
        assert linalg.schatten_norm(np.eye(5), 1) == pytest.approx(5.0)

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.5])
    def test_pure_projector_is_one(self, q):
        psi = states.haar_random_pure((3, 2), seed=2)
        assert linalg.schatten_norm(psi.projector(), q) == pytest.approx(1.0, abs=1e-10)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDError):
            linalg.schatten_norm(np.diag([1.5, -0.5]), 2)

    def test_q_below_one_rejected(self):
        with pytest.raises(RangeError):
            linalg.schatten_norm(np.eye(2), 0.5)


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = linalg.kron(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
        assert np.allclose(np.diag(out), [10, 14, 15, 21])

    def test_basis_projector(self):
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        out = linalg.kron(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1
        assert np.allclose(out, expected)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rho_a = states.random_mixed((2,), 2, seed=1).matrix
        rho_b = states.random_mixed((3,), 2, seed=2).matrix
        joint = linalg.kron(rho_a, rho_b)
        assert np.allclose(linalg.partial_trace(joint, (2, 3), "A"), rho_a, atol=1e-12)
        assert np.allclose(linalg.partial_trace(joint, (2, 3), "B"), rho_b, atol=1e-12)

    def test_bell_reduces_to_maximally_mixed(self):
        assert np.allclose(linalg.partial_trace(BELL, (2, 2), "A"), np.eye(2) / 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_isotropic_reduces_to_maximally_mixed(self, d):
        rho = states.isotropic(0.7, d)
        red = linalg.partial_trace(rho.matrix, (d, d), "A")
        assert np.allclose(red, np.eye(d) / d, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(4), (2, 3), "A")


class TestPartialTranspose:
    def test_diagonal_invariant(self):
        d = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert np.array_equal(linalg.partial_transpose(d, (2, 2)), d)

    def test_involution(self):
        rho = states.random_mixed((2, 3), 4, seed=3).matrix
        twice = linalg.partial_transpose(
            linalg.partial_transpose(rho, (2, 3)), (2, 3)
        )
        assert np.array_equal(twice, rho)

    def test_bell_matches_hand_matrix(self):
        assert np.array_equal(linalg.partial_transpose(BELL, (2, 2)), BELL_PT)


class TestRealign:
    def test_pure_product_trace_norm_one(self):
        a = states.haar_random_pure((2,), seed=4).amplitudes
        b = states.haar_random_pure((3,), seed=5).amplitudes
        rho = np.outer(np.kron(a, b), np.kron(a, b).conj())
        assert linalg.trace_norm(linalg.realign(rho, (2, 3))) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_bell_trace_norm_two(self):
        assert linalg.trace_norm(linalg.realign(BELL, (2, 2))) == pytest.approx(2.0)

    def test_shape(self):
        rho = states.random_mixed((2, 3), 2, seed=6).matrix
        assert linalg.realign(rho, (2, 3)).shape == (4, 9)

    def test_non_square_trace_norm_takes_svd(self):
        r = linalg.realign(states.random_mixed((2, 3), 2, seed=6).matrix, (2, 3))
        assert linalg.trace_norm(r) == _svd_sum(r)

    @pytest.mark.parametrize("seed", range(5))
    def test_pure_state_norm_identity(self, seed):
        # Both reshuffle norms of a pure state equal (sum sqrt(lambda))^2.
        psi = states.haar_random_pure((3, 4), seed=seed)
        lam = states.schmidt(psi).values
        expected = np.sum(np.sqrt(lam)) ** 2
        rho = psi.projector()
        assert linalg.trace_norm(linalg.partial_transpose(rho, (3, 4))) == pytest.approx(
            expected, abs=1e-8
        )
        assert linalg.trace_norm(linalg.realign(rho, (3, 4))) == pytest.approx(
            expected, abs=1e-8
        )

    @pytest.mark.parametrize("w", [0.0, 0.3, 0.7, 1.0])
    def test_werner_norms_match_closed_form(self, w, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        ppt, rea = importlib.import_module("workloads").werner_norms(w, 8)
        rho = states.werner(w, 8).matrix
        assert linalg.trace_norm(linalg.partial_transpose(rho, (8, 8))) == pytest.approx(
            ppt, abs=1e-12
        )
        assert linalg.trace_norm(linalg.realign(rho, (8, 8))) == pytest.approx(
            rea, abs=1e-12
        )

    @pytest.mark.parametrize("f", [0.125, 0.4, 0.9, 1.0])
    def test_isotropic_norms_are_dF(self, f):
        rho = states.isotropic(f, 8).matrix
        assert linalg.trace_norm(linalg.partial_transpose(rho, (8, 8))) == pytest.approx(
            8 * f, abs=1e-12
        )
        assert linalg.trace_norm(linalg.realign(rho, (8, 8))) == pytest.approx(
            8 * f, abs=1e-12
        )

    def test_singular_values_invariant_under_subsystem_swap(self):
        for seed in range(5):
            rho = states.random_mixed((2, 3), 3, seed=seed).matrix
            swap = np.zeros((6, 6))
            for i in range(2):
                for j in range(3):
                    swap[j * 2 + i, i * 3 + j] = 1.0
            swapped = swap @ rho @ swap.T
            sv1 = linalg.singular_values(linalg.realign(rho, (2, 3)))
            sv2 = linalg.singular_values(linalg.realign(swapped, (3, 2)))
            assert np.allclose(np.sort(sv1), np.sort(sv2), atol=1e-10)


def test_density_matrix_spectrum_sums_to_one():
    for seed in range(10):
        rho = states.random_mixed((2, 2), 4, seed=seed)
        w = linalg.hermitian_eigenvalues(rho.matrix)
        assert abs(np.sum(w) - 1.0) < 1e-9
        assert w[-1] >= -1e-10
