"""Tests for polygon inequalities and monogamy residuals."""

import math

import numpy as np
import pytest

from qsconc import inequalities, measures, states
from qsconc.errors import (
    BadPartitionError,
    MixedGlobalStateError,
    MonogamyWindowError,
    NotAStateError,
    NotQubitsError,
    RangeError,
    UnsupportedRegimeError,
)

EXAMPLE3 = states.GenSchmidt3(
    math.sqrt(2 / 7), math.sqrt(1 / 7), math.sqrt(1 / 7), math.sqrt(3 / 7), 0.0
)


def ghz(n: int) -> states.PureState:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / math.sqrt(2)
    return states.PureState((2,) * n, v)


def w3() -> states.PureState:
    v = np.zeros(8, dtype=complex)
    v[0b001] = v[0b010] = v[0b100] = 1 / math.sqrt(3)
    return states.PureState((2, 2, 2), v)


class TestMarginals:
    def test_product_state_zero(self):
        amps = [states.haar_random_pure((2,), seed=k).amplitudes for k in range(3)]
        v = np.kron(np.kron(amps[0], amps[1]), amps[2])
        psi = states.PureState((2, 2, 2), v)
        p = measures.classify(2, 1)
        for j in range(3):
            assert inequalities.marginal_cqs(psi, j, p) == pytest.approx(0.0, abs=1e-12)

    def test_ghz_marginals(self):
        p = measures.classify(2, 1)
        for j in range(3):
            assert inequalities.marginal_cqs(ghz(3), j, p) == pytest.approx(0.5)

    def test_w_state_marginals(self):
        # each reduced qubit of the W state has spectrum (2/3, 1/3)
        p = measures.classify(2, 1)
        for j in range(3):
            assert inequalities.marginal_cqs(w3(), j, p) == pytest.approx(
                4 / 9, abs=1e-12
            )

    def test_regime_b_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            inequalities.marginal_cqs(ghz(3), 0, measures.classify(0.5, 0.5))

    def test_bad_index(self):
        with pytest.raises(BadPartitionError):
            inequalities.marginal_cqs(ghz(3), 3, measures.classify(2, 1))


class TestPolygon:
    def test_ghz_no_violation(self):
        rep = inequalities.polygon_check(ghz(3), measures.classify(2, 1))
        assert rep.ok and rep.violations == []

    def test_product_no_violation(self):
        amps = [states.haar_random_pure((2,), seed=k).amplitudes for k in range(3)]
        psi = states.PureState((2, 2, 2), np.kron(np.kron(amps[0], amps[1]), amps[2]))
        assert inequalities.polygon_check(psi, measures.classify(2, 2)).ok

    def test_random_sweep_no_violations(self):
        pairs = [measures.classify(*qs) for qs in
                 [(2, 1), (2, 2), (3, 1), (1.5, 1), (2.5, 0.8), (3, 2)]]
        rng = np.random.default_rng(123)
        for seed in range(100):
            n = int(rng.integers(3, 5))
            dims = tuple(int(d) for d in rng.integers(2, 5, size=n))
            psi = states.haar_random_pure(dims, seed=seed)
            for p in pairs:
                assert inequalities.polygon_check(psi, p).ok

    def test_needs_three_parties(self):
        with pytest.raises(BadPartitionError):
            inequalities.polygon_check(states.max_entangled(2), measures.classify(2, 1))


class TestPolygonGroups:
    def test_single_member_group_is_equality(self):
        psi = states.haar_random_pure((2, 3, 2), seed=5)
        p = measures.classify(2, 2)
        rep = inequalities.polygon_group_check(psi, [1], p)
        assert rep.ok
        assert rep.marginals[0] == pytest.approx(rep.marginals[1], abs=1e-12)

    def test_ghz4_two_vs_two(self):
        p = measures.classify(2, 1)
        rep = inequalities.polygon_group_check(ghz(4), [0, 1], p)
        # block reduced state has spectrum (1/2, 1/2, 0, 0): block term 1/2,
        # per-qubit marginals 1/2 each.
        assert rep.marginals[0] == pytest.approx(0.5, abs=1e-12)
        assert rep.ok

    def test_random_two_vs_two_sweep(self):
        p = measures.classify(2, 2)
        splits = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        for seed in range(200):
            dims = [(2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 2, 3)][seed % 3]
            psi = states.haar_random_pure(dims, seed=seed)
            for g in splits:
                assert inequalities.polygon_group_check(psi, g, p).ok

    def test_bad_groups(self):
        psi = states.haar_random_pure((2, 2, 2), seed=0)
        p = measures.classify(2, 1)
        for g in ([], [0, 0], [0, 5], [0, 1, 2]):
            with pytest.raises(BadPartitionError):
                inequalities.polygon_group_check(psi, g, p)

    @pytest.mark.parametrize("group", [[True, 2.9], [0, 1.0], ["0", 1]])
    def test_non_integer_group_rejected(self, group):
        # Unchecked, [True, 2.9] was read as the group [1, 2].
        psi = states.haar_random_pure((2, 3, 2), seed=0)
        with pytest.raises(RangeError, match="integer"):
            inequalities.polygon_group_check(psi, group, measures.classify(2, 1))

    def test_numpy_integer_group_accepted(self):
        psi = states.haar_random_pure((2, 3, 2), seed=0)
        p = measures.classify(2, 1)
        assert (inequalities.polygon_group_check(psi, np.array([0, 2]), p)
                == inequalities.polygon_group_check(psi, [0, 2], p))


class TestMonogamyQubits:
    def test_product_state_all_zero(self):
        amps = [states.haar_random_pure((2,), seed=k).amplitudes for k in range(3)]
        psi = states.PureState((2, 2, 2), np.kron(np.kron(amps[0], amps[1]), amps[2]))
        rep = inequalities.monogamy_residual_qubits(psi, measures.classify(2, 1))
        assert rep.K == pytest.approx(0.0, abs=1e-12)
        assert rep.tau == pytest.approx(0.0, abs=1e-12)

    def test_worked_example_q2_s1(self):
        psi = states.gen_schmidt3(EXAMPLE3)
        rep = inequalities.monogamy_residual_qubits(psi, measures.classify(2, 1))
        assert rep.K == pytest.approx(32 / 49, abs=1e-9)
        assert sorted(rep.K_parts) == pytest.approx([8 / 49, 24 / 49], abs=1e-9)
        assert rep.tau == pytest.approx(0.0, abs=1e-9)

    def test_tau_is_k_minus_parts(self):
        psi = states.haar_random_pure((2, 2, 2, 2), seed=9)
        rep = inequalities.monogamy_residual_qubits(psi, measures.classify(2, 0.75))
        assert rep.tau == rep.K - sum(rep.K_parts)

    def test_rejects_qutrits(self):
        with pytest.raises(NotQubitsError):
            inequalities.monogamy_residual_qubits(
                states.haar_random_pure((2, 3), seed=0), measures.classify(2, 1)
            )

    def test_rejects_mixed_global_state(self):
        rho = states.random_mixed((2, 2, 2), 2, seed=1)
        with pytest.raises(MixedGlobalStateError):
            inequalities.monogamy_residual_qubits(rho, measures.classify(2, 1))

    @pytest.mark.parametrize("state", [np.eye(4) / 4, [1, 0, 0, 0], None])
    def test_rejects_non_state_input(self, state):
        # Unchecked, this raised a bare TypeError (no exit code of its own).
        with pytest.raises(NotAStateError):
            inequalities.qubit_concurrences(state)

    def test_accepts_pure_density_input(self):
        psi = ghz(3)
        rep = inequalities.monogamy_residual_qubits(
            psi.to_density(), measures.classify(2, 1)
        )
        assert rep.tau == pytest.approx(1.0, abs=1e-9)

    def test_q_at_most_one_rejected(self):
        with pytest.raises(MonogamyWindowError):
            inequalities.monogamy_residual_qubits(ghz(3), measures.classify(1, 2))


class TestMonogamyGen3:
    def test_ghz_parameters(self):
        s = 1 / math.sqrt(2)
        rep = inequalities.monogamy_residual_gen3(
            states.GenSchmidt3(s, 0, 0, 0, s), measures.classify(2, 1)
        )
        assert rep.K == pytest.approx(1.0, abs=1e-12)
        assert rep.tau == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_signs(self):
        # tau = 0 at (2,1); < 0 at (4,1); >= 0 at (8, 0.4); < 0 at (9, 0.4)
        taus = {
            qs: inequalities.monogamy_residual_gen3(EXAMPLE3, measures.classify(*qs)).tau
            for qs in [(2, 1), (4, 1), (8, 0.4), (9, 0.4)]
        }
        assert taus[(2, 1)] == pytest.approx(0.0, abs=1e-9)
        assert taus[(4, 1)] < 0
        assert taus[(8, 0.4)] >= -1e-9
        assert taus[(9, 0.4)] < 0

    def test_boundary_q3_s1(self):
        # h at (3,1) reduces to x^2, so the worked example sits exactly at
        # the sign change: tau vanishes there.
        rep = inequalities.monogamy_residual_gen3(EXAMPLE3, measures.classify(3, 1))
        assert rep.tau == pytest.approx(0.0, abs=1e-6)

    def test_sign_change_in_three_four_at_s1(self):
        for q in np.linspace(2.0, 3.0, 21):
            tau = inequalities.monogamy_residual_gen3(
                EXAMPLE3, measures.classify(float(q), 1)
            ).tau
            assert tau >= -1e-9
        for q in np.linspace(3.05, 4.0, 20):
            tau = inequalities.monogamy_residual_gen3(
                EXAMPLE3, measures.classify(float(q), 1)
            ).tau
            assert tau < 0

    def test_s04_holds_until_about_8_17(self):
        def tau(q):
            return inequalities.monogamy_residual_gen3(
                EXAMPLE3, measures.classify(float(q), 0.4)
            ).tau

        for q in np.linspace(2.0, 8.15, 30):
            assert tau(q) >= -1e-9
        assert tau(9) < 0
        lo, hi = 8.0, 9.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if tau(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(8.17, abs=0.01)


def random_gen3(seed: int) -> states.GenSchmidt3:
    rng = np.random.default_rng(seed)
    amps = rng.random(5)
    amps /= math.sqrt(float(np.sum(amps**2)))
    return states.GenSchmidt3(*(float(a) for a in amps), phi=float(rng.random() * 2 * np.pi))


class TestPathAgreement:
    def test_closed_form_matches_matrix_path(self):
        pairs = [measures.classify(*qs) for qs in [(2, 1), (3, 1), (2, 0.75), (2.5, 0.8)]]
        for seed in range(200):
            params = random_gen3(seed)
            psi = states.gen_schmidt3(params)
            p = pairs[seed % len(pairs)]
            a = inequalities.monogamy_residual_gen3(params, p)
            b = inequalities.monogamy_residual_qubits(psi, p)
            assert a.tau == pytest.approx(b.tau, abs=1e-9)
            assert a.K == pytest.approx(b.K, abs=1e-9)


WINDOW_PAIRS = [(2, 1), (2.5, 1), (3, 1), (2, 0.75), (2.5, 0.8), (3, 0.6), (2, 0.5)]


class TestMonogamyPositivity:
    def test_window_pairs_inside_window(self):
        for qs in WINDOW_PAIRS:
            assert inequalities.monogamy_window(measures.classify(*qs))

    def test_random_states_nonnegative_tau(self):
        pairs = [measures.classify(*qs) for qs in WINDOW_PAIRS]
        for seed in range(100):
            n = 3 + seed % 2
            psi = states.haar_random_pure((2,) * n, seed=seed)
            for p in pairs:
                rep = inequalities.monogamy_residual_qubits(psi, p)
                assert rep.tau >= -1e-9

    def test_ckw_base_relation(self):
        for seed in range(100):
            n = 3 + seed % 2
            psi = states.haar_random_pure((2,) * n, seed=seed)
            c_rest = measures.concurrence_pure(psi, split=0)
            total = 0.0
            for i in range(1, n):
                rho = states.reduced_state(psi, [0, i])
                total += measures.wootters_concurrence(rho) ** 2
            assert c_rest**2 >= total - 1e-9
