"""Tests for the measure, its regimes, and companion functions."""

import math

import numpy as np
import pytest

from qsconc import measures, states
from qsconc.errors import (
    BridgeWindowError,
    DimensionMismatchError,
    NotQubitSideError,
    RangeError,
    UnsupportedRegimeError,
)


class TestClassify:
    def test_regime_a(self):
        p = measures.classify(2, 1)
        assert p.regime is measures.Regime.A and p.epsilon == 1

    def test_regime_b(self):
        p = measures.classify(0.5, 1)
        assert p.regime is measures.Regime.B and p.epsilon == -1

    @pytest.mark.parametrize("q,s", [(0.5, 3), (1.5, 0.5), (0.9, 1.2)])
    def test_unsupported_gap(self, q, s):
        assert measures.classify(q, s).regime is measures.Regime.UNSUPPORTED

    def test_boundaries(self):
        assert measures.classify(1, 1).regime is measures.Regime.A
        assert measures.classify(1, 5).regime is measures.Regime.A

    @pytest.mark.parametrize("q,s", [(0, 1), (-1, 1), (2, 0)])
    def test_nonpositive_rejected(self, q, s):
        with pytest.raises(RangeError):
            measures.classify(q, s)

    @pytest.mark.parametrize("q,s", [("2", "1"), (True, True), (2, None)])
    def test_non_numbers_rejected(self, q, s):
        # Unchecked, a string or None raises TypeError and True reads as 1.
        with pytest.raises(RangeError, match="real number"):
            measures.classify(q, s)

    def test_numpy_scalars_accepted(self):
        assert measures.classify(np.int64(2), np.float32(1.0)) == measures.classify(2, 1)


class TestUnifiedFunctional:
    @pytest.mark.parametrize("q,s", [(2, 1), (2, 2), (0.5, 1), (0.7, 0.5)])
    def test_pure_projector_is_zero(self, q, s):
        p = measures.classify(q, s)
        psi = states.haar_random_pure((2, 2), seed=1)
        assert measures.unified_functional(psi.projector(), p) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_maximally_mixed_qubit(self):
        p = measures.classify(2, 1)
        assert measures.unified_functional(np.eye(2) / 2, p) == pytest.approx(0.5)

    def test_maximally_mixed_qutrit(self):
        p = measures.classify(2, 2)
        assert measures.unified_functional(np.eye(3) / 3, p) == pytest.approx(8 / 9)

    def test_accepts_spectrum(self):
        p = measures.classify(2, 1)
        assert measures.unified_functional([0.5, 0.5], p) == pytest.approx(0.5)

    def test_unsupported_regime_message_names_regimes(self):
        with pytest.raises(UnsupportedRegimeError, match="q >= 1"):
            measures.unified_functional([1.0], measures.classify(0.5, 3))


class TestPureMeasure:
    def test_product_state_zero(self):
        a = states.haar_random_pure((2,), seed=0).amplitudes
        b = states.haar_random_pure((2,), seed=1).amplitudes
        psi = states.PureState((2, 2), np.kron(a, b))
        assert measures.cqs_pure(psi, measures.classify(2, 1)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_bell(self):
        val = measures.cqs_pure(states.max_entangled(2), measures.classify(2, 1))
        assert val == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("q,s", [(2, 1), (2, 2), (3, 2)])
    def test_max_entangled_saturates(self, m, q, s):
        val = measures.cqs_pure(states.max_entangled(m), measures.classify(q, s))
        assert val == pytest.approx(1 - m ** (s * (1 - q)), abs=1e-12)

    def test_spectrum_examples(self):
        assert measures.unified_functional([1.0], measures.classify(2, 2)) == 0.0
        val = measures.unified_functional([0.7, 0.3], measures.classify(2, 2))
        assert val == pytest.approx(1 - 0.58**2, abs=1e-12)
        val_b = measures.unified_functional([0.5, 0.5], measures.classify(0.5, 1))
        assert val_b == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    def test_matches_spectrum_path(self):
        psi = states.haar_random_pure((3, 3), seed=4)
        p = measures.classify(2.5, 1.2)
        via_state = measures.cqs_pure(psi, p)
        via_spec = measures.unified_functional(states.schmidt(psi), p)
        assert via_state == pytest.approx(via_spec, abs=1e-12)


class TestNormalized:
    def test_bell_is_one(self):
        for q, s in [(2, 1), (3, 2), (2.5, 0.8)]:
            val = measures.normalized_cqs_pure(
                states.max_entangled(2), measures.classify(q, s)
            )
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_product_zero(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1
        psi = states.PureState((2, 2), v)
        val = measures.normalized_cqs_pure(psi, measures.classify(2, 1))
        assert val == 0.0

    def test_skewed_spectrum(self):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = math.sqrt(0.9), math.sqrt(0.1)
        psi = states.PureState((2, 2), v)
        val = measures.normalized_cqs_pure(psi, measures.classify(2, 1))
        assert val == pytest.approx(0.36, abs=1e-12)

    def test_qutrit_side_rejected(self):
        psi = states.haar_random_pure((3, 2), seed=2)
        with pytest.raises(NotQubitSideError):
            measures.normalized_cqs_pure(psi, measures.classify(2, 1))

    def test_q_one_singular(self):
        with pytest.raises(RangeError):
            measures.normalized_cqs_pure(
                states.max_entangled(2), measures.classify(1, 2)
            )


class TestConcurrencePure:
    def test_bell(self):
        assert measures.concurrence_pure(states.max_entangled(2)) == pytest.approx(1.0)

    def test_product(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 1
        assert measures.concurrence_pure(states.PureState((2, 2), v)) == 0.0

    def test_two_term(self):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = math.sqrt(0.7), math.sqrt(0.3)
        c = measures.concurrence_pure(states.PureState((2, 2), v))
        assert c == pytest.approx(2 * math.sqrt(0.21), abs=1e-12)

    def test_qubit_qudit_formula(self):
        # For a 2 x d split, C = 2 sqrt(lam0 lam1).
        psi = states.haar_random_pure((2, 4), seed=3)
        lam = states.schmidt(psi).values
        assert measures.concurrence_pure(psi) == pytest.approx(
            2 * math.sqrt(lam[0] * lam[1]), abs=1e-10
        )


class TestBridge:
    def test_endpoints(self):
        for q, s in [(2, 1), (3, 0.9), (2.5, 0.5)]:
            p = measures.classify(q, s)
            assert measures.concurrence_bridge(0.0, p) == pytest.approx(0.0, abs=1e-12)
            assert measures.concurrence_bridge(1.0, p) == pytest.approx(1.0, abs=1e-12)

    def test_q2_s1_is_square(self):
        p = measures.classify(2, 1)
        for x in np.linspace(0, 1, 11):
            assert measures.concurrence_bridge(float(x), p) == pytest.approx(
                x * x, abs=1e-12
            )
        assert measures.concurrence_bridge(0.5, p) == pytest.approx(0.25)

    def test_singular_at_q_one(self):
        with pytest.raises(RangeError):
            measures.concurrence_bridge(0.5, measures.classify(1, 1.5))

    def test_out_of_range_rejected(self):
        with pytest.raises(RangeError):
            measures.concurrence_bridge(1.5, measures.classify(2, 1))

    @pytest.mark.parametrize("x", ["0.5", True])
    def test_non_numbers_rejected(self, x):
        # Unchecked, "0.5" raises TypeError and True reads as the concurrence 1.
        with pytest.raises(RangeError, match="real number"):
            measures.concurrence_bridge(x, measures.classify(2, 1))

    def test_monotone_and_convex_in_window(self):
        pairs = [(2, 1), (3, 1), (2, 0.75), (3, 0.6), (4, 0.5), (2.5, 0.9), (6, 0.5)]
        xs = np.linspace(0.0, 1.0, 10_000)
        for q, s in pairs:
            assert measures.bridge_window(measures.classify(q, s))
            p = measures.classify(q, s)
            h = np.array([measures.concurrence_bridge(float(x), p) for x in xs])
            d1 = np.diff(h)
            d2 = np.diff(h, 2)
            assert d1.min() >= -1e-7
            assert d2.min() >= -1e-7


class TestWootters:
    def test_bell_projector(self):
        rho = states.max_entangled(2).to_density()
        assert measures.wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert measures.wootters_concurrence(np.eye(4) / 4) == 0.0

    @pytest.mark.parametrize("w,expected", [(0.75, 0.5), (0.9, 0.8), (0.4, 0.0)])
    def test_werner_family(self, w, expected):
        # Werner states embed in the singlet + white-noise family with
        # concurrence max(0, 2w - 1).
        c = measures.wootters_concurrence(states.werner(w, 2))
        assert c == pytest.approx(expected, abs=1e-9)

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            measures.wootters_concurrence(np.eye(9) / 9)


class TestMixedTwoQubit:
    def test_separable(self):
        rho = states.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
        val = measures.cqs_mixed_two_qubit(rho, measures.classify(2, 1))
        assert val == 0.0

    def test_bell(self):
        rho = states.max_entangled(2).to_density()
        val = measures.cqs_mixed_two_qubit(rho, measures.classify(2, 1))
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_werner_composition(self):
        val = measures.cqs_mixed_two_qubit(states.werner(0.75, 2), measures.classify(2, 1))
        assert val == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("q,s", [(4, 1), (2, 2), (0.5, 0.5), (2, 1.6)])
    def test_window_enforced(self, q, s):
        rho = states.max_entangled(2).to_density()
        with pytest.raises(BridgeWindowError):
            measures.cqs_mixed_two_qubit(rho, measures.classify(q, s))


class TestReductions:
    def test_s_one_is_single_exponent_concurrence(self):
        rng = np.random.default_rng(0)
        for q in [2.0, 3.0, 1.5]:
            p = measures.classify(q, 1)
            for _ in range(20):
                lam = rng.dirichlet(np.ones(4))
                got = measures.unified_functional(lam, p)
                assert got == pytest.approx(1 - np.sum(lam**q), abs=1e-12)

    def test_q2_s1_is_half_squared_concurrence(self):
        for seed in range(20):
            psi = states.haar_random_pure((2, 3), seed=seed)
            c = measures.concurrence_pure(psi)
            val = measures.cqs_pure(psi, measures.classify(2, 1))
            assert val == pytest.approx(c * c / 2, abs=1e-12)


class TestProperties:
    PAIRS = [
        (2, 1), (2, 2), (3, 2), (2.5, 1), (1.5, 1), (4, 0.5),
        (0.5, 1), (0.5, 0.5), (0.8, 1.2), (0.3, 2),
    ]

    def test_subsystem_symmetry(self):
        # Measure computed from rho_A equals the one from rho_B.
        params = [measures.classify(q, s) for q, s in self.PAIRS]
        dims_pool = [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4)]
        for seed in range(500):
            dims = dims_pool[seed % len(dims_pool)]
            psi = states.haar_random_pure(dims, seed=seed)
            rho_a = states.reduced_state(psi, 0)
            rho_b = states.reduced_state(psi, 1)
            p = params[seed % len(params)]
            va = measures.unified_functional(rho_a, p)
            vb = measures.unified_functional(rho_b, p)
            assert abs(va - vb) <= 1e-9

    def test_range_bound_on_pure_states(self):
        for seed in range(100):
            dims = [(2, 2), (2, 3), (3, 3)][seed % 3]
            m = min(dims)
            psi = states.haar_random_pure(dims, seed=seed)
            for q, s in self.PAIRS:
                p = measures.classify(q, s)
                val = measures.cqs_pure(psi, p)
                cap = p.epsilon * (1 - m ** (s * (1 - q)))
                assert -1e-12 <= val <= cap + 1e-12

    @pytest.mark.parametrize("q,s", [(2, 2), (3, 1.5), (0.5, 0.5), (0.7, 1.2)])
    def test_concavity_of_functional(self, q, s):
        p = measures.classify(q, s)
        rng = np.random.default_rng(17)
        for trial in range(125):
            n = int(rng.integers(2, 6))
            dim = int(rng.integers(2, 7))
            weights = rng.dirichlet(np.ones(n))
            rhos = [
                states.random_mixed((dim,), int(rng.integers(1, dim + 1)),
                                    seed=1000 * trial + k).matrix
                for k in range(n)
            ]
            mix = sum(w * r for w, r in zip(weights, rhos))
            lhs = sum(
                w * measures.unified_functional(r, p) for w, r in zip(weights, rhos)
            )
            rhs = measures.unified_functional(mix, p)
            assert lhs <= rhs + 1e-9

    @pytest.mark.parametrize("q,s", [(2, 1), (2, 2), (3, 1), (1.5, 2)])
    def test_subadditivity_triangle(self, q, s):
        p = measures.classify(q, s)
        dims_pool = [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 4)]
        for seed in range(125):
            dims = dims_pool[seed % len(dims_pool)]
            psi = states.haar_random_pure(dims, seed=seed)
            f_a = measures.unified_functional(states.reduced_state(psi, 0), p)
            f_b = measures.unified_functional(states.reduced_state(psi, 1), p)
            f_ab = measures.unified_functional(states.reduced_state(psi, [0, 1]), p)
            assert abs(f_a - f_b) <= f_ab + 1e-9
            assert f_ab <= f_a + f_b + 1e-9
