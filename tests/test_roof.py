"""Tests for the convex-roof estimator."""

import numpy as np
import pytest

from qsconc import bounds, measures, roof, states
from qsconc.errors import (
    DimensionMismatchError,
    RangeError,
    TooLargeError,
    UnsupportedRegimeError,
)

FAST = roof.RoofConfig(restarts=4, iterations=200, seed=3)


class TestExactCases:
    def test_pure_state_recovers_pure_measure(self):
        p = measures.classify(2, 2)
        psi = states.haar_random_pure((2, 2), seed=5)
        res = roof.roof_estimate(psi.to_density(), p, FAST)
        assert res.estimate == pytest.approx(measures.cqs_pure(psi, p).value, abs=1e-9)

    def test_separable_diagonal_mixture(self):
        rho = states.DensityMatrix((2, 2), np.diag([0.6, 0, 0, 0.4]).astype(complex))
        res = roof.roof_estimate(rho, measures.classify(2, 1), FAST)
        assert res.estimate <= 1e-6

    def test_werner_bridge_value(self):
        cfg = roof.RoofConfig(restarts=12, iterations=800, seed=7)
        res = roof.roof_estimate(states.werner(0.75, 2), measures.classify(2, 1), cfg)
        assert res.estimate == pytest.approx(0.125, abs=5e-3)


class TestDecomposition:
    def test_reconstruction_and_weights(self):
        rho = states.random_mixed((2, 2), 3, seed=11)
        res = roof.roof_estimate(rho, measures.classify(2, 1), FAST)
        recon = sum(
            w * s.projector() for w, s in zip(res.best_weights, res.best_states)
        )
        assert np.max(np.abs(recon - rho.matrix)) <= 1e-7
        assert np.sum(res.best_weights) == pytest.approx(1.0, abs=1e-9)
        assert res.estimate >= 0

    def test_estimate_is_weighted_sum_of_term_measures(self):
        p = measures.classify(2, 1)
        for rho in (states.random_mixed((2, 2), 3, seed=11), states.werner(0.75, 2)):
            res = roof.roof_estimate(rho, p, FAST)
            total = sum(
                w * measures.cqs_pure(st, p, split=0).value
                for w, st in zip(res.best_weights, res.best_states)
            )
            assert res.estimate == pytest.approx(total, abs=1e-12)

    def test_deterministic_per_seed(self):
        rho = states.random_mixed((2, 2), 2, seed=4)
        a = roof.roof_estimate(rho, measures.classify(2, 1), FAST).estimate
        b = roof.roof_estimate(rho, measures.classify(2, 1), FAST).estimate
        assert a == b


class TestPinnedStreams:
    """Estimates pinned to catch any change of the search's arithmetic.

    The regime-A cases were recorded when regime A moved to the gradient
    search; they sit within 1e-9 of the exact values (bridge
    0.0202109361, isotropic envelope 0.45921769238842). The regime-B case
    was recorded before the walk moved from the isometry to phi, and the
    walk keeps it. A change of the per-restart RNG streams or of the step
    rules moves these values far beyond the tolerance.
    """

    @pytest.mark.parametrize("rho, qs, seed, expected", [
        (states.random_mixed((2, 2), 2, seed=7000), (2, 1), 11, 0.020210936945298845),
        (states.random_mixed((2, 3), 3, seed=21), (0.5, 0.5), 4, 0.1387329387203161),
        (states.isotropic(0.8, 2), (3, 2), 9, 0.45921769238878446),
    ])
    def test_estimate_matches_record(self, rho, qs, seed, expected):
        cfg = roof.RoofConfig(restarts=3, iterations=150, seed=seed)
        res = roof.roof_estimate(rho, measures.classify(*qs), cfg)
        assert res.estimate == pytest.approx(expected, abs=1e-12)


class TestGradientSearch:
    @pytest.mark.parametrize("qs", [(2, 1), (3, 2), (1.5, 0.7), (10, 0.2)])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_gradient_matches_central_differences(self, dims, qs):
        rho = states.random_mixed(dims, 3, seed=4)
        w, v = np.linalg.eigh(rho.matrix)
        a0 = v[:, w > 1e-12] * np.sqrt(w[w > 1e-12])
        rng = np.random.default_rng(1)
        shape = (2, 2 * a0.shape[1], a0.shape[1])
        u, du = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                 for _ in range(2))
        args = (*dims, *qs, 1)
        _, grad = roof._value_and_gradient(u, a0, *args)
        h = 1e-6
        plus, _ = roof._value_and_gradient(u + h * du, a0, *args)
        minus, _ = roof._value_and_gradient(u - h * du, a0, *args)
        # f(U + h dU) - f(U) = 2 Re tr(G† dU) + O(h^2) for G = df/dU*.
        analytic = 2 * np.einsum("nij,nij->n", grad.conj(), du).real
        np.testing.assert_allclose((plus - minus) / (2 * h), analytic, rtol=1e-6)

    def test_restarts_do_not_depend_on_batch_size(self):
        rho = states.random_mixed((2, 3), 3, seed=8)
        p = measures.classify(2, 1)
        few = roof.roof_estimate(rho, p, roof.RoofConfig(restarts=3, iterations=200))
        more = roof.roof_estimate(rho, p, roof.RoofConfig(restarts=5, iterations=200))
        np.testing.assert_allclose(more.restart_values[:3], few.restart_values,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("qs", [(2, 1), (0.5, 0.5)])
    def test_diagnostics(self, qs):
        rho = states.random_mixed((2, 2), 2, seed=3)
        res = roof.roof_estimate(rho, measures.classify(*qs), FAST)
        assert res.restart_values.shape == (FAST.restarts,)
        assert res.estimate == np.min(res.restart_values)
        assert FAST.restarts < res.evaluations <= FAST.restarts * (FAST.iterations + 1)

    def test_converged_means_small_projected_gradient(self):
        rho = states.random_mixed((2, 2), 2, seed=3)
        p = measures.classify(2, 1)
        assert roof.roof_estimate(rho, p, FAST).converged
        # One round from the eigen-decomposition does not reach 1e-12.
        cfg = roof.RoofConfig(restarts=1, iterations=1, tolerance=1e-12)
        assert not roof.roof_estimate(rho, p, cfg).converged


class TestBridgeCrossCheck:
    def test_rank2_states_match_bridge(self):
        cfg = roof.RoofConfig(restarts=6, iterations=400, seed=5)
        pairs = [measures.classify(2, 1), measures.classify(3, 1)]
        for seed in range(8):
            rho = states.random_mixed((2, 2), 2, seed=500 + seed)
            c = measures.wootters_concurrence(rho)
            for p in pairs:
                target = measures.concurrence_bridge(c, p)
                est = roof.roof_estimate_normalized(rho, p, cfg)
                assert est == pytest.approx(target, abs=5e-3)
                # upper estimate: never undershoots beyond tolerance
                assert est >= target - 5e-4


class TestConvexity:
    def test_roof_is_convex_up_to_tolerance(self):
        p = measures.classify(2, 1)
        cfg = roof.RoofConfig(restarts=8, iterations=500, seed=9, tolerance=2.5e-3)
        for seed in [0, 1, 2]:
            r1 = states.random_mixed((2, 2), 2, seed=30 + seed)
            r2 = states.random_mixed((2, 2), 2, seed=60 + seed)
            e1 = roof.roof_estimate(r1, p, cfg).estimate
            e2 = roof.roof_estimate(r2, p, cfg).estimate
            for t in (0.25, 0.5, 0.75):
                mix = states.DensityMatrix(
                    (2, 2), t * r1.matrix + (1 - t) * r2.matrix
                )
                em = roof.roof_estimate(mix, p, cfg).estimate
                assert em <= t * e1 + (1 - t) * e2 + 2 * cfg.tolerance


class TestSandwich:
    def test_isotropic_consistent(self):
        rep = roof.sandwich_check(
            states.isotropic(0.8, 2), measures.classify(2, 2),
            roof.RoofConfig(restarts=6, iterations=400, seed=2),
        )
        assert rep.consistent
        assert rep.lower <= rep.upper + 1e-6

    def test_bell_saturates(self):
        rep = roof.sandwich_check(
            states.max_entangled(2).to_density(), measures.classify(2, 2), FAST
        )
        assert rep.lower == pytest.approx(0.75, abs=5e-3)
        assert rep.upper == pytest.approx(0.75, abs=5e-3)
        assert rep.consistent

    def test_undetected_state_lower_zero(self):
        rho = states.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
        rep = roof.sandwich_check(rho, measures.classify(2, 2), FAST)
        assert rep.lower == 0.0
        assert rep.consistent


class TestGuards:
    def test_too_large(self):
        rho = states.DensityMatrix((5, 5), np.eye(25, dtype=complex) / 25)
        with pytest.raises(TooLargeError):
            roof.roof_estimate(rho, measures.classify(2, 1), FAST)

    def test_unsupported_regime(self):
        rho = states.random_mixed((2, 2), 2, seed=0)
        with pytest.raises(UnsupportedRegimeError):
            roof.roof_estimate(rho, measures.classify(0.5, 3), FAST)

    def test_no_restarts_rejected(self):
        with pytest.raises(RangeError):
            roof.RoofConfig(restarts=0)

    def test_too_many_restarts_rejected(self):
        with pytest.raises(RangeError):
            roof.RoofConfig(restarts=roof.MAX_RESTARTS + 1)

    def test_length_above_side_squared_rejected(self):
        # Raised before any array of this length is allocated.
        cfg = roof.RoofConfig(decomposition_length=10**8, restarts=1, iterations=10)
        with pytest.raises(RangeError, match="side"):
            roof.roof_estimate(states.werner(0.75, 2), measures.classify(2, 1), cfg)

    @pytest.mark.parametrize("field", ["seed", "iterations", "tolerance"])
    def test_negative_config_rejected(self, field):
        with pytest.raises(RangeError):
            roof.RoofConfig(**{field: -1})

    def test_nan_tolerance_rejected(self):
        # A NaN tolerance used to stop every restart at its start point.
        with pytest.raises(RangeError):
            roof.RoofConfig(tolerance=float("nan"))

    def test_zero_iterations_keeps_start(self):
        rho = states.random_mixed((2, 2), 2, seed=0)
        res = roof.roof_estimate(
            rho, measures.classify(2, 1), roof.RoofConfig(restarts=1, iterations=0)
        )
        assert len(res.best_weights) == 2

    def test_zero_length_rejected(self):
        rho = states.random_mixed((2, 2), 2, seed=0)
        cfg = roof.RoofConfig(decomposition_length=0, restarts=1, iterations=10)
        with pytest.raises(RangeError):
            roof.roof_estimate(rho, measures.classify(2, 1), cfg)

    def test_not_bipartite(self):
        rho = states.DensityMatrix((2, 2, 2), np.eye(8, dtype=complex) / 8)
        with pytest.raises(DimensionMismatchError):
            roof.roof_estimate(rho, measures.classify(2, 1), FAST)

    def test_length_below_rank_rejected(self):
        rho = states.random_mixed((2, 2), 3, seed=0)
        cfg = roof.RoofConfig(decomposition_length=2, restarts=1, iterations=10)
        with pytest.raises(ValueError):
            roof.roof_estimate(rho, measures.classify(2, 1), cfg)
