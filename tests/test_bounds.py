"""Tests for detection and the norm-based lower bounds."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsconc import bounds, closed_forms as cf, measures, roof, states
from qsconc.errors import (
    ClosedFormWindowError,
    NoApplicableBoundError,
    RangeError,
    RegimeABoundWindowError,
    RegimeBBoundWindowError,
)


def product_pure(seed=0):
    a = states.haar_random_pure((2,), seed=seed).amplitudes
    b = states.haar_random_pure((2,), seed=seed + 1).amplitudes
    return states.PureState((2, 2), np.kron(a, b))


class TestDetect:
    def test_pure_product_not_detected(self):
        rep = bounds.detect(product_pure().to_density())
        assert rep.ppt_norm == pytest.approx(1.0, abs=1e-9)
        assert rep.realign_norm == pytest.approx(1.0, abs=1e-9)
        assert rep.detected_by is bounds.DetectedBy.NONE

    def test_bell_detected_by_both(self):
        rep = bounds.detect(states.max_entangled(2).to_density())
        assert rep.ppt_norm == pytest.approx(2.0, abs=1e-9)
        assert rep.realign_norm == pytest.approx(2.0, abs=1e-9)
        assert rep.detected_by is bounds.DetectedBy.BOTH

    def test_isotropic_norms(self):
        rep = bounds.detect(states.isotropic(0.8, 3))
        assert rep.ppt_norm == pytest.approx(2.4, abs=1e-9)
        assert rep.realign_norm == pytest.approx(2.4, abs=1e-9)
        assert rep.detected_by is bounds.DetectedBy.BOTH
        assert rep.m == 3
        assert rep.lower_bound is None


class TestRegimeAWindow:
    @pytest.mark.parametrize("q,s", [(2, 1.1391), (2, 2), (3, 2), (2.4721, 1), (3, 1)])
    def test_inside(self, q, s):
        assert bounds.in_regime_a_window(measures.classify(q, s))

    @pytest.mark.parametrize("q,s", [(2, 1), (1.5, 2), (2.4, 1), (2, 1.1)])
    def test_outside(self, q, s):
        assert not bounds.in_regime_a_window(measures.classify(q, s))

    def test_error_raised_outside(self):
        rho = states.max_entangled(2).to_density()
        with pytest.raises(RegimeABoundWindowError):
            bounds.bound_value_regime_a(
                bounds.detect(rho).max_norm, 2, measures.classify(2, 1)
            )


class TestRegimeABound:
    def test_separable_clamps_to_zero(self):
        rep = bounds.bound_auto(
            product_pure().to_density(), measures.classify(2, 2)
        )
        assert rep.lower_bound == 0.0

    def test_isotropic_d3_formula(self):
        # Derived oracle: the bound at norms 3F, m=3, (2,2) equals
        # 1 - (5/6 - (3F^2 - 2F)/2)^2.
        for f in [0.4, 0.6, 0.8, 0.95]:
            rep = bounds.bound_auto(
                states.isotropic(f, 3), measures.classify(2, 2)
            )
            expected = max(0.0, 1 - (5 / 6 - (3 * f**2 - 2 * f) / 2) ** 2)
            assert rep.lower_bound == pytest.approx(expected, abs=1e-9)

    def test_f_06_value(self):
        rep = bounds.bound_auto(
            states.isotropic(0.6, 3), measures.classify(2, 2)
        )
        assert rep.lower_bound == pytest.approx(0.2019556, abs=1e-6)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("q,s", [(2, 2), (3, 2), (2.5, 1.2)])
    def test_max_entangled_saturates_measure_maximum(self, m, q, s):
        p = measures.classify(q, s)
        rep = bounds.bound_auto(states.max_entangled(m).to_density(), p)
        assert rep.lower_bound == pytest.approx(1 - m ** (s * (1 - q)), abs=1e-9)


@pytest.mark.parametrize("bound", [bounds.bound_value_regime_a])
def test_regime_a_norm_above_maximum_is_range_error(bound):
    # g needs (N-1)^2 <= m(m-1); at m = 2 the largest norm is 1 + sqrt(2).
    p = measures.classify(2, 1.5)
    with pytest.raises(RangeError):
        bound(5.0, 2, p)
    assert bound(1.0 + 2**0.5, 2, p) > 0.0
    # A norm whose square overflows a float names itself, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm, name in [(1e200, "1e+200"), (np.inf, "inf"), (np.array([1.5, 1e200]), "1e+200")]:
            with pytest.raises(RangeError, match=f"norm {re.escape(name)} exceeds"):
                bound(norm, 2, p)


@pytest.mark.parametrize("bound,q,s", [
    (bounds.bound_value_regime_a, 2, 2), (bounds.bound_value_regime_b, 0.5, 0.5),
    (bounds.bound_value_auto, 2, 2), (bounds.bound_value_auto, 0.5, 0.5),
    (bounds.bound_value_tight, 2, 2),
], ids=["regime_a", "regime_b", "auto-a", "auto-b", "tight"])
def test_m_one_is_range_error(bound, q, s):
    # A 1 x n state has m = 1, where both published prefactors divide by zero.
    for norm in (0.5, 1.0, 1.5):
        with pytest.raises(RangeError):
            bound(norm, 1, measures.classify(q, s))


@pytest.mark.parametrize("bound,q,s", [
    (bounds.bound_value_regime_a, 2, 2), (bounds.bound_value_regime_b, 0.5, 0.5),
    (bounds.bound_value_auto, 2, 2), (bounds.bound_value_auto, 0.5, 0.5),
], ids=["regime_a", "regime_b", "auto-a", "auto-b"])
@pytest.mark.parametrize("norm", ["2.5", True, None, np.array([True])],
                         ids=["str", "bool", "none", "bool-array"])
def test_non_number_norm_is_range_error(bound, q, s, norm):
    # True used to read as the norm 1, "2.5" raised numpy's UFuncTypeError
    # and None a bare TypeError.
    with pytest.raises(RangeError, match="expected a real number"):
        bound(norm, 2, measures.classify(q, s))


class TestRegimeBBound:
    def test_window(self):
        assert bounds.in_regime_b_window(measures.classify(0.5, 0.5))
        assert not bounds.in_regime_b_window(measures.classify(0.5, 1))
        # q*s below the cap does not rescue an s above it
        assert not bounds.in_regime_b_window(measures.classify(0.5, 0.95))

    def test_s_one_rejected_with_reason(self):
        rho = states.max_entangled(2).to_density()
        with pytest.raises(RegimeBBoundWindowError, match="s=1"):
            bounds.bound_value_regime_b(
                bounds.detect(rho).max_norm, 2, measures.classify(0.5, 1.0)
            )

    def test_separable_zero(self):
        rep = bounds.bound_auto(
            product_pure().to_density(), measures.classify(0.5, 0.5)
        )
        assert rep.lower_bound == 0.0

    def test_bell_tight(self):
        p = measures.classify(0.5, 0.5)
        rep = bounds.bound_auto(states.max_entangled(2).to_density(), p)
        expected = 2**0.25 - 1
        assert rep.lower_bound == pytest.approx(expected, abs=1e-12)
        exact = measures.cqs_pure(states.max_entangled(2), p)
        assert rep.lower_bound == pytest.approx(exact, abs=1e-12)


class TestDispatch:
    def test_routes_regime_a(self):
        rep = bounds.bound_auto(states.max_entangled(2).to_density(),
                                measures.classify(2, 2))
        assert rep.lower_bound == pytest.approx(0.75, abs=1e-9)

    def test_routes_regime_b(self):
        rep = bounds.bound_auto(states.max_entangled(2).to_density(),
                                measures.classify(0.5, 0.5))
        assert rep.lower_bound == pytest.approx(2**0.25 - 1, abs=1e-9)

    def test_no_applicable(self):
        with pytest.raises(NoApplicableBoundError):
            bounds.bound_auto(states.max_entangled(2).to_density(),
                              measures.classify(1.5, 1))


PURE_SWEEP_PAIRS = [(2, 2), (3, 2), (2.5, 1), (2, 1.5), (0.5, 0.5), (0.3, 0.6)]


class TestSandwichOnPureStates:
    def test_bound_below_pure_measure(self):
        dims_pool = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 4)]
        for seed in range(300):
            dims = dims_pool[seed % len(dims_pool)]
            psi = states.haar_random_pure(dims, seed=seed)
            spectrum = states.schmidt(psi).values
            norm = bounds.pure_state_norm(spectrum)
            m = min(dims)
            q, s = PURE_SWEEP_PAIRS[seed % len(PURE_SWEEP_PAIRS)]
            p = measures.classify(q, s)
            exact = measures.unified_functional(spectrum, p)
            lb = bounds.bound_value_auto(norm, m, p)
            assert lb <= exact + 1e-9


def two_qubit_pure(lam0: float) -> states.PureState:
    """sqrt(lam0)|00> + sqrt(1 - lam0)|11>."""
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = np.sqrt(lam0), np.sqrt(1.0 - lam0)
    return states.PureState((2, 2), amps)


class TestPublishedBoundsUnsoundOnPureStates:
    """Pins where the published bounds exceed the measure of a pure state.

    Both formulas are applied inside their own windows, with the norms
    ``bound_auto`` computes from the explicit state. ``TestSandwichOnPureStates``
    cannot see these: (2.5, 1) only ever meets 3x3 there, and neither
    regime-B pair is in its list.
    """

    # (q, s, lam0, measure, bound), values as measured.
    CASES = [
        # concurrence 2 sqrt(lam0 (1 - lam0)) = 0.686
        (2.5, 1.0, (1 + np.sqrt(1 - 0.686**2)) / 2, 0.299674, 0.304215),
        (0.8, 0.5, 0.9634, 0.020556, 0.029949),
        (0.9, 0.9, 0.9634, 0.016138, 0.024705),
    ]

    @pytest.mark.parametrize("q,s,lam0,measure,bound", CASES)
    def test_bound_exceeds_pure_measure(self, q, s, lam0, measure, bound):
        p = measures.classify(q, s)
        psi = two_qubit_pure(lam0)
        exact = measures.cqs_pure(psi, p, split=0)
        rep = bounds.bound_auto(psi.to_density(), p)
        assert exact == pytest.approx(measure, abs=1e-6)
        assert rep.lower_bound == pytest.approx(bound, abs=1e-6)
        excess = 4e-3 if p.regime is measures.Regime.A else 8e-3
        assert rep.lower_bound - exact > excess


def isotropic_d3_decomposition(fidelity: float) -> list[np.ndarray]:
    """Subnormalized pure terms whose projectors sum to ``states.isotropic(F, 3)``.

    sqrt(beta)|Phi> with beta = (F - 1/3)/(2/3), plus sqrt((1 - beta)/12)|u>|u*>
    for the 12 vectors u of the 4 mutually unbiased bases of C^3: the
    product terms sum to the separable isotropic state at F = 1/3.
    """
    omega, j = np.exp(2j * np.pi / 3), np.arange(3)
    mub = [*np.eye(3), *(omega ** (b * j * j + k * j) / np.sqrt(3)
                         for b in range(3) for k in range(3))]
    beta = (fidelity - 1.0 / 3.0) / (2.0 / 3.0)
    return ([np.sqrt(beta) * states.max_entangled(3).amplitudes]
            + [np.sqrt((1.0 - beta) / 12.0) * np.kron(u, u.conj()) for u in mub])


class TestPublishedRegimeBUnsoundOnMixedStates:
    """Pins where the published regime-B bound exceeds an isotropic state's measure.

    The measure of a mixed state is at most the mean pure-state measure of
    any decomposition of it; at these points the explicit d = 3
    decomposition's mean is below ``bound_auto``'s lower bound.
    """

    # (q, s, fidelity, ensemble value, bound), values as measured.
    CASES = [
        (0.5, 0.5, 0.5, 0.07902, 0.09704),
        (0.3, 0.6, 0.7, 0.32248, 0.35232),
        (0.8, 0.5, 0.7, 0.06387, 0.07125),
    ]

    @pytest.mark.parametrize("q,s,fidelity,ensemble,bound", CASES)
    def test_bound_exceeds_decomposition_value(self, q, s, fidelity, ensemble, bound):
        p = measures.classify(q, s)
        rho = states.isotropic(fidelity, 3)
        terms = isotropic_d3_decomposition(fidelity)
        rebuilt = sum(np.outer(v, v.conj()) for v in terms)
        assert np.abs(rebuilt - rho.matrix).max() <= 1e-12
        weights = [float(np.vdot(v, v).real) for v in terms]
        value = sum(w * measures.cqs_pure(states.PureState((3, 3), v / np.sqrt(w)), p,
                                          split=0)
                    for v, w in zip(terms, weights))
        rep = bounds.bound_auto(rho, p)
        assert value == pytest.approx(ensemble, abs=1e-5)
        assert rep.lower_bound == pytest.approx(bound, abs=1e-5)
        assert rep.lower_bound > value


# The regime-A pairs of PURE_SWEEP_PAIRS, pairs outside the published
# windows, and (2.75, 1.5), near the published bound's m = 2 defect.
TIGHT_PURE_PAIRS = [pair for pair in PURE_SWEEP_PAIRS
                    if measures.classify(*pair).regime is measures.Regime.A]
TIGHT_PURE_PAIRS += [(2, 1), (1.5, 1), (2.2, 1), (2.75, 1.5)]
TIGHT_PURE_DIMS = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 4)]
TIGHT_CASES = [(2, 2, 3), (2, 2, 2), (3, 2, 2), (3, 2, 3), (2, 2, 8), (2.5, 1.2, 4),
               (10, 0.2, 8), (2, 1, 2), (1.5, 1, 3), (4, 0.5, 4)]


class TestTightBound:
    """``bound_value_tight``, co R_m(N/m): the tangent isotropic envelope at d = m."""

    @pytest.mark.parametrize("q,s,m", TIGHT_CASES)
    def test_nondecreasing_convex_zero_below_one(self, q, s, m):
        p = measures.classify(q, s)
        grid = np.linspace(0.0, m, 801)
        vals = bounds.bound_value_tight(grid, m, p)
        assert np.all(vals[grid <= 1.0] == 0.0)
        assert np.min(np.diff(vals)) >= -1e-12
        assert np.min(np.diff(vals, 2)) >= -1e-12

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_equals_tangent_isotropic_envelope(self, d):
        p = measures.classify(2, 2)
        fs = np.linspace(1 / d + 1e-3, 1.0, 500)
        lb = bounds.bound_value_tight(d * fs, d, p)
        exact = cf.cqs_isotropic(fs, 2, 2, d, method="tangent")
        assert lb == pytest.approx(exact, abs=1e-12)

    def test_below_werner_envelope(self):
        p = measures.classify(3, 2)
        ws = np.linspace(0.5 + 1e-3, 1.0, 500)
        lb = bounds.bound_value_tight(2 * ws, 2, p)
        assert np.all(lb <= cf.cqs_werner(ws, 3, 2, method="tangent") + 1e-9)

    @pytest.mark.parametrize("q,m", [(2.5, 3), (3, 3), (4, 8)])
    def test_not_below_published_at_s_one(self, q, m):
        # At s = 1 the published g is convex, and at m >= 3 it is sound on
        # pure states, so the tightest single-norm bound cannot lose to it.
        p = measures.classify(q, 1)
        for n in np.linspace(1.0, m, 300):
            n = float(n)
            assert bounds.bound_value_tight(n, m, p) >= (
                bounds.bound_value_regime_a(n, m, p) - 1e-12
            )

    def test_exact_at_the_pinned_regime_a_state(self):
        # The published bound exceeds this state's measure by 4.5e-3; the
        # tight bound reproduces it.
        q, s, lam0 = TestPublishedBoundsUnsoundOnPureStates.CASES[0][:3]
        p = measures.classify(q, s)
        psi = two_qubit_pure(lam0)
        rep = bounds.detect(psi.to_density())
        lb = bounds.bound_value_tight(rep.max_norm, rep.m, p)
        exact = measures.cqs_pure(psi, p, split=0)
        assert lb <= exact + 1e-12
        assert lb == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("dims", TIGHT_PURE_DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    def test_below_pure_measure(self, dims):
        pairs = [measures.classify(q, s) for q, s in TIGHT_PURE_PAIRS]
        for seed in range(20):
            spectrum = states.schmidt(states.haar_random_pure(dims, seed=seed)).values
            norm = bounds.pure_state_norm(spectrum)
            for p in pairs:
                lb = bounds.bound_value_tight(norm, min(dims), p)
                exact = measures.unified_functional(spectrum, p)
                assert lb <= exact + 1e-9, (p, seed)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(m=st.sampled_from([2, 3, 4]), q=st.floats(1.1, 6.0),
           s_over_min=st.floats(1.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_below_pure_measure_on_random_spectra(self, m, q, s_over_min, seed):
        # (q, s) inside the closed-form window q > 1, q*s >= 1. Each example
        # bounds 16 random Schmidt spectra of rank <= m, plus a product and a
        # maximally entangled one, in one array call.
        p = measures.classify(q, s_over_min / q)
        spectra = np.vstack([np.random.default_rng(seed).dirichlet(np.full(m, 0.5), 16),
                             np.eye(m)[0], np.full(m, 1.0 / m)])
        norms = np.array([bounds.pure_state_norm(lam) for lam in spectra])
        lower = bounds.bound_value_tight(np.minimum(norms, m), m, p)
        exact = np.array([measures.unified_functional(lam, p) for lam in spectra])
        assert (lower <= exact + 1e-9).all(), (lower - exact).max()

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), rank=st.integers(2, 4),
           seed=st.integers(0, 2**32 - 1), q=st.floats(1.1, 6.0),
           s_over_min=st.floats(1.0, 3.0))
    def test_below_roof_on_mixed_states(self, dims, rank, seed, q, s_over_min):
        # The roof estimate is an upper estimate of the measure, so a sound
        # lower bound stays below it on every state, however short the search.
        p = measures.classify(q, s_over_min / q)
        rho = states.random_mixed(dims, rank, seed=seed)
        lower = bounds.bound_value_tight(bounds.detect(rho).max_norm, min(dims), p)
        upper = roof.roof_estimate(rho, p, roof.RoofConfig(restarts=2, iterations=150))
        assert lower <= upper.estimate + 1e-9, (lower, upper.estimate)

    def test_norm_outside_range_is_range_error(self):
        p = measures.classify(2, 1.5)
        for norm in (3.0 + 1e-9, 5.0, -1e-9, float("nan")):
            with pytest.raises(RangeError):
                bounds.bound_value_tight(norm, 3, p)
        assert bounds.bound_value_tight(3.0, 3, p) > 0.0

    @pytest.mark.parametrize("q,s", [(0.5, 0.5), (1, 1)])
    def test_window_error(self, q, s):
        with pytest.raises(ClosedFormWindowError):
            bounds.bound_value_tight(2.0, 3, measures.classify(q, s))


class TestMonotoneInNorm:
    @pytest.mark.parametrize("q,s,m", [(2, 2, 2), (3, 2, 3), (2.5, 1.2, 4)])
    def test_regime_a_nondecreasing(self, q, s, m):
        p = measures.classify(q, s)
        grid = np.linspace(1.0, m, 200)
        vals = [bounds.bound_value_regime_a(float(n), m, p) for n in grid]
        assert np.min(np.diff(vals)) >= -1e-12

    def test_regime_b_nondecreasing(self):
        p = measures.classify(0.5, 0.5)
        grid = np.linspace(1.0, 3.0, 200)
        vals = [bounds.bound_value_regime_b(float(n), 3, p) for n in grid]
        assert np.min(np.diff(vals)) >= -1e-12


class TestReportInvariants:
    def test_lower_bound_positive_only_if_detected(self):
        for seed in range(30):
            rho = states.random_mixed((2, 2), 4, seed=seed)
            rep = bounds.bound_auto(rho, measures.classify(2, 2))
            if rep.detected_by is bounds.DetectedBy.NONE:
                assert rep.lower_bound == 0.0
            if rep.lower_bound > 0:
                assert rep.detected_by is not bounds.DetectedBy.NONE

    def test_lower_bound_below_measure_maximum(self):
        for q, s in [(2, 2), (3, 2), (2.5, 1)]:
            p = measures.classify(q, s)
            for seed in range(20):
                rho = states.random_mixed((3, 3), 2, seed=seed)
                rep = bounds.bound_auto(rho, p)
                cap = 1 - rep.m ** (s * (1 - q))
                assert rep.lower_bound <= cap + 1e-12
