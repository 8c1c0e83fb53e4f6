"""Tests for the exact isotropic/Werner curves, envelopes, and oracles."""

import numpy as np
import pytest

from qsconc import bounds, closed_forms as cf, measures
from qsconc.errors import ClosedFormWindowError, RangeError


class TestIsotropicCurve:
    def test_right_endpoint(self):
        assert cf.isotropic_curve(1.0, 2, 2, 3) == pytest.approx(8 / 9, abs=1e-12)

    def test_zero_at_threshold(self):
        for d in (2, 3, 5):
            assert cf.isotropic_curve(1.0 / d, 2, 2, d) == pytest.approx(0.0, abs=1e-12)

    def test_spot_values(self):
        # Frozen from direct evaluation of the closed form (the quoted
        # five-digit round-offs 0.46879 / 0.25220 land within 1e-3).
        assert cf.isotropic_curve(0.724, 2, 2, 3) == pytest.approx(0.4688769, abs=1e-6)
        assert cf.isotropic_curve(0.724, 2, 2, 3) == pytest.approx(0.46879, abs=1e-3)
        assert cf.isotropic_curve(0.6, 2, 2, 3) == pytest.approx(0.2522038, abs=1e-6)

    def test_d2_explicit_form(self):
        # For d=2 the general formula collapses to 1 - ((1 + 4F(1-F))/2)^2.
        for f in np.linspace(0.5, 1.0, 17):
            expected = 1 - ((1 + 4 * f * (1 - f)) / 2) ** 2
            assert cf.isotropic_curve(float(f), 2, 2, 2) == pytest.approx(
                expected, abs=1e-12
            )

    def test_window_enforced(self):
        with pytest.raises(ClosedFormWindowError):
            cf.isotropic_curve(0.8, 1.0, 2, 3)
        with pytest.raises(ClosedFormWindowError):
            cf.isotropic_curve(0.8, 1.5, 0.5, 3)

    def test_domain_enforced(self):
        with pytest.raises(RangeError):
            cf.isotropic_curve(0.2, 2, 2, 3)

    @pytest.mark.parametrize("q,s,d", [(2, 2, 2), (2, 2, 3), (3, 2, 3), (2.5, 1, 4)])
    def test_monotone_increasing_on_entangled_region(self, q, s, d):
        fs = np.linspace(1.0 / d + 1e-6, 1.0, 400)
        vals = [cf.isotropic_curve(float(f), q, s, d) for f in fs]
        assert np.min(np.diff(vals)) > 0


class TestWernerCurve:
    def test_right_endpoint(self):
        assert cf.werner_curve(1.0, 3, 2) == pytest.approx(0.9375, abs=1e-12)

    def test_zero_at_threshold(self):
        assert cf.werner_curve(0.5, 3, 2) == pytest.approx(0.0, abs=1e-12)

    def test_polynomial_identity_q3_s2(self):
        # Algebraic second route: (3/16)(2w-1)^2 (8 - 3(2w-1)^2).
        for w in np.linspace(0.5, 1.0, 100):
            x = (2 * w - 1) ** 2
            poly = (3 / 16) * x * (8 - 3 * x)
            assert cf.werner_curve(float(w), 3, 2) == pytest.approx(poly, abs=1e-12)

    def test_spot_value(self):
        assert cf.werner_curve(0.833, 3, 2) == pytest.approx(0.5546667, abs=1e-6)
        assert cf.werner_curve(0.833, 3, 2) == pytest.approx(0.55470, abs=1e-3)

    def test_monotone_increasing(self):
        ws = np.linspace(0.5 + 1e-6, 1.0, 400)
        vals = [cf.werner_curve(float(w), 3, 2) for w in ws]
        assert np.min(np.diff(vals)) > 0


class TestBreakpoint:
    def test_isotropic_d3(self):
        bp = cf.isotropic_envelope(2, 2, 3).breakpoint
        assert bp == pytest.approx(0.724, abs=0.005)

    def test_isotropic_d2(self):
        bp = cf.isotropic_envelope(2, 2, 2).breakpoint
        assert bp == pytest.approx(0.908, abs=0.005)

    def test_werner(self):
        bp = cf.werner_envelope(3, 2).breakpoint
        assert bp == pytest.approx(0.833, abs=0.005)
        # the exact inflection of the quartic is at w = 5/6
        assert bp == pytest.approx(5 / 6, abs=1e-5)

    def test_convex_curve_returns_right_endpoint(self):
        assert cf.find_breakpoint(lambda x: x * x, (0.0, 1.0)) == 1.0


class TestEnvelope:
    def test_isotropic_d3_tail(self):
        env = cf.isotropic_envelope(2, 2, 3)
        assert env.slope == pytest.approx(1.52, abs=0.01)
        assert env.intercept == pytest.approx(-0.63, abs=0.01)

    def test_isotropic_d2_tail(self):
        env = cf.isotropic_envelope(2, 2, 2)
        assert env.slope == pytest.approx(2.119, abs=0.01)
        assert env.intercept == pytest.approx(-1.369, abs=0.01)

    def test_werner_tail(self):
        env = cf.werner_envelope(3, 2)
        assert env.slope == pytest.approx(2.29, abs=0.01)
        assert env.intercept == pytest.approx(-1.35, abs=0.01)

    @pytest.mark.parametrize(
        "env",
        [
            cf.isotropic_envelope(2, 2, 3),
            cf.isotropic_envelope(2, 2, 2),
            cf.werner_envelope(3, 2),
        ],
    )
    def test_piecewise_continuity(self, env):
        bp = env.breakpoint
        assert env.analytic(bp) == pytest.approx(env.slope * bp + env.intercept, abs=1e-6)
        assert env.slope * env.right + env.intercept == pytest.approx(
            env.analytic(env.right), abs=1e-6
        )

    def test_zero_region(self):
        env = cf.isotropic_envelope(2, 2, 3)
        assert env(0.0) == 0.0
        assert env(1 / 3) == 0.0

    @pytest.mark.parametrize(
        "maker,args",
        [
            (cf.isotropic_envelope, (2, 2, 3)),
            (cf.isotropic_envelope, (2, 2, 2)),
            (cf.werner_envelope, (3, 2)),
        ],
    )
    def test_envelope_below_raw_curve(self, maker, args):
        for method in ("inflection", "tangent"):
            env = maker(*args, method=method)
            xs = np.linspace(env.sep_threshold + 1e-6, env.right, 500)
            for x in xs:
                assert env(float(x)) <= env.analytic(float(x)) + 1e-9

    def test_tangent_envelope_is_convex_throughout(self):
        # The tangent construction is the true convex envelope: second
        # finite differences stay nonnegative across the junction.
        for env in (
            cf.isotropic_envelope(2, 2, 3, method="tangent"),
            cf.isotropic_envelope(2, 2, 2, method="tangent"),
            cf.werner_envelope(3, 2, method="tangent"),
        ):
            xs = np.linspace(env.sep_threshold + 1e-4, env.right - 1e-4, 1500)
            vals = np.array([env(float(x)) for x in xs])
            assert np.min(np.diff(vals, 2)) >= -1e-7

    def test_inflection_envelope_convex_on_each_branch(self):
        for env in (
            cf.isotropic_envelope(2, 2, 3),
            cf.isotropic_envelope(2, 2, 2),
            cf.werner_envelope(3, 2),
        ):
            xs = np.linspace(env.sep_threshold + 1e-4, env.breakpoint - 1e-4, 800)
            vals = np.array([env(float(x)) for x in xs])
            assert np.min(np.diff(vals, 2)) >= -1e-7

    def test_inflection_envelope_has_concave_junction(self):
        # Documented deviation from the ideal: interpolating from the
        # inflection point leaves a downward slope kink at the junction,
        # so the default construction is not globally convex (the
        # tangent method is). The curve's slope at the knot exceeds the
        # chord slope by a visible margin.
        env = cf.isotropic_envelope(2, 2, 3)
        h = 1e-5
        left_slope = (env(env.breakpoint) - env(env.breakpoint - h)) / h
        assert left_slope > env.slope + 0.1

    @pytest.mark.parametrize("q,s,d", [(10, 0.2, 8), (8, 0.25, 8), (10, 0.2, 16)])
    def test_tangent_envelope_is_hull_of_curve_with_interior_concavity(self, q, s, d):
        # Here the curve is concave on an interior stretch as well as near
        # F = 1, so its chord slope to the endpoint has several stationary
        # points; the envelope must still stay below the curve and be convex.
        env = cf.isotropic_envelope(q, s, d, method="tangent")
        xs = np.linspace(1 / d + 1e-4, 1.0, 3001)
        vals = np.array([env(float(x)) for x in xs])
        curve = np.array([cf.isotropic_curve(float(x), q, s, d) for x in xs])
        assert np.max(vals - curve) <= 1e-12
        assert np.min(np.diff(vals, 2)) >= -1e-12

    def test_tangent_junction_is_smooth(self):
        env = cf.isotropic_envelope(2, 2, 3, method="tangent")
        h = 1e-5
        left_slope = (env(env.breakpoint) - env(env.breakpoint - h)) / h
        assert left_slope == pytest.approx(env.slope, abs=1e-2)

    def test_tangent_below_inflection_envelope(self):
        infl = cf.isotropic_envelope(2, 2, 3)
        tang = cf.isotropic_envelope(2, 2, 3, method="tangent")
        for x in np.linspace(1 / 3 + 1e-6, 1.0, 400):
            assert tang(float(x)) <= infl(float(x)) + 1e-9

    def test_dimension_limit(self):
        # The largest supported d still gets the chord from the threshold.
        assert cf.isotropic_envelope(2, 2, cf.MAX_ISOTROPIC_D)(0.9) < 0.901
        with pytest.raises(RangeError):
            cf.isotropic_envelope(2, 2, cf.MAX_ISOTROPIC_D + 1)


class TestScalarEvaluators:
    def test_separable_region_zero(self):
        assert cf.cqs_isotropic(0.3, 2, 2, 3) == 0.0
        assert cf.cqs_werner(0.2, 3, 2) == 0.0

    def test_analytic_branch(self):
        assert cf.cqs_isotropic(0.6, 2, 2, 3) == pytest.approx(0.2522038, abs=1e-6)

    def test_linear_branch(self):
        val = cf.cqs_werner(0.95, 3, 2)
        assert val == pytest.approx(2.29 * 0.95 - 1.35, abs=0.01)

    def test_continuity_at_threshold(self):
        assert cf.cqs_isotropic(1 / 3 + 1e-9, 2, 2, 3) <= 1e-6
        assert cf.cqs_werner(0.5 + 1e-9, 3, 2) <= 1e-6


class TestExtremumOracle:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_vertex_minimizer_and_agreement(self, d):
        for f in np.linspace(1.0 / d + 0.02, 1.0, 8):
            ext = cf.isotropic_extremum_oracle(float(f), 2, 2, d)
            assert (ext.n, ext.m_count) == (1, d - 1)
            assert ext.value == pytest.approx(
                cf.isotropic_curve(float(f), 2, 2, d), abs=1e-10
            )

    def test_constraints_satisfied(self):
        ext = cf.isotropic_extremum_oracle(0.7, 2.5, 1.5, 4)
        n, m = ext.n, ext.m_count
        assert n * ext.gamma**2 + m * ext.delta**2 == pytest.approx(1.0, abs=1e-8)
        assert n * ext.gamma + m * ext.delta == pytest.approx(
            np.sqrt(0.7 * 4), abs=1e-8
        )

    def test_d2_single_candidate(self):
        ext = cf.isotropic_extremum_oracle(0.8, 2, 2, 2)
        assert (ext.n, ext.m_count) == (1, 1)
        assert ext.value == pytest.approx(cf.isotropic_curve(0.8, 2, 2, 2), abs=1e-12)

    def test_domain(self):
        with pytest.raises(RangeError):
            cf.isotropic_extremum_oracle(0.2, 2, 2, 3)


class TestReferenceCurves:
    def test_branch_continuity_at_eight_ninths(self):
        left = cf.reference_q_concurrence_isotropic(8 / 9 - 1e-12)
        right = 1.5 * (8 / 9) - 5 / 6
        assert left == pytest.approx(right, abs=1e-9)

    def test_werner_reference(self):
        assert cf.reference_c3t_werner(0.75) == pytest.approx(0.25, abs=1e-12)
        assert cf.reference_c3t_werner(0.3) == 0.0

    def test_separable_zero(self):
        assert cf.reference_q_concurrence_isotropic(0.2) == 0.0


class TestComparisons:
    def test_dominance_over_single_exponent_curve(self):
        for f in np.linspace(1 / 3 + 1e-4, 1.0, 500):
            assert cf.cqs_isotropic(float(f), 2, 2, 3) >= (
                cf.reference_q_concurrence_isotropic(float(f)) - 1e-9
            )

    def test_werner_crossover_location(self):
        def gap(w):
            return cf.cqs_werner(w, 3, 2) - cf.reference_c3t_werner(w)

        assert all(gap(w) >= -1e-9 for w in np.linspace(0.5, 0.955, 200))
        assert gap(0.99) < 0
        lo, hi = 0.94, 0.99
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(0.961, abs=0.01)


class TestBoundVsExactCurves:
    def test_bound_below_raw_curves(self):
        p22, p32 = measures.classify(2, 2), measures.classify(3, 2)
        for f in np.linspace(1 / 3 + 1e-3, 1.0, 300):
            lb = bounds.bound_value_regime_a(3 * float(f), 3, p22)
            assert lb <= cf.isotropic_curve(float(f), 2, 2, 3) + 1e-9
        for w in np.linspace(0.5 + 1e-3, 1.0, 300):
            lb = bounds.bound_value_regime_a(2 * float(w), 2, p32)
            assert lb <= cf.werner_curve(float(w), 3, 2) + 1e-9

    def test_bound_below_werner_envelope(self):
        p32 = measures.classify(3, 2)
        for w in np.linspace(0.5 + 1e-3, 1.0, 500):
            lb = bounds.bound_value_regime_a(2 * float(w), 2, p32)
            assert lb <= cf.cqs_werner(float(w), 3, 2) + 1e-9

    def test_regime_a_bound_exceeds_isotropic_envelope_near_max_fidelity(self):
        # Measured defect of the published mixed-state bound at s=2: on
        # F in roughly (0.93, 1) the bound exceeds the exact envelope
        # value of the isotropic measure (both constructions), because
        # the mixed-state extension applies a Jensen step that needs
        # s <= 1. An explicit two-component decomposition certifies the
        # true measure really is below the bound there. This test pins
        # the measured violation so a change in behavior is noticed; the
        # acceptance criterion 06c checks the sound bound_value_tight instead.
        p22 = measures.classify(2, 2)
        fs = np.linspace(1 / 3 + 1e-3, 1.0, 500)
        gap = np.array(
            [
                bounds.bound_value_regime_a(3 * float(f), 3, p22)
                - cf.cqs_isotropic(float(f), 2, 2, 3)
                for f in fs
            ]
        )
        assert 2e-3 < gap.max() < 5e-3
        violated = fs[gap > 1e-9]
        assert 0.92 < violated.min() < 0.94

        # decomposition certificate at F = 0.95: mixing twirled extremal
        # states at fidelities f1 and 1 reproduces the F = 0.95 state
        # with ensemble-average measure below the bound value.
        f1 = cf.isotropic_envelope(2, 2, 3, method="tangent").breakpoint
        t = (1 - 0.95) / (1 - f1)
        upper = t * cf.isotropic_curve(f1, 2, 2, 3) + (1 - t) * cf.isotropic_curve(
            1.0, 2, 2, 3
        )
        lb = bounds.bound_value_regime_a(3 * 0.95, 3, p22)
        assert upper < lb - 5e-3
