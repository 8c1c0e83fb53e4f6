"""Tests for the exact isotropic/Werner curves, envelopes, and oracles."""

import math
import re
import warnings

import numpy as np
import pytest

from qsconc import bounds, closed_forms as cf, measures, roof, states
from qsconc.errors import ClosedFormWindowError, NoApplicableBoundError, RangeError


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

    @pytest.mark.parametrize("f, d, match", [
        (-0.5, 3, "-0.5"), (1.5, 3, "1.5"), (np.array([0.5, np.nan]), 3, "nan"),
        (0.5, 1, "d >= 2"), (0.5, 0, "d >= 2"),
    ])
    def test_gamma_delta_domain_enforced(self, f, d, match):
        # These used to return NaN or divide by zero with a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match=match):
                cf.isotropic_gamma_delta(f, d)

    def test_gamma_delta_accepts_reference_domain(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cf.isotropic_gamma_delta(0.0, 3) == pytest.approx(
                (math.sqrt(2 / 3), -math.sqrt(1 / 6)), abs=1e-15)
            assert cf.isotropic_gamma_delta(1.0 + 1e-13, 2) == pytest.approx(
                (math.sqrt(0.5), math.sqrt(0.5)), abs=1e-12)

    @pytest.mark.parametrize("q,s,d", [(2, 2, 2), (2, 2, 3), (3, 2, 3), (2.5, 1, 4)])
    def test_monotone_increasing_on_entangled_region(self, q, s, d):
        fs = np.linspace(1.0 / d + 1e-6, 1.0, 400)
        vals = cf.isotropic_curve(fs, q, s, d)
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
        vals = cf.werner_curve(ws, 3, 2)
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

    def test_each_scan_step_makes_one_curve_call(self, monkeypatch):
        # A scan passes its whole grid, and a bisection step its whole
        # difference stencil, to the curve in one call.
        calls, scans = [], []

        def curve(x):
            calls.append(np.shape(x))
            return cf.isotropic_curve(x, 2, 2, 3)

        bisect = cf._bisect_last_sign_change

        def counted_bisect(fn, xs):
            steps = []
            scans.append(steps)

            def step(x):
                before = len(calls)
                value = fn(x)
                steps.append(len(calls) - before)
                return value

            return bisect(step, xs)

        monkeypatch.setattr(cf, "_bisect_last_sign_change", counted_bisect)
        cf.find_breakpoint(curve, (1 / 3, 1.0))
        (steps,) = scans
        assert len(steps) > 5 and steps == [1] * len(steps)
        assert calls == [(3, cf.BREAKPOINT_SAMPLES)] + [(3,)] * (len(steps) - 1)

        calls.clear()
        scans.clear()
        cf._hull_chords(curve, (1 / 3, 1.0))
        assert scans
        for steps in scans:
            assert len(steps) > 5 and steps == [1] * len(steps)
        # The hull grid, then per touch the chord's far end and its steps.
        assert len(calls) == 1 + sum(1 + len(steps) for steps in scans)


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
            assert np.all(env(xs) <= env.analytic(xs) + 1e-9)

    def test_tangent_envelope_is_convex_throughout(self):
        # The tangent construction is the true convex envelope: second
        # finite differences stay nonnegative across the junction.
        for env in (
            cf.isotropic_envelope(2, 2, 3, method="tangent"),
            cf.isotropic_envelope(2, 2, 2, method="tangent"),
            cf.werner_envelope(3, 2, method="tangent"),
        ):
            xs = np.linspace(env.sep_threshold + 1e-4, env.right - 1e-4, 1500)
            vals = env(xs)
            assert np.min(np.diff(vals, 2)) >= -1e-7

    def test_inflection_envelope_convex_on_each_branch(self):
        for env in (
            cf.isotropic_envelope(2, 2, 3),
            cf.isotropic_envelope(2, 2, 2),
            cf.werner_envelope(3, 2),
        ):
            xs = np.linspace(env.sep_threshold + 1e-4, env.breakpoint - 1e-4, 800)
            vals = env(xs)
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
        vals = env(xs)
        curve = cf.isotropic_curve(xs, q, s, d)
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
        xs = np.linspace(1 / 3 + 1e-6, 1.0, 400)
        assert np.all(tang(xs) <= infl(xs) + 1e-9)

    def test_dimension_limit(self):
        # The largest supported d still gets the chord from the threshold.
        assert cf.isotropic_envelope(2, 2, cf.MAX_ISOTROPIC_D)(0.9) < 0.901
        with pytest.raises(RangeError):
            cf.isotropic_envelope(2, 2, cf.MAX_ISOTROPIC_D + 1)

    def test_cache_keyed_by_envelope_not_spelling(self, monkeypatch):
        builds = []
        build = cf.build_envelope

        def counting(*args, **kwargs):
            builds.append(args[2] if len(args) > 2 else kwargs.get("method"))
            return build(*args, **kwargs)

        monkeypatch.setattr(cf, "build_envelope", counting)
        cf.isotropic_envelope.cache_clear()
        cf.werner_envelope.cache_clear()
        try:
            cf.isotropic_envelope(2.0, 2.0, 3)
            cf.isotropic_envelope(2.0, 2.0, 3, "inflection")
            cf.isotropic_envelope(2.0, 2.0, 3, method="inflection")
            cf.cqs_isotropic(0.9, 2.0, 2.0, 3)
            cf.isotropic_envelope(2.0, 2.0, 3, "tangent")
            cf.isotropic_envelope(2.0, 2.0, 3, method="tangent")
            bounds.bound_value_tight(2.0, 3, measures.classify(2, 2))
            cf.cqs_isotropic(0.9, 2.0, 2.0, 3, method="tangent")
            assert len(builds) == 2
            cf.werner_envelope(3.0, 2.0)
            cf.werner_envelope(3.0, 2.0, "inflection")
            cf.werner_envelope(3.0, 2.0, method="inflection")
            cf.cqs_werner(0.9, 3.0, 2.0)
            cf.werner_envelope(3.0, 2.0, "tangent")
            cf.cqs_werner(0.9, 3.0, 2.0, method="tangent")
        finally:
            cf.isotropic_envelope.cache_clear()
            cf.werner_envelope.cache_clear()
        assert builds == ["inflection", "tangent"] * 2

    @pytest.mark.parametrize("call", [
        lambda: cf.isotropic_envelope(2, 2, [3]),
        lambda: cf.isotropic_envelope(np.array(2.0), 2, 3),
        lambda: cf.werner_envelope([2], 2),
        lambda: cf.werner_envelope(3, 2, ["tangent"]),
    ], ids=["list-d", "array-q", "list-q", "list-method"])
    def test_arguments_checked_before_the_cache(self, call):
        # An unhashable argument used to reach the lru_cache, which raised
        # TypeError: unhashable type.
        with pytest.raises(RangeError):
            call()


class TestPublishedEnvelopeExcess:
    """The published (inflection) envelope's excess over the exact (tangent)
    one, as quoted in the ``closed_forms`` docstring and the README."""

    @pytest.mark.parametrize("make,args,lo,excess", [
        (cf.isotropic_envelope, (2, 2, 3), 1 / 3, 0.0194),
        (cf.isotropic_envelope, (2, 2, 4), 1 / 4, 0.0373),
        (cf.isotropic_envelope, (2, 2, 8), 1 / 8, 0.0754),
        (cf.werner_envelope, (3, 2), 1 / 2, 0.0166),
    ])
    def test_quoted_excess(self, make, args, lo, excess):
        xs = np.linspace(lo, 1.0, 20001)
        gap = make(*args)(xs) - make(*args, method="tangent")(xs)
        assert gap.max() == pytest.approx(excess, abs=1e-4)
        assert gap.min() >= -1e-12

    def test_roof_certifies_the_excess(self):
        # A decomposition of the d = 3 isotropic state at F = 0.724 worth
        # less than the published value: the published envelope is not the
        # measure there, and the search lands on the exact one.
        f, p = 0.724, measures.classify(2, 2)
        res = roof.roof_estimate(states.isotropic(f, 3), p,
                                 roof.RoofConfig(restarts=2, iterations=100, seed=0))
        assert res.estimate <= cf.cqs_isotropic(f, 2, 2, 3) - 0.019
        assert res.estimate >= cf.cqs_isotropic(f, 2, 2, 3, method="tangent") - 1e-9


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
        fs = np.linspace(1 / 3 + 1e-4, 1.0, 500)
        assert np.all(cf.cqs_isotropic(fs, 2, 2, 3)
                      >= cf.reference_q_concurrence_isotropic(fs) - 1e-9)

    def test_werner_crossover_location(self):
        def gap(w):
            return cf.cqs_werner(w, 3, 2) - cf.reference_c3t_werner(w)

        assert np.all(gap(np.linspace(0.5, 0.955, 200)) >= -1e-9)
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
        fs = np.linspace(1 / 3 + 1e-3, 1.0, 300)
        lb = bounds.bound_value_regime_a(3 * fs, 3, p22)
        assert np.all(lb <= cf.isotropic_curve(fs, 2, 2, 3) + 1e-9)
        ws = np.linspace(0.5 + 1e-3, 1.0, 300)
        lb = bounds.bound_value_regime_a(2 * ws, 2, p32)
        assert np.all(lb <= cf.werner_curve(ws, 3, 2) + 1e-9)

    def test_bound_below_werner_envelope(self):
        p32 = measures.classify(3, 2)
        ws = np.linspace(0.5 + 1e-3, 1.0, 500)
        lb = bounds.bound_value_regime_a(2 * ws, 2, p32)
        assert np.all(lb <= cf.cqs_werner(ws, 3, 2) + 1e-9)

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


def _per_point(fn, *columns):
    """``fn`` evaluated one Python float at a time, as an array."""
    return np.array([fn(*row) for row in zip(*(c.tolist() for c in columns))])


def _assert_same_bits(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestArrayEvaluation:
    """Array calls give the per-point scalar results bit for bit."""

    TRIPLES = [(2, 2, 3), (3, 1, 8), (2.5, 0.8, 4), (10, 0.2, 8), (1.5, 1, 2), (2, 1, 16)]

    def test_pow_is_python_float_pow(self):
        rng = np.random.default_rng(12)
        bases = np.concatenate([rng.uniform(0, 1, 4000), rng.uniform(0, 50, 1000),
                                [0.0, 1.0, 1e-300]])
        for e in [2, 4, 0.5, *rng.uniform(0.05, 20, 8).tolist()]:
            _assert_same_bits(cf._pow(bases, e), _per_point(lambda b: b ** e, bases))

    @pytest.mark.parametrize("q,s,d", TRIPLES)
    def test_isotropic_cores(self, q, s, d):
        f = np.append(np.random.default_rng(d).uniform(1 / d, 1.0, 600),
                      [1 / d, 8 / 9, 1.0])
        gamma, delta = cf.isotropic_gamma_delta(f, d)
        _assert_same_bits(gamma, _per_point(lambda x: cf.isotropic_gamma_delta(x, d)[0], f))
        _assert_same_bits(delta, _per_point(lambda x: cf.isotropic_gamma_delta(x, d)[1], f))
        _assert_same_bits(cf.isotropic_curve(f, q, s, d),
                          _per_point(lambda x: cf.isotropic_curve(x, q, s, d), f))

    @pytest.mark.parametrize("q,s", [(2, 2), (3, 1), (2.5, 0.8), (10, 0.2)])
    def test_werner_cores(self, q, s):
        w = np.append(np.random.default_rng(7).uniform(0.5, 1.0, 600), [0.5, 1.0])
        _assert_same_bits(cf.werner_curve(w, q, s),
                          _per_point(lambda x: cf.werner_curve(x, q, s), w))
        _assert_same_bits(cf.reference_c3t_werner(w), _per_point(cf.reference_c3t_werner, w))

    def test_reference_curves_over_their_whole_domain(self):
        # Both zero regions, the isotropic switch at f = 8/9 and both ends.
        x = np.append(np.random.default_rng(3).uniform(0.0, 1.0, 600),
                      [0.0, 1 / 3, 0.5, 8 / 9, np.nextafter(8 / 9, 1.0), 1.0, 1.0 + 1e-13])
        for ref in (cf.reference_q_concurrence_isotropic, cf.reference_c3t_werner):
            _assert_same_bits(ref(x), _per_point(ref, x))
            assert (ref(x)[x <= 1 / 3] == 0.0).all()
        with pytest.raises(RangeError, match="-0.25"):
            cf.reference_c3t_werner(np.array([0.5, -0.25]))
        with pytest.raises(RangeError, match="nan"):
            cf.reference_q_concurrence_isotropic(np.array([0.5, np.nan]))

    @pytest.mark.parametrize("m", [2, 3, 8])
    @pytest.mark.parametrize("q,s", [(2, 2), (3, 1), (2.5, 1.2), (0.5, 0.5), (0.3, 0.6),
                                     (0.8, 0.5)])
    def test_bound_cores(self, m, q, s):
        p = measures.classify(q, s)
        bound = bounds.bound_value_regime_a if q > 1 else bounds.bound_value_regime_b
        norm = np.append(np.random.default_rng(m).uniform(0.0, m, 600), [0.0, 1.0, m])
        for fn in (bound, bounds.bound_value_auto):
            _assert_same_bits(fn(norm, m, p), _per_point(lambda n: fn(n, m, p), norm))

    def test_bound_value_auto_array_errors(self):
        norm = np.array([0.5, 1.5, 2.0])
        with pytest.raises(NoApplicableBoundError):
            bounds.bound_value_auto(norm, 2, measures.classify(2, 1))
        # The regime-A maximum at m = 2 is 1 + sqrt(2); the error names the
        # first norm beyond it, and NaN passes as it does for a scalar.
        over = np.array([np.nan, 2.0, 2.5, 3.0])
        with pytest.raises(RangeError, match="norm 2.5 exceeds"):
            bounds.bound_value_auto(over, 2, measures.classify(2, 2))
        assert bounds.bound_value_auto(over[:2], 2, measures.classify(2, 2))[0] == 0.0

    @pytest.mark.parametrize("q,s,d", TRIPLES)
    def test_envelope_grids(self, q, s, d):
        env = cf.isotropic_envelope(q, s, d)
        x = np.linspace(1 / d + 1e-3, 1.0 - 1e-3, 500)
        _assert_same_bits(cf.second_difference(env.analytic, x),
                          _per_point(lambda v: cf.second_difference(env.analytic, v), x))
        tail = np.linspace(env.breakpoint, 1.0, 50)[1:]
        _assert_same_bits(env(tail), _per_point(env, tail))

    ENVELOPES = [(cf.isotropic_envelope, (*t, method)) for t in TRIPLES
                 for method in ("inflection", "tangent")] + [
        (cf.werner_envelope, (q, s, method)) for q, s in [(3, 2), (2, 1), (10, 0.2)]
        for method in ("inflection", "tangent")]

    @staticmethod
    def _envelope_points(env):
        """Random points plus 0, the threshold, the knot, the bridge ends, 1 and
        1 + 5e-13, each with both float neighbours inside [0, 1 + 1e-12]."""
        marks = [0.0, env.sep_threshold, env.breakpoint, 1.0, 1.0 + 5e-13,
                 *(end for bridge in env.bridges for end in bridge)]
        x = np.append(np.random.default_rng(0).uniform(0.0, 1.0, 400), marks)
        return np.concatenate([x, np.fmax(np.nextafter(x, -1.0), 0.0),
                               np.fmin(np.nextafter(x, 2.0), 1.0 + 1e-12)])

    @pytest.mark.parametrize("make,args", ENVELOPES,
                             ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple)
                             else v.__name__)
    def test_envelope_and_measure(self, make, args):
        env = make(*args)
        cqs = cf.cqs_isotropic if make is cf.isotropic_envelope else cf.cqs_werner
        x = self._envelope_points(env)
        _assert_same_bits(env(x), _per_point(env, x))
        _assert_same_bits(cqs(x, *args), _per_point(lambda v: cqs(v, *args), x))
        _assert_same_bits(cqs(x.reshape(3, -1), *args), cqs(x, *args).reshape(3, -1))
        assert (env(x)[x <= env.sep_threshold] == 0.0).all()

    def test_bridged_envelope_takes_its_chord(self):
        env = cf.isotropic_envelope(10, 0.2, 8, "tangent")
        (x0, x1), = env.bridges
        x = np.linspace(x0, x1, 101)[1:-1]
        f0, f1 = env.analytic(x0), env.analytic(x1)
        _assert_same_bits(env(x), f0 + (f1 - f0) * (x - x0) / (x1 - x0))
        assert (env(x) < env.analytic(x)).all()

    @pytest.mark.parametrize("q,s,d", TRIPLES)
    def test_bound_value_tight(self, q, s, d):
        p = measures.classify(q, s)
        env = cf.isotropic_envelope(q, s, d, "tangent")
        norm = np.minimum(d * self._envelope_points(env), d)
        _assert_same_bits(bounds.bound_value_tight(norm, d, p),
                          _per_point(lambda n: bounds.bound_value_tight(n, d, p), norm))

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_bad_entry_is_named(self, bad):
        # The third entry is the first outside the domain; 2.0 comes after it.
        x = np.array([0.5, 0.9, bad, 2.0])
        p = measures.classify(2, 2)
        for call, message in [
            (lambda: cf.isotropic_envelope(2, 2, 3)(x), f"x = {bad} outside"),
            (lambda: cf.isotropic_envelope(10, 0.2, 8, "tangent")(x), f"x = {bad} outside"),
            (lambda: cf.cqs_isotropic(x, 2, 2, 3), f"x = {bad} outside"),
            (lambda: cf.cqs_werner(x, 3, 2, "tangent"), f"x = {bad} outside"),
            (lambda: bounds.bound_value_tight(3 * x, 3, p), f"norm {3 * bad} outside"),
        ]:
            with pytest.raises(RangeError, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("bad", ["0.7", True, None, 0.5j, [0.5, "0.7"], [0.5, None]],
                             ids=["str", "bool", "none", "complex", "str-entry", "none-entry"])
    def test_non_numbers_are_range_errors(self, bad):
        p = measures.classify(2, 2)
        for fn in (lambda v: cf.isotropic_curve(v, 2, 2, 3), lambda v: cf.werner_curve(v, 3, 2),
                   cf.isotropic_envelope(2, 2, 3), lambda v: cf.cqs_werner(v, 3, 2),
                   cf.reference_c3t_werner, lambda v: bounds.bound_value_tight(v, 3, p)):
            with pytest.raises(RangeError, match="expected a real number"):
                fn(bad)

    def test_scalar_calls_return_python_floats(self):
        p22, p55 = measures.classify(2, 2), measures.classify(0.5, 0.5)
        values = [
            cf.isotropic_curve(0.7, 2, 2, 3), *cf.isotropic_gamma_delta(0.7, 3),
            cf.isotropic_curve(np.float64(0.7), 2, 2, 3),
            cf.isotropic_curve(1.0, 2, 2, 3), cf.werner_curve(0.8, 3, 2),
            cf.werner_curve(np.float64(0.8), 3, 2), cf.reference_c3t_werner(0.8),
            cf.reference_c3t_werner(0.3), cf.reference_q_concurrence_isotropic(0.2),
            cf.reference_q_concurrence_isotropic(0.7), cf.reference_q_concurrence_isotropic(0.95),
            cf.isotropic_envelope(2, 2, 3)(0.5), cf.isotropic_envelope(2, 2, 3)(0.9),
            cf.second_difference(cf.isotropic_envelope(2, 2, 3).analytic, 0.7),
            bounds.bound_value_regime_a(2.5, 3, p22), bounds.bound_value_regime_a(0.5, 3, p22),
            bounds.bound_value_regime_b(2.5, 3, p55), bounds.bound_value_regime_b(0.5, 3, p55),
            bounds.bound_value_auto(2.5, 3, p22), bounds.bound_value_tight(2.5, 3, p22),
            bounds.bound_auto(states.isotropic(0.9, 3), p22).lower_bound,
            cf.isotropic_curve(np.asarray(0.7), 2, 2, 3), cf.werner_curve(np.asarray(0.7), 3, 2),
            cf.reference_q_concurrence_isotropic(np.asarray(0.7)),
            cf.reference_c3t_werner(np.asarray(0.7)),
            bounds.bound_value_regime_a(np.asarray(2.5), 3, p22),
            bounds.bound_value_regime_b(np.asarray(2.5), 3, p55),
            cf.isotropic_envelope(2, 2, 3)(np.asarray(0.5)),
            cf.isotropic_envelope(2, 2, 3)(np.asarray(0.2)),
            cf.isotropic_envelope(2, 2, 3)(np.asarray(0.9)),
            cf.cqs_isotropic(np.asarray(0.5), 2, 2, 3), cf.cqs_werner(np.asarray(0.9), 3, 2),
            cf.cqs_isotropic(np.float64(0.5), 2, 2, 3, "tangent"),
            bounds.bound_value_tight(np.asarray(2.5), 3, p22),
            bounds.bound_value_tight(np.asarray(0.5), 3, p22),
        ]
        assert [type(v) for v in values] == [float] * len(values)

    # (breakpoint, slope, intercept, bridges) as the per-point scans gave them.
    @pytest.mark.parametrize("make,args,method,want", [
        (cf.isotropic_envelope, (2, 2, 3), "inflection",
         "(0.7241784369948114, 1.5215967351550796, -0.6327078462661909, ())"),
        (cf.isotropic_envelope, (2, 2, 3), "tangent",
         "(0.5898462224082341, 1.5921195422946395, -0.7032306534057507, ())"),
        (cf.isotropic_envelope, (10, 0.2, 8), "tangent",
         "(0.9920619789831023, 1.592176502632884, -0.615859573984609, "
         "((0.6148305779708061, 0.9687374071776119),))"),
        (cf.isotropic_envelope, (10, 0.2, 8), "inflection",
         "(0.9963683610250116, 1.528919432443438, -0.5526025037951631, ())"),
        (cf.isotropic_envelope, (2.5, 0.8, 8), "inflection",
         "(0.6756136726694502, 1.1721118931353907, -0.2545811375586965, ())"),
        (cf.werner_envelope, (3, 2), "inflection",
         "(0.8333331231910981, 2.291667139486099, -1.354167139486099, ())"),
        (cf.werner_envelope, (2, 1), "tangent",
         "(1.0, 1.999799999999885, -1.499799999999885, ())"),
    ], ids=["iso-2-2-3-inflection", "iso-2-2-3-tangent", "iso-10-0.2-8-tangent",
            "iso-10-0.2-8-inflection", "iso-2.5-0.8-8-inflection", "werner-3-2-inflection",
            "werner-2-1-tangent"])
    def test_envelope_knots_pinned(self, make, args, method, want):
        make.cache_clear()
        env = make(*args, method)
        assert repr((env.breakpoint, env.slope, env.intercept, env.bridges)) == want
