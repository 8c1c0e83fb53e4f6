"""Exact (q,s)-concurrence curves for isotropic and Werner states.

For both families the measure is the convex envelope of a scalar curve:
the minimal pure-state measure at fixed fidelity F (isotropic) or fixed
antisymmetric weight w (Werner). The curve is convex near the
separability threshold but loses convexity before the right endpoint,
so the envelope is completed by a straight segment. For some (q, s, d),
e.g. (10, 0.2, 8), the isotropic curve is also concave on an interior
stretch.

Two segment constructions are provided:

* ``method="inflection"`` (default): straight line from the curve's
  inflection point to the right endpoint. This is the construction the
  published piecewise results use.
* ``method="tangent"``: straight line from the point where the chord to
  the right endpoint is tangent to the curve, plus a chord over each
  interior concave stretch. This is the true convex envelope (the lower
  convex hull); it starts lower and keeps the junctions kink-free.

The inflection construction is NOT convex at the junction (the curve's
slope there exceeds the chord slope), and on the segment it sits above
the tangent envelope, which is the exact measure: by up to 0.0194 at
(q, s) = (2, 2), d = 3 (F = 0.724), 0.0373 at d = 4, 0.0754 at d = 8, and
0.0166 for Werner states at (3, 2) (w = 0.833). Both stay below the raw
curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ClosedFormWindowError, NonFiniteError, RangeError
from .errors import _in_range, _require_int, _require_real

SECOND_DIFF_STEP = 1e-4
BREAKPOINT_SAMPLES = 800
HULL_SAMPLES = 400
BISECT_WIDTH = 1e-6
HULL_TOL = 1e-12
CHORD_ROUNDS = 3
# Largest isotropic dimension whose envelope was checked against the curve.
# Above about 5e9 the inflection scan misses the knot near 1/d and returns
# the raw, non-convex curve (at (2, 2), F = 0.9: 0.99990 where the
# envelope is 0.90009).
MAX_ISOTROPIC_D = 10**9


def _require_closed_form_params(q: float, s: float, method: str = "inflection") -> None:
    _require_real(q, "q")
    _require_real(s, "s")
    if not isinstance(method, str) or method not in ("inflection", "tangent"):
        raise RangeError(f"unknown envelope method {method!r}")
    if not (q > 1 and q * s >= 1):
        raise ClosedFormWindowError(
            f"closed forms need q > 1 and q*s >= 1, got (q, s) = ({q}, {s})"
        )


def _pow(a, e):
    """``a ** e`` elementwise through ``np.float_power``.

    ``np.float_power`` calls C libm ``pow``, as Python's float ``**`` does,
    where ``np.power`` runs SIMD loops that differ from libm in the last
    bit on a few percent of inputs. numpy does not promise this, so
    ``test_pow_is_python_float_pow`` checks it bit for bit on every build.
    """
    return np.float_power(a, e)


def _float_if_0d(x):
    """A Python float for a 0-d numpy result, the array otherwise."""
    return float(x) if x.ndim == 0 else x


def isotropic_gamma_delta(f, d: int):
    """Extremal Schmidt amplitudes (gamma, delta) at fidelity f (scalar or array).

    Defined for d >= 2 and f in [0, 1].
    """
    d = _require_int(d, "d", 2)
    return _gamma_delta(_in_range(f, 0.0, 1.0 + 1e-12, "fidelity", "[0, 1]"), d)


def _gamma_delta(f, d: int):
    """``isotropic_gamma_delta`` for callers that have checked f and d."""
    sf = np.sqrt(f)
    s1f = np.sqrt(np.fmax(1.0 - f, 0.0))
    rd1, rd = math.sqrt(d - 1), math.sqrt(d)
    return _float_if_0d((sf + rd1 * s1f) / rd), _float_if_0d((sf - s1f / rd1) / rd)


def isotropic_curve(f, q: float, s: float, d: int):
    """Minimal pure-state measure at fidelity f on C^d x C^d.

    Defined for f in [1/d, 1]; identically 0 at the separability
    threshold f = 1/d. ``f`` may be an array.
    """
    _require_closed_form_params(q, s)
    d = _require_int(d, "d", 2)
    f = _in_range(f, 1.0 / d - 1e-12, 1.0 + 1e-12, "fidelity", f"[1/{d}, 1]")
    gamma, delta = _gamma_delta(np.minimum(np.maximum(f, 1.0 / d), 1.0), d)
    t = _pow(gamma, 2 * q) + (d - 1) * _pow(np.fmax(delta, 0.0), 2 * q)
    return _float_if_0d(1.0 - _pow(t, s))


def werner_curve(w, q: float, s: float):
    """Minimal pure-state measure at antisymmetric weight w.

    Defined for w in [1/2, 1]; identically 0 at w = 1/2. The reduction
    collapses to two Schmidt coefficients for every local dimension, so
    no d argument is needed. ``w`` may be an array.
    """
    _require_closed_form_params(q, s)
    w = _in_range(w, 0.5 - 1e-12, 1.0 + 1e-12, "w =", "[1/2, 1]")
    w = np.minimum(np.maximum(w, 0.5), 1.0)
    g = 2.0 * np.sqrt(w * (1.0 - w))
    t = _pow((1.0 + g) / 2.0, q) + _pow((1.0 - g) / 2.0, q)
    return _float_if_0d(1.0 - _pow(t, s))


def second_difference(curve: Callable, x):
    """Central second difference (f(x+h) - 2 f(x) + f(x-h)) / h^2, in one curve call."""
    h = SECOND_DIFF_STEP
    up, mid, down = curve(np.array([x + h, x, x - h]))
    val = (up - 2.0 * mid + down) / (h * h)
    infinite = ~np.isfinite(val)
    if np.count_nonzero(infinite):
        raise NonFiniteError(
            f"curve second difference at x={np.extract(infinite, x)[0]} is not finite"
        )
    return _float_if_0d(val)


def _bisect_last_sign_change(fn: Callable, xs: np.ndarray) -> float | None:
    """Scan ``fn`` on the grid ``xs`` and bisect its last sign change.

    ``fn`` gets the whole grid in one call, then one point per bisection
    step. Refines the bracketing grid interval to a width below 1e-6;
    None if ``fn`` keeps its sign on the grid.
    """
    vals = fn(xs)
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if flips.size == 0:
        return None
    i = int(flips[-1])
    x_lo, x_hi = float(xs[i]), float(xs[i + 1])
    f_lo = vals[i]
    while x_hi - x_lo > BISECT_WIDTH:
        mid = 0.5 * (x_lo + x_hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            x_lo, f_lo = mid, f_mid
        else:
            x_hi = mid
    return 0.5 * (x_lo + x_hi)


def find_breakpoint(curve: Callable, domain: tuple[float, float]) -> float:
    """Largest root of the numerical second derivative inside ``domain``.

    Scans a grid of ``BREAKPOINT_SAMPLES`` points for the last sign change
    of the central second difference and refines it by bisection to an
    interval below 1e-6. Returns the right endpoint if the curve stays
    convex. ``curve`` must accept arrays as well as scalars.
    """
    a, b = domain
    lo, hi = a + 2 * SECOND_DIFF_STEP, b - 2 * SECOND_DIFF_STEP
    if hi <= lo:
        raise RangeError(f"domain {domain} too narrow for step {SECOND_DIFF_STEP}")
    knot = _bisect_last_sign_change(lambda x: second_difference(curve, x),
                                    np.linspace(lo, hi, BREAKPOINT_SAMPLES))
    return b if knot is None else knot


def _hull_chords(curve: Callable, domain: tuple[float, float]) -> list[tuple[float, float]]:
    """Chords ``(x0, x1)`` of the lower convex hull of ``curve`` on ``domain``.

    The hull of the curve sampled on a grid plus the right endpoint b
    locates the chords: its edges that skip samples. Each chord end other
    than b is then refined, next to its hull vertex, to where the chord
    touches the curve: a sign change of
    curve'(x) - (curve(other) - curve(x)) / (other - x), with ``other``
    the chord's far end. A chord ending at b starts at the maximum of the
    chord slope to b, the steepest chord that stays below the curve.
    """
    a, b = domain
    step, samples = SECOND_DIFF_STEP, HULL_SAMPLES
    xs = np.append(np.linspace(a + 2 * step, b - 2 * step, samples), b)
    ys = curve(xs)

    fx, fy = xs.tolist(), ys.tolist()  # Python floats: numpy scalars are slow here

    def above_chord(i: int, j: int, k: int) -> bool:
        chord = fy[i] + (fy[k] - fy[i]) * (fx[j] - fx[i]) / (fx[k] - fx[i])
        return fy[j] - chord > HULL_TOL

    hull: list[int] = []
    for k in range(xs.size):
        while len(hull) >= 2 and above_chord(hull[-2], hull[-1], k):
            hull.pop()
        hull.append(k)

    def touch(i: int, other: float) -> float:
        f_other = curve(other)

        def gap(x):
            up, mid, down = curve(np.array([x + step, x, x - step]))
            return (up - down) / (2 * step) - (f_other - mid) / (other - x)

        x = _bisect_last_sign_change(gap, xs[max(i - 1, 0):min(i + 2, samples)])
        return float(xs[i]) if x is None else x

    chords = []
    for i, j in zip(hull, hull[1:]):
        if j == i + 1:
            continue
        x0, x1 = float(xs[i]), float(xs[j])
        if j == samples:
            x0 = touch(i, b)
        else:
            # Each round squares the error of the pair: the two ends of a
            # chord between two convex arcs depend on each other.
            for _ in range(CHORD_ROUNDS):
                x0 = touch(i, x1)
                x1 = touch(j, x0)
        chords.append((x0, x1))
    return chords


@dataclass(frozen=True)
class EnvelopeCurve:
    """Piecewise measure curve: zero region, analytic region, linear tail.

    On each ``bridges`` interval (x0, x1) left of the breakpoint the
    curve is replaced by its chord.
    """

    sep_threshold: float
    breakpoint: float
    slope: float
    intercept: float
    analytic: Callable
    right: float = 1.0
    bridges: tuple[tuple[float, float], ...] = ()

    def __call__(self, x):
        """The envelope at ``x`` in [0, right] (a float or an array)."""
        x = _in_range(x, 0.0, self.right + 1e-12, "x =", f"[0, {self.right}]")
        x = np.minimum(x, self.right)
        tail = x > self.breakpoint
        y = np.where(tail, self.slope * x + self.intercept, 0.0)
        on_curve = (self.sep_threshold < x) & ~tail
        if np.count_nonzero(on_curve):
            y[on_curve] = self.analytic(x[on_curve])
            for x0, x1 in self.bridges:
                chord = on_curve & (x0 < x) & (x < x1)
                f0 = self.analytic(x0)
                y[chord] = f0 + (self.analytic(x1) - f0) * (x[chord] - x0) / (x1 - x0)
        return _float_if_0d(y)


def build_envelope(curve: Callable, domain: tuple[float, float],
                   method: str = "inflection") -> EnvelopeCurve:
    """Complete a losing-convexity curve with a straight tail segment.

    The curve is 0 up to ``domain[0]``, the separability threshold. The
    tangent method also bridges any interior stretch where the curve is
    not convex. ``curve`` must accept arrays as well as scalars: the
    scans evaluate their whole grid in one call.
    """
    a, b = domain
    if method == "inflection":
        knot, bridges = find_breakpoint(curve, domain), ()
    elif method == "tangent":
        chords = _hull_chords(curve, domain)
        knot = chords.pop()[0] if chords and chords[-1][1] == b else b
        bridges = tuple(chords)
    else:
        raise RangeError(f"unknown envelope method {method!r}")
    # A convex curve (knot == b) continues with its slope over the last step.
    x0, run = (b - SECOND_DIFF_STEP, SECOND_DIFF_STEP) if knot >= b else (knot, b - knot)
    slope = (curve(b) - curve(x0)) / run
    return EnvelopeCurve(a, knot, slope, curve(b) - slope * b, curve, b, bridges)


def isotropic_envelope(q: float, s: float, d: int,
                       method: str = "inflection") -> EnvelopeCurve:
    """Envelope of the isotropic curve over fidelity in [1/d, 1]."""
    _require_closed_form_params(q, s, method)
    return _isotropic_envelope(q, s, _require_int(d, "d", 2, MAX_ISOTROPIC_D), method)


def werner_envelope(q: float, s: float, method: str = "inflection") -> EnvelopeCurve:
    """Envelope of the Werner curve over weight in [1/2, 1]."""
    _require_closed_form_params(q, s, method)
    return _werner_envelope(q, s, method)


# The caches sit behind the public names, which check every argument, so
# every spelling of ``method`` (default, positional, keyword) reaches one entry.
@lru_cache(maxsize=128)
def _isotropic_envelope(q: float, s: float, d: int, method: str) -> EnvelopeCurve:
    def curve(f: float) -> float:
        return isotropic_curve(f, q, s, d)

    return build_envelope(curve, (1.0 / d, 1.0), method)


@lru_cache(maxsize=128)
def _werner_envelope(q: float, s: float, method: str) -> EnvelopeCurve:
    def curve(w: float) -> float:
        return werner_curve(w, q, s)

    return build_envelope(curve, (0.5, 1.0), method)


isotropic_envelope.cache_clear = _isotropic_envelope.cache_clear
werner_envelope.cache_clear = _werner_envelope.cache_clear


def cqs_isotropic(f, q: float, s: float, d: int, method: str = "inflection"):
    """Measure of the isotropic state at fidelity f in [0, 1] (a float or an array)."""
    return isotropic_envelope(q, s, d, method)(f)


def cqs_werner(w, q: float, s: float, method: str = "inflection"):
    """Measure of the Werner state at weight w in [0, 1] (a float or an array)."""
    return werner_envelope(q, s, method)(w)


@dataclass(frozen=True)
class IsotropicExtremum:
    """Candidate extremal Schmidt profile: n entries gamma^2, m entries delta^2."""

    n: int
    m_count: int
    gamma: float
    delta: float
    value: float


def isotropic_extremum_oracle(f: float, q: float, s: float, d: int) -> IsotropicExtremum:
    """Brute-force minimizer over all integer extremal Schmidt profiles.

    Independent oracle for ``isotropic_curve``: enumerates every profile
    with n entries gamma^2 and m entries delta^2 subject to
    n*gamma^2 + m*delta^2 = 1 and n*gamma + m*delta = sqrt(f*d), over
    1 <= n <= f*d and f*d <= n+m <= d, and returns the minimizing one.
    """
    _require_closed_form_params(q, s)
    d = _require_int(d, "d", 2)
    _require_real(f, "fidelity")
    if not 1.0 / d < f <= 1.0 + 1e-12:
        raise RangeError(f"fidelity {f} outside (1/{d}, 1]")
    f = min(f, 1.0)
    fd = f * d
    root_fd = math.sqrt(fd)
    best: IsotropicExtremum | None = None
    for n in range(1, int(math.floor(fd + 1e-12)) + 1):
        for m in range(d - n, -1, -1):
            if n + m < fd - 1e-12:
                continue
            if m == 0:
                if abs(n - fd) > 1e-12:
                    continue
                gamma, delta = 1.0 / math.sqrt(n), 0.0
            else:
                disc = n * m * (n + m - fd)
                root = math.sqrt(max(0.0, disc))
                gamma = (n * root_fd + root) / (n * (n + m))
                delta = (m * root_fd - root) / (m * (n + m))
                if delta < -1e-12:
                    continue
                delta = max(delta, 0.0)
            value = 1.0 - (n * gamma ** (2 * q) + m * delta ** (2 * q)) ** s
            if best is None or value < best.value - 1e-15:
                best = IsotropicExtremum(n, m, gamma, delta, value)
    if best is None:
        raise NonFiniteError(f"no feasible extremal profile at f={f}, d={d}")
    return best


def reference_q_concurrence_isotropic(f):
    """Published single-exponent (q=2) concurrence curve for isotropic states, d=3.

    ``f`` may be an array over [0, 1]; the curve is 0 up to f = 1/3.
    """
    f = _in_range(f, 0.0, 1.0 + 1e-12, "fidelity", "[0, 1]")
    gamma, delta = _gamma_delta(f, 3)
    value = np.where(f <= 8.0 / 9.0, 1.0 - _pow(gamma, 4) - 2.0 * _pow(delta, 4),
                     1.5 * f - 5.0 / 6.0)
    return _float_if_0d(np.where(f <= 1.0 / 3.0, 0.0, value))


def reference_c3t_werner(w):
    """Published C_3^t concurrence curve for two-qubit Werner states.

    ``w`` may be an array over [0, 1]; the curve is 0 up to w = 1/2.
    """
    w = _in_range(w, 0.0, 1.0 + 1e-12, "w =", "[0, 1]")
    return _float_if_0d(_pow(np.fmax(2.0 * w - 1.0, 0.0), 2))
