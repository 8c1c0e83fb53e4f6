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
slope there exceeds the chord slope), and on the segment it sits
slightly above the tangent envelope. Both stay below the raw curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ClosedFormWindowError, NonFiniteError, RangeError

SECOND_DIFF_STEP = 1e-4
BISECT_WIDTH = 1e-6
HULL_TOL = 1e-12
CHORD_ROUNDS = 3
# Largest isotropic dimension whose envelope was checked against the curve.
# Above about 5e9 the inflection scan misses the knot near 1/d and returns
# the raw, non-convex curve (at (2, 2), F = 0.9: 0.99990 where the
# envelope is 0.90009).
MAX_ISOTROPIC_D = 10**9


def _require_closed_form_params(q: float, s: float) -> None:
    if not (q > 1 and q * s >= 1):
        raise ClosedFormWindowError(
            f"closed forms need q > 1 and q*s >= 1, got (q, s) = ({q}, {s})"
        )


def isotropic_gamma_delta(f: float, d: int) -> tuple[float, float]:
    """Extremal Schmidt amplitudes (gamma, delta) at fidelity f."""
    sf = math.sqrt(f)
    s1f = math.sqrt(max(0.0, 1.0 - f))
    gamma = (sf + math.sqrt(d - 1) * s1f) / math.sqrt(d)
    delta = (sf - s1f / math.sqrt(d - 1)) / math.sqrt(d)
    return gamma, delta


def isotropic_curve(f: float, q: float, s: float, d: int) -> float:
    """Minimal pure-state measure at fidelity f on C^d x C^d.

    Defined for f in [1/d, 1]; identically 0 at the separability
    threshold f = 1/d.
    """
    _require_closed_form_params(q, s)
    if d < 2:
        raise RangeError(f"need d >= 2, got {d}")
    if not 1.0 / d - 1e-12 <= f <= 1.0 + 1e-12:
        raise RangeError(f"fidelity {f} outside [1/{d}, 1]")
    gamma, delta = isotropic_gamma_delta(min(max(f, 1.0 / d), 1.0), d)
    t = gamma ** (2 * q) + (d - 1) * max(delta, 0.0) ** (2 * q)
    return 1.0 - t**s


def werner_curve(w: float, q: float, s: float) -> float:
    """Minimal pure-state measure at antisymmetric weight w.

    Defined for w in [1/2, 1]; identically 0 at w = 1/2. The reduction
    collapses to two Schmidt coefficients for every local dimension, so
    no d argument is needed.
    """
    _require_closed_form_params(q, s)
    if not 0.5 - 1e-12 <= w <= 1.0 + 1e-12:
        raise RangeError(f"w = {w} outside [1/2, 1]")
    w = min(max(w, 0.5), 1.0)
    g = 2.0 * math.sqrt(w * (1.0 - w))
    t = ((1.0 + g) / 2.0) ** q + ((1.0 - g) / 2.0) ** q
    return 1.0 - t**s


def second_difference(curve: Callable[[float], float], x: float,
                      step: float = SECOND_DIFF_STEP) -> float:
    """Central second difference (f(x+h) - 2 f(x) + f(x-h)) / h^2."""
    val = (curve(x + step) - 2.0 * curve(x) + curve(x - step)) / (step * step)
    if not math.isfinite(val):
        raise NonFiniteError(f"curve second difference at x={x} is not finite")
    return val


def _bisect_last_sign_change(fn: Callable[[float], float],
                             xs: np.ndarray) -> float | None:
    """Scan ``fn`` on the grid ``xs`` and bisect its last sign change.

    Refines the bracketing grid interval to a width below 1e-6; None if
    ``fn`` keeps its sign on the grid.
    """
    vals = np.array([fn(float(x)) for x in xs])
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


def find_breakpoint(curve: Callable[[float], float], domain: tuple[float, float],
                    step: float = SECOND_DIFF_STEP, samples: int = 800) -> float:
    """Largest root of the numerical second derivative inside ``domain``.

    Scans a grid for the last sign change of the central second
    difference and refines it by bisection to an interval below 1e-6.
    Returns the right endpoint if the curve stays convex.
    """
    a, b = domain
    lo, hi = a + 2 * step, b - 2 * step
    if hi <= lo:
        raise RangeError(f"domain {domain} too narrow for step {step}")
    knot = _bisect_last_sign_change(lambda x: second_difference(curve, x, step),
                                    np.linspace(lo, hi, samples))
    return b if knot is None else knot


def _hull_chords(curve: Callable[[float], float], domain: tuple[float, float],
                 step: float = SECOND_DIFF_STEP,
                 samples: int = 400) -> list[tuple[float, float]]:
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
    xs = np.append(np.linspace(a + 2 * step, b - 2 * step, samples), b)
    ys = np.array([curve(float(x)) for x in xs])

    def above_chord(i: int, j: int, k: int) -> bool:
        chord = ys[i] + (ys[k] - ys[i]) * (xs[j] - xs[i]) / (xs[k] - xs[i])
        return ys[j] - chord > HULL_TOL

    hull: list[int] = []
    for k in range(xs.size):
        while len(hull) >= 2 and above_chord(hull[-2], hull[-1], k):
            hull.pop()
        hull.append(k)

    def touch(i: int, other: float) -> float:
        f_other = curve(other)

        def gap(x: float) -> float:
            deriv = (curve(x + step) - curve(x - step)) / (2 * step)
            return deriv - (f_other - curve(x)) / (other - x)

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
    analytic: Callable[[float], float]
    right: float = 1.0
    bridges: tuple[tuple[float, float], ...] = ()

    def __call__(self, x: float) -> float:
        if not 0.0 <= x <= self.right + 1e-12:
            raise RangeError(f"x = {x} outside [0, {self.right}]")
        if x <= self.sep_threshold:
            return 0.0
        if x <= self.breakpoint:
            for x0, x1 in self.bridges:
                if x0 < x < x1:
                    f0 = self.analytic(x0)
                    return f0 + (self.analytic(x1) - f0) * (x - x0) / (x1 - x0)
            return self.analytic(x)
        return self.slope * min(x, self.right) + self.intercept


def build_envelope(curve: Callable[[float], float], domain: tuple[float, float],
                   sep_threshold: float, method: str = "inflection") -> EnvelopeCurve:
    """Complete a losing-convexity curve with a straight tail segment.

    The tangent method also bridges any interior stretch where the curve
    is not convex.
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
    if knot >= b:
        step = SECOND_DIFF_STEP
        slope = (curve(b) - curve(b - step)) / step
        return EnvelopeCurve(sep_threshold, b, slope, curve(b) - slope * b, curve, b,
                             bridges)
    slope = (curve(b) - curve(knot)) / (b - knot)
    intercept = curve(b) - slope * b
    return EnvelopeCurve(sep_threshold, knot, slope, intercept, curve, b, bridges)


@lru_cache(maxsize=128)
def isotropic_envelope(q: float, s: float, d: int,
                       method: str = "inflection") -> EnvelopeCurve:
    """Envelope of the isotropic curve over fidelity in [1/d, 1]."""
    _require_closed_form_params(q, s)
    if not 2 <= d <= MAX_ISOTROPIC_D:
        raise RangeError(f"need 2 <= d <= {MAX_ISOTROPIC_D}, got {d}")

    def curve(f: float) -> float:
        return isotropic_curve(f, q, s, d)

    return build_envelope(curve, (1.0 / d, 1.0), 1.0 / d, method)


@lru_cache(maxsize=128)
def werner_envelope(q: float, s: float, method: str = "inflection") -> EnvelopeCurve:
    """Envelope of the Werner curve over weight in [1/2, 1]."""
    _require_closed_form_params(q, s)

    def curve(w: float) -> float:
        return werner_curve(w, q, s)

    return build_envelope(curve, (0.5, 1.0), 0.5, method)


def cqs_isotropic(f: float, q: float, s: float, d: int,
                  method: str = "inflection") -> float:
    """Measure of the isotropic state at fidelity f, full domain [0, 1]."""
    if not 0.0 <= f <= 1.0 + 1e-12:
        raise RangeError(f"fidelity {f} outside [0, 1]")
    return isotropic_envelope(q, s, d, method)(min(f, 1.0))


def cqs_werner(w: float, q: float, s: float, method: str = "inflection") -> float:
    """Measure of the Werner state at weight w, full domain [0, 1]."""
    if not 0.0 <= w <= 1.0 + 1e-12:
        raise RangeError(f"w = {w} outside [0, 1]")
    return werner_envelope(q, s, method)(min(w, 1.0))


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
    if d < 2:
        raise RangeError(f"need d >= 2, got {d}")
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


def reference_q_concurrence_isotropic(f: float, d: int = 3) -> float:
    """Published single-exponent (q=2) concurrence curve for isotropic states, d=3."""
    if d != 3:
        raise RangeError("reference curve is tabulated for d = 3 only")
    if not 0.0 <= f <= 1.0 + 1e-12:
        raise RangeError(f"fidelity {f} outside [0, 1]")
    if f <= 1.0 / 3.0:
        return 0.0
    if f <= 8.0 / 9.0:
        gamma, delta = isotropic_gamma_delta(f, 3)
        return 1.0 - gamma**4 - 2.0 * delta**4
    return 1.5 * f - 5.0 / 6.0


def reference_c3t_werner(w: float) -> float:
    """Published C_3^t concurrence curve for two-qubit Werner states."""
    if not 0.0 <= w <= 1.0 + 1e-12:
        raise RangeError(f"w = {w} outside [0, 1]")
    if w <= 0.5:
        return 0.0
    return (2.0 * w - 1.0) ** 2
