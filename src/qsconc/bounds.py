"""PPT/realignment detection and the analytic lower bounds built on them.

``detect`` computes both reshuffle trace norms; a norm above 1 certifies
entanglement. The two bound families turn the larger norm into a lower
bound on the (q,s)-concurrence:

  regime A (eps=+1), valid for (q >= 2 and s >= 1.1391) or (s >= 1 and
  q >= 2.4721):

      g(N) = [(1 - m**(s(1-q))) / (1 - m**(-s))] *
             [1 - (1 - (N-1)^2 / (m(m-1)))**s]

  regime B (eps=-1), valid for 0 < q < 1 with both s and q*s below
  0.9066 (the published statement and its derivation disagree on which
  product is constrained; both are enforced):

      [(m**(s(1-q)) - 1) / (m**s - 1)] * (N**s - 1)

with N = max of the two norms and m = min(dA, dB).

Neither published formula is a lower bound everywhere in its window,
not even for pure states. Regime A at m = 2 exceeds the measure of some
two-qubit pure states for q in about [2.2, 2.75] with s in [1, 1.5] (by
4.5e-3 at (q, s) = (2.5, 1)); regime B exceeds it at (0.8, 0.5) and
(0.9, 0.9) (by 9.4e-3 and 8.6e-3 at Schmidt weight 0.9634).
``TestPublishedBoundsUnsoundOnPureStates`` in ``tests/test_bounds.py``
pins these states.

Regime B also fails on mixed states. With s < 1 the bound is strictly
concave in N between its values at N = 1 and N = m, while the isotropic
state of norm N mixes the maximally entangled state with the separable
isotropic state, so its measure is at most the chord between those
values. At d = 3 an explicit decomposition (the maximally entangled state plus the
12 product states |u>|u*> of the 4 mutually unbiased bases) has a mean
measure below the bound: 0.07902 against 0.09704 at (0.5, 0.5), F = 0.5.
``TestPublishedRegimeBUnsoundOnMixedStates`` pins three such points.

The regime-A mixed-state extension also applies Jensen's inequality,
which needs g convex on [1, m]; for s > 1 g has an inflection at
(N-1)^2 = m(m-1)/(2s-1), and when that lies below m the formula exceeds
the true measure of some mixed states (the isotropic family at
(q, s) = (2, 2), d = 3, near maximal fidelity).

``bound_value_tight`` is the tightest bound a single norm allows. A pure
state of Schmidt rank <= m has both norms equal to (sum_i sqrt(lam_i))^2
and maximal fidelity N/m with the maximally entangled state of rank m
(Terhal and Vollbrecht, PRL 85, 2625), so C(psi) >= R_m(N/m), where R_m
is the isotropic curve at d = m: the least pure-state measure at that
fidelity. Its lower convex hull co R_m is convex and nondecreasing and
the norms are convex, so C(rho) >= co R_m(N(rho)/m) for every state
(Chen, Albeverio and Fei, PRL 95, 040504). co R_m is the tangent
isotropic envelope at d = m, so the bound covers every (q, s) of the
closed forms (q > 1, q*s >= 1). ``bound_value_regime_a``,
``bound_value_auto``, ``bound_auto`` and the CLI keep the published
formulas. ``bound_value_regime_a``, ``bound_value_regime_b``,
``bound_value_auto`` and ``bound_value_tight`` take a float or an array of
norms, check it once and take powers through ``np.float_power`` (libm
``pow``, checked by a test).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import closed_forms, linalg, states
from .closed_forms import _float_if_0d, _pow
from .errors import (
    NoApplicableBoundError,
    RangeError,
    RegimeABoundWindowError,
    RegimeBBoundWindowError,
)
from .errors import _in_range, _real, _require_int
from .measures import ParamPair, Regime, _params

DETECTION_TOL = 1e-9

REGIME_A_MIN_S = 1.1391
REGIME_A_MIN_Q = 2.4721
REGIME_B_MAX_S = 0.9066


class DetectedBy(enum.Enum):
    PPT = "ppt"
    REALIGNMENT = "realignment"
    BOTH = "both"
    NONE = "none"


@dataclass(frozen=True)
class BoundReport:
    ppt_norm: float
    realign_norm: float
    detected_by: DetectedBy
    lower_bound: float | None
    m: int

    @property
    def max_norm(self) -> float:
        return max(self.ppt_norm, self.realign_norm)


def detect(rho: states.DensityMatrix) -> BoundReport:
    """Compute both reshuffle norms and which criterion (if any) fires."""
    da, db = states._bipartite_dims(rho)
    ppt = linalg.trace_norm(linalg.partial_transpose(rho.matrix, (da, db)))
    rea = linalg.trace_norm(linalg.realign(rho.matrix, (da, db)))
    ppt_hit = ppt > 1.0 + DETECTION_TOL
    rea_hit = rea > 1.0 + DETECTION_TOL
    if ppt_hit and rea_hit:
        by = DetectedBy.BOTH
    elif ppt_hit:
        by = DetectedBy.PPT
    elif rea_hit:
        by = DetectedBy.REALIGNMENT
    else:
        by = DetectedBy.NONE
    return BoundReport(ppt, rea, by, None, min(da, db))


def in_regime_a_window(p: ParamPair) -> bool:
    return _params(p).regime is Regime.A and (
        (p.q >= 2 and p.s >= REGIME_A_MIN_S) or (p.s >= 1 and p.q >= REGIME_A_MIN_Q)
    )


def in_regime_b_window(p: ParamPair) -> bool:
    return (
        _params(p).regime is Regime.B
        and 0 < p.s < REGIME_B_MAX_S
        and 0 < p.q * p.s < REGIME_B_MAX_S
    )


def bound_value_regime_a(norm, m: int, p: ParamPair):
    """Published regime-A formula g from a known max norm; 0 for norm <= 1.

    NOT a lower bound everywhere in its window, even for pure states: at
    m = 2 it exceeds the measure of some two-qubit pure states for q in
    about [2.2, 2.75] with s in [1, 1.5] (by 4.5e-3 at (2.5, 1), pinned in
    ``tests/test_bounds.py``). For mixed states at s > 1 it also fails
    wherever g is not convex on [1, m]. ``bound_value_tight`` is sound.
    Raises ``RangeError`` for m < 2, for a norm above 1 + sqrt(m(m-1)),
    where g is undefined, and for a string, boolean or other non-number
    norm. ``norm`` may be an array.
    """
    _params(p, in_regime_a_window, RegimeABoundWindowError, "both regime-A bound windows: "
            f"q >= 2 with s >= {REGIME_A_MIN_S} or s >= 1 with q >= {REGIME_A_MIN_Q}")
    _require_int(m, "m", 2)
    norm = _real(norm)
    # g is exactly 0 at norm 1, so smaller norms are lifted to 1. A norm
    # whose square overflows gets ratio inf and fails the range check below.
    with np.errstate(over="ignore"):
        ratio = _pow(np.maximum(norm, 1.0) - 1.0, 2) / (m * (m - 1))
    over = ratio > 1.0  # False for a NaN norm, whose NaN value np.fmax maps to 0
    if np.count_nonzero(over):
        raise RangeError(
            f"norm {np.extract(over, norm)[0]} exceeds the regime-A maximum 1 + sqrt(m(m-1)) for m = {m}"
        )
    q, s = p.q, p.s
    pref = (1.0 - float(m) ** (s * (1.0 - q))) / (1.0 - float(m) ** (-s))
    return _float_if_0d(np.fmax(pref * (1.0 - _pow(1.0 - ratio, s)), 0.0))


def bound_value_tight(norm, m: int, p: ParamPair):
    """co R_m(norm / m): the tightest lower bound a single norm allows.

    Sound for every state whose larger reshuffle norm is ``norm`` and
    whose smaller dimension is m; 0 for norm <= 1. ``norm`` may be an
    array. Raises ``RangeError`` for a norm outside [0, m] or m < 2, and
    ``ClosedFormWindowError`` outside q > 1, q*s >= 1.
    """
    p = _params(p)
    m = _require_int(m, "m", 2)
    norm = _in_range(norm, 0.0, m, "norm", f"[0, m] for m = {m}")
    return closed_forms.isotropic_envelope(p.q, p.s, m, "tangent")(norm / m)


def bound_value_regime_b(norm, m: int, p: ParamPair):
    """Published regime-B bound from a known max norm; 0 for norm <= 1.

    NOT a lower bound everywhere in its window. For pure states it
    exceeds the measure of some two-qubit states at (0.8, 0.5) and
    (0.9, 0.9); for mixed states it exceeds the measure of isotropic
    states at interior fidelities, at every window pair checked. Both
    are pinned in ``tests/test_bounds.py``. ``norm`` may be an array; a
    string, boolean or other non-number raises ``RangeError``.
    """
    _params(p, in_regime_b_window, RegimeBBoundWindowError, "the regime-B bound window: "
            f"0 < q < 1, 0 < s < {REGIME_B_MAX_S}, 0 < q*s < {REGIME_B_MAX_S}")
    _require_int(m, "m", 2)
    norm = _real(norm)
    q, s = p.q, p.s
    pref = (float(m) ** (s * (1.0 - q)) - 1.0) / (float(m) ** s - 1.0)
    # The bound is exactly 0 at norm 1, so smaller norms are lifted to 1.
    return _float_if_0d(np.fmax(pref * (_pow(np.maximum(norm, 1.0), s) - 1.0), 0.0))


def _bound_function(p: ParamPair) -> Callable:
    """The published bound function whose window covers (q, s)."""
    if in_regime_a_window(p):
        return bound_value_regime_a
    if in_regime_b_window(p):
        return bound_value_regime_b
    raise NoApplicableBoundError(
        f"(q, s) = ({p.q}, {p.s}) is covered by neither bound family"
    )


def bound_value_auto(norm, m: int, p: ParamPair):
    """Dispatch on (q, s) to whichever bound family applies; ``norm`` may be an array."""
    return _bound_function(p)(norm, m, p)


def bound_auto(rho: states.DensityMatrix, p: ParamPair) -> BoundReport:
    """Detect, then bound with the applicable family, or fail if there is none."""
    bound = _bound_function(p)
    rep = detect(rho)
    return replace(rep, lower_bound=bound(rep.max_norm, rep.m, p))


def pure_state_norm(spectrum) -> float:
    """(sum_i sqrt(lambda_i))^2, the common reshuffle norm of a pure state."""
    lam = states._require_state(spectrum, states.SchmidtSpectrum,
                                build=states.SchmidtSpectrum).values
    return float(np.sum(np.sqrt(lam)) ** 2)
