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
value g.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import closed_forms, linalg, states
from .closed_forms import _clip0, _pow
from .errors import (
    DimensionMismatchError,
    NoApplicableBoundError,
    RangeError,
    RegimeABoundWindowError,
    RegimeBBoundWindowError,
)
from .measures import ParamPair, Regime

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
    if rho.n_parties != 2:
        raise DimensionMismatchError(f"need a bipartite state, dims={rho.dims}")
    da, db = rho.dims
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
    return p.regime is Regime.A and (
        (p.q >= 2 and p.s >= REGIME_A_MIN_S) or (p.s >= 1 and p.q >= REGIME_A_MIN_Q)
    )


def in_regime_b_window(p: ParamPair) -> bool:
    return (
        p.regime is Regime.B
        and 0 < p.s < REGIME_B_MAX_S
        and 0 < p.q * p.s < REGIME_B_MAX_S
    )


def _require_regime_a(norm: float, m: int, p: ParamPair) -> None:
    if not in_regime_a_window(p):
        raise RegimeABoundWindowError(
            f"(q, s) = ({p.q}, {p.s}) outside both regime-A windows: "
            f"need q >= 2 with s >= {REGIME_A_MIN_S} or s >= 1 with q >= {REGIME_A_MIN_Q}"
        )
    if m < 2:
        raise RangeError(f"need m >= 2, got {m}")
    if norm > 1.0 and (norm - 1.0) ** 2 / (m * (m - 1)) > 1.0:
        raise RangeError(
            f"norm {norm} exceeds the regime-A maximum 1 + sqrt(m(m-1)) for m = {m}"
        )


def _regime_a_bound(m: int, q: float, s: float) -> Callable:
    """Unchecked core of ``bound_value_regime_a`` at fixed (m, q, s).

    Returns norm -> g(norm), 0 for norm <= 1; the norm may be an array.
    """
    pref = (1.0 - float(m) ** (s * (1.0 - q))) / (1.0 - float(m) ** (-s))
    c = m * (m - 1)

    def g(norm):
        # g is exactly 0 at norm 1, so smaller norms are lifted to 1.
        n = np.maximum(norm, 1.0)
        return _clip0(pref * (1.0 - _pow(1.0 - _pow(n - 1.0, 2) / c, s)))

    return g


def bound_value_regime_a(norm: float, m: int, p: ParamPair) -> float:
    """Published regime-A formula g from a known max norm; 0 for norm <= 1.

    NOT a lower bound everywhere in its window, even for pure states: at
    m = 2 it exceeds the measure of some two-qubit pure states for q in
    about [2.2, 2.75] with s in [1, 1.5] (by 4.5e-3 at (2.5, 1), pinned in
    ``tests/test_bounds.py``). For mixed states at s > 1 it also fails
    wherever g is not convex on [1, m]. ``bound_value_tight`` is sound.
    Raises ``RangeError`` for m < 2 and for a norm above
    1 + sqrt(m(m-1)), where g is undefined.
    """
    _require_regime_a(norm, m, p)
    return _regime_a_bound(m, p.q, p.s)(norm)


def bound_value_tight(norm: float, m: int, p: ParamPair) -> float:
    """co R_m(norm / m): the tightest lower bound a single norm allows.

    Sound for every state whose larger reshuffle norm is ``norm`` and
    whose smaller dimension is m; 0 for norm <= 1. Raises ``RangeError``
    for a norm outside [0, m] or m < 2, and ``ClosedFormWindowError``
    outside q > 1, q*s >= 1.
    """
    if not 0.0 <= norm <= m:
        raise RangeError(f"norm {norm} outside [0, m] for m = {m}")
    return closed_forms.isotropic_envelope(p.q, p.s, m, "tangent")(norm / m)


def _require_regime_b(norm: float, m: int, p: ParamPair) -> None:
    if not in_regime_b_window(p):
        failed = []
        if not (0 < p.q < 1):
            failed.append(f"q={p.q} not in (0, 1)")
        if not (0 < p.s < REGIME_B_MAX_S):
            failed.append(f"s={p.s} not in (0, {REGIME_B_MAX_S})")
        if not (0 < p.q * p.s < REGIME_B_MAX_S):
            failed.append(f"q*s={p.q * p.s} not in (0, {REGIME_B_MAX_S})")
        raise RegimeBBoundWindowError(
            "outside the regime-B bound window: " + "; ".join(failed)
        )
    if m < 2:
        raise RangeError(f"need m >= 2, got {m}")


def _regime_b_bound(m: int, q: float, s: float) -> Callable:
    """Unchecked core of ``bound_value_regime_b`` at fixed (m, q, s).

    Returns norm -> bound(norm), 0 for norm <= 1; the norm may be an array.
    """
    pref = (float(m) ** (s * (1.0 - q)) - 1.0) / (float(m) ** s - 1.0)

    def bound(norm):
        # The bound is exactly 0 at norm 1, so smaller norms are lifted to 1.
        return _clip0(pref * (_pow(np.maximum(norm, 1.0), s) - 1.0))

    return bound


def bound_value_regime_b(norm: float, m: int, p: ParamPair) -> float:
    """Published regime-B bound from a known max norm; 0 for norm <= 1.

    NOT a lower bound everywhere in its window, even for pure states: it
    exceeds the measure of some two-qubit pure states at (0.8, 0.5) and
    (0.9, 0.9), pinned in ``tests/test_bounds.py``.
    """
    _require_regime_b(norm, m, p)
    return _regime_b_bound(m, p.q, p.s)(norm)


def _bound_family(p: ParamPair):
    """(checks, core) of the bound family whose window covers (q, s).

    ``checks(norm, m, p)`` raises what the family's public bound function
    raises, and ``core(m, q, s)`` returns its unchecked norm -> value map.
    """
    if in_regime_a_window(p):
        return _require_regime_a, _regime_a_bound
    if in_regime_b_window(p):
        return _require_regime_b, _regime_b_bound
    raise NoApplicableBoundError(
        f"(q, s) = ({p.q}, {p.s}) is covered by neither bound family"
    )


def bound_value_auto(norm: float, m: int, p: ParamPair) -> float:
    """Dispatch on (q, s) to whichever bound family applies."""
    checks, core = _bound_family(p)
    checks(norm, m, p)
    return core(m, p.q, p.s)(norm)


def bound_auto(rho: states.DensityMatrix, p: ParamPair) -> BoundReport:
    """Detect, then bound with the applicable family, or fail if there is none."""
    checks, core = _bound_family(p)
    rep = detect(rho)
    checks(rep.max_norm, rep.m, p)
    return replace(rep, lower_bound=core(rep.m, p.q, p.s)(rep.max_norm))


def pure_state_norm(spectrum) -> float:
    """(sum_i sqrt(lambda_i))^2, the common reshuffle norm of a pure state."""
    if isinstance(spectrum, states.SchmidtSpectrum):
        spectrum = spectrum.values
    lam = np.clip(np.asarray(spectrum, dtype=float), 0.0, None)
    return float(np.sum(np.sqrt(lam)) ** 2)
