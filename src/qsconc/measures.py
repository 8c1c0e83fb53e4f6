"""The two-parameter (q,s)-concurrence on pure states and its companions.

For a bipartite pure state with reduced spectrum {lambda_i} the measure is

    C_{q,s} = eps * (1 - (sum_i lambda_i**q)**s)

with sign factor eps = +1 on regime A (q >= 1 and q*s >= 1) and eps = -1
on regime B (0 < q < 1 and 0 < q*s < 1); other (q, s) are rejected. The
normalized variant divides by eps*(1 - 2**(s*(1-q))), which is the
measure's value on a Bell pair, and for qubit-qudit states is connected
to the ordinary concurrence through an analytic bridge function.

Every measure is a plain float, and ``cqs_pure`` (from Schmidt values,
split checked by ``states.schmidt``) is the one pure-state path across a split.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import states
from .errors import (
    BridgeWindowError,
    DimensionMismatchError,
    NotQubitSideError,
    RangeError,
    UnsupportedRegimeError,
    _require_real,
)


class Regime(enum.Enum):
    A = "A"
    B = "B"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class ParamPair:
    """Exponent pair with its regime classification and sign factor."""

    q: float
    s: float
    regime: Regime
    epsilon: int

    @property
    def supported(self) -> bool:
        return self.regime is not Regime.UNSUPPORTED


def classify(q: float, s: float) -> ParamPair:
    """Classify (q, s) into regime A (eps=+1), regime B (eps=-1) or unsupported."""
    _require_real(q, "q")
    _require_real(s, "s")
    if not (0 < q < math.inf and 0 < s < math.inf):
        raise RangeError(f"q and s must be positive and finite, got q={q}, s={s}")
    if q >= 1 and q * s >= 1:
        return ParamPair(float(q), float(s), Regime.A, +1)
    if q < 1 and q * s < 1:
        return ParamPair(float(q), float(s), Regime.B, -1)
    return ParamPair(float(q), float(s), Regime.UNSUPPORTED, 0)


def _params(p, inside=None, error=None, need: str = "") -> ParamPair:
    """``p``; ``RangeError`` unless it is a ``ParamPair``, ``error`` unless ``inside(p)``.

    The one (q, s) check, for the sign regimes, regime A (polygon), the
    bridge window, the two bound windows and q > 1 (monogamy residual).
    The window error reads "q=..., s=... outside {need}".
    """
    if not isinstance(p, ParamPair):
        raise RangeError(f"p must be a ParamPair from classify, got {p!r}")
    if inside is not None and not inside(p):
        raise error(f"q={p.q}, s={p.s} outside {need}")
    return p


def _require_supported(p: ParamPair) -> None:
    _params(p, ParamPair.supported.fget, UnsupportedRegimeError,
            "regime A (q >= 1, q*s >= 1) or regime B (0 < q < 1, 0 < q*s < 1)")


def _array_state(a):
    """A bare matrix as a one-party DensityMatrix, anything else as a SchmidtSpectrum."""
    return states.DensityMatrix((len(a),), a) if np.ndim(a) == 2 else states.SchmidtSpectrum(a)


def _spectrum_of(rho_or_spectrum) -> np.ndarray:
    x = states._require_state(rho_or_spectrum, states.DensityMatrix, states.SchmidtSpectrum,
                              build=_array_state)
    lam = x.eigenvalues() if isinstance(x, states.DensityMatrix) else x.values
    return np.clip(lam, 0.0, None)


def unified_functional(rho_or_spectrum, p: ParamPair) -> float:
    """eps * (1 - (sum lambda_i**q)**s) over the eigenvalue spectrum.

    A bare matrix is checked as a one-party ``DensityMatrix``, any other
    bare array as a ``SchmidtSpectrum``.
    """
    _require_supported(p)
    lam = _spectrum_of(rho_or_spectrum)
    t = float(np.sum(lam**p.q))
    return p.epsilon * (1.0 - t**p.s)


def cqs_pure(psi: states.PureState, p: ParamPair, split=0) -> float:
    """Measure of a pure state across ``split``, as in ``states.schmidt``."""
    return unified_functional(states.schmidt(psi, split), p)


def bell_normalizer(p: ParamPair) -> float:
    """eps * (1 - 2**(s*(1-q))), the measure's value on a Bell pair.

    Vanishes at q = 1, where the normalized measure is undefined.
    """
    _require_supported(p)
    if p.q == 1.0:
        raise RangeError("normalization is singular at q = 1")
    return p.epsilon * (1.0 - 2.0 ** (p.s * (1.0 - p.q)))


def normalized_cqs_pure(psi: states.PureState, p: ParamPair) -> float:
    """Normalized measure of a qubit-qudit pure state, in [0, 1]."""
    if states._require_state(psi, states.PureState).dims[0] != 2:
        raise NotQubitSideError(f"first subsystem must be a qubit, dims={psi.dims}")
    return cqs_pure(psi, p, split=0) / bell_normalizer(p)


def concurrence_pure(psi: states.PureState, split=0) -> float:
    """Concurrence sqrt(2*(1 - tr rho_A^2)) = sqrt(2 * C_{2,1}) across the bipartition."""
    return math.sqrt(max(0.0, 2.0 * cqs_pure(psi, classify(2, 1), split)))


def concurrence_bridge(x: float, p: ParamPair) -> float:
    """Map a two-qubit concurrence value to the normalized (q,s)-concurrence.

    h(x) = [1 - (((1+r)/2)**q + ((1-r)/2)**q)**s] / (1 - 2**(s*(1-q)))
    with r = sqrt(1 - x^2); h(0) = 0 and h(1) = 1. Defined for any q != 1
    (the normalizer vanishes there); the identity with the mixed-state
    measure holds inside ``bridge_window``, and monogamy sweeps evaluate
    the formula beyond it.
    """
    _require_real(x, "concurrence", -1e-9, 1 + 1e-9)
    if _params(p).q == 1.0:
        raise RangeError("bridge is singular at q = 1")
    x = min(max(x, 0.0), 1.0)
    r = math.sqrt(max(0.0, 1.0 - x * x))
    t = ((1.0 + r) / 2.0) ** p.q + ((1.0 - r) / 2.0) ** p.q
    return (1.0 - t**p.s) / (1.0 - 2.0 ** (p.s * (1.0 - p.q)))


_SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def wootters_concurrence(rho) -> float:
    """Two-qubit mixed-state concurrence max(0, mu1 - mu2 - mu3 - mu4)."""
    rho = states._require_state(rho, states.DensityMatrix,
                                build=lambda m: states.DensityMatrix((2, 2), m))
    if rho.dims != (2, 2):
        raise DimensionMismatchError(f"need a 2x2 system, dims={rho.dims}")
    m = rho.matrix
    r = m @ _SIGMA_YY @ m.conj() @ _SIGMA_YY
    ev = np.linalg.eigvals(r).real
    mu = np.sqrt(np.clip(ev, 0.0, None))
    mu.sort()
    return float(max(0.0, mu[3] - mu[2] - mu[1] - mu[0]))


def bridge_window(p: ParamPair) -> bool:
    """Window where the bridge identity for mixed qubit-qudit states holds."""
    return _params(p).q >= 1 and 0 <= p.s <= 1 and 1 <= p.q * p.s <= 3


def cqs_mixed_two_qubit(rho, p: ParamPair) -> float:
    """Normalized measure of a two-qubit mixed state via the bridge identity."""
    _params(p, bridge_window, BridgeWindowError,
            "the bridge window q >= 1, 0 <= s <= 1, 1 <= q*s <= 3")
    c = wootters_concurrence(rho)
    return concurrence_bridge(c, p)
