"""Monogamy residuals and entanglement polygon inequalities.

Polygon checks: in any multipartite pure state, each one-to-rest
marginal measure is at most the sum of all the others (regime A). The
group variant bounds the measure across a named block partition by the
sum of the block members' marginals. Each term is ``measures.cqs_pure``
across its split, whose one check rejects a bad index or group.

Monogamy (qubits): the one-to-rest normalized measure dominates the sum
of the pairwise normalized measures. The guarantee is proven for
q >= 2, 0 <= s <= 1, 1 <= q*s <= 3 (``monogamy_window``); the residual
itself is computed for any q > 1 so sweeps can map where the inequality
stops holding.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import measures, states
from .errors import (
    BadPartitionError,
    MixedGlobalStateError,
    MonogamyWindowError,
    NotQubitsError,
    UnsupportedRegimeError,
)
from .measures import ParamPair, Regime, _params

POLYGON_TOL = 1e-9  # slack on each polygon inequality, for round-off


@dataclass(frozen=True)
class PolygonReport:
    marginals: list[float]
    violations: list[int]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class MonogamyReport:
    K: float
    K_parts: list[float]
    tau: float


def _in_regime_a(p: ParamPair) -> bool:
    return p.regime is Regime.A


def _require_regime_a(p: ParamPair) -> None:
    _params(p, _in_regime_a, UnsupportedRegimeError, "regime A: q >= 1, q*s >= 1")


def marginal_cqs(psi: states.PureState, j: int, p: ParamPair) -> float:
    """One-to-rest measure of subsystem j."""
    _require_regime_a(p)
    return measures.cqs_pure(psi, p, j)


def polygon_check(psi: states.PureState, p: ParamPair) -> PolygonReport:
    """Verify every one-to-rest marginal against the sum of the others."""
    _require_regime_a(p)
    n = states._require_state(psi, states.PureState).n_parties
    if n < 3:
        raise BadPartitionError(f"polygon check needs n >= 3 parties, got {n}")
    marg = [measures.cqs_pure(psi, p, j) for j in range(n)]
    total = sum(marg)
    violations = [j for j in range(n) if marg[j] > total - marg[j] + POLYGON_TOL]
    return PolygonReport(marg, violations)


def polygon_group_check(psi: states.PureState, group, p: ParamPair) -> PolygonReport:
    """Verify the block measure across group|rest against the block marginals.

    ``group`` lists the subsystem indices forming the first block; the
    report's marginals are [C(group|rest), C(A_1|..), ..., C(A_m|..)] and
    a violation is flagged under index 0.
    """
    _require_regime_a(p)
    group = states._split_group(group, states._require_state(psi, states.PureState).n_parties)
    lhs = measures.cqs_pure(psi, p, group)
    parts = [measures.cqs_pure(psi, p, i) for i in group]
    violations = [0] if lhs > sum(parts) + POLYGON_TOL else []
    return PolygonReport([lhs] + parts, violations)


def monogamy_window(p: ParamPair) -> bool:
    """Window where the monogamy inequality is guaranteed."""
    return _params(p).q >= 2 and 0 <= p.s <= 1 and 1 <= p.q * p.s <= 3


def _q_above_one(p: ParamPair) -> bool:
    return p.q > 1


def require_monogamy_params(p: ParamPair) -> None:
    _params(p, _q_above_one, MonogamyWindowError, "the monogamy residual's window q > 1")


def qubit_concurrences(state) -> tuple[float, ...]:
    """Concurrences (C(0|rest), C(0,1), ..., C(0,n-1)) of an n-qubit pure state.

    C(0|rest) is the pure-state concurrence of qubit 0 against the rest;
    each C(0,i) is the Wootters concurrence of the reduced pair (0, i).
    """
    psi = states._require_state(state, states.PureState, states.DensityMatrix)
    if isinstance(psi, states.DensityMatrix):
        w, v = np.linalg.eigh(psi.matrix)
        if w.size > 1 and w[-2] > 1e-9:
            raise MixedGlobalStateError(
                "global state is mixed; the one-to-rest term needs a pure input"
            )
        psi = states.PureState(psi.dims, v[:, -1] / np.linalg.norm(v[:, -1]))
    n = psi.n_parties
    if n < 2 or any(d != 2 for d in psi.dims):
        raise NotQubitsError(f"need two or more qubits, dims={psi.dims}")
    pairs = ([psi.projector()] if n == 2 else
             [states.reduced_state(psi, [0, i]) for i in range(1, n)])
    return (measures.concurrence_pure(psi, split=0),
            *map(measures.wootters_concurrence, pairs))


def gen3_concurrences(params: states.GenSchmidt3) -> tuple[float, float, float]:
    """Analytic concurrences (A|BC, A|B, A|C) of a generalized-Schmidt state."""
    l0, l1, l2, l3, _ = states._require_state(params, states.GenSchmidt3).lams
    c_abc = math.sqrt(max(0.0, 4.0 * l0 * l0 * (1.0 - l0 * l0 - l1 * l1)))
    return c_abc, 2.0 * l0 * l2, 2.0 * l0 * l3


def monogamy_residual(concurrences, p: ParamPair) -> MonogamyReport:
    """Residual tau = K - K_1 - K_2 - ... from (C(0|rest), C(0,1), C(0,2), ...).

    K bridges the one-to-rest concurrence and each K_i a pairwise one;
    the concurrences depend on the state only, so a (q, s) sweep computes
    them once and calls this per point.
    """
    require_monogamy_params(p)
    k, *parts = [measures.concurrence_bridge(min(c, 1.0), p) for c in concurrences]
    return MonogamyReport(k, parts, functools.reduce(operator.sub, parts, k))


def monogamy_residual_qubits(state, p: ParamPair) -> MonogamyReport:
    """Residual of an n-qubit pure state, from ``qubit_concurrences``."""
    return monogamy_residual(qubit_concurrences(state), p)


def monogamy_residual_gen3(params: states.GenSchmidt3, p: ParamPair) -> MonogamyReport:
    """Closed-form residual for the generalized-Schmidt three-qubit family."""
    return monogamy_residual(gen3_concurrences(params), p)
