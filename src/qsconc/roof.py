"""Numerical convex-roof estimator for mixed-state measures.

Every length-L pure-state decomposition of rho = sum_j mu_j |e_j><e_j|
arises as sqrt(p_i)|psi_i> = sum_j U_ij sqrt(mu_j)|e_j> for an L x r
isometry U (U†U = I). The estimator minimizes the ensemble-averaged
pure-state measure over U by seeded random restarts plus an accept/
reject local search of two-row Givens rotations with an adaptive step.

The result is an UPPER estimate of the roof infimum: the search can
stall, never undershoot. Treat ``estimate`` accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, measures, states
from .errors import (
    DimensionMismatchError,
    NumericError,
    RangeError,
    TooLargeError,
    UnsupportedRegimeError,
)

MAX_SIDE = 16
WEIGHT_FLOOR = 1e-14


@dataclass(frozen=True)
class RoofConfig:
    decomposition_length: int | None = None  # default: 2 * rank
    restarts: int = 32
    iterations: int = 2000
    step_decay: float = 0.97  # shrink factor applied on each rejected move
    seed: int = 0
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.restarts < 1:
            raise RangeError(f"restarts must be at least 1, got {self.restarts}")


@dataclass(frozen=True)
class RoofResult:
    estimate: float
    best_weights: np.ndarray
    best_states: list[states.PureState]
    converged: bool


@dataclass(frozen=True)
class SandwichReport:
    lower: float
    upper: float
    consistent: bool


def _ensemble_average(phi: np.ndarray, da: int, db: int, q: float, s: float,
                      eps: int) -> float:
    """sum_i p_i * C_{q,s}(phi_i / sqrt(p_i)) for subnormalized columns phi."""
    mats = phi.T.reshape(-1, da, db)
    sv = np.linalg.svd(mats, compute_uv=False)
    lam = sv * sv  # rows sum to p_i
    p = lam.sum(axis=1)
    total = 0.0
    for k in range(lam.shape[0]):
        if p[k] < WEIGHT_FLOOR:
            continue
        t = float(np.sum((lam[k] / p[k]) ** q))
        total += p[k] * eps * (1.0 - t**s)
    return total


def _givens_rows(u: np.ndarray, i: int, j: int, theta: float, phase: float) -> np.ndarray:
    v = u.copy()
    c, sn = math.cos(theta), math.sin(theta)
    e = complex(math.cos(phase), math.sin(phase))
    v[i, :] = c * u[i, :] - e * sn * u[j, :]
    v[j, :] = np.conj(e) * sn * u[i, :] + c * u[j, :]
    return v


def roof_estimate(rho: states.DensityMatrix, p: measures.ParamPair,
                  config: RoofConfig | None = None) -> RoofResult:
    """Minimize the ensemble-averaged measure over pure-state decompositions."""
    cfg = config or RoofConfig()
    if p.regime is measures.Regime.UNSUPPORTED:
        raise UnsupportedRegimeError(
            f"(q, s) = ({p.q}, {p.s}) is in neither admissible regime"
        )
    if rho.n_parties != 2:
        raise DimensionMismatchError(f"need a bipartite state, dims={rho.dims}")
    da, db = rho.dims
    side = da * db
    if side > MAX_SIDE:
        raise TooLargeError(f"side {side} exceeds the supported maximum {MAX_SIDE}")

    w, v = np.linalg.eigh(rho.matrix)
    keep = w > 1e-12
    mu, vecs = w[keep], v[:, keep]
    rank = int(mu.size)
    length = 2 * rank if cfg.decomposition_length is None else cfg.decomposition_length
    if length < rank:
        raise RangeError(f"decomposition length {length} below rank {rank}")
    a0 = vecs * np.sqrt(mu)  # column j = sqrt(mu_j)|e_j>

    def objective(u: np.ndarray) -> float:
        return _ensemble_average(a0 @ u.T, da, db, p.q, p.s, p.epsilon)

    best_val = math.inf
    best_u = None
    converged = False
    for restart in range(cfg.restarts):
        rng = np.random.default_rng((cfg.seed, restart))
        if restart == 0:
            u = np.eye(length, rank, dtype=complex)
        else:
            z = rng.standard_normal((length, rank)) + 1j * rng.standard_normal(
                (length, rank)
            )
            u, _ = np.linalg.qr(z)
        val = objective(u)
        step = 0.5
        checkpoint = val
        checkpoint_at = int(0.75 * cfg.iterations)
        search_iters = cfg.iterations if length >= 2 else 0
        for t in range(search_iters):
            i, j = rng.choice(length, size=2, replace=False)
            theta = step * rng.standard_normal()
            phase = step * rng.standard_normal()
            cand = _givens_rows(u, int(i), int(j), theta, phase)
            cand_val = objective(cand)
            if cand_val < val - 1e-15:
                u, val = cand, cand_val
                step = min(step * 1.1, 1.0)
            else:
                step = max(step * cfg.step_decay, 1e-4)
            if t == checkpoint_at:
                checkpoint = val
        if val < best_val:
            best_val, best_u = val, u
            converged = (checkpoint - val) <= cfg.tolerance
    assert best_u is not None

    phi = a0 @ best_u.T
    weights = np.sum(np.abs(phi) ** 2, axis=0)
    order = [k for k in range(length) if weights[k] > WEIGHT_FLOOR]
    best_states = [
        states.PureState((da, db), phi[:, k] / math.sqrt(weights[k])) for k in order
    ]
    best_weights = weights[order]
    recon = sum(
        wk * st.projector() for wk, st in zip(best_weights, best_states)
    )
    residual = float(np.max(np.abs(recon - rho.matrix)))
    if residual > 1e-7:
        raise NumericError(f"decomposition reconstruction residual {residual:.2e}")
    return RoofResult(float(best_val), best_weights, best_states, converged)


def roof_estimate_normalized(rho: states.DensityMatrix, p: measures.ParamPair,
                             config: RoofConfig | None = None) -> float:
    """Roof estimate divided by the Bell-pair normalizer (qubit-qudit scale)."""
    return roof_estimate(rho, p, config).estimate / measures.bell_normalizer(p)


def sandwich_check(rho: states.DensityMatrix, p: measures.ParamPair,
                   config: RoofConfig | None = None) -> SandwichReport:
    """Analytic lower bound vs. roof upper estimate; flags lower <= upper."""
    cfg = config or RoofConfig()
    lower = bounds.bound_auto(rho, p).lower_bound
    upper = roof_estimate(rho, p, cfg).estimate
    return SandwichReport(lower, upper, lower <= upper + cfg.tolerance)
