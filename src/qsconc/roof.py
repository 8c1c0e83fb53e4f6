"""Numerical convex-roof estimator for mixed-state measures.

A length-L pure-state decomposition of rho is a matrix phi with
phi phi† = rho whose column k is sqrt(p_k)|psi_k>. The estimator
minimizes the ensemble-averaged pure-state measure over phi by seeded
random restarts plus an accept/reject local search that mixes two
columns of phi by a Givens rotation with an adaptive step.

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
STEP_DECAY = 0.97  # shrink factor applied on each rejected move


@dataclass(frozen=True)
class RoofConfig:
    decomposition_length: int | None = None  # default: 2 * rank
    restarts: int = 32
    iterations: int = 2000
    seed: int = 0
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.restarts < 1:
            raise RangeError(f"restarts must be at least 1, got {self.restarts}")
        if self.iterations < 0:
            raise RangeError(f"iterations must be nonnegative, got {self.iterations}")
        if self.seed < 0:
            raise RangeError(f"seed must be nonnegative, got {self.seed}")


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
    """sum_k p_k * C_{q,s}(phi_k / sqrt(p_k)) for subnormalized columns phi."""
    sv = np.linalg.svd(phi.T.reshape(-1, da, db), compute_uv=False)
    lam = sv * sv  # rows sum to p_k
    p = lam.sum(axis=1)
    live = p >= WEIGHT_FLOOR
    t = np.sum((lam[live] / p[live, None]) ** q, axis=1)
    return float(np.sum(p[live] * eps * (1.0 - t**s)))


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
    args = (da, db, p.q, p.s, p.epsilon)

    best_val = math.inf
    best_phi = None
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
        phi = a0 @ u.T
        val = _ensemble_average(phi, *args)
        step = 0.5
        checkpoint = val
        checkpoint_at = int(0.75 * cfg.iterations)
        search_iters = cfg.iterations if length >= 2 else 0
        for t in range(search_iters):
            i, j = rng.choice(length, size=2, replace=False)
            theta = step * rng.standard_normal()
            phase = step * rng.standard_normal()
            c, sn = math.cos(theta), math.sin(theta)
            e = complex(math.cos(phase), math.sin(phase))
            g = np.array([[c, e.conjugate() * sn], [-e * sn, c]])
            cand = phi.copy()
            cand[:, [i, j]] = phi[:, [i, j]] @ g
            cand_val = _ensemble_average(cand, *args)
            if cand_val < val - 1e-15:
                phi, val = cand, cand_val
                step = min(step * 1.1, 1.0)
            else:
                step = max(step * STEP_DECAY, 1e-4)
            if t == checkpoint_at:
                checkpoint = val
        if val < best_val:
            best_val, best_phi = val, phi
            converged = (checkpoint - val) <= cfg.tolerance

    residual = float(np.max(np.abs(best_phi @ best_phi.conj().T - rho.matrix)))
    if residual > 1e-7:
        raise NumericError(f"decomposition reconstruction residual {residual:.2e}")
    weights = np.sum(np.abs(best_phi) ** 2, axis=0)
    order = weights > WEIGHT_FLOOR
    best_states = [
        states.PureState((da, db), col / math.sqrt(wk))
        for col, wk in zip(best_phi.T[order], weights[order])
    ]
    return RoofResult(float(best_val), weights[order], best_states, converged)


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
