"""Numerical convex-roof estimator for mixed-state measures.

A length-L pure-state decomposition of rho is a matrix phi with
phi phi† = rho whose column k is sqrt(p_k)|psi_k>. Every such phi is
a0 U^T, with a0 the scaled eigenvectors of rho and U an L x rank
isometry, and the estimator minimizes the ensemble-averaged pure-state
measure over U from seeded restarts:

* Regime A (q >= 1, sign +1): a Riemannian gradient search on the
  Stiefel manifold (Rothlisberger, Lehmann and Loss, PRL 102, 100502,
  2009). Each step moves U against the projected gradient, retracts by
  QR, accepts by Armijo's rule and takes its next trial step from
  Barzilai-Borwein (Wen and Yin, Math. Program. 142, 397, 2013). All
  restarts advance together in batched numpy calls.
* Regime B (q < 1, sign -1): the pure-state measure's gradient is
  unbounded next to product terms, so the search is an accept/reject
  walk that mixes two columns of phi by a Givens rotation with an
  adaptive step.

``decomposition_length`` is capped at side**2 (enough for an optimal
decomposition) and ``restarts`` at ``MAX_RESTARTS``, which bounds every
array the search allocates.

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
MAX_RESTARTS = 256
WEIGHT_FLOOR = 1e-14
STEP_DECAY = 0.97  # walk: shrink factor applied on each rejected move
ARMIJO = 1e-4  # sufficient-decrease constant of the gradient search
MIN_DECREASE = 1e-14  # a restart stops once an accepted step gains less
MIN_STEP = 1e-12  # ... or once backtracking shrinks the step below this
BB_CLIP = (1e-10, 1e4)  # bounds on the Barzilai-Borwein trial step


@dataclass(frozen=True)
class RoofConfig:
    decomposition_length: int | None = None  # default: 2 * rank
    restarts: int = 32
    iterations: int = 2000  # gradient rounds (regime A) or walk steps (regime B)
    seed: int = 0
    tolerance: float = 1e-6  # see RoofResult.converged

    def __post_init__(self):
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise RangeError(
                f"restarts must be in [1, {MAX_RESTARTS}], got {self.restarts}"
            )
        if self.iterations < 0:
            raise RangeError(f"iterations must be nonnegative, got {self.iterations}")
        if self.seed < 0:
            raise RangeError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 <= self.tolerance < math.inf:
            raise RangeError(f"tolerance must be finite and nonnegative, got {self.tolerance}")


@dataclass(frozen=True)
class RoofResult:
    """Best decomposition found, with the search's diagnostics.

    ``converged`` means, in regime A, that the best restart ended with a
    projected-gradient norm at most ``tolerance``; in regime B, that it
    gained at most ``tolerance`` over its last quarter of iterations.
    """

    estimate: float
    best_weights: np.ndarray
    best_states: list[states.PureState]
    converged: bool
    restart_values: np.ndarray  # best value reached by each restart
    evaluations: int  # objective evaluations made, over all restarts


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


def _value_and_gradient(u: np.ndarray, a0: np.ndarray, da: int, db: int,
                        q: float, s: float, eps: int) -> tuple[np.ndarray, np.ndarray]:
    """Objective of each isometry in a stack u, and its gradient dh/dU*.

    Term k is the da x db block M = U S V† of phi = a0 U^T, with
    lambda = S**2, p = sum lambda and t = sum (lambda/p)**q. Its measure
    is p*eps*(1 - t**s), and its Wirtinger gradient is
    eps*[(1 - (1-qs) t**s) M - qs t**(s-1) p**(1-q) U S**(2q-1) V†].
    The last factor is evaluated as x0**(qs-1) tau**(s-1) r**(q-1) S,
    with x0 the largest lambda/p, r = lambda/lambda_max and
    tau = sum r**q, which keeps every power in [0, 1] for q >= 1.
    """
    n, length, rank = u.shape
    blocks = (u @ a0.T).reshape(n, length, da, db)  # block k is column k of phi
    left, sv, right = np.linalg.svd(blocks, full_matrices=False)
    lam = sv * sv
    p = lam.sum(axis=-1)
    live = p >= WEIGHT_FLOOR
    # Dead terms get a harmless stand-in; their value and gradient are zeroed.
    lam = np.where(live[..., None], lam, 1.0)
    p = np.where(live, p, 1.0)
    ts = np.sum((lam / p[..., None]) ** q, axis=-1) ** s
    value = np.sum(np.where(live, p * eps * (1.0 - ts), 0.0), axis=-1)
    r = lam / lam[..., :1]
    x0 = lam[..., 0] / p
    tau = np.sum(r**q, axis=-1)
    coef = np.where(live, q * s * x0 ** (q * s - 1) * tau ** (s - 1), 0.0)
    weights = coef[..., None] * r ** (q - 1) * sv
    lin = np.where(live, 1.0 - (1.0 - q * s) * ts, 0.0)
    grad = lin[..., None, None] * blocks - (left * weights[..., None, :]) @ right
    return value, eps * grad.reshape(n, length, da * db) @ a0.conj()


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real inner product Re tr(x† y) per stacked matrix."""
    return np.einsum("nij,nij->n", x.conj(), y).real


def _tangent(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project g onto the Stiefel tangent space at u: g - u sym(u† g)."""
    ug = u.conj().swapaxes(-1, -2) @ g
    return g - u @ ((ug + ug.conj().swapaxes(-1, -2)) / 2)


def _retract(y: np.ndarray) -> np.ndarray:
    """Q factor of each y with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(y)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _start(rng: np.random.Generator, restart: int, length: int, rank: int) -> np.ndarray:
    """Start isometry: the eigen-decomposition for restart 0, else Haar-like."""
    if restart == 0:
        return np.eye(length, rank, dtype=complex)
    z = rng.standard_normal((length, rank)) + 1j * rng.standard_normal((length, rank))
    return np.linalg.qr(z)[0]


def _descend(a0, cfg, length, rank, args):
    """Batched Riemannian gradient search; returns (phi, values, converged, evals)."""
    n = cfg.restarts
    u = np.stack([_start(np.random.default_rng((cfg.seed, r)), r, length, rank)
                  for r in range(n)])
    f, g = _value_and_gradient(u, a0, *args)
    xi = _tangent(u, g)
    xi2 = _inner(xi, xi)
    step = np.ones(n)
    accepted = np.zeros(n, dtype=int)
    active = np.sqrt(xi2) > cfg.tolerance
    evaluations = n
    tiny = np.finfo(float).tiny
    for _ in range(cfg.iterations):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        trial = _retract(u[idx] - step[idx, None, None] * xi[idx])
        ft, gt = _value_and_gradient(trial, a0, *args)
        evaluations += idx.size
        # Along -xi the slope of f is -2|xi|^2, since xi projects df/dU*.
        ok = ft <= f[idx] - ARMIJO * 2.0 * step[idx] * xi2[idx]
        rej = idx[~ok]
        step[rej] /= 2.0
        active[rej] = step[rej] >= MIN_STEP
        acc = idx[ok]
        if acc.size == 0:
            continue
        u_new = trial[ok]
        xi_new = _tangent(u_new, gt[ok])
        ds, dy = u_new - u[acc], xi_new - xi[acc]
        ss, yy = _inner(ds, ds), _inner(dy, dy)
        sy = np.abs(_inner(ds, dy))
        bb = np.where(accepted[acc] % 2 == 0,
                      ss / np.maximum(sy, tiny), sy / np.maximum(yy, tiny))
        decrease = f[acc] - ft[ok]
        u[acc], xi[acc], f[acc] = u_new, xi_new, ft[ok]
        xi2[acc] = _inner(xi_new, xi_new)
        step[acc] = np.clip(bb, *BB_CLIP)
        accepted[acc] += 1
        active[acc] = (decrease >= MIN_DECREASE) & (np.sqrt(xi2[acc]) > cfg.tolerance)
    best = int(np.argmin(f))
    converged = bool(np.sqrt(xi2[best]) <= cfg.tolerance)
    return a0 @ u[best].T, f, converged, evaluations


def _walk(a0, cfg, length, rank, args):
    """Givens accept/reject walk per restart; returns (phi, values, converged, evals)."""
    best_val = math.inf
    best_phi = None
    converged = False
    values = []
    search_iters = cfg.iterations if length >= 2 else 0
    for restart in range(cfg.restarts):
        rng = np.random.default_rng((cfg.seed, restart))
        phi = a0 @ _start(rng, restart, length, rank).T
        val = _ensemble_average(phi, *args)
        step = 0.5
        checkpoint = val
        checkpoint_at = int(0.75 * cfg.iterations)
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
        values.append(val)
        if val < best_val:
            best_val, best_phi = val, phi
            converged = (checkpoint - val) <= cfg.tolerance
    return best_phi, np.array(values), converged, cfg.restarts * (1 + search_iters)


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
    if not rank <= length <= side * side:
        raise RangeError(
            f"decomposition length {length} outside [rank, side**2] = [{rank}, {side * side}]"
        )
    a0 = vecs * np.sqrt(mu)  # column j = sqrt(mu_j)|e_j>
    args = (da, db, p.q, p.s, p.epsilon)
    search = _descend if p.regime is measures.Regime.A else _walk
    best_phi, values, converged, evaluations = search(a0, cfg, length, rank, args)

    residual = float(np.max(np.abs(best_phi @ best_phi.conj().T - rho.matrix)))
    if residual > 1e-7:
        raise NumericError(f"decomposition reconstruction residual {residual:.2e}")
    weights = np.sum(np.abs(best_phi) ** 2, axis=0)
    order = weights > WEIGHT_FLOOR
    best_states = [
        states.PureState((da, db), col / math.sqrt(wk))
        for col, wk in zip(best_phi.T[order], weights[order])
    ]
    return RoofResult(float(np.min(values)), weights[order], best_states, converged,
                      values, evaluations)


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
