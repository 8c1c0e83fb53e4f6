"""Numerical convex-roof estimator for mixed-state measures.

A length-L pure-state decomposition of rho is a matrix phi with
phi phi† = rho whose column k is sqrt(p_k)|psi_k>. Every such phi is
a0 U^T, with a0 the scaled eigenvectors of rho and U an L x rank
isometry, and the estimator minimizes the ensemble-averaged pure-state
measure over U from seeded restarts by a Riemannian gradient search on
the Stiefel manifold (Rothlisberger, Lehmann and Loss, PRL 102, 100502,
2009). Each step moves U against the projected gradient, retracts by
QR, accepts by Armijo's rule and takes its next trial step from
Barzilai-Borwein (Wen and Yin, Math. Program. 142, 397, 2013). All
restarts advance together in batched numpy calls.

* Regime A (q >= 1, sign +1): one stage on the measure itself.
* Regime B (q < 1, sign -1): the pure-state measure is not smooth at
  product terms (its slope is infinite there for q < 1/2, its curvature
  for 1/2 <= q < 1), so the search runs three stages on a smoothed
  measure whose spectral floor shrinks: 10**-(2 + r % 3) for restart r,
  then 1e-6, then 0, the measure itself. Each stage starts from where
  the last one ended.

Each round scores a term from the spectrum of its block's Gram matrix on
the smaller side. When that side is 3 or more, the round forms the blocks
and takes one small Hermitian eigh per block. When it is 2 (a qubit on
either party) the two eigenvalues and the gradient come in closed form
from ufunc arithmetic, with no LAPACK call, and the round never forms a
block: with A_j the block of a0's column j (transposed when da > db, so
that it is 2 x max(da, db)), the search builds once the kernel matrix
P[j, ab, l] = sum_c A_j[a, c] conj(A_l[b, c]) of shape (rank, 4 rank).
Each round then takes W = U P, reshaped to (n, L, 4, rank), reads each
term's Gram entries as g_ab = sum_l W_ab,l conj(U_l), and, with the
closed-form alpha, beta and h of ``_value_and_gradient``, its gradient
as eps*[(alpha + beta h) W00 + (alpha - beta h) W11 + beta g01 W10
+ beta conj(g01) W01]. Either way the eigenvalues carry an absolute
error of about 1e-16 times the term's weight, which moves the unsmoothed
regime-B measure at small q, so the returned values are not the search's
own: one batched SVD of every restart's last isometry (from a0, not P)
scores it exactly, and the best restart is chosen on that score.

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
    NumericError,
    RangeError,
    TooLargeError,
    _require_int,
    _require_real,
)

MAX_SIDE = 16
MAX_RESTARTS = 256
WEIGHT_FLOOR = 1e-14
ARMIJO = 1e-4  # sufficient-decrease constant of the gradient search
MIN_DECREASE = 1e-14  # a restart stops once an accepted step gains less
MIN_STEP = 1e-12  # ... or once backtracking shrinks the step below this
BB_CLIP = (1e-10, 1e4)  # bounds on the Barzilai-Borwein trial step
_SIGNS = np.array([1.0, -1.0])
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class RoofConfig:
    decomposition_length: int | None = None  # default: 2 * rank
    restarts: int = 32
    iterations: int = 2000  # gradient rounds, split evenly over the stages
    seed: int = 0
    tolerance: float = 1e-6  # see RoofResult.converged

    def __post_init__(self):
        _require_int(self.restarts, "restarts", 1, MAX_RESTARTS)
        _require_int(self.iterations, "iterations", 0)
        _require_int(self.seed, "seed", 0)
        if self.decomposition_length is not None:
            _require_int(self.decomposition_length, "decomposition_length")
        _require_real(self.tolerance, "tolerance", 0, np.finfo(float).max)


@dataclass(frozen=True)
class RoofResult:
    """Best decomposition found, with the search's diagnostics.

    ``converged`` flags a stationary point, not a right estimate: the best
    restart ended its last stage with a projected-gradient norm at most
    ``tolerance``, which the unsmoothed regime-B stage does not reach for
    q <= 1/2 even where the estimate is right. ``evaluations`` counts
    the isometries whose objective and gradient were computed: one per
    restart at the start of each stage, then one per active restart per
    round, so at most restarts * (iterations + stages), with one stage in
    regime A and three in regime B. The final exact scoring of each
    restart from singular values is not counted.
    """

    estimate: float
    best_weights: np.ndarray
    best_states: list[states.PureState]
    converged: bool
    restart_values: np.ndarray  # exact value of each restart's last isometry
    evaluations: int  # objective evaluations made, over all restarts


@dataclass(frozen=True)
class SandwichReport:
    lower: float
    upper: float
    consistent: bool


def _blocks(u: np.ndarray, a0: np.ndarray, da: int, db: int) -> np.ndarray:
    """Stack of the da x db blocks of phi = a0 U^T, one per term of each isometry."""
    n, length, _ = u.shape
    return (u @ a0.T).reshape(n, length, da, db)  # block k is column k of phi


def _kernel(a0: np.ndarray, da: int, db: int) -> np.ndarray:
    """What every round of a search needs of a0: P when a side is a qubit, else a0.

    A_j is the block of a0's column j, transposed when da > db so that it
    is 2 x max(da, db); P[j, ab, l] = sum_c A_j[a, c] conj(A_l[b, c]) has
    shape (rank, 4 rank), with ab = 2a + b.
    """
    if min(da, db) != 2:
        return a0
    a = a0.T.reshape(-1, da, db)
    if da > db:
        a = a.swapaxes(-1, -2)
    return np.einsum("jac,lbc->jabl", a, a.conj()).reshape(len(a), -1)


def _qubit_gram(u: np.ndarray, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W = U P as (n, L, 4, rank), and each term's Gram entries g_ab = sum_l W_ab,l U*_l."""
    n, length, rank = u.shape
    w = (u.reshape(-1, rank) @ kernel).reshape(n, length, 4, rank)
    return w, (w @ u.conj()[..., None])[..., 0]


def _value_and_gradient(u: np.ndarray, kernel: np.ndarray, da: int, db: int,
                        q: float, s: float, eps: int,
                        floor: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Objective of each isometry in a stack u, and its gradient dh/dU*.

    ``kernel`` is ``_kernel(a0, da, db)``. Term k is the da x db block M
    of phi = a0 U^T. Its spectrum lambda (ascending) and eigenvectors V
    are those of the Gram matrix G on its smaller side, M M† when
    da <= db, else the same on M^T, so lambda has min(da, db) entries.
    With p = sum lambda and t = sum (lambda/p)**q, the term's measure is
    p*eps*(1 - t**s), and its Wirtinger gradient with respect to M* is
    eps*[(1 - (1-qs) t**s) M - V diag(w) V† M] with
    w = qs t**(s-1) p**(1-q) lambda**(q-1); as V is unitary, both parts
    are formed as one V diag(.) V† M. The weights are evaluated as
    x0**(qs-1) tau**(s-1) r**(q-1), with x0 the largest lambda/p,
    r = lambda/lambda_max, tau = sum r**q and t = x0**q tau, which keeps
    every power in [0, 1] for q >= 1. The spectrum axis leads, so each
    sum over it is an add of its columns.

    When min(da, db) is 2 (2 x 2 up to 2 x 8 and 8 x 2 blocks), the round
    never forms a block. M = sum_l U_l A_l with A_l the (transposed) block
    of a0's column l, so with P from ``_kernel`` and W = U P, reshaped to
    (n, L, 4, rank), G's entries are g_ab = sum_l W_ab,l U*_l. G is
    mid I + K with K = [[h, g01], [g01*, -h]] traceless, so
    lambda = mid -+ rad with rad = hypot(h, |g01|), and
    V diag(d-, d+) V† M = alpha M + beta K M with alpha = (d- + d+)/2 and
    beta = (d+ - d-)/(2 rad), or 0 where rad = 0 (then K = 0). K is
    formed from G's entries, never as G - mid I, so nearly degenerate
    blocks lose nothing to cancellation. Pulled back to U, the gradient
    is eps*[(alpha + beta h) W00 + (alpha - beta h) W11
    + beta g01 W10 + beta g01* W01]. Larger blocks take one Hermitian
    eigh of G, and their gradient goes back to U through a0†.

    Either way the eigenvalues carry an absolute error of about 1e-16 p,
    so a value here can be off where the measure is steep at a zero
    Schmidt value (q < 1 without a floor); ``roof_estimate`` rescores the
    search's results from singular values with ``_measure``.

    A per-isometry ``floor`` c smooths the measure: each spectrum of k
    values becomes (lambda + c p)/(1 + k c), which keeps p, and w mixes
    the same way, (w + c sum w)/(1 + k c). A zero eigenvalue gets weight
    0 (for q < 1/2 its slope is infinite). ``floor=None`` is the
    unsmoothed measure for q >= 1.
    """
    n, length, rank = u.shape
    qubit = min(da, db) == 2
    if qubit:
        wk, g = _qubit_gram(u, kernel)
        g00, g01, g11 = g[..., 0].real, g[..., 1], g[..., 3].real
        mid, h = (g00 + g11) / 2, (g00 - g11) / 2
        rad = np.hypot(h, np.abs(g01))
        lam = mid - _SIGNS[:, None, None] * rad
    else:
        m = _blocks(u, kernel, da, db)
        if da > db:
            m = m.swapaxes(-1, -2)
        lam, vec = np.linalg.eigh(m @ m.conj().swapaxes(-1, -2))
        lam = np.ascontiguousarray(lam.transpose(2, 0, 1))
    lam = np.fmax(lam, 0.0)
    p = lam.sum(axis=0)
    live = p >= WEIGHT_FLOOR
    # Dead terms get a harmless stand-in; their value and gradient are zeroed.
    lam = np.where(live, lam, 1.0)
    p = np.where(live, p, 1.0)
    if floor is not None:
        c = floor[:, None]
        mix = 1.0 + len(lam) * c
        lam = (lam + c * p) / mix
    r = lam / lam[-1]
    x0 = lam[-1] / p
    tau = (r**q).sum(axis=0)
    ts = (tau * x0**q) ** s
    value = eps * np.where(live, p * (1.0 - ts), 0.0).sum(axis=-1)
    coef = q * s * x0 ** (q * s - 1) * tau ** (s - 1)
    if floor is None:
        w = coef * r ** (q - 1)
    else:
        w = coef * np.power(r, q - 1, out=np.zeros_like(r), where=r > 0)
        w = (w + c * w.sum(axis=0)) / mix
    lin_w = np.where(live, (1.0 - (1.0 - q * s) * ts) - w, 0.0)
    if qubit:
        lo, hi = eps * lin_w
        # Where 2 rad < tiny, rad is 0 or below mid's rounding (p >= WEIGHT_FLOOR
        # on live terms), so lo == hi to the bit and beta = 0: the floor only
        # keeps 0/0 out.
        beta = (hi - lo) / np.fmax(2 * rad, _TINY)
        bh, alpha = beta * h, (lo + hi) / 2
        cw = beta[..., None] * g.conj()  # beta g01* for W01, beta g01 for W10
        cw[..., 0], cw[..., 3] = alpha + bh, alpha - bh
        return value, (cw[..., None, :] @ wk)[..., 0, :]
    grad = (vec * lin_w.transpose(1, 2, 0)[..., None, :]) @ (vec.conj().swapaxes(-1, -2) @ m)
    if da > db:
        grad = grad.swapaxes(-1, -2)
    return value, grad.reshape(n, length, da * db) @ (eps * kernel.conj())


def _measure(u: np.ndarray, a0: np.ndarray, da: int, db: int,
             q: float, s: float, eps: int) -> np.ndarray:
    """Exact objective of each isometry in u: one batched SVD of all blocks."""
    lam = np.linalg.svd(_blocks(u, a0, da, db), compute_uv=False) ** 2
    p = lam.sum(axis=-1)
    live = p >= WEIGHT_FLOOR
    ts = np.sum((lam / np.where(live, p, 1.0)[..., None]) ** q, axis=-1) ** s
    return np.sum(np.where(live, p * eps * (1.0 - ts), 0.0), axis=-1)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real inner product Re tr(x† y) per stacked matrix, summed over float views.

    Re(x* y) = Re x Re y + Im x Im y, so no conjugate is formed; the
    views need each matrix's last axis contiguous.
    """
    return np.einsum("nij,nij->n", x.view(float), y.view(float))


def _tangent(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project g onto the Stiefel tangent space at u: g - u sym(u† g)."""
    ug = u.conj().swapaxes(-1, -2) @ g
    return g - u @ ((ug + ug.conj().swapaxes(-1, -2)) / 2)


def _retract(y: np.ndarray) -> np.ndarray:
    """Q factor of each y with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(y)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _starts(seed: int, n: int, length: int, rank: int) -> np.ndarray:
    """Start isometries: the eigen-decomposition for restart 0, else Haar-like.

    Restart r draws from its own stream ``default_rng((seed, r))``, and
    one batched QR orthonormalizes every draw.
    """
    z = np.empty((n - 1, length, rank), dtype=complex)
    for r in range(1, n):
        rng = np.random.default_rng((seed, r))
        z[r - 1] = rng.standard_normal((length, rank)) + 1j * rng.standard_normal((length, rank))
    return np.concatenate([np.eye(length, rank, dtype=complex)[None], np.linalg.qr(z)[0]])


def _descend(kernel, cfg, length, rank, args, floors):
    """Batched Riemannian gradient search; returns (u, xi2, evaluations).

    Each stage restarts the step rules from the current isometries under
    its own floor and runs ``iterations // len(floors)`` rounds. u holds
    every restart's last isometry and xi2 its squared projected-gradient
    norm.
    """
    n = cfg.restarts
    u = _starts(cfg.seed, n, length, rank)
    evaluations = 0
    for floor in floors:
        f, g = _value_and_gradient(u, kernel, *args, floor)
        xi = _tangent(u, g)
        xi2 = _inner(xi, xi)
        step = np.ones(n)
        accepted = np.zeros(n, dtype=int)
        active = np.sqrt(xi2) > cfg.tolerance
        evaluations += n
        for _ in range(cfg.iterations // len(floors)):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            trial = _retract(u[idx] - step[idx, None, None] * xi[idx])
            ft, gt = _value_and_gradient(trial, kernel, *args,
                                         None if floor is None else floor[idx])
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
                          ss / np.maximum(sy, _TINY), sy / np.maximum(yy, _TINY))
            decrease = f[acc] - ft[ok]
            u[acc], xi[acc], f[acc] = u_new, xi_new, ft[ok]
            xi2[acc] = _inner(xi_new, xi_new)
            step[acc] = np.clip(bb, *BB_CLIP)
            accepted[acc] += 1
            active[acc] = (decrease >= MIN_DECREASE) & (np.sqrt(xi2[acc]) > cfg.tolerance)
    return u, xi2, evaluations


def roof_estimate(rho: states.DensityMatrix, p: measures.ParamPair,
                  config: RoofConfig | None = None) -> RoofResult:
    """Minimize the ensemble-averaged measure over pure-state decompositions."""
    cfg = config or RoofConfig()
    measures._require_supported(p)
    da, db = states._bipartite_dims(rho)
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
    n = cfg.restarts
    floors = ([None] if p.regime is measures.Regime.A else
              [10.0 ** -(2 + np.arange(n) % 3), np.full(n, 1e-6), np.zeros(n)])
    u, xi2, evaluations = _descend(_kernel(a0, da, db), cfg, length, rank, args, floors)
    values = _measure(u, a0, *args)
    best = int(np.argmin(values))
    best_phi = a0 @ u[best].T

    residual = float(np.max(np.abs(best_phi @ best_phi.conj().T - rho.matrix)))
    if residual > 1e-7:
        raise NumericError(f"decomposition reconstruction residual {residual:.2e}")
    weights = np.sum(np.abs(best_phi) ** 2, axis=0)
    order = weights > WEIGHT_FLOOR
    best_states = [
        states.PureState((da, db), col / math.sqrt(wk))
        for col, wk in zip(best_phi.T[order], weights[order])
    ]
    return RoofResult(float(values[best]), weights[order], best_states,
                      bool(np.sqrt(xi2[best]) <= cfg.tolerance), values, evaluations)


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
