"""Dense complex matrix kernels.

Eigen/singular spectra, Schatten and trace norms, and the tensor
reshuffling primitives (partial trace, partial transpose, realignment)
used by the detection criteria. All functions are pure and operate on
plain ndarrays, and every one rejects a NaN or infinite entry with
``NonFiniteInputError`` before any LAPACK call sees it.

``trace_norm`` picks its kernel from the input: a square matrix that is
exactly Hermitian (equal to its conjugate transpose bit for bit) takes
sum |eigvalsh|, which is the trace norm of a Hermitian matrix and costs
about half a complex SVD; every other matrix takes the sum of singular
values. A matrix that is Hermitian only to within a tolerance still goes
through the SVD, so no norm becomes approximate.

Index conventions for a bipartite operator rho on dims (dA, dB):
row = i*dB + j, column = k*dB + l, with i, k indexing subsystem A and
j, l indexing subsystem B. The reshuffles below are the index maps

    partial_transpose : p[(i,j),(k,l)] -> p[(k,j),(i,l)]
    realign           : p[(i,j),(k,l)] -> entry at row (i,k), column (j,l)

applied as exact permutations of the entries (no arithmetic), so the
results are bit-identical to an explicit loop.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteInputError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
    RangeError,
)
from .errors import _require_dims, _require_real

HERMITIAN_TOL = 1e-9
EIGENVALUE_CLAMP = 1e-10


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise NonSquareError(f"expected a 2-d array, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NonFiniteInputError("matrix holds a NaN or infinite entry")
    return a


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2; symmetrizes tensor-reshuffle round-off."""
    m = _as_matrix(m)
    return (m + m.conj().T) / 2


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    Magnitudes below 1e-10 are clamped to exactly 0 so that later powers
    lambda**q are well defined for q < 1.

    Raises
    ------
    NonSquareError, NonHermitianError
    """
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}")
    asym = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if asym > HERMITIAN_TOL:
        raise NonHermitianError(f"max |M - M†| = {asym:.3e} exceeds {HERMITIAN_TOL:.1e}")
    w = np.linalg.eigvalsh(hermitianize(m))
    w = w[::-1].copy()
    w[np.abs(w) < EIGENVALUE_CLAMP] = 0.0
    return w


def singular_values(m) -> np.ndarray:
    """Singular values of any matrix, sorted descending."""
    return np.linalg.svd(_as_matrix(m), compute_uv=False)


def trace_norm(m) -> float:
    """Trace norm ||M||_1 = sum of singular values.

    A square M with M == M† bit for bit has ||M||_1 = sum |lambda_i| over
    its eigenvalues, taken from ``eigvalsh``; any other M goes through the
    SVD. The partial transpose permutes entries, so that of an exactly
    Hermitian rho is exactly Hermitian. The realignment of rho is
    Hermitian when rho = F conj(rho) F with F the swap, which isotropic and
    Werner states satisfy bit for bit.
    """
    m = _as_matrix(m)
    if m.shape[0] == m.shape[1] and np.array_equal(m, m.conj().T):
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return float(np.sum(singular_values(m)))


def schatten_norm(m, q: float) -> float:
    """Schatten q-norm (tr M^q)^(1/q) of a PSD matrix, q >= 1."""
    _require_real(q, "Schatten norm q", 1)
    w = hermitian_eigenvalues(m)
    if w.size and w[-1] < -1e-9:
        raise NotPSDError(f"eigenvalue {w[-1]:.3e} below PSD tolerance")
    w = np.clip(w, 0.0, None)
    return float(np.sum(w**q) ** (1.0 / q))


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def _check_bipartite(rho: np.ndarray, dims: tuple[int, int]) -> tuple[int, int]:
    da, db = _require_dims(dims, 2)
    if rho.shape[0] != rho.shape[1]:
        raise NonSquareError(f"matrix is {rho.shape[0]}x{rho.shape[1]}")
    if da * db != rho.shape[0]:
        raise DimensionMismatchError(
            f"dims {da}x{db} do not match matrix side {rho.shape[0]}"
        )
    return da, db


def partial_trace(rho, dims: tuple[int, int], keep: str = "A") -> np.ndarray:
    """Reduced operator of a bipartite matrix.

    Parameters
    ----------
    rho : array, square of side dA*dB
    dims : (dA, dB)
    keep : "A" or "B", the subsystem to keep.
    """
    rho = _as_matrix(rho)
    da, db = _check_bipartite(rho, dims)
    t = rho.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ijkj->ik", t)
    if keep == "B":
        return np.einsum("ijil->jl", t)
    raise RangeError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho, dims: tuple[int, int]) -> np.ndarray:
    """Partial transpose on subsystem A: p[(i,j),(k,l)] -> p[(k,j),(i,l)]."""
    rho = _as_matrix(rho)
    da, db = _check_bipartite(rho, dims)
    t = rho.reshape(da, db, da, db)
    return t.transpose(2, 1, 0, 3).reshape(da * db, da * db)


def realign(rho, dims: tuple[int, int]) -> np.ndarray:
    """Realignment map: entry p[(i,j),(k,l)] moves to row (i,k), column (j,l).

    Returns a dA^2 x dB^2 matrix.
    """
    rho = _as_matrix(rho)
    da, db = _check_bipartite(rho, dims)
    t = rho.reshape(da, db, da, db)
    return t.transpose(0, 2, 1, 3).reshape(da * da, db * db)
