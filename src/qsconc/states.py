"""State construction and validation.

Pure states are normalized amplitude vectors tagged with their subsystem
dimensions; density matrices are trace-one Hermitian PSD operators with
the same tagging. Schmidt decomposition accepts any grouping of the
subsystems into two blocks. Random sampling is seed-reproducible: every
sampler takes an explicit seed and touches no global RNG state.

The JSON state-file schema consumed by the CLI is::

    {"kind": "pure" | "density",
     "dims": [d1, ..., dn],
     "data": [[re, im], ...]}      # flat, row-major

with len(data) == prod(dims) for pure states and prod(dims)**2 for
density matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    BadPartitionError,
    DimensionMismatchError,
    NonFiniteInputError,
    NonHermitianError,
    NotAStateError,
    NotNormalizedError,
    NotPSDError,
    RangeError,
    StateFormatError,
    _real,
    _require_dims,
    _require_int,
    _require_real,
)

NORM_TOL = 1e-9


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over subsystems of dimensions ``dims``."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", _require_dims(self.dims))
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if math.prod(self.dims) != amps.size:
            raise DimensionMismatchError(
                f"dims {self.dims} need {math.prod(self.dims)} amplitudes, got {amps.size}"
            )
        if not np.isfinite(amps).all():
            raise NonFiniteInputError("amplitudes hold a NaN or infinite entry")
        nrm = float(np.sum(np.abs(amps) ** 2))
        if abs(nrm - 1.0) > NORM_TOL:
            raise NotNormalizedError(f"sum |amplitude|^2 = {nrm!r}, expected 1")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def projector(self) -> np.ndarray:
        v = self.amplitudes
        return np.outer(v, v.conj())

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.dims, self.projector())


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one Hermitian PSD operator over subsystems ``dims``."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", _require_dims(self.dims))
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        side = math.prod(self.dims)
        if m.shape != (side, side):
            raise DimensionMismatchError(
                f"dims {self.dims} need a {side}x{side} matrix, got {m.shape}"
            )
        if not np.isfinite(m).all():
            raise NonFiniteInputError("matrix holds a NaN or infinite entry")
        if np.max(np.abs(m - m.conj().T)) > 1e-9:
            raise NonHermitianError("matrix is not Hermitian within 1e-9")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-9:
            raise NotNormalizedError(f"trace = {tr!r}, expected 1")
        w = np.linalg.eigvalsh(linalg.hermitianize(m))
        if w[0] < -1e-9:
            raise NotPSDError(f"eigenvalue {w[0]:.3e} below PSD tolerance")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def eigenvalues(self) -> np.ndarray:
        return linalg.hermitian_eigenvalues(self.matrix)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Nonincreasing probability vector of squared Schmidt coefficients."""

    values: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self):
        v = _real(self.values)
        if v.ndim != 1:
            raise DimensionMismatchError(f"Schmidt values need a 1-d array, got ndim={v.ndim}")
        if not np.isfinite(v).all():
            raise NonFiniteInputError("Schmidt values hold a NaN or infinite entry")
        v = np.sort(v)[::-1].copy()
        v[np.abs(v) < linalg.EIGENVALUE_CLAMP] = 0.0
        object.__setattr__(self, "values", v)
        if v.size and (v[-1] < 0 or v[0] > 1 + NORM_TOL):
            raise RangeError("Schmidt values must lie in [0, 1]")
        if abs(float(np.sum(v)) - 1.0) > NORM_TOL:
            raise NotNormalizedError(f"Schmidt values sum to {float(np.sum(v))!r}")
        object.__setattr__(self, "rank", int(np.count_nonzero(v > 0)))


@dataclass(frozen=True)
class GenSchmidt3:
    """Generalized-Schmidt parameters of a three-qubit pure state.

    Amplitude convention: lam0..lam4 are nonnegative amplitudes with
    sum(lam_i**2) == 1; phi is the phase on the |100> term.
    """

    lam0: float
    lam1: float
    lam2: float
    lam3: float
    lam4: float
    phi: float = 0.0

    def __post_init__(self):
        lams = self.lams
        for x in (*lams, self.phi):
            _require_real(x, "generalized-Schmidt parameter")
        if not all(math.isfinite(x) for x in (*lams, self.phi)):
            raise NonFiniteInputError(
                f"generalized-Schmidt parameters must be finite, got {(*lams, self.phi)}"
            )
        if any(l < 0 for l in lams):
            raise RangeError("generalized-Schmidt amplitudes must be nonnegative")
        s = sum(l * l for l in lams)
        if abs(s - 1.0) > NORM_TOL:
            raise NotNormalizedError(f"sum lam_i^2 = {s!r}, expected 1")

    @property
    def lams(self) -> tuple[float, ...]:
        return (self.lam0, self.lam1, self.lam2, self.lam3, self.lam4)


def _split_group(split, n: int) -> list[int]:
    """Indices of the block that ``split`` (an index or a sequence of them) names.

    The one split check: integer indices, distinct, forming a nonempty
    proper subset of range(n).
    """
    group = list(split) if np.iterable(split) else [split]
    group = [_require_int(i, "split index") for i in group]
    if len(set(group)) != len(group) or not set() < set(group) < set(range(n)):
        raise BadPartitionError(
            f"split {group} must be distinct indices in [0, {n}) leaving one outside")
    return group


def _require_state(x, *kinds, build=None):
    """``x`` if it is one of ``kinds``, else ``build(x)``: the one test of a state's kind.

    A state of another kind, or anything else when there is no ``build``,
    is ``NotAStateError``. ``build`` is the type that checks a bare array
    standing for the kind wanted, such as ``SchmidtSpectrum`` for a spectrum.
    """
    if isinstance(x, kinds):
        return x
    if build is None or isinstance(x, (PureState, DensityMatrix, SchmidtSpectrum, GenSchmidt3)):
        raise NotAStateError(
            f"expected a {' or '.join(k.__name__ for k in kinds)}, got {type(x).__name__}")
    return build(x)


def _group_coefficient_matrix(psi: PureState, split) -> np.ndarray:
    """Reshape amplitudes into the (group, rest) coefficient matrix."""
    n = _require_state(psi, PureState).n_parties
    group = _split_group(split, n)
    rest = [i for i in range(n) if i not in group]
    t = psi.amplitudes.reshape(psi.dims)
    t = np.transpose(t, group + rest)
    da = math.prod(psi.dims[i] for i in group)
    return t.reshape(da, -1)


def schmidt(psi: PureState, split=0) -> SchmidtSpectrum:
    """Schmidt spectrum across a bipartition.

    ``split`` is a subsystem index or a sequence of indices forming one
    block; the remaining subsystems form the other. Returns the squared
    singular values of the coefficient matrix, sorted descending.
    """
    m = _group_coefficient_matrix(psi, split)
    sv = np.linalg.svd(m, compute_uv=False)
    return SchmidtSpectrum(sv**2)


def reduced_state(psi: PureState, split) -> np.ndarray:
    """Reduced density matrix of the ``split`` block of a pure state."""
    m = _group_coefficient_matrix(psi, split)
    return m @ m.conj().T


def _bipartite_dims(rho: DensityMatrix) -> tuple[int, int]:
    """(da, db) of a two-party density matrix."""
    if _require_state(rho, DensityMatrix).n_parties != 2:
        raise DimensionMismatchError(f"need a bipartite state, dims={rho.dims}")
    return rho.dims


def max_entangled(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on C^d x C^d."""
    d = _require_int(d, "d", 2)
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1 / math.sqrt(d)
    return PureState((d, d), v)


def isotropic(f: float, d: int) -> DensityMatrix:
    """Isotropic state with fidelity ``f`` to the maximally entangled state."""
    _require_real(f, "fidelity", 0, 1)
    p = max_entangled(d).projector()  # checks d
    eye = np.eye(d * d, dtype=complex)
    rho = (1.0 - f) / (d * d - 1) * (eye - p) + f * p
    return DensityMatrix((d, d), rho)


def werner(w: float, d: int) -> DensityMatrix:
    """Werner state with antisymmetric weight ``w`` on C^d x C^d.

    rho = a I + b F with F the swap |ik> -> |ki>: weight 2(1-w)/(d(d+1)) on
    the symmetric subspace and 2w/(d(d-1)) on the antisymmetric one.
    """
    _require_real(w, "w", 0, 1)
    d = _require_int(d, "d", 2)
    sym_w = 2.0 * (1.0 - w) / (d * (d + 1))
    asym_w = 2.0 * w / (d * (d - 1))
    n = d * d
    rho = np.zeros((n, n), dtype=complex)
    rho.flat[:: n + 1] = 0.5 * (sym_w + asym_w)
    idx = np.arange(n)
    rho[idx % d * d + idx // d, idx] += 0.5 * (sym_w - asym_w)
    return DensityMatrix((d, d), rho)


def gen_schmidt3(params: GenSchmidt3) -> PureState:
    """Three-qubit state lam0|000> + lam1 e^{i phi}|100> + lam2|101> + lam3|110> + lam4|111>."""
    l0, l1, l2, l3, l4 = _require_state(params, GenSchmidt3).lams
    v = np.zeros(8, dtype=complex)
    v[0b000] = l0
    v[0b100] = l1 * np.exp(1j * params.phi)
    v[0b101] = l2
    v[0b110] = l3
    v[0b111] = l4
    return PureState((2, 2, 2), v)


def haar_random_pure(dims, seed: int) -> PureState:
    """Pure state drawn from the unitarily invariant measure."""
    _require_int(seed, "seed", 0)
    dims = _require_dims(dims)
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return PureState(dims, v)


def haar_random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a complex Gaussian, phase-fixed)."""
    d = _require_int(d, "d", 1)
    _require_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_mixed(dims, rank: int, seed: int) -> DensityMatrix:
    """Seeded mixed state: Dirichlet(1,..,1) mixture of Haar pure states."""
    _require_int(seed, "seed", 0)
    dims = _require_dims(dims)
    n = math.prod(dims)
    rank = _require_int(rank, "rank", 1, n)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(rank))
    rho = np.zeros((n, n), dtype=complex)
    for p in weights:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        rho += p * np.outer(v, v.conj())
    rho = linalg.hermitianize(rho)
    rho /= np.trace(rho).real
    return DensityMatrix(dims, rho)


def load_state_json(path) -> PureState | DensityMatrix:
    """Load a state from the JSON schema; errors name the violated invariant."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also non-UTF-8, deep nesting
            raise StateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFormatError(f"state file must hold a JSON object, got {doc!r:.40}")
    for key in ("kind", "dims", "data"):
        if key not in doc:
            raise StateFormatError(f"missing field {key!r}")
    kind = doc["kind"]
    if kind not in ("pure", "density"):
        raise StateFormatError(f"kind must be 'pure' or 'density', got {kind!r}")
    dims = doc["dims"]
    # bool is an int subclass, but true/false is no dimension.
    if not (isinstance(dims, list) and dims
            and all(type(d) is int and d >= 1 for d in dims)):
        raise StateFormatError(
            f"dims must be a non-empty list of positive integers, got {dims!r:.40}")
    try:
        pairs = np.asarray(doc["data"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFormatError(f"data is not numeric: {exc}") from exc
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise StateFormatError("data must be a flat list of [re, im] pairs")
    # numpy reads JSON strings and true/false as numbers too.
    odd = {type(v).__name__ for pair in doc["data"] for v in pair} - {"int", "float"}
    if odd:
        raise StateFormatError(f"data entries must be JSON numbers, got {sorted(odd)}")
    flat = pairs[:, 0] + 1j * pairs[:, 1]
    side = math.prod(dims)
    if kind == "pure":
        if flat.size != side:
            raise StateFormatError(f"pure state needs {side} entries, got {flat.size}")
        return PureState(dims, flat)
    if flat.size != side * side:
        raise StateFormatError(
            f"density matrix needs {side * side} entries, got {flat.size}"
        )
    return DensityMatrix(dims, flat.reshape(side, side))


def save_state_json(state: PureState | DensityMatrix, path) -> None:
    """Write a state in the JSON schema read by ``load_state_json``."""
    state = _require_state(state, PureState, DensityMatrix)
    if isinstance(state, PureState):
        kind, flat = "pure", state.amplitudes
    else:
        kind, flat = "density", state.matrix.reshape(-1)
    doc = {
        "kind": kind,
        "dims": list(state.dims),
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
