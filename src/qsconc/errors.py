"""Typed exceptions raised across the toolkit.

Everything derives from ValueError so callers can catch broadly. Each
specific class derives from exactly one of three bases, which name the
cause and fix the CLI exit code: ``InputError`` (bad input, exit 2),
``ParamsError`` ((q, s) or size outside a validity window, exit 3) and
``NumericError`` (numerical breakdown, exit 4).
"""

import numpy as np


class InputError(ValueError):
    """Input data or an argument is invalid."""


class ParamsError(ValueError):
    """Parameters fall outside the window where a result holds."""


class NumericError(ValueError):
    """A numerical evaluation broke down."""


class NonSquareError(InputError):
    """Matrix operation requires a square matrix."""


class NonHermitianError(InputError):
    """Matrix violates the Hermitian symmetry tolerance."""


class NotPSDError(InputError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class DimensionMismatchError(InputError):
    """Declared subsystem dimensions do not match the array shape."""


class RangeError(InputError):
    """Scalar argument outside its admissible range."""


class NotNormalizedError(InputError):
    """State vector or coefficient set violates normalization."""


class NonFiniteInputError(InputError):
    """State holds a NaN or infinite entry."""


class StateFormatError(InputError):
    """State file does not conform to the JSON state schema."""


class UnsupportedRegimeError(ParamsError):
    """(q, s) falls in neither admissible sign-factor regime."""


class NotQubitSideError(InputError):
    """Operation requires the first subsystem to be a qubit."""


class BridgeWindowError(ParamsError):
    """(q, s) outside the window where the concurrence bridge identity holds."""


class RegimeABoundWindowError(ParamsError):
    """(q, s) outside both validity windows of the regime-A norm bound."""


class RegimeBBoundWindowError(ParamsError):
    """(q, s) outside the validity window of the regime-B norm bound."""


class NoApplicableBoundError(ParamsError):
    """No norm-based lower bound covers this (q, s)."""


class ClosedFormWindowError(ParamsError):
    """(q, s) outside the window where the symmetric-state closed forms hold."""


class MonogamyWindowError(ParamsError):
    """(q, s) not usable for the monogamy residual (needs regime A with q > 1)."""


class NotAStateError(InputError):
    """Argument is neither a PureState nor a DensityMatrix."""


class NotQubitsError(InputError):
    """Operation is defined for qubit subsystems only."""


class MixedGlobalStateError(InputError):
    """Global state must be pure; the one-to-rest term has no computable roof."""


class BadPartitionError(InputError):
    """Subsystem grouping is empty, overlapping, or out of range."""


class NonFiniteError(NumericError):
    """Numerical evaluation produced a non-finite value."""


class TooLargeError(ParamsError):
    """Problem size exceeds the supported desk scale."""


# Scalar entry checks: Python and numpy ints and floats pass, a string, None
# or bool does not. A Python float costs one type test; sweeps make thousands.
# The optional range is [lo, hi] or [lo, inf), and NaN is outside every range.
def _require_real(x, what: str, lo=None, hi=None):
    """``x``, a real scalar in the range; with no range given, NaN and inf pass."""
    if type(x) is not float and (
            isinstance(x, bool) or not isinstance(x, (float, int, np.floating, np.integer))):
        raise RangeError(f"{what} must be a real number, got {x!r}")
    if (lo is not None and not lo <= x) or (hi is not None and not x <= hi):
        need = f"{what} >= {lo}" if hi is None else f"{lo} <= {what} <= {hi}"
        raise RangeError(f"need {need}, got {x}")
    return x


def _require_int(x, what: str, lo=None, hi=None) -> int:
    """``int(x)``, an integer scalar in the range."""
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, (int, np.integer))):
        raise RangeError(f"{what} must be an integer, got {x!r}")
    return _require_real(int(x), what, lo, hi)


def _require_dims(dims, parties=None) -> tuple[int, ...]:
    """``dims`` as a tuple of integers >= 1: ``parties`` of them, or one or more."""
    if isinstance(dims, (str, bytes)) or not np.iterable(dims):
        raise RangeError(f"dims must be a sequence of integers, got {dims!r}")
    dims = tuple(_require_int(d, "dimension", 1) for d in dims)
    if not dims or parties is not None and len(dims) != parties:
        raise RangeError(f"need {parties or 'one or more'} dimensions, got {dims}")
    return dims


def _real(x):
    """``x`` as float64, a 0-d one as a numpy scalar, whose operators are cheap.

    Strings, booleans and other non-numbers raise ``RangeError`` rather
    than being converted.
    """
    a = np.asarray(x)
    if a.dtype.kind not in "iuf":
        raise RangeError(f"expected a real number or an array of them, got dtype {a.dtype}")
    return np.asarray(a, dtype=float)[()]


def _in_range(x, lo: float, hi: float, what: str, interval: str):
    """``_real(x)``, range-checked.

    A ``RangeError`` "{what} {entry} outside {interval}" names the first
    entry outside [lo, hi], NaN included.
    """
    x = _real(x)
    outside = ~((lo <= x) & (x <= hi))
    if np.count_nonzero(outside):
        raise RangeError(f"{what} {x[outside][0]} outside {interval}")
    return x
