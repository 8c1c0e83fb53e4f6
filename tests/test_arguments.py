"""Argument checks at every public entry that takes an integer, dims or (q, s).

Each row names a call with one argument left open, a valid value for it
and a value outside its range. Integer arguments (dimensions, counts,
seeds, m) reject a float, a bool and a string as well as an out-of-range
integer; real arguments reject a bool, a string and a list. All of these
are ``RangeError`` (exit 2). numpy integers and floats pass. Every public
function that takes ``p`` rejects anything but a ``ParamPair``; that list
is read from the signatures, so a new function cannot skip the check.
"""

import inspect

import numpy as np
import pytest

import qsconc
from qsconc import bounds, closed_forms as cf, inequalities, linalg, measures, roof, states
from qsconc.errors import NotAStateError, RangeError

P22 = measures.classify(2, 2)
P55 = measures.classify(0.5, 0.5)
QUARTER = np.eye(4) / 4
BELL = states.max_entangled(2).to_density()

# (id, call, valid value, out-of-range value)
INTEGER_ARGS = [
    ("PureState-dims", lambda x: states.PureState((x, 2), np.full(4, 0.5)), 2, 0),
    ("DensityMatrix-dims", lambda x: states.DensityMatrix((x, 2), QUARTER), 2, 0),
    ("max_entangled-d", states.max_entangled, 2, 1),
    ("isotropic-d", lambda x: states.isotropic(0.5, x), 3, 1),
    ("werner-d", lambda x: states.werner(0.5, x), 3, 1),
    ("haar_random_pure-dims", lambda x: states.haar_random_pure((x, 2), seed=0), 2, 0),
    ("haar_random_pure-seed", lambda x: states.haar_random_pure((2, 2), seed=x), 3, -1),
    ("haar_random_unitary-d", lambda x: states.haar_random_unitary(x, seed=0), 2, 0),
    ("haar_random_unitary-seed", lambda x: states.haar_random_unitary(2, seed=x), 3, -1),
    ("random_mixed-dims", lambda x: states.random_mixed((x, 2), 2, seed=0), 2, 0),
    ("random_mixed-rank", lambda x: states.random_mixed((2, 2), x, seed=0), 2, 5),
    ("random_mixed-seed", lambda x: states.random_mixed((2, 2), 2, seed=x), 3, -1),
    ("partial_trace-dims", lambda x: linalg.partial_trace(QUARTER, (x, 2)), 2, 0),
    ("partial_transpose-dims", lambda x: linalg.partial_transpose(QUARTER, (2, x)), 2, 0),
    ("realign-dims", lambda x: linalg.realign(QUARTER, (x, 2)), 2, 0),
    ("isotropic_gamma_delta-d", lambda x: cf.isotropic_gamma_delta(0.7, x), 3, 1),
    ("isotropic_curve-d", lambda x: cf.isotropic_curve(0.7, 2, 2, x), 3, 1),
    ("isotropic_envelope-d", lambda x: cf.isotropic_envelope(2, 2, x), 3,
     cf.MAX_ISOTROPIC_D + 1),
    ("cqs_isotropic-d", lambda x: cf.cqs_isotropic(0.7, 2, 2, x), 3, 1),
    ("isotropic_extremum_oracle-d", lambda x: cf.isotropic_extremum_oracle(0.7, 2, 2, x), 3, 1),
    ("bound_value_regime_a-m", lambda x: bounds.bound_value_regime_a(1.5, x, P22), 3, 1),
    ("bound_value_regime_b-m", lambda x: bounds.bound_value_regime_b(1.5, x, P55), 3, 1),
    ("bound_value_auto-m", lambda x: bounds.bound_value_auto(1.5, x, P22), 3, 1),
    ("bound_value_tight-m", lambda x: bounds.bound_value_tight(1.5, x, P22), 3, 1),
    ("RoofConfig-restarts", lambda x: roof.RoofConfig(restarts=x), 2, roof.MAX_RESTARTS + 1),
    ("RoofConfig-iterations", lambda x: roof.RoofConfig(iterations=x), 5, -1),
    ("RoofConfig-seed", lambda x: roof.RoofConfig(seed=x), 1, -1),
    ("RoofConfig-decomposition_length", lambda x: roof.roof_estimate(
        BELL, P22, roof.RoofConfig(decomposition_length=x, restarts=1, iterations=0)), 2, 0),
]

REAL_ARGS = [
    ("classify-q", lambda x: measures.classify(x, 1.0), 2.0, -1.0),
    ("classify-s", lambda x: measures.classify(2.0, x), 2.0, -1.0),
    ("isotropic_curve-q", lambda x: cf.isotropic_curve(0.7, x, 2, 3), 2.0, None),
    ("isotropic_curve-s", lambda x: cf.isotropic_curve(0.7, 2, x, 3), 2.0, None),
    ("werner_curve-q", lambda x: cf.werner_curve(0.7, x, 2), 2.0, None),
    ("werner_curve-s", lambda x: cf.werner_curve(0.7, 2, x), 2.0, None),
    ("isotropic_envelope-q", lambda x: cf.isotropic_envelope(x, 2, 3), 2.0, None),
    ("isotropic_envelope-s", lambda x: cf.isotropic_envelope(2, x, 3), 2.0, None),
    ("werner_envelope-q", lambda x: cf.werner_envelope(x, 2), 3.0, None),
    ("werner_envelope-s", lambda x: cf.werner_envelope(3, x), 2.0, None),
    ("cqs_isotropic-q", lambda x: cf.cqs_isotropic(0.7, x, 2, 3), 2.0, None),
    ("cqs_werner-s", lambda x: cf.cqs_werner(0.7, 3, x), 2.0, None),
    ("isotropic_extremum_oracle-q", lambda x: cf.isotropic_extremum_oracle(0.7, x, 2, 3),
     2.0, None),
    ("isotropic-f", lambda x: states.isotropic(x, 3), 0.5, 1.5),
    ("werner-w", lambda x: states.werner(x, 3), 0.5, -0.5),
    ("concurrence_bridge-x", lambda x: measures.concurrence_bridge(x, P22), 0.5, 1.5),
    ("RoofConfig-tolerance", lambda x: roof.RoofConfig(tolerance=x), 1e-6, np.inf),
    ("schatten_norm-q", lambda x: linalg.schatten_norm(QUARTER, x), 2.0, 0.5),
]


def _rows(rows):
    return [pytest.param(call, valid, out, id=name) for name, call, valid, out in rows]


@pytest.mark.parametrize("call, valid, out", _rows(INTEGER_ARGS))
def test_integer_argument(call, valid, out):
    # Before these checks a float or bool dimension was truncated, a float
    # d or m was computed with, and a string raised a bare TypeError.
    for bad in (2.5, True, "3", out):
        with pytest.raises(RangeError):
            call(bad)
    call(np.int64(valid))


@pytest.mark.parametrize("call, valid, out", _rows(REAL_ARGS))
def test_real_argument(call, valid, out):
    # A list q reached the envelope caches, which raised TypeError:
    # unhashable type. Outside the closed forms' window, (q, s) is a
    # ClosedFormWindowError instead, so those rows have no out-of-range value.
    for bad in (True, "3", [2.0]) + (() if out is None else (out,)):
        with pytest.raises(RangeError):
            call(bad)
    call(np.float64(valid))


def test_range_message_names_the_bounds():
    with pytest.raises(RangeError, match=r"need seed >= 0, got -1"):
        states.haar_random_pure((2, 2), seed=-1)
    with pytest.raises(RangeError, match=r"need 1 <= rank <= 4, got 5"):
        states.random_mixed((2, 2), 5, seed=0)


PSI = states.haar_random_pure((2, 2), seed=1)
RHO = states.random_mixed((2, 2), 2, seed=1)
RHO3 = states.haar_random_pure((2, 2, 2), seed=1).to_density()


@pytest.mark.parametrize("call", [
    lambda: measures.cqs_pure(RHO, P22),
    lambda: states.schmidt(RHO),
    lambda: inequalities.polygon_check(RHO3, P22),
    lambda: bounds.detect(PSI),
    lambda: bounds.detect(QUARTER),
    lambda: roof.roof_estimate(PSI, P22),
    lambda: measures.wootters_concurrence(PSI),
    lambda: measures.cqs_mixed_two_qubit(PSI, measures.classify(2, 1)),
    lambda: inequalities.polygon_check(np.ones(8) / 8**0.5, P22),
    lambda: inequalities.polygon_group_check(np.ones(8) / 8**0.5, [0], P22),
], ids=["cqs_pure-rho", "schmidt-rho", "polygon_check-rho", "detect-psi", "detect-array",
        "roof_estimate-psi", "wootters-psi", "mixed_two_qubit-psi", "polygon_check-array",
        "polygon_group_check-array"])
def test_wrong_state_type_is_not_a_state_error(call):
    # Each raised an AttributeError or a bare TypeError.
    with pytest.raises(NotAStateError):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: states.PureState((), np.array([1.0])), id="PureState-empty"),
    pytest.param(lambda: states.DensityMatrix((), np.ones((1, 1))), id="DensityMatrix-empty"),
    pytest.param(lambda: states.PureState(4, np.full(4, 0.5)), id="PureState-scalar"),
    pytest.param(lambda: states.haar_random_pure((), seed=0), id="haar_random_pure-empty"),
    pytest.param(lambda: states.random_mixed(4, 1, seed=0), id="random_mixed-scalar"),
    pytest.param(lambda: linalg.partial_transpose(QUARTER, (2, 2, 7)),
                 id="partial_transpose-three"),
    pytest.param(lambda: linalg.realign(QUARTER, (2, 2, 7)), id="realign-three"),
    pytest.param(lambda: linalg.partial_trace(QUARTER, (2, 2, 7)), id="partial_trace-three"),
    pytest.param(lambda: linalg.partial_transpose(QUARTER, (4,)), id="partial_transpose-one"),
])
def test_dims_must_be_a_nonempty_sequence(call):
    # Empty dims built a 0-party state, a third linalg dim was ignored, and
    # a scalar or a single linalg dim raised a bare TypeError or IndexError.
    with pytest.raises(RangeError):
        call()


# A value for every parameter besides ``p`` of a public function that takes it.
PSI3 = states.haar_random_pure((2, 2, 2), seed=1)
ARGS_BY_NAME = {
    "rho": BELL,
    "psi": PSI3,
    "state": PSI3,
    "norm": 1.5,
    "m": 2,
    "x": 0.5,
    "j": 0,
    "group": [0],
    "split": 0,
    "concurrences": (0.5, 0.3),
    "params": states.GenSchmidt3(0.6, 0, 0.8, 0, 0),
    "rho_or_spectrum": [0.5, 0.5],
    "config": roof.RoofConfig(restarts=1, iterations=0),
}
TAKES_P = sorted(
    name for name, obj in vars(qsconc).items()
    if inspect.isfunction(obj) and "p" in inspect.signature(obj).parameters)
assert len(TAKES_P) >= 24, f"the signature scan found only {TAKES_P}"


@pytest.mark.parametrize("name", TAKES_P)
def test_p_must_be_a_param_pair(name):
    # Each raised a bare AttributeError on a tuple, None or a string.
    func = getattr(qsconc, name)
    params = [k for k in inspect.signature(func).parameters if k != "p"]
    missing = [k for k in params if k not in ARGS_BY_NAME]
    assert not missing, f"{name}: add {missing} to ARGS_BY_NAME"
    for bad in ((2, 1), None, "2,1"):
        with pytest.raises(RangeError, match="ParamPair"):
            func(p=bad, **{k: ARGS_BY_NAME[k] for k in params})
