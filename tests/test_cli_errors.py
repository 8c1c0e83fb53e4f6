"""Exit codes of the command-line interface for typed errors and bad input."""

import contextlib
import inspect
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsconc import cli, errors, states

BASE_EXIT = {errors.InputError: 2, errors.ParamsError: 3, errors.NumericError: 4}
TYPED = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if cls.__module__ == errors.__name__ and cls not in BASE_EXIT
]


@pytest.mark.parametrize("cls", TYPED, ids=lambda c: c.__name__)
def test_every_error_has_exactly_one_base(cls):
    assert sum(issubclass(cls, base) for base in BASE_EXIT) == 1


@pytest.mark.parametrize("cls", TYPED + list(BASE_EXIT), ids=lambda c: c.__name__)
def test_exit_code_follows_base(cls, monkeypatch, capsys):
    def fail(args, argv):
        raise cls("injected")

    monkeypatch.setattr(cli, "cmd_compute", fail)
    code = cli.main(["compute", "--state", "unused.json", "--q", "2", "--s", "1"])
    base = next(b for b in BASE_EXIT if issubclass(cls, b))
    assert code == BASE_EXIT[base]
    assert "injected" in capsys.readouterr().err


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.fixture(scope="module")
def bell_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("states") / "bell.json"
    states.save_state_json(states.max_entangled(2), path)
    return str(path)


@pytest.mark.parametrize("command", ["compute", "bound", "roof"])
def test_nan_state_file_exits_2(tmp_path, capsys, command):
    data = [[0.25, 0.0] if i % 5 == 0 else [0.0, 0.0] for i in range(16)]
    data[1] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"kind": "density", "dims": [2, 2], "data": data}))
    code, err = run([command, "--state", str(path), "--q", "2", "--s", "2"], capsys)
    assert code == 2
    assert "NaN" in err and "Traceback" not in err


def test_non_hermitian_state_file_exits_2(tmp_path, capsys):
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = 0.2
    data = [[z.real, z.imag] for z in m.reshape(-1)]
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"kind": "density", "dims": [2], "data": data}))
    code, err = run(["compute", "--state", str(path), "--q", "2", "--s", "1"], capsys)
    assert code == 2
    assert "Hermitian" in err and "Traceback" not in err


@pytest.mark.parametrize("q,s", [("2", "2"), ("0.5", "0.5")])
def test_bound_on_one_by_two_state_exits_2(tmp_path, capsys, q, s):
    # m = 1: no published bound is defined, and the prefactors divide by zero.
    path = tmp_path / "one_by_two.json"
    states.save_state_json(states.PureState((1, 2), np.array([0.6, 0.8])), path)
    code, err = run(["bound", "--state", str(path), "--q", q, "--s", s], capsys)
    assert code == 2
    assert err.startswith("error:") and "m >= 2" in err


@pytest.mark.parametrize("option", [["--restarts", "0"], ["--length", "0"],
                                    ["--seed", "-1"], ["--iterations", "-5"],
                                    ["--length", "100000000"], ["--restarts", "257"]])
def test_degenerate_roof_options_exit_2(bell_file, capsys, option):
    code, err = run(["roof", "--state", bell_file, "--q", "2", "--s", "1",
                     "--iterations", "5", *option], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["closed-form", "isotropic", "--q", "2", "--s", "2", "--d", "3", "--sweep", "nan:1:0.1"],
    ["closed-form", "isotropic", "--q", "2", "--s", "2", "--d", "3", "--sweep", "0.4:inf:0.1"],
    ["monogamy", "--gen3", "1,0,0,0,0,0", "--sweep", "2:inf:1"],
    ["closed-form", "isotropic", "--q", "2", "--s", "2", "--d", "0", "--sweep", "0.4:1:0.1"],
    ["closed-form", "isotropic", "--q", "inf", "--s", "2", "--d", "3", "--sweep", "0.4:1:0.1"],
    ["closed-form", "werner", "--q", "nan", "--s", "2", "--sweep", "0.5:1:0.1"],
    ["monogamy", "--gen3", "1,0,0,0,0,nan"],
    ["monogamy", "--gen3", "nan,0,0,0,0,0", "--s", "1", "--q", "2"],
    ["closed-form", "isotropic", "--q", "2", "--s", "2", "--d", "10000000000",
     "--sweep", "0.4:1:0.1"],
    ["monogamy", "--gen3", "0.6,0,0,0.8,0,0", "--q", "0"],
    ["monogamy", "--gen3", "0.6,0,0,0.8,0,0", "--q", "-0"],
    ["monogamy", "--gen3", "0.6,0,0,0.8,0,0", "--q", "3", "--sweep", "2:4:1"],
    ["monogamy", "--gen3", "0.6,0,0,0.8,0,0", "--sweep", ""],
    ["closed-form", "werner", "--q", "3", "--s", "2", "--d", "5", "--sweep", "0.5:1:0.1"],
    ["closed-form", "werner", "--q", "3", "--s", "2", "--d", "3", "--sweep", "0.5:1:0.1"],
    ["closed-form", "isotropic", "--q", "2", "--s", "2", "--d", "3", "--sweep", "1:0.4:0.1"],
    ["closed-form", "isotropic", "--q", "2", "--s", "2", "--d", "3", "--sweep", "0.4:0.4:0.1"],
    ["closed-form", "isotropic", "--q", "2", "--s", "2", "--d", "3", "--sweep", "0.4:x:0.1"],
    ["monogamy", "--gen3", "0.6,0,0,0.8,0,0", "--sweep", "0:1:1e-7"],
    ["monogamy", "--gen3", "0.6,0,0,0.8,0"],
    ["monogamy", "--gen3", "0.6,0,0,0.8,0,x"],
    ["monogamy", "--gen3", "nan,0,0,0,0,0", "--q", "0.5"],
], ids=["sweep-nan", "sweep-inf", "monogamy-sweep-inf", "d-0", "q-inf", "q-nan",
        "gen3-phi-nan", "gen3-amp-nan", "d-above-limit", "monogamy-q-0",
        "monogamy-q-minus-0", "monogamy-q-and-sweep", "monogamy-empty-sweep",
        "werner-d-5", "werner-d-3", "sweep-start-above-stop", "sweep-start-at-stop",
        "sweep-non-numeric", "sweep-above-cap", "gen3-five-fields", "gen3-non-numeric",
        "gen3-nan-before-q-window"])
def test_non_finite_or_degenerate_options_exit_2(argv, capsys):
    code, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.fixture(scope="module")
def fault_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("faults")
    files = {"qutrits": states.max_entangled(3), "density": states.max_entangled(2).to_density()}
    for name, state in files.items():
        states.save_state_json(state, root / f"{name}.json")
    return lambda name: str(root / f"{name}.json")


# Two faults at once: the options' (q, s) are checked before the state is.
@pytest.mark.parametrize("name,argv,code,message", [
    ("density", ["polygon", "--q", "2", "--s", "1"], 2, "pure state"),
    ("qutrits", ["monogamy", "--q", "0.5"], 3, "q > 1"),
    ("qutrits", ["monogamy", "--q", "nan"], 2, "positive and finite"),
    ("qutrits", ["monogamy", "--s", "1", "--s", "nan"], 2, "positive and finite"),
    ("qutrits", ["monogamy", "--q", "2"], 2, "qubits"),
], ids=["polygon-density", "monogamy-qutrits-q-window", "monogamy-qutrits-q-nan",
        "monogamy-qutrits-later-s-nan", "monogamy-qutrits"])
def test_state_file_faults_exit_code(fault_files, capsys, name, argv, code, message):
    got, err = run([argv[0], "--state", fault_files(name), *argv[1:]], capsys)
    assert got == code
    assert err.startswith("error:") and message in err and "Traceback" not in err


ODD = st.sampled_from([None, True, 2, 2.5, -1, "x", "2", float("nan"), 1e400, 10**400,
                       [], {}, [[2]], [None], {"re": 1}])


@st.composite
def malformed_state_text(draw):
    """A valid product-state document with at most one part broken."""
    kind = draw(st.sampled_from(["pure", "density"]))
    dims = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=2))
    size = math.prod(dims) ** (1 if kind == "pure" else 2)
    data = [[1, 0]] + [[0, 0]] * (size - 1)
    doc = {"kind": kind, "dims": dims, "data": data}
    fault = draw(st.sampled_from(["none", "kind", "dims", "dim", "data", "entry", "drop",
                                  "document", "truncate"]))
    if fault in ("kind", "dims", "data"):
        doc[fault] = draw(ODD)
    elif fault == "dim":
        dims[draw(st.integers(0, len(dims) - 1))] = draw(
            st.sampled_from([0, -1, 2.0, 2.5, True, "2", None, [2]]))
    elif fault == "entry":
        data[draw(st.integers(0, size - 1))] = draw(st.one_of(
            st.lists(ODD, min_size=2, max_size=2), ODD))
    elif fault == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    text = json.dumps(draw(ODD) if fault == "document" else doc)
    return text[:-1] if fault == "truncate" else text


def test_malformed_state_files_exit_with_a_known_code(tmp_path):
    path = tmp_path / "state.json"

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(text=malformed_state_text(),
           command=st.sampled_from(["compute", "bound", "monogamy", "polygon", "roof"]))
    def check(text, command):
        path.write_text(text)
        argv = [command, "--state", str(path), "--q", "2", "--s", "1"]
        if command == "roof":
            argv += ["--restarts", "1", "--iterations", "2"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4), (text, code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()


NON_NUMBERS = st.sampled_from([True, False, None, "1", "0.7071067811865476", "x", [], [1],
                               {}, {"re": 1}])


def test_non_number_leaves_exit_2(tmp_path):
    """A data entry that is not a JSON number, "0.5" and false included, exits 2.

    The first file is a normalized Bell state spelled with a string and a
    false, which numpy would read as the numbers they look like.
    """
    path = tmp_path / "state.json"
    amp = 0.7071067811865476

    def exit_code(kind, data, command):
        path.write_text(json.dumps({"kind": kind, "dims": [2, 2], "data": data}))
        argv = [command, "--state", str(path), "--q", "2", "--s", "1"]
        if command == "roof":
            argv += ["--restarts", "1", "--iterations", "2"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert "Traceback" not in err.getvalue()
        return code, err.getvalue()

    code, err = exit_code("pure", [[str(amp), False], [0, 0], [0, 0], [amp, 0]], "compute")
    assert code == 2 and "JSON numbers" in err

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(kind=st.sampled_from(["pure", "density"]), where=st.integers(0, 31),
           leaf=NON_NUMBERS,
           command=st.sampled_from(["compute", "bound", "monogamy", "polygon", "roof"]))
    def check(kind, where, leaf, command):
        data = [[amp, 0], [0, 0], [0, 0], [amp, 0]]
        if kind == "density":
            data = [[0.5 if i in (0, 3, 12, 15) else 0, 0] for i in range(16)]
        data[where // 2 % len(data)][where % 2] = leaf
        code, err = exit_code(kind, data, command)
        assert code == 2 and "data" in err, (data, command, err)

    check()


REAL = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "-0", "0.5", "1", "2", "3",
                        "1e308", "1e-308", "x", ""])
INT = st.sampled_from(["-1", "0", "1", "2", "3", "1.5", "x", ""])
SWEEP = st.one_of(
    st.tuples(REAL, REAL, st.sampled_from(["0", "-0.1", "0.25", "1e-300", "nan", "x"]))
    .map(":".join),
    st.sampled_from(["0.5:1:0.25", "", "0:1", "0:1:0.5:2", "a:b:c"]),
)
GEN3 = st.one_of(st.just("0.6,0,0,0.8,0,0"),
                 st.lists(REAL, min_size=5, max_size=7).map(",".join))


@st.composite
def malformed_argv(draw, state_file):
    qs = ["--q", draw(REAL), "--s", draw(REAL)]
    command = draw(st.sampled_from(["closed-form", "monogamy", "compute", "roof"]))
    if command == "closed-form":
        family = draw(st.sampled_from(["isotropic", "werner"]))
        return [command, family, *qs, "--d", draw(INT), "--sweep", draw(SWEEP)]
    if command == "monogamy":
        sweep = draw(st.one_of(st.just([]), SWEEP.map(lambda t: ["--sweep", t])))
        return [command, "--gen3", draw(GEN3), *qs, *sweep]
    if command == "compute":
        return [command, "--state", state_file, *qs]
    return [command, "--state", state_file, *qs,
            "--seed", draw(st.sampled_from(["-1", "0", "7", str(2**64), "x"])),
            "--restarts", draw(INT),
            "--iterations", draw(st.sampled_from(["-5", "-1", "0", "5", "2.5"])),
            "--length", draw(st.sampled_from(["-1", "0", "1", "2", "4", "x"]))]


def test_malformed_options_exit_with_a_known_code(bell_file):
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(argv=malformed_argv(bell_file))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()
