"""Exit codes of the command-line interface for typed errors and bad input."""

import contextlib
import inspect
import io
import json

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


@pytest.mark.parametrize("option", [["--restarts", "0"], ["--length", "0"],
                                    ["--seed", "-1"], ["--iterations", "-5"]])
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
], ids=["sweep-nan", "sweep-inf", "monogamy-sweep-inf", "d-0", "q-inf", "q-nan",
        "gen3-phi-nan", "gen3-amp-nan"])
def test_non_finite_or_degenerate_options_exit_2(argv, capsys):
    code, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


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
