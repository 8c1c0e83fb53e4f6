"""Exit codes of the command-line interface for typed errors and bad input."""

import inspect
import json

import numpy as np
import pytest

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


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
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


@pytest.mark.parametrize("option", [["--restarts", "0"], ["--length", "0"]])
def test_degenerate_roof_options_exit_2(bell_file, capsys, option):
    code, err = run(["roof", "--state", bell_file, "--q", "2", "--s", "1",
                     "--iterations", "5", *option], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
