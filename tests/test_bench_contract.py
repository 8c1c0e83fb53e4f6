"""What the benchmark harness in ``bench/`` relies on from the library.

The harness checks the CLI's stdout against recorded digests and, in its
traced mode, wraps library attributes by name; these tests keep both
working.
"""

import importlib
import json
from pathlib import Path

import pytest

from qsconc import closed_forms as cf

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_cli_stdout_matches_recorded_digests(bench_module, tmp_path, monkeypatch):
    """Every closed-form line at all variants and the other lines at variant 0."""
    workloads = bench_module("workloads")
    digests = json.loads(workloads.DIGESTS_PATH.read_text())
    monkeypatch.chdir(tmp_path)
    workloads.write_cli_pool()
    commands = list(workloads.cli_commands(0))
    for v in range(1, workloads.CLI_VARIANTS):
        commands += [a for a in workloads.cli_commands(v) if a[0] == "closed-form"]
    assert sum(a[0] == "closed-form" for a in commands) == 16
    for argv in commands:
        cf.isotropic_envelope.cache_clear()
        cf.werner_envelope.cache_clear()
        rc, text = workloads.run_cli(argv)
        assert rc == 0, argv
        assert workloads.digest(text) == digests[" ".join(argv)], argv


def test_cli_stdout_matches_recorded_digests_other_variants(bench_module, tmp_path,
                                                            monkeypatch):
    """The non-closed-form lines of variants 1-3, which the test above skips."""
    workloads = bench_module("workloads")
    digests = json.loads(workloads.DIGESTS_PATH.read_text())
    monkeypatch.chdir(tmp_path)
    workloads.write_cli_pool()
    commands = [a for v in range(1, workloads.CLI_VARIANTS)
                for a in workloads.cli_commands(v) if a[0] != "closed-form"]
    everything = {" ".join(a) for v in range(workloads.CLI_VARIANTS)
                  for a in workloads.cli_commands(v)}
    assert everything == set(digests) and len(digests) == 69
    for argv in commands:
        rc, text = workloads.run_cli(argv)
        assert rc == 0, argv
        assert workloads.digest(text) == digests[" ".join(argv)], argv


def test_traced_attributes_exist(bench_module):
    targets = bench_module("layers").Layers().tracer.targets
    names = {t.name for t in targets}
    assert {"states.DensityMatrix", "bounds.bound_value_auto", "bounds.bound_auto",
            "closed_forms.find_breakpoint", "states.werner", "cli.main"} <= names
    for t in targets:
        assert callable(getattr(t.owner, t.attr)), t.name
    assert callable(cf.isotropic_envelope.cache_clear)
    assert callable(cf.werner_envelope.cache_clear)


def test_build_envelope_gets_the_curve_first(monkeypatch):
    seen = []
    build = cf.build_envelope

    def spy(*args, **kwargs):
        seen.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(cf, "build_envelope", spy)
    for make in (cf.isotropic_envelope, cf.werner_envelope):
        make.cache_clear()
    try:
        cf.isotropic_envelope(2, 2, 3)
        cf.werner_envelope(3, 2)
    finally:
        cf.isotropic_envelope.cache_clear()
        cf.werner_envelope.cache_clear()
    assert len(seen) == 2
    assert seen[0](0.5) == cf.isotropic_curve(0.5, 2, 2, 3)
    assert seen[1](0.75) == cf.werner_curve(0.75, 3, 2)


def test_one_parser_serves_successive_calls(bench_module, tmp_path, monkeypatch, capsys):
    """The parser is built once per process; no call leaks into the next."""
    from qsconc import cli

    workloads = bench_module("workloads")
    digests = json.loads(workloads.DIGESTS_PATH.read_text())
    monkeypatch.chdir(tmp_path)
    workloads.write_cli_pool()
    assert cli.build_parser() is cli.build_parser()
    commands = workloads.cli_commands(0)
    # Two append-action --s lists, (1, 0.75) then (1, 0.5): a list kept from
    # the first call would add rows to the second.
    monogamy = [a for a in commands if a[0] == "monogamy"]
    assert [a[a.index("--s"):a.index("--s") + 4] for a in monogamy] == [
        ["--s", "1", "--s", "0.75"], ["--s", "1", "--s", "0.5"]]
    for argv in [*monogamy, next(a for a in commands if a[0] == "closed-form")]:
        rc, text = workloads.run_cli(argv)
        assert rc == 0 and workloads.digest(text) == digests[" ".join(argv)], argv
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("qsconc ")
    assert cli.main(["monogamy", "--s"]) == 2
    assert cli.main(["compute", "--q", "2"]) == 2
    rc, text = workloads.run_cli(monogamy[0])
    assert rc == 0 and workloads.digest(text) == digests[" ".join(monogamy[0])]
