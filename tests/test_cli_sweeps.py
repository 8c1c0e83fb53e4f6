"""The closed-form sweep's CSV against one built from the public functions.

The oracle evaluates every row through the checked public functions and
formats every value with ``f"{v:.12g}"``, the way the sweep used to; the
CLI's stdout and its ``--out`` file must equal it byte for byte. The
sweeps here are not among those ``bench/cli_digests.json`` records.
"""

import math

import numpy as np
import pytest

from qsconc import __version__, bounds, cli, closed_forms as cf, measures
from qsconc.errors import NoApplicableBoundError


def oracle_csv(argv, family, q, s, d, sweep):
    p = measures.classify(q, s)
    iso = family == "isotropic"
    env = cf.isotropic_envelope(q, s, d) if iso else cf.werner_envelope(q, s)
    lines = [f"# qsconc {__version__} | command: {' '.join(argv)} | seed: none",
             "x,xi,envelope,lower_bound,reference_curve"]
    for x in cli.parse_sweep(sweep):
        if not 0.0 <= x <= 1.0 + 1e-12:
            continue
        x = float(min(x, 1.0))
        if iso:
            xi = cf.isotropic_curve(x, q, s, d) if x > 1.0 / d else 0.0
            norm, m = d * x, d
            ref = cf.reference_q_concurrence_isotropic(x) if d == 3 else math.nan
        else:
            xi = cf.werner_curve(x, q, s) if x > 0.5 else 0.0
            norm, m = 2.0 * x, 2
            ref = cf.reference_c3t_werner(x)
        try:
            lower = bounds.bound_value_auto(max(1.0, norm), m, p)
        except NoApplicableBoundError:
            lower = math.nan
        row = (x, xi, env(x), lower, ref)
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def run_both(capsys, tmp_path, family, q, s, d, sweep):
    """(stdout, --out file, oracle for stdout, oracle for the file)."""
    base = ["closed-form", family, "--q", repr(q), "--s", repr(s)]
    if family == "isotropic":
        base += ["--d", str(d)]
    base += ["--sweep", sweep]
    assert cli.main(base) == 0
    out = capsys.readouterr().out
    path = tmp_path / "sweep.csv"
    argv = base + ["--out", str(path)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == ""
    return (out, path.read_text(), oracle_csv(base, family, q, s, d, sweep),
            oracle_csv(argv, family, q, s, d, sweep))


@pytest.mark.parametrize("family,q,s,d,sweep", [
    ("isotropic", 2.0, 2.0, 2, "0:1:0.0137"),
    ("isotropic", 2.0, 2.0, 4, "0.1:1:0.0071"),
    ("isotropic", 3.0, 1.0, 5, "0.15:1:0.0093"),
    ("isotropic", 3.0, 2.0, 3, "0.3:1:0.0049"),
    # no bound family covers (1.5, 1): the lower_bound column is NaN
    ("isotropic", 1.5, 1.0, 3, "0.2:1:0.0113"),
    ("werner", 3.0, 2.0, None, "0.4:1:0.0037"),
])
def test_sweep_equals_row_by_row_oracle(capsys, tmp_path, family, q, s, d, sweep):
    out, written, want_out, want_written = run_both(capsys, tmp_path, family, q, s, d,
                                                    sweep)
    assert out == want_out
    assert written == want_written


def test_no_bound_column_is_nan(capsys, tmp_path):
    with pytest.raises(NoApplicableBoundError):
        bounds.bound_value_auto(2.0, 3, measures.classify(1.5, 1.0))
    out = run_both(capsys, tmp_path, "isotropic", 1.5, 1.0, 3, "0.2:1:0.1")[0]
    assert {line.split(",")[3] for line in out.splitlines()[2:]} == {"nan"}


def knot_and_clip_sweep(env, sep):
    """A sweep that starts below ``sep``, lands exactly on the envelope's
    knot and has a point in (1, 1 + 1e-12], which the CLI clips to 1."""
    knot = env.breakpoint
    for i in range(2, 40):
        for j in range(i + 1, i + 40):
            step = (1.0 + 5e-13 - knot) / (j - i)
            start = knot - i * step
            spec = f"{start!r}:{1.0 + 1e-11!r}:{step!r}"
            xs = cli.parse_sweep(spec)
            if (start < sep and knot in xs.tolist()
                    and np.any((xs > 1.0) & (xs <= 1.0 + 1e-12))):
                return spec
    raise AssertionError("no sweep hits the knot exactly")


@pytest.mark.parametrize("family,q,s,d", [
    ("isotropic", 2.0, 2.0, 3),
    ("werner", 3.0, 2.0, None),
])
def test_sweep_through_knot_and_clipped_endpoint(capsys, tmp_path, family, q, s, d):
    env = cf.isotropic_envelope(q, s, d) if family == "isotropic" else cf.werner_envelope(q, s)
    assert env.sep_threshold < env.breakpoint < 1.0 and not env.bridges
    sweep = knot_and_clip_sweep(env, env.sep_threshold)
    out, written, want_out, want_written = run_both(capsys, tmp_path, family, q, s, d,
                                                    sweep)
    assert out == want_out
    assert written == want_written
    assert f"\n{env.breakpoint:.12g}," in out
    assert out.splitlines()[-1].startswith("1,")


@pytest.mark.parametrize("x", [
    -0.0, 0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 2.2250738585072014e-308 / 3,
    1.0 - 2.0**-53, 1.0, 2.0, -7.0, 123456789012345.0, 0.1, 1 / 3,
])
def test_fmt_is_the_row_format(x):
    assert cli._fmt(x) == f"{x:.12g}" == "%.12g" % x


def test_row_writer_matches_per_value_format(capsys):
    rows = [(-0.0, math.nan, math.inf, 1e-300, 1.0 - 2.0**-53), (1.0, 2.0, 3.0, 0.1, 1 / 3)]
    cli._write_rows(None, "# header", list("abcde"), rows)
    want = ["# header", "a,b,c,d,e"] + [",".join(f"{v:.12g}" for v in r) for r in rows]
    assert capsys.readouterr().out == "\n".join(want) + "\n"
