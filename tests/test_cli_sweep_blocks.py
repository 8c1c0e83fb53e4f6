"""Closed-form sweeps are evaluated and written SWEEP_BLOCK rows at a time.

The sweeps here span several blocks; ``tests/test_cli_sweeps.py`` checks
short sweeps against a row-by-row oracle.
"""

import tracemalloc

from qsconc import cli, closed_forms as cf


def test_sweep_across_blocks_matches_scalar_calls(capsys):
    # The curve is concave on an interior stretch at (10, 0.2, 8), and no
    # bound family covers (10, 0.2), so the bound column is NaN.
    q, s, d = 10.0, 0.2, 8
    env = cf.isotropic_envelope(q, s, d)
    sweep = "0:1:0.0003"
    xs = cli.parse_sweep(sweep).tolist()
    assert len(xs) > 3 * cli.SWEEP_BLOCK
    assert cli.main(["closed-form", "isotropic", "--q", "10", "--s", "0.2", "--d", "8",
                     "--sweep", sweep]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    want = [f"{x:.12g},{cf.isotropic_curve(x, q, s, d) if x > 1 / d else 0.0:.12g},"
            f"{env(x):.12g},nan,nan" for x in xs]
    assert rows == want


def test_sweep_memory_grows_by_its_arrays_not_its_text(tmp_path):
    """Rows are formatted and written a block at a time.

    A sweep's own arrays take a few 8-byte floats a row; holding every
    formatted row (about 75 characters each) and the joined text took
    about 230 bytes a row.
    """
    path = tmp_path / "sweep.csv"

    def peak(rows):
        argv = ["closed-form", "isotropic", "--q", "2", "--s", "2", "--d", "3",
                "--sweep", f"0.34:1.0:{0.66 / (rows - 1)!r}", "--out", str(path)]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            assert path.read_text().count("\n") == rows + 2

    peak(11)  # builds the envelope outside the measurement
    assert peak(7001) - peak(1001) < 6000 * 96
