"""Command-line front end.

Subcommands: compute | bound | closed-form | monogamy | polygon | roof.
State files use the JSON schema from :mod:`qsconc.states`. Sweeps emit
CSV ('.' decimal, ',' separator, '#' comments) with a header comment
recording tool version, command line and seed, so identical invocations
are byte-identical. Reals print with 12 significant digits.

Exit codes follow the error bases of :mod:`qsconc.errors`: 0 success,
2 input validation, 3 unsupported parameters, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import sys
from collections.abc import Iterable

import numpy as np

from . import __version__, bounds, closed_forms, inequalities, measures, roof, states
from .errors import (InputError, NoApplicableBoundError, NumericError, ParamsError,
                     RangeError, StateFormatError)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARAMS = 3
EXIT_NUMERIC = 4


REAL_FORMAT = "%.12g"
# Sweep rows evaluated and written together: whole-grid arithmetic without
# holding every formatted row of a long sweep at once.
SWEEP_BLOCK = 1024


def _fmt(x: float) -> str:
    return REAL_FORMAT % x


def parse_sweep(text: str) -> np.ndarray:
    """Points START, START + STEP, ... up to STOP of a START:STOP:STEP sweep."""
    parts = text.split(":")
    if len(parts) != 3:
        raise RangeError(f"sweep must be START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise RangeError(f"sweep fields must be numbers: {exc}") from exc
    if not all(np.isfinite((start, stop, step))):
        raise RangeError(f"sweep fields must be finite, got {text!r}")
    if step <= 0:
        raise RangeError(f"sweep step must be positive, got {step}")
    if start >= stop:
        raise RangeError(f"sweep needs start < stop, got {start}:{stop}")
    count = int(np.floor((stop - start) / step + 1e-9))
    if count > 1_000_000:
        raise RangeError(f"sweep has {count + 1} points, above the 1e6 cap")
    return start + step * np.arange(count + 1)


def _csv_header(args: argparse.Namespace, argv: list[str]) -> str:
    seed = getattr(args, "seed", None)
    return (
        f"# qsconc {__version__} | command: {' '.join(argv)} | "
        f"seed: {seed if seed is not None else 'none'}"
    )


def _write_rows(out_path, header_comment: str, columns: list[str],
                rows: Iterable[tuple[float, ...]]) -> None:
    """Write the CSV header, then the rows, SWEEP_BLOCK of them per write."""
    row_format = ",".join([REAL_FORMAT] * len(columns)) + "\n"
    rows = iter(rows)
    with (open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(f"{header_comment}\n{','.join(columns)}\n")
        while text := "".join(map(row_format.__mod__, itertools.islice(rows, SWEEP_BLOCK))):
            fh.write(text)


def cmd_compute(args, argv) -> int:
    p = measures.classify(args.q, args.s)
    state = states.load_state_json(args.state)
    if isinstance(state, states.PureState):
        if args.normalized:
            value = measures.normalized_cqs_pure(state, p)
        else:
            value = measures.cqs_pure(state, p, split=0)
    else:
        value = measures.cqs_mixed_two_qubit(state, p)
        if not args.normalized:
            value *= measures.bell_normalizer(p)
    print(f"value = {_fmt(value)}")
    print(f"normalized = {str(args.normalized).lower()}")
    print(f"regime = {p.regime.value}")
    print(f"epsilon = {p.epsilon:+d}")
    return EXIT_OK


def cmd_bound(args, argv) -> int:
    p = measures.classify(args.q, args.s)
    state = states.load_state_json(args.state)
    if isinstance(state, states.PureState):
        state = state.to_density()
    rep = bounds.bound_auto(state, p)
    print(f"ppt_norm = {_fmt(rep.ppt_norm)}")
    print(f"realign_norm = {_fmt(rep.realign_norm)}")
    print(f"detected_by = {rep.detected_by.value}")
    print(f"m = {rep.m}")
    print(f"lower_bound = {_fmt(rep.lower_bound)}")
    return EXIT_OK


def cmd_closed_form(args, argv) -> int:
    q, s, d = args.q, args.s, args.d
    p = measures.classify(q, s)
    nan = float("nan")
    if args.family == "isotropic":
        env = closed_forms.isotropic_envelope(q, s, d)
        m = d
        reference = (closed_forms.reference_q_concurrence_isotropic if d == 3
                     else lambda x: np.full_like(x, nan))
    else:
        # Two-qubit Werner: the bound column's N = 2w and the C3t reference
        # hold at d = 2 only.
        if d != 2:
            raise RangeError(f"the Werner family is two-qubit: need --d 2, got {d}")
        env = closed_forms.werner_envelope(q, s)
        m = 2
        reference = closed_forms.reference_c3t_werner
    # The envelope call validated (q, s, d), and the sweep stays inside
    # [0, 1]: every point is in the curves' domains, and every norm
    # m * x <= m is in the bound's range.
    xs = parse_sweep(args.sweep)
    xs = np.minimum(xs[(xs >= 0.0) & (xs <= 1.0 + 1e-12)], 1.0)
    # The sweep's envelope is the published (inflection) one, which has no
    # bridges: up to its knot it is the curve itself, 0 below the threshold.
    sep, knot = env.sep_threshold, env.breakpoint

    def rows():
        for start in range(0, xs.size, SWEEP_BLOCK):
            x = xs[start:start + SWEEP_BLOCK]
            above, beyond = x > sep, x > knot
            xi = np.zeros_like(x)
            xi[above] = env.analytic(x[above])
            e = xi.copy()
            e[beyond] = env(x[beyond])
            try:
                lb = bounds.bound_value_auto(m * x, m, p)
            except NoApplicableBoundError:
                lb = np.full_like(x, nan)
            yield from zip(*(col.tolist() for col in (x, xi, e, lb, reference(x))))

    _write_rows(args.out, _csv_header(args, argv),
                ["x", "xi", "envelope", "lower_bound", "reference_curve"], rows())
    return EXIT_OK


def _parse_gen3(text: str) -> states.GenSchmidt3:
    parts = text.split(",")
    if len(parts) != 6:
        raise RangeError(
            f"--gen3 needs 6 comma-separated values lam0..lam4,phi, got {len(parts)}"
        )
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise RangeError(f"--gen3 fields must be numbers: {exc}") from exc
    return states.GenSchmidt3(*vals[:5], phi=vals[5])


def cmd_monogamy(args, argv) -> int:
    if (args.state is None) == (args.gen3 is None):
        raise RangeError("provide exactly one of --state or --gen3")
    s_values = args.s if args.s else [1.0]
    if args.sweep is None:
        qs = [2.0 if args.q is None else args.q]
    elif args.q is None:
        qs = parse_sweep(args.sweep)
    else:
        raise RangeError("provide at most one of --q or --sweep")
    gen3 = _parse_gen3(args.gen3) if args.gen3 else None
    psi = states.load_state_json(args.state) if args.state else None
    params = [measures.classify(float(q), float(s)) for s in s_values for q in qs]
    for p in params:
        inequalities.require_monogamy_params(p)
    conc = (inequalities.gen3_concurrences(gen3) if gen3 is not None
            else inequalities.qubit_concurrences(psi))
    reports = [inequalities.monogamy_residual(conc, p) for p in params]
    rows = [(p.q, p.s, r.K, sum(r.K_parts), r.tau) for p, r in zip(params, reports)]
    _write_rows(args.out, _csv_header(args, argv),
                ["q", "s", "K", "K_sum", "tau"], rows)
    return EXIT_OK


def cmd_polygon(args, argv) -> int:
    p = measures.classify(args.q, args.s)
    state = states.load_state_json(args.state)
    if not isinstance(state, states.PureState):
        raise StateFormatError("polygon check needs a pure state file")
    rep = inequalities.polygon_check(state, p)
    print("marginals = " + " ".join(_fmt(v) for v in rep.marginals))
    print(f"violations = {rep.violations if rep.violations else 'none'}")
    return EXIT_OK if rep.ok else EXIT_NUMERIC


def cmd_roof(args, argv) -> int:
    p = measures.classify(args.q, args.s)
    state = states.load_state_json(args.state)
    if isinstance(state, states.PureState):
        state = state.to_density()
    cfg = roof.RoofConfig(
        decomposition_length=args.length,
        restarts=args.restarts,
        iterations=args.iterations,
        seed=args.seed,
    )
    res = roof.roof_estimate(state, p, cfg)
    print(f"roof_estimate (upper estimate, not exact) = {_fmt(res.estimate)}")
    print(f"decomposition_terms = {len(res.best_weights)}")
    print(f"converged = {str(res.converged).lower()}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qsconc",
        description="Two-parameter concurrence toolkit: measures, detection "
        "bounds, exact symmetric-state curves, monogamy and polygon checks.",
    )
    parser.add_argument("--version", action="version", version=f"qsconc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_qs(sp):
        sp.add_argument("--q", type=float, required=True)
        sp.add_argument("--s", type=float, required=True)

    sp = sub.add_parser("compute", help="measure of a state file")
    sp.add_argument("--state", required=True)
    add_qs(sp)
    sp.add_argument("--normalized", action="store_true")

    sp = sub.add_parser("bound", help="detection norms and lower bound")
    sp.add_argument("--state", required=True)
    add_qs(sp)

    sp = sub.add_parser("closed-form", help="sweep exact symmetric-state curves")
    sp.add_argument("family", choices=["isotropic", "werner"])
    add_qs(sp)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--sweep", required=True, help="START:STOP:STEP")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("monogamy", help="residual tau over a (q, s) grid")
    sp.add_argument("--state", default=None)
    sp.add_argument("--gen3", default=None, help="lam0,lam1,lam2,lam3,lam4,phi")
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--s", type=float, action="append", default=None)
    sp.add_argument("--sweep", default=None, help="q sweep START:STOP:STEP")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("polygon", help="one-to-rest polygon inequality check")
    sp.add_argument("--state", required=True)
    add_qs(sp)

    sp = sub.add_parser("roof", help="convex-roof upper estimate")
    sp.add_argument("--state", required=True)
    add_qs(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--restarts", type=int, default=16)
    sp.add_argument("--iterations", type=int, default=800)
    sp.add_argument("--length", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    # Looked up per call, so a replaced ``cmd_*`` attribute is the one run.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args, argv)
    except ParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

if __name__ == "__main__":
    sys.exit(main())
