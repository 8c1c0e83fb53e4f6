"""qsconc benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {roof_bridge,dense_detect,cli_mix} \
        --seed N --seconds S --trace {0,1} [--tiny]

Runs from a source checkout (``src/qsconc``). Every op runs in this one
process, and one caller waits for each op (closed loop); only the import
part of ``setup_s`` is timed in fresh interpreters. Whole cycles of the workload's
input mix run until about ``--seconds`` have been measured. Each op's
output is checked outside the timed region; an op that raises or fails
its check counts as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced cycles, prints the per-layer metrics and writes the
spans to ``.bench_out/``. ``--tiny`` shrinks the run for the smoke test.
The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
SETUP_REPEATS = 5
LIBRARY_MODULES = ("bounds", "cli", "closed_forms", "inequalities", "linalg", "measures",
                   "roof", "states")
IMPORT_PROBE = "import numpy, " + ", ".join(f"qsconc.{m}" for m in LIBRARY_MODULES)
TAIL_BEYOND = 10
OUT_DIR = Path(".bench_out")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes and a single cycle, for the smoke test")
    return ap.parse_args(argv)


# --------------------------------------------------------------- environment

def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(np, nproc: int) -> dict:
    model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.machine())
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy without the dict config: record what is missing
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": model,
        "l2": _read(cache.format(2)).strip() or "unknown",
        "l3": _read(cache.format(3)).strip() or "unknown",
    }


# --------------------------------------------------------------- measurement

def fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports numpy and every qsconc module.

    A new process pays the import the way a fresh CLI call does; the
    in-process import can be timed only once per run.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


@dataclass(slots=True)
class Record:
    label: str
    seconds: float
    ok: bool
    err: float
    traced: bool
    raised: bool


def run_op(op, op_id, tracer, calibrate) -> Record:
    if tracer is not None:
        tracer.op = op_id
        span = tracer.open_span("op")
    raised = None
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a failed op is counted, the run goes on
        raised = exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.close_span(span, t0, t1)
        tracer.op = None
        calibrate()
    if raised is not None:
        traceback.print_exception(raised, file=sys.stderr)
        return Record(op.label, t1 - t0, False, math.inf, tracer is not None, True)
    try:
        ok, err = op.check(out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok, err = False, math.inf
    if not ok:
        print(f"check failed: {op.label} (err {err:.3g})", file=sys.stderr)
    return Record(op.label, t1 - t0, bool(ok), float(err), tracer is not None, False)


def run_cycles(workload, seconds, tracer, layers, min_cycles):
    """Whole cycles until about ``seconds``; odd cycles traced if ``tracer``."""
    records, cycles = [], {False: 0, True: 0}
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        workload.before_cycle()
        ops = workload.cycle(k)
        t_cycle = time.perf_counter()
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                records.append(run_op(op, (k, i), tracer if traced else None,
                                      layers.calibrate if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        cycles[traced] += 1
        k += 1
        last = time.perf_counter() - t_cycle
        if k >= min_cycles and time.perf_counter() - start + 0.5 * last >= seconds:
            return records, cycles


def latency_stats(seconds: list[float]) -> dict:
    xs = sorted(seconds)
    n = len(xs)
    # Highest percentile with at least TAIL_BEYOND samples above it.
    rank = max(0, n - TAIL_BEYOND - 1)
    return {
        "n": n,
        "p50": statistics.median(xs),
        "tail": xs[rank],
        "tail_pct": 100.0 * (rank + 1) / n,
        "tail_beyond": n - rank - 1,
    }


def label_medians(records) -> dict:
    by_label = {}
    for r in records:
        if not r.raised:
            by_label.setdefault(r.label, []).append(r.seconds)
    return {k: round(1e3 * statistics.median(v), 4) for k, v in sorted(by_label.items())}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(name, value, unit, note=""):
    print(f"{name} = {value:.6g} {unit}{'  ' + note if note else ''}")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "qsconc" / "__init__.py").is_file():
        print(f"error: no qsconc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # One core for the whole run (children inherit it): the CLI's row pool
    # then hands the GIL over on one core instead of across a shared host's
    # cores, which made closed-form sweeps vary twofold between runs.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np

    import layers as layer_mod
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    import_times, setup_times = [], []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        import_times.append(fresh_import_seconds())
        t0 = time.perf_counter()
        workload.setup(args.seed, args.tiny)
        setup_times.append(import_times[-1] + time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    tracer = layers = None
    if args.trace:
        layers = layer_mod.Layers()
        tracer = layers.tracer
    try:
        records, cycles = run_cycles(workload, args.seconds, tracer, layers,
                                     min_cycles=2 if args.trace else 1)
    finally:
        workload.cleanup()

    attempted = len(records)
    failed = sum(not r.ok for r in records)
    plain = [r for r in records if not r.traced]
    done = [r.seconds for r in plain if not r.raised]
    stats = latency_stats(done)
    env = environment(np, nproc)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, tiny=args.tiny, cycles=cycles[False],
               traced_cycles=cycles[True], samples=stats["n"],
               tail_percentile=round(stats["tail_pct"], 3),
               tail_beyond=stats["tail_beyond"], attempted=attempted, failed=failed,
               import_s=statistics.median(import_times), setup_repeats=len(setup_times),
               label_ms_p50=label_medians(plain))

    e2e = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / sum(done), "1/s"),
        "op_ms_p50": (1e3 * stats["p50"], "ms"),
        "op_ms_tail": (1e3 * stats["tail"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"# {args.workload}, seed {args.seed}: {cycles[False]} cycles, "
          f"{attempted} ops attempted")
    for name, (value, unit) in e2e.items():
        note = {"op_ms_p50": f"({stats['n']} samples)",
                "op_ms_tail": f"(p{stats['tail_pct']:.2f}, {stats['tail_beyond']} beyond)"}
        emit(name, value, unit, note.get(name, ""))
    emit("fail_frac", failed / attempted, "ratio", f"({failed}/{attempted})")

    metrics = e2e
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_path)
        metrics = layers.metrics(records, cycles[True])
        for name, (value, unit) in metrics.items():
            emit(name, value, unit)
        env["spans"] = str(span_path)
    print("env = " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
