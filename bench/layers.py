"""Which qsconc attributes the traced run wraps, and the per-layer metrics.

Every per-layer metric is reported on every workload (0 where the layer
is not exercised). Totals (``.calls``, ``.self_s``, ``.bytes_computed``)
are per cycle of the workload's input mix; ``.ms_*`` and ``.us`` values
are medians over calls; ``share.*`` values are fractions of traced op
time.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from collections import defaultdict

from qsconc import bounds, cli, closed_forms, inequalities, linalg, measures, roof, states

from tracer import Target, Tracer, outermost_time, self_times

MODULES = ("linalg", "states", "measures", "bounds", "closed_forms", "inequalities",
           "roof", "cli")
CONSTRUCTORS = {"states.werner", "states.isotropic", "states.DensityMatrix"}
CLI_COMMANDS = ("compute", "bound", "closed-form", "monogamy", "polygon", "roof")
SPANNED = [
    (linalg, ("trace_norm", "hermitian_eigenvalues", "partial_transpose", "realign")),
    (states, ("werner", "isotropic", "load_state_json", "schmidt", "reduced_state")),
    (measures, ("unified_functional", "concurrence_bridge", "wootters_concurrence")),
    (bounds, ("detect", "bound_auto")),
    (closed_forms, ("isotropic_envelope", "werner_envelope", "build_envelope",
                    "find_breakpoint")),
    (inequalities, ("monogamy_residual_qubits", "monogamy_residual_gen3",
                    "polygon_check")),
    (roof, ("roof_estimate", "roof_estimate_normalized")),
    (cli, ("main",)),
]
# The matrix sides that d = 8, 16, 32 give for the reshuffled operators.
SIDES = {64: "ms_d8", 256: "ms_d16", 1024: "ms_d32"}


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


class Layers:
    def __init__(self):
        self.trace_norm_calls = []  # (matrix side, bytes, seconds)
        self.werner_calls = []  # (d, seconds)
        self.roof_calls = []  # (converged, restarts, iterations)
        self.roof_pending = []
        self.roof_calibrations = []  # (setup seconds, step seconds)
        self.curve_evals = 0
        self.stdout_bytes = 0
        hooks = {
            "linalg.trace_norm": self._on_trace_norm,
            "states.werner": lambda a, k, r, dt: self.werner_calls.append((a[1], dt)),
            "roof.roof_estimate": self._on_roof,
            "cli.main": self._on_cli,
        }
        targets = []
        for module, names in SPANNED:
            short = module.__name__.split(".")[-1]
            for attr in names:
                name = f"{short}.{attr}"
                targets.append(Target(module, attr, name, hook=hooks.get(name)))
        targets.append(Target(states.DensityMatrix, "__post_init__",
                              "states.DensityMatrix"))
        targets.append(Target(bounds, "bound_value_auto", "bounds.bound_value_auto",
                              kind="count"))
        build = next(t for t in targets if t.name == "closed_forms.build_envelope")
        build.arg_filter = self._count_curve
        build.hook = self._end_build
        self.tracer = Tracer(targets)

    # -- hooks ------------------------------------------------------------
    def _on_trace_norm(self, args, kwargs, result, dt):
        m = args[0]
        self.trace_norm_calls.append((m.shape[0], m.nbytes, dt))

    def _on_roof(self, args, kwargs, result, dt):
        rho, p = args[0], args[1]
        cfg = args[2] if len(args) > 2 else kwargs.get("config")
        cfg = cfg or roof.RoofConfig()
        self.roof_pending.append((rho, p, cfg, dt))
        self.roof_calls.append((result.converged, cfg.restarts, cfg.iterations))

    def _on_cli(self, args, kwargs, result, dt):
        # The op redirects stdout to a fresh buffer, so it holds this call's output.
        self.stdout_bytes += len(sys.stdout.getvalue().encode())

    def _count_curve(self, args, kwargs):
        curve = args[0]

        def counted(x):
            if counted.live:
                self.curve_evals += 1
            return curve(x)

        counted.live = True
        return (counted, *args[1:]), kwargs

    @staticmethod
    def _end_build(args, kwargs, result, dt):
        args[0].live = False

    def calibrate(self):
        """Time an iterations=0 call on each roof input the op just used.

        Its time is the estimator's fixed cost (eigendecomposition,
        restarts' starting points and objectives, reconstruction); the
        rest of the traced call divided by restarts x iterations is the
        cost of one search step.
        """
        for rho, p, cfg, dt in self.roof_pending:
            t0 = time.perf_counter()
            roof.roof_estimate(rho, p, dataclasses.replace(cfg, iterations=0))
            setup = time.perf_counter() - t0
            steps = cfg.restarts * cfg.iterations
            self.roof_calibrations.append((setup, (dt - setup) / steps if steps else 0.0))
        self.roof_pending.clear()

    # -- metrics ----------------------------------------------------------
    def metrics(self, records, traced_cycles: int) -> dict:
        spans = self.tracer.spans
        selfs = self_times(spans)
        per = max(traced_cycles, 1)
        calls, self_s = defaultdict(int), defaultdict(float)
        for span, st in zip(spans, selfs):
            calls[span[0]] += 1
            self_s[span[0]] += st
        op_time = sum(s[2] - s[1] for s in spans if s[0] == "op")
        counts = self.tracer.counts
        m = {}

        def put(name, value, unit):
            m[name] = (float(value), unit)

        # roof
        cal = self.roof_calibrations
        put("roof.step_us", 1e6 * _median([c[1] for c in cal]), "us")
        put("roof.setup_ms", 1e3 * _median([c[0] for c in cal]), "ms")
        # Computed from each call's RoofConfig: one objective per restart start
        # and one per search step.
        evals = sum(r * (i + 1) for _, r, i in self.roof_calls)
        put("roof.objective_evals", evals / per, "count")
        put("roof.roof_estimate.self_s", self_s["roof.roof_estimate"] / per, "s")
        conv = [c for c, _, _ in self.roof_calls]
        put("roof.converged_frac", sum(conv) / len(conv) if conv else 0.0, "ratio")
        roof_errs = [r.err for r in records if r.traced and "roof" in r.label]
        put("roof.max_abs_err", max(roof_errs, default=0.0), "abs")

        # linalg
        tn = self.trace_norm_calls
        put("linalg.trace_norm.calls", calls["linalg.trace_norm"] / per, "count")
        put("linalg.trace_norm.self_s", self_s["linalg.trace_norm"] / per, "s")
        put("linalg.trace_norm.bytes_computed", sum(c[1] for c in tn) / per, "B")
        for side, name in SIDES.items():
            put(f"linalg.trace_norm.{name}",
                1e3 * _median([c[2] for c in tn if c[0] == side]), "ms")
        for name in ("hermitian_eigenvalues", "partial_transpose", "realign"):
            put(f"linalg.{name}.self_s", self_s[f"linalg.{name}"] / per, "s")

        # states
        put("states.werner.self_s", self_s["states.werner"] / per, "s")
        put("states.werner.ms_d32",
            1e3 * _median([dt for d, dt in self.werner_calls if d == 32]), "ms")
        for name in ("isotropic", "DensityMatrix", "load_state_json", "reduced_state"):
            put(f"states.{name}.self_s", self_s[f"states.{name}"] / per, "s")
        put("states.schmidt.calls", calls["states.schmidt"] / per, "count")

        # closed_forms
        builds = calls["closed_forms.build_envelope"]
        lookups = calls["closed_forms.isotropic_envelope"] + calls["closed_forms.werner_envelope"]
        put("closed_forms.build_envelope.self_s",
            self_s["closed_forms.build_envelope"] / per, "s")
        put("closed_forms.curve_evals_per_build",
            self.curve_evals / builds if builds else 0.0, "count")
        put("closed_forms.find_breakpoint.self_s",
            self_s["closed_forms.find_breakpoint"] / per, "s")
        put("closed_forms.cache_hit_ratio",
            1.0 - builds / lookups if lookups else 0.0, "ratio")

        # cli and bounds
        put("cli.main.self_s", self_s["cli.main"] / per, "s")
        plain = [r for r in records if not r.traced and not r.raised]
        for cmd in CLI_COMMANDS:
            put(f"cli.{cmd}.ms_p50",
                1e3 * _median([r.seconds for r in plain if r.label == f"cli {cmd}"]), "ms")
        put("cli.stdout_bytes", self.stdout_bytes / per, "B")
        put("bounds.bound_value_auto.calls", counts["bounds.bound_value_auto"] / per, "count")
        put("bounds.detect.self_s", self_s["bounds.detect"] / per, "s")

        # measures and inequalities
        for name in ("unified_functional", "concurrence_bridge", "wootters_concurrence"):
            put(f"measures.{name}.calls", calls[f"measures.{name}"] / per, "count")
            put(f"measures.{name}.self_s", self_s[f"measures.{name}"] / per, "s")
        for name in ("monogamy_residual_qubits", "monogamy_residual_gen3", "polygon_check"):
            put(f"inequalities.{name}.self_s", self_s[f"inequalities.{name}"] / per, "s")

        # where the op time goes
        share = (lambda t: t / op_time) if op_time else (lambda t: 0.0)
        put("share.roof.roof_estimate", share(outermost_time(spans, {"roof.roof_estimate"})),
            "ratio")
        put("share.linalg.trace_norm", share(outermost_time(spans, {"linalg.trace_norm"})),
            "ratio")
        put("share.states.constructors", share(outermost_time(spans, CONSTRUCTORS)), "ratio")
        by_module = defaultdict(float)
        for span, st in zip(spans, selfs):
            by_module[span[0].split(".")[0]] += st
        for mod in MODULES:
            put(f"share.self.{mod}", share(by_module[mod]), "ratio")
        put("share.self.harness", share(by_module["op"]), "ratio")

        untraced = sum(r.seconds for r in records if not r.traced)
        traced = sum(r.seconds for r in records if r.traced)
        n_plain = sum(not r.traced for r in records)
        n_traced = sum(r.traced for r in records)
        overhead = (traced / n_traced) / (untraced / n_plain) - 1.0 if n_traced else 0.0
        put("trace.overhead_frac", overhead, "ratio")
        return m
