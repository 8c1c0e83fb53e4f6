"""The benchmark's three workloads.

A workload turns the run seed into a fixed input mix, one *cycle* of
ops at a time. An op is one call a researcher's script would make; its
``call`` is the timed part and its ``check`` runs afterwards, outside
the timed region, and returns ``(ok, abs_err)``.

* ``roof_bridge``  - convex-roof estimates of rank-2 two-qubit states,
  checked against the concurrence bridge. Exercises the roof search.
* ``dense_detect`` - construct or validate a d x d state, detect, and
  bound it at d = 8, 16, 32. Exercises trace norms and constructors.
* ``cli_mix``      - in-process ``qsconc.cli.main`` over all six
  subcommands. Exercises envelopes, sweeps, formatting and loading.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qsconc import bounds, cli, closed_forms, measures, roof, states

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "cli_digests.json"


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, float]]


class Workload:
    name = ""

    def setup(self, seed: int, tiny: bool) -> None:
        """Generate the inputs; everything here counts towards setup_s."""

    def cycle(self, k: int) -> list[Op]:
        """Ops of cycle ``k``; the same seed always gives the same ops."""
        raise NotImplementedError

    def before_cycle(self) -> None:
        """Reset state a fresh process would not have (runs untimed)."""

    def cleanup(self) -> None:
        """Remove files written by setup."""


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _haar_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _random_density(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """rho = G G^dagger / tr, G an n x rank complex Gaussian matrix."""
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


# ---------------------------------------------------------------- roof_bridge

ROOF_PAIRS = ((2.0, 1.0), (3.0, 1.0), (2.0, 0.75))
# Twice criterion 09's 8 restarts. The estimate is an upper one, and at 8
# restarts about 1 op in 400-1000 stalls in a local minimum more than
# ROOF_TOL above the bridge value; more iterations do not help, more
# restarts do. At 16 the worst of 1,200 ops was 2.5e-3 above it.
ROOF_CONFIG = dict(restarts=16, iterations=500)
ROOF_TOL = 5e-3
ROOF_UNDERSHOOT = 1e-9
ROOF_STATES = 64


class RoofBridge(Workload):
    name = "roof_bridge"
    def setup(self, seed, tiny):
        self.seed = seed
        self.pairs = [measures.classify(q, s) for q, s in ROOF_PAIRS]
        self.states = []
        for i in range(ROOF_STATES):
            rng = _rng(seed, 1, i)
            w = rng.dirichlet(np.ones(2))
            rho = sum(p * np.outer(v, v.conj())
                      for p, v in zip(w, (_haar_vector(rng, 4) for _ in w)))
            rho = (rho + rho.conj().T) / 2
            self.states.append(states.DensityMatrix((2, 2), rho / np.trace(rho).real))

    def cycle(self, k):
        rho = self.states[k % len(self.states)]
        rng = _rng(self.seed, 2, k)
        ops = []
        for p in self.pairs:
            cfg = roof.RoofConfig(seed=int(rng.integers(2**31)), **ROOF_CONFIG)

            def check(est, rho=rho, p=p):
                target = measures.concurrence_bridge(measures.wootters_concurrence(rho), p)
                err = abs(est - target)
                return -ROOF_UNDERSHOOT <= est - target <= ROOF_TOL, err

            ops.append(Op(f"roof q={p.q:g} s={p.s:g}",
                          lambda rho=rho, p=p, cfg=cfg:
                          roof.roof_estimate_normalized(rho, p, cfg),
                          check))
        return ops


# --------------------------------------------------------------- dense_detect

DENSE_DIMS = (8, 16, 32)
DENSE_TINY_DIMS = (4, 8, 16)
# Ops per family and cycle at each d. With these counts the median lands in
# the middle of the d=16 random-state ops and the tail (10 samples beyond) in
# the middle of the d=16 Werner ops, so neither sits on a jump between op
# classes. Both then time LAPACK-sized work rather than interpreter overhead,
# which on a shared 2-core host drifts between runs far more.
DENSE_COUNTS = (1, 16, 1)
DENSE_TOL = 1e-9
PAIR_A = (2.0, 2.0)
PAIR_B = (0.5, 0.5)


def werner_norms(w: float, d: int) -> tuple[float, float]:
    """Closed-form PPT and realignment trace norms of the Werner state.

    rho = a I + b F with F the swap: the partial transpose is
    a I + b d |phi><phi| and the realignment is a d |phi><phi| + b I.
    """
    ds, da = d * (d + 1) / 2, d * (d - 1) / 2
    a = (1 - w) / (2 * ds) + w / (2 * da)
    b = (1 - w) / (2 * ds) - w / (2 * da)
    ppt = (d * d - 1) * abs(a) + abs(a + b * d)
    rea = abs(a * d + b) + (d * d - 1) * abs(b)
    return ppt, rea


def bound_formula(norm: float, m: int, q: float, s: float) -> float:
    """The published regime-A / regime-B bound polynomials (see bounds.py)."""
    if norm <= 1.0:
        return 0.0
    if q >= 1:
        pref = (1.0 - m ** (s * (1.0 - q))) / (1.0 - m ** (-s))
        inner = 1.0 - (norm - 1.0) ** 2 / (m * (m - 1))
        return max(0.0, pref * (1.0 - inner ** s))
    pref = (m ** (s * (1.0 - q)) - 1.0) / (m ** s - 1.0)
    return max(0.0, pref * (norm ** s - 1.0))


class DenseDetect(Workload):
    name = "dense_detect"
    def setup(self, seed, tiny):
        self.pa = measures.classify(*PAIR_A)
        self.pb = measures.classify(*PAIR_B)
        dims = DENSE_TINY_DIMS if tiny else DENSE_DIMS
        counts = (1, 1, 1) if tiny else DENSE_COUNTS
        per_d = []
        for d, n in zip(dims, counts):
            rng = _rng(seed, 3, d)
            inputs = []
            for _ in range(n):
                f = 1.0 - rng.uniform(0.0, 1.0 - 1.0 / d)  # (1/d, 1]
                w = 1.0 - rng.uniform(0.0, 0.5)  # (1/2, 1]
                mat = _random_density(rng, d * d, d)
                inputs += [("isotropic", d, f), ("werner", d, w), ("random", d, mat)]
            per_d.append(inputs)
        # One segment per largest-d op, each with an even share of the smaller
        # ops, so the small ops' samples spread over the whole run.
        n_seg = len(per_d[-1])
        self.inputs = [x for j in range(n_seg) for inputs in per_d
                       for x in inputs[len(inputs) * j // n_seg:
                                       len(inputs) * (j + 1) // n_seg]]

    def _detect_all(self, rho):
        return (bounds.detect(rho), bounds.bound_auto(rho, self.pa),
                bounds.bound_auto(rho, self.pb))

    def _check(self, family, d, x, out):
        rep, ra, rb = out
        if family == "isotropic":
            want = (d * x, d * x)
        elif family == "werner":
            want = werner_norms(x, d)
        else:
            fro = float(np.linalg.norm(x))
            want = None
        err = 0.0
        ok = True
        for r in (rep, ra, rb):
            got = (r.ppt_norm, r.realign_norm)
            if want is not None:
                err = max(err, abs(got[0] - want[0]), abs(got[1] - want[1]))
            else:
                # Both reshuffles permute entries, so ||.||_F <= norm <= d ||.||_F,
                # and the partial transpose keeps the trace, so its norm >= 1.
                ok &= all(fro * (1 - DENSE_TOL) <= g <= d * fro * (1 + DENSE_TOL)
                          for g in got) and got[0] >= 1 - DENSE_TOL
                err = max(err, abs(got[0] - rep.ppt_norm), abs(got[1] - rep.realign_norm))
        for r, (q, s) in ((ra, PAIR_A), (rb, PAIR_B)):
            err = max(err, abs(r.lower_bound - bound_formula(r.max_norm, r.m, q, s)))
        return ok and err <= DENSE_TOL, err

    def cycle(self, k):
        ops = []
        for family, d, x in self.inputs:
            if family == "isotropic":
                call = lambda f=x, d=d: self._detect_all(states.isotropic(f, d))
            elif family == "werner":
                call = lambda w=x, d=d: self._detect_all(states.werner(w, d))
            else:
                call = lambda m=x, d=d: self._detect_all(states.DensityMatrix((d, d), m))
            ops.append(Op(f"{family} d={d}", call,
                          lambda out, f=family, d=d, x=x: self._check(f, d, x, out)))
        return ops


# -------------------------------------------------------------------- cli_mix

CLI_DIR = Path(".bench_out") / "cli_mix"
CLI_VARIANTS = 4
CLI_POOL_SEED = 20260117
CLOSED_FORM_PAIRS = (("2", "2"), ("3", "1"), ("2", "1"), ("2.5", "0.8"))
ISO3_FIDELITIES = (0.5, 0.7, 0.93, 0.99)
GEN3 = ",".join(repr(x) for x in (math.sqrt(2 / 7), math.sqrt(1 / 7), math.sqrt(1 / 7),
                                   math.sqrt(3 / 7), 0.0, 0.0))


def _state_file(kind: str, v: int) -> str:
    return str(CLI_DIR / f"{kind}_{v}.json")


def cli_pool_states(v: int) -> dict:
    """Seed-independent state files of variant ``v`` (their stdout is digested)."""
    rng = _rng(CLI_POOL_SEED, v)
    return {
        "pure23": states.PureState((2, 3), _haar_vector(rng, 6)),
        "pure33": states.PureState((3, 3), _haar_vector(rng, 9)),
        "mixed22": states.DensityMatrix((2, 2), _random_density(rng, 4, 4)),
        "mixed33": states.DensityMatrix((3, 3), _random_density(rng, 9, 3)),
        "iso3": states.isotropic(ISO3_FIDELITIES[v], 3),
        "qubits3": states.PureState((2, 2, 2), _haar_vector(rng, 8)),
        "haar3333": states.PureState((3, 3, 3, 3), _haar_vector(rng, 81)),
    }


def cli_commands(v: int) -> list[list[str]]:
    """The deterministic part of one cli_mix cycle, all slots at variant v.

    Twelve of the nineteen ops of a cycle take 1-3 ms, so the median lands
    inside that group rather than on the jump to the monogamy sweeps.
    """
    q, s = CLOSED_FORM_PAIRS[v]
    f = lambda kind: _state_file(kind, v)  # noqa: E731
    return [
        ["compute", "--state", f("pure23"), "--q", "2", "--s", "1", "--normalized"],
        ["compute", "--state", f("pure33"), "--q", "0.5", "--s", "0.5"],
        ["compute", "--state", f("mixed22"), "--q", "2", "--s", "0.75", "--normalized"],
        ["compute", "--state", f("mixed22"), "--q", "3", "--s", "1"],
        ["compute", "--state", f("qubits3"), "--q", "2", "--s", "1", "--normalized"],
        ["compute", "--state", f("haar3333"), "--q", "2", "--s", "2"],
        ["bound", "--state", f("iso3"), "--q", "2", "--s", "2"],
        ["bound", "--state", f("mixed33"), "--q", "0.5", "--s", "0.5"],
        ["bound", "--state", f("pure33"), "--q", "3", "--s", "1"],
        ["bound", "--state", f("mixed22"), "--q", "3", "--s", "1"],
        ["polygon", "--state", f("qubits3"), "--q", "2", "--s", "1"],
        ["closed-form", "isotropic", "--q", q, "--s", s, "--d", "3",
         "--sweep", "0.34:1.0:0.0001"],
        # CACHED_SLOT: same (q, s, d) as the line above, so the envelope
        # comes from the cache.
        ["closed-form", "isotropic", "--q", q, "--s", s, "--d", "3",
         "--sweep", "0.34:1.0:0.00132"],
        ["closed-form", "isotropic", "--q", q, "--s", s, "--d", "8",
         "--sweep", "0.125:1.0:0.00175"],
        ["closed-form", "werner", "--q", q, "--s", s, "--sweep", "0.5:1.0:0.0002"],
        ["monogamy", "--gen3", GEN3, "--s", "1", "--s", "0.75", "--sweep", "2:10:0.05"],
        ["monogamy", "--state", f("qubits3"), "--s", "1", "--s", "0.5",
         "--sweep", "2:4:0.1"],
        ["polygon", "--state", f("haar3333"), "--q", "2", "--s", "1"],
    ]


def write_cli_pool() -> None:
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    for v in range(CLI_VARIANTS):
        for kind, st in cli_pool_states(v).items():
            states.save_state_json(st, _state_file(kind, v))


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Index of the closed-form line that reuses the envelope of the line before it.
CACHED_SLOT = 12
ROOF_CLI_PAIR = (2.0, 1.0)
ROOF_CLI_ARGS = ["--restarts", "2", "--iterations", "200"]


class CliMix(Workload):
    name = "cli_mix"
    def setup(self, seed, tiny):
        self.seed = seed
        self.digests = json.loads(DIGESTS_PATH.read_text())
        write_cli_pool()
        self.werner_w = 1.0 - _rng(seed, 4).uniform(0.0, 0.5)
        self.werner_path = str(CLI_DIR / "werner3.json")
        states.save_state_json(states.werner(self.werner_w, 3), self.werner_path)
        self.slots = [cli_commands(v) for v in range(CLI_VARIANTS)]
        self.exact_werner = None

    def before_cycle(self):
        closed_forms.isotropic_envelope.cache_clear()
        closed_forms.werner_envelope.cache_clear()

    def _check_digest(self, key, out):
        rc, text = out
        return rc == 0 and self.digests.get(key) == digest(text), 0.0

    def _check_roof(self, out):
        rc, text = out
        if rc != 0:
            return False, math.inf
        if self.exact_werner is None:
            self.exact_werner = closed_forms.cqs_werner(self.werner_w, *ROOF_CLI_PAIR,
                                                        method="tangent")
        line = next(ln for ln in text.splitlines() if ln.startswith("roof_estimate"))
        est = float(line.split("=")[1])
        # The roof search gives an upper estimate of the exact value.
        return est >= self.exact_werner - 1e-9, abs(est - self.exact_werner)

    def cycle(self, k):
        rng = _rng(self.seed, 5, k)
        ops = []
        variants = rng.integers(CLI_VARIANTS, size=len(self.slots[0]))
        variants[CACHED_SLOT] = variants[CACHED_SLOT - 1]
        for slot, v in enumerate(variants):
            argv = self.slots[v][slot]
            key = " ".join(argv)
            ops.append(Op(f"cli {argv[0]}", lambda a=argv: run_cli(a),
                          lambda out, key=key: self._check_digest(key, out)))
        q, s = ROOF_CLI_PAIR
        argv = ["roof", "--state", self.werner_path, "--q", f"{q:g}", "--s", f"{s:g}",
                *ROOF_CLI_ARGS, "--seed", str(int(rng.integers(2**31)))]
        ops.append(Op("cli roof", lambda a=argv: run_cli(a), self._check_roof))
        return ops

    def cleanup(self):
        for path in CLI_DIR.glob("*.json"):
            path.unlink()


WORKLOADS = {w.name: w for w in (RoofBridge, DenseDetect, CliMix)}
