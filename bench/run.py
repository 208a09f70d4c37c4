#!/usr/bin/env python3
"""Benchmark for xover: the public CLI driven in-process on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of sim_distinct, sim_cached, eval_wide, or ``all`` to run the
three in turn.  Every call goes through ``xover.cli.main(argv)`` with stdout
and stderr captured, so interpreter start-up does not swamp the figures, and
every call's output is checked (exit code, independent reference values, and
a digest of the report recorded in ``bench/digests.json``).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports per-layer metrics from spans recorded around the public functions
of each ``xover`` module (see ``Tracer``).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The
environment, the check details and, for traced runs, the spans are written
under ``.bench_work/`` at the repository root.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import importlib
import inspect
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

LAYERS = ("cli", "construct", "designs", "info", "linalg", "metrics", "simulate")

# Set-up is short, so it is repeated and the median reported.
SETUP_REPEATS = 9
# A timed phase also runs until it has this many calls, so that op_p90_ms
# has at least ten samples above it; HARD_CAP_FACTOR * seconds stops it
# regardless.
MIN_CALLS = 110
HARD_CAP_FACTOR = 3.0
# Values this small in a report are the rounding noise of a structural zero
# eigenvalue; their digits depend on the BLAS kernel, so digests map them to 0.
NOISE_FLOOR = 1e-9
# The pooled simulate mean must lie this many standard errors from the exact mean.
MEAN_TOL_SE = 4.0

SIM_CALLS_PER_CYCLE = 10
EVAL_PATTERNS_PER_CYCLE = 10
# Dropout pattern P_k of eval_wide is drawn from Philox key (PATTERN_KEY, k).
PATTERN_KEY = 20070710
# Subjects of extreme_design(6) (s=720, p=6) that stop one and two periods early.
PATTERN_DROP1 = 108
PATTERN_DROP2 = 36


@dataclass(frozen=True)
class SimWorkload:
    design: str  # construct function and argument, e.g. ("williams_pair", 15)
    design_arg: Any
    m: int
    hazards: tuple[float, ...]
    n: int
    pool: int  # simulate seeds 0..pool-1, each with a recorded digest

    def argv(self, seed: int) -> list[str]:
        return [
            "simulate", "design.txt", "--m", str(self.m),
            "--hazards", ",".join(str(h) for h in self.hazards),
            "--n", str(self.n), "--seed", str(seed),
        ]


SIM_WORKLOADS = {
    # s=30, p=15: every replicate is a new pattern, so the projection route dominates.
    "sim_distinct": SimWorkload("williams_pair", 15, 2, (0.2, 0.2), 20, 1024),
    # s=10, p=5: about 96% of replicates repeat a pattern already seen in the call.
    "sim_cached": SimWorkload("fixture", "d3plan", 1, (0.05,), 2000, 512),
}
EVAL_T = 6
EVAL_POOL = 256
WORKLOADS = ("sim_distinct", "sim_cached", "eval_wide")


# ---------------------------------------------------------------------------
# program import and set-up


def import_xover() -> Any:
    """Import xover.cli afresh from SRC and return the xover package."""
    for name in [k for k in sys.modules if k == "xover" or k.startswith("xover.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("xover.cli")
    pkg = sys.modules["xover"]
    origin = Path(pkg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"xover was imported from {origin}, not from {SRC}")
    return pkg


@dataclass
class Inputs:
    workload: str
    directory: Path
    design: Any  # xover.CrossoverDesign


def pattern_completion(k: int, s: int, p: int) -> np.ndarray:
    """Completion periods of eval_wide pattern P_k: fixed drop counts, seeded subjects."""
    rng = np.random.Generator(np.random.Philox(key=np.array([PATTERN_KEY, k], dtype=np.uint64)))
    order = rng.permutation(s)
    completion = np.full(s, p, dtype=int)
    completion[order[:PATTERN_DROP1]] = p - 1
    completion[order[PATTERN_DROP1:PATTERN_DROP1 + PATTERN_DROP2]] = p - 2
    return completion


def pattern_file(k: int) -> str:
    return f"p{k:03d}.txt"


def setup(workload: str) -> Inputs:
    """Import the program, build the workload's design and write its input files."""
    pkg = import_xover()
    directory = WORK / workload / "inputs"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    if workload in SIM_WORKLOADS:
        spec = SIM_WORKLOADS[workload]
        design = getattr(pkg.construct, spec.design)(spec.design_arg)
    else:
        design = pkg.construct.extreme_design(EVAL_T)
        for k in range(EVAL_POOL):
            completion = pattern_completion(k, design.s, design.p)
            (directory / pattern_file(k)).write_text(" ".join(map(str, completion)) + "\n")
    (directory / "design.txt").write_text(pkg.designs.write_design(design))
    return Inputs(workload, directory, design)


def call_cycles(workload: str, seed: int, smoke: bool) -> Iterator[list[list[str]]]:
    """Endless cycles of CLI argv lists; the seed fixes their order."""
    if workload in SIM_WORKLOADS:
        spec = SIM_WORKLOADS[workload]
        order = random.Random(seed).sample(range(spec.pool), spec.pool)
        per_cycle = 2 if smoke else SIM_CALLS_PER_CYCLE
    else:
        order = random.Random(seed).sample(range(EVAL_POOL), EVAL_POOL)
        per_cycle = 1 if smoke else EVAL_PATTERNS_PER_CYCLE
    for start in itertools.count(0, per_cycle):
        picks = [order[(start + j) % len(order)] for j in range(per_cycle)]
        if workload in SIM_WORKLOADS:
            yield [spec.argv(k) for k in picks]
        else:
            yield (
                [["construct", "--extreme", str(EVAL_T)],
                 ["evaluate", "design.txt"],
                 ["evaluate", "design.txt", "--truncate", "1"]]
                + [["evaluate", "design.txt", "--pattern", pattern_file(k)] for k in picks]
                + [["tables", "--table", str(n)] for n in (1, 2, 3)]
            )


def all_pool_calls(workload: str) -> list[list[str]]:
    """Every argv the workload can issue, for recording digests."""
    if workload in SIM_WORKLOADS:
        spec = SIM_WORKLOADS[workload]
        return [spec.argv(seed) for seed in range(spec.pool)]
    cycle = next(call_cycles(workload, 0, smoke=True))
    fixed = [argv for argv in cycle if "--pattern" not in argv]
    return fixed + [
        ["evaluate", "design.txt", "--pattern", pattern_file(k)] for k in range(EVAL_POOL)
    ]


# ---------------------------------------------------------------------------
# checks


def round6(x: float) -> float:
    """The CLI's report rounding: 6 significant digits."""
    return float(f"{float(x):.6g}")


def _zero_noise(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _zero_noise(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_zero_noise(v) for v in obj]
    if isinstance(obj, float) and abs(obj) < NOISE_FLOOR:
        return 0.0
    return obj


def digest(stdout: str, stderr: str) -> str:
    """Digest of a call's output; JSON reports have noise-level floats zeroed."""
    try:
        body = json.dumps(_zero_noise(json.loads(stdout)), indent=2)
    except ValueError:
        body = stdout
    return hashlib.sha256(f"{body}\0{stderr}".encode()).hexdigest()[:16]


def call_key(argv: list[str]) -> str:
    return " ".join(argv)


def references(workload: str, pkg: Any, design: Any) -> dict[str, Any]:
    """Reference values from routes independent of the checked call."""
    if workload == "sim_cached":
        exact = sys.modules["xover.simulate"].enumerate_exact(
            design, SIM_WORKLOADS[workload].hazards[0])
        var = float(exact.probabilities @ (exact.losses - exact.mean_loss) ** 2)
        return {
            "ml": round6(pkg.metrics.class_ab_ml(design.t, "B")),
            "exact_mean_loss": exact.mean_loss,
            "exact_loss_sd": math.sqrt(var),
        }
    if workload == "sim_distinct":
        return {"ml": round6(pkg.metrics.max_loss(design, SIM_WORKLOADS[workload].m).value)}
    return {"ml": round6(pkg.metrics.extreme_ml(design.t))}


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans around the public functions of the xover modules.

    A span is [name, start, end, parent span index, CLI call index, work];
    each span without a parent (``cli.main``) starts a new CLI call.
    Functions are patched where they are looked up: every module-level
    name in the xover package that refers to a public function defined in
    one of LAYERS is replaced by a wrapper, so ``xover.info.moore_penrose``
    and ``xover.simulate.direct_info_pattern`` both record spans.  The
    package itself is reached through sys.modules because its attributes
    shadow the submodules of the same name.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack
        work = _projection_cells if name == "info.joint_info_projection" else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            if not stack:
                self.op += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    work(*args, **kwargs) if work else 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "xover" or n.startswith("xover.")}
        wrappers: dict[int, Callable[..., Any]] = {}
        for layer in LAYERS:
            module = modules[f"xover.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def _projection_cells(design: Any, pattern: Any = None) -> int:
    """Observed cells of the layout that joint_info_projection assembles."""
    return int(sum(pattern.completion)) if pattern is not None else design.p * design.s


def layer_profile(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Calls, busy time, self time and work per span name and per layer.

    busy counts a span only when no enclosing span has the same name (or,
    for a layer, the same layer), so nested calls are not counted twice.
    self is the span's duration less the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _, work) in enumerate(spans):
        layer = name.split(".")[0]
        own_name = own_layer = True
        j = parent
        while j >= 0 and (own_name or own_layer):
            if spans[j][0] == name:
                own_name = False
            if spans[j][0].split(".")[0] == layer:
                own_layer = False
            j = spans[j][3]
        dur = end - start
        for key, own in ((name, own_name), (layer, own_layer)):
            rec = out.setdefault(key, {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0})
            rec["self"] += dur - child[i]
            if own:
                rec["calls"] += 1
                rec["busy"] += dur
                rec["work"] += work
    return out


def distinct_patterns(spec: SimWorkload, s: int, p: int, seed: int) -> int:
    """Distinct completion patterns among a simulate call's replicates.

    Replays the sampling contract of ``xover simulate``: replicate r draws
    an s x m uniform block from Philox keyed by (seed, r), and a subject
    stops at the first hazard that fires.
    """
    hazards = np.array(spec.hazards)
    seen = set()
    for r in range(spec.n):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64)))
        fired = rng.random((s, spec.m)) < hazards
        completion = np.where(fired.any(axis=1), p - spec.m + fired.argmax(axis=1), p)
        seen.add(completion.tobytes())
    return len(seen)


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict[str, Any]:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its configuration only
        blas = {}
    try:
        os_threads: int | None = len(os.listdir("/proc/self/task"))
    except OSError:
        os_threads = None
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "process_threads": os_threads,
        "cpu_count": os.cpu_count(),
        "sched_affinity": affinity,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# running calls


# On a shared machine the CPU speed can drift by a third within seconds, so
# every timing is scaled to a reference speed: a fixed kernel runs between
# consecutive timed calls, and each call's time is multiplied by
# CAL_REF_S / (the mean time of the kernel runs just before and after it).
# Raw timings are kept in the result file.
CAL_REF_S = 0.008
CAL_LOOP = 20_000
CAL_EIGH = 100
CAL_SWEEPS = 5
CAL_STREAMS = 60
CAL_MATRIX = np.eye(10) + 0.1
# Within-subject centring of a 420 x 30 block, like the projection route on
# williams_pair(15), and short Philox streams, like simulate's sampling: the
# program's mix of small numpy calls is tracked best by its own kind of work.
CAL_ROWS = np.random.default_rng(0).random((420, 30))
CAL_SUBJECT = np.repeat(np.arange(30), 14)


def calibrate() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    for _ in range(CAL_EIGH):
        np.linalg.eigh(CAL_MATRIX)
    for _ in range(CAL_SWEEPS):
        rows = CAL_ROWS.copy()
        for i in range(30):
            mask = CAL_SUBJECT == i
            rows[mask] -= rows[mask].mean(axis=0)
        rows.T @ rows
    for r in range(CAL_STREAMS):
        rng = np.random.Generator(np.random.Philox(key=np.array([0, r], dtype=np.uint64)))
        fired = rng.random((10, 1)) < 0.05
        tuple(int(k) for k in np.where(fired.any(axis=1), 4, 5))
    return time.perf_counter() - start


def timed(work: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run work() between two calibrations: (result, raw seconds, speed factor)."""
    before = calibrate()
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    return result, elapsed, 2 * CAL_REF_S / (before + calibrate())


@dataclass
class Phase:
    """Calls of one timed phase, grouped in cycles, with each call's raw
    latency and speed factor."""

    cycles: list[list[list[str]]] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    replicates: int = 0

    @property
    def calls(self) -> list[list[str]]:
        return [argv for cycle in self.cycles for argv in cycle]

    @property
    def latencies(self) -> list[float]:
        """Latencies scaled to the reference speed."""
        return [r * f for r, f in zip(self.raw, self.factors)]

    def cycle_times(self, scaled: bool = True) -> list[float]:
        latencies = self.latencies if scaled else self.raw
        out, i = [], 0
        for cycle in self.cycles:
            out.append(sum(latencies[i:i + len(cycle)]))
            i += len(cycle)
        return out


class Session:
    def __init__(self, inputs: Inputs, refs: dict[str, Any], digests: dict[str, str]) -> None:
        self.inputs = inputs
        self.refs = refs
        self.digests = digests
        self.attempted = 0
        self.failures: list[str] = []
        self.sim_means: dict[str, float] = {}  # simulate seed -> reported mean_loss

    def run(self, argv: list[str]) -> tuple[int, str, str, float]:
        """One CLI call through the (possibly traced) xover.cli.main."""
        main = sys.modules["xover.cli"].main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed call, not a failed benchmark
                code = -1
                err.write(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), elapsed

    def call(self, argv: list[str]) -> float:
        """Run and check one call; return its raw latency."""
        code, out, err, elapsed = self.run(argv)
        self.attempted += 1
        problem = self.check(argv, code, out, err)
        if problem:
            self.failures.append(f"{call_key(argv)}: {problem}")
        return elapsed

    def cycle(self, cycle: list[list[str]], phase: Phase) -> None:
        before = calibrate()
        for argv in cycle:
            phase.raw.append(self.call(argv))
            after = calibrate()
            phase.factors.append(2 * CAL_REF_S / (before + after))
            before = after
        phase.cycles.append(cycle)
        phase.replicates += sum(replicates(argv) for argv in cycle)

    def check(self, argv: list[str], code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        expected = self.digests.get(call_key(argv))
        if expected is None:
            return "no recorded digest for this call"
        if digest(out, err) != expected:
            return "report differs from the recorded digest"
        if argv[0] == "simulate":
            report = json.loads(out)
            if report["ordering_violations"] != 0:
                return f"ordering_violations={report['ordering_violations']}"
            if report["ml"] != self.refs["ml"]:
                return f"ml={report['ml']} but the reference is {self.refs['ml']}"
            self.sim_means[argv[argv.index("--seed") + 1]] = report["mean_loss"]
        elif "--truncate" in argv:
            report = json.loads(out)
            if report["ml"] != self.refs["ml"]:
                return f"ml={report['ml']} but extreme_ml gives {self.refs['ml']}"
        elif "--pattern" in argv:
            report = json.loads(out)
            if report["loss_disconnected"] or not 0.0 < report["loss"] < 1.0:
                return f"loss={report['loss']} outside (0, 1)"
        return None

    def aggregate_checks(self) -> list[str]:
        """Checks over all calls: the pooled simulate mean against the exact mean."""
        if "exact_mean_loss" not in self.refs or not self.sim_means:
            return []
        n = SIM_WORKLOADS[self.inputs.workload].n * len(self.sim_means)
        pooled = statistics.fmean(self.sim_means.values())
        se = self.refs["exact_loss_sd"] / math.sqrt(n)
        z = (pooled - self.refs["exact_mean_loss"]) / se
        if abs(z) > MEAN_TOL_SE:
            return [f"pooled mean_loss {pooled:.6g} is {z:.2f} SE from the exact "
                    f"{self.refs['exact_mean_loss']:.6g}"]
        return []

    def timed_phase(self, cycles: Iterator[list[list[str]]], seconds: float,
                    smoke: bool) -> Phase:
        """Whole cycles until `seconds` have passed and MIN_CALLS were made."""
        phase = Phase()
        start = time.perf_counter()
        while True:
            self.cycle(next(cycles), phase)
            elapsed = time.perf_counter() - start
            if smoke or elapsed >= HARD_CAP_FACTOR * seconds:
                break
            if elapsed >= seconds and len(phase.raw) >= MIN_CALLS:
                break
        return phase


def replicates(argv: list[str]) -> int:
    """Dropout patterns a call evaluates: n for simulate, one for evaluate
    --pattern or --truncate, none otherwise."""
    if argv[0] == "simulate":
        return int(argv[argv.index("--n") + 1])
    return int("--pattern" in argv or "--truncate" in argv)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(phase: Phase, setup_times: list[float], scaled: bool = True
               ) -> dict[str, tuple[float, str]]:
    latencies = phase.latencies if scaled else phase.raw
    busy = sum(latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(phase.cycle_times(scaled)), "s"),
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "op_p50_ms": (1e3 * float(np.percentile(latencies, 50)), "ms"),
        "op_p90_ms": (1e3 * float(np.percentile(latencies, 90)), "ms"),
        "replicates_per_s": (phase.replicates / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# Per-layer span metrics: (span name or layer, field).  calls and times are
# per CLI call of the traced phase; times are scaled like the end-to-end
# ones, by the traced phase's median speed factor.
LAYER_METRICS = (
    ("info.joint_info_projection", "calls"),
    ("info.joint_info_projection", "busy"),
    ("linalg.moore_penrose", "calls"),
    ("linalg.moore_penrose", "busy"),
    ("linalg.eigensym", "calls"),
    ("linalg.eigensym", "busy"),
    ("linalg.is_psd", "calls"),
    ("linalg.is_psd", "busy"),
    ("info.direct_info", "busy"),
    ("info.joint_info_orthogonal", "busy"),
    ("metrics.a_criterion", "busy"),
    ("metrics.max_loss", "busy"),
    ("designs.validate_ubrmd", "calls"),
    ("designs.validate_ubrmd", "busy"),
    ("designs.classify", "busy"),
    ("designs.parse_design", "busy"),
    ("construct", "busy"),
    ("cli", "self"),
    ("simulate", "self"),
)


def per_layer(spans: list[list[Any]], traced: Phase, untraced: Phase,
              distinct: int) -> dict[str, tuple[float, str]]:
    profile = layer_profile(spans)
    ops = len(traced.raw)
    factor = statistics.median(traced.factors)
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0}
    out: dict[str, tuple[float, str]] = {}
    for key, kind in LAYER_METRICS:
        value = profile.get(key, empty)[kind] / ops
        if kind == "calls":
            out[f"{key}.calls"] = (value, "count/op")
        else:
            out[f"{key}.{kind}_ms"] = (1e3 * factor * value, "ms/op")
    proj = profile.get("info.joint_info_projection", empty)
    out["info.joint_info_projection.us_per_cell"] = (
        1e6 * factor * proj["busy"] / proj["work"] if proj["work"] else 0.0, "us")
    sim_replicates = sum(replicates(a) for a in traced.calls if a[0] == "simulate")
    out["simulate.replicates"] = (sim_replicates / ops, "count/op")
    out["simulate.distinct_patterns"] = (distinct / ops, "count/op")
    out["simulate.cache_hit_ratio"] = (
        1.0 - distinct / sim_replicates if sim_replicates else 0.0, "ratio")
    out["trace.overhead_ratio"] = (sum(traced.latencies) / sum(untraced.latencies), "ratio")
    return out


# ---------------------------------------------------------------------------
# one workload


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def simulate_distinct(workload: str, inputs: Inputs, calls: list[list[str]]) -> int:
    """Distinct patterns summed over the simulate calls (0 for eval_wide)."""
    if workload not in SIM_WORKLOADS:
        return 0
    spec = SIM_WORKLOADS[workload]
    counts: dict[int, int] = {}
    for argv in calls:
        seed = int(argv[argv.index("--seed") + 1])
        if seed not in counts:
            counts[seed] = distinct_patterns(spec, inputs.design.s, inputs.design.p, seed)
    return sum(counts[int(argv[argv.index("--seed") + 1])] for argv in calls)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 digests: dict[str, dict[str, str]]) -> dict[str, Any]:
    setup_runs = [timed(lambda: setup(workload)) for _ in range(2 if smoke else SETUP_REPEATS)]
    inputs = setup_runs[-1][0]
    refs = references(workload, sys.modules["xover"], inputs.design)
    session = Session(inputs, refs, digests[workload])
    cycles = call_cycles(workload, seed, smoke)
    cwd = os.getcwd()
    os.chdir(inputs.directory)  # reports name their input files relative to it
    try:
        for argv in next(cycles):  # warm-up, checked but not timed
            session.call(argv)
        if not trace:
            phase = session.timed_phase(cycles, seconds, smoke)
            spans: list[list[Any]] = []
        else:
            untraced = session.timed_phase(cycles, seconds / 2, smoke)
            tracer = Tracer()
            tracer.install()
            phase = Phase()
            try:
                for cycle in untraced.cycles:
                    session.cycle(cycle, phase)
            finally:
                tracer.uninstall()
            spans = tracer.spans
    finally:
        os.chdir(cwd)
    if trace:
        distinct = simulate_distinct(workload, inputs, phase.calls)
        metrics = per_layer(spans, phase, untraced, distinct)
        raw_metrics: dict[str, tuple[float, str]] = {}
    else:
        scaled_setup = [raw * factor for _, raw, factor in setup_runs]
        metrics = end_to_end(phase, scaled_setup)
        raw_metrics = end_to_end(phase, [raw for _, raw, _ in setup_runs], scaled=False)
    problems = session.failures + session.aggregate_checks()
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "timed_calls": len(phase.raw),
        "speed_factor_median": statistics.median(phase.factors),
        "attempted": session.attempted,
        "failed": len(session.failures),
        "error_rate": len(session.failures) / session.attempted,
        "correct": not problems,
        "problems": problems[:50],
        "references": refs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()},
    }
    out_dir = WORK / workload
    (out_dir / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"environment": environment(), **result}, indent=2) + "\n")
    if trace:
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        (out_dir / f"spans-seed{seed}.json").write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "call", "work"],
            "names": names,
            "calls": [call_key(argv) for argv in phase.calls],
            "spans": [[index[n], a, b, p, c, w] for n, a, b, p, c, w in spans],
        }) + "\n")
    return result


def summary_lines(result: dict[str, Any]) -> list[str]:
    lines = [
        f"{result['workload']}: seed {result['seed']}, trace {result['trace']}, "
        f"{result['timed_calls']} timed calls, attempted {result['attempted']}, "
        f"failed {result['failed']}, error_rate {result['error_rate']:g}, "
        f"speed factor {result['speed_factor_median']:.3f}"
    ]
    raw = result["raw_metrics"]
    for name, m in result["metrics"].items():
        extra = f"  (raw {raw[name]['value']:.6g})" if name in raw else ""
        lines.append(f"  {name:40s} {m['value']:14.6g} {m['unit']}{extra}")
    lines += [f"  FAILED {p}" for p in result["problems"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short cycle per phase, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_xover()
    except ImportError as exc:
        print(f"error: cannot import xover from {SRC}: {exc}", file=sys.stderr)
        return 1
    digests = load_digests()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke, digests)
               for w in workloads]
    print(json.dumps({"environment": environment()}))
    for result in results:
        print("\n".join(summary_lines(result)))
    if args.workload == "all":
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    else:
        metrics = results[0]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
