"""Replay of a fixed sample of the benchmark's recorded report digests.

bench/digests.json holds the digest of the report of every CLI call the
benchmark can issue.  A change in the last bits of the engine that
reaches a report shows up here as a different digest, without running
the benchmark: every 32nd simulate seed of sim_distinct and sim_cached,
the fixed eval_wide calls and all 256 of its --pattern calls go through
xover.cli.main, and bench/run.py's own digest function reads their
output.  The inputs are written to a temporary directory; nothing
under bench/ is written.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from xover.cli import main
from xover.designs import write_design

BENCH = Path(__file__).resolve().parents[1] / "bench"
STRIDE = 32


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


RUN = _load_bench_run()
DIGESTS = json.loads(RUN.DIGESTS.read_text())


def _sample(workload, directory):
    """The sampled argv lists of a workload, with their inputs written."""
    construct = sys.modules["xover.construct"]
    if workload in RUN.SIM_WORKLOADS:
        spec = RUN.SIM_WORKLOADS[workload]
        design = getattr(construct, spec.design)(spec.design_arg)
        calls = [spec.argv(seed) for seed in range(0, spec.pool, STRIDE)]
    else:
        design = construct.extreme_design(RUN.EVAL_T)
        calls = [a for a in RUN.all_pool_calls(workload) if "--pattern" not in a]
        for k in range(RUN.EVAL_POOL):
            completion = RUN.pattern_completion(k, design.s, design.p)
            path = directory / RUN.pattern_file(k)
            path.write_text(" ".join(map(str, completion)) + "\n")
            calls.append(["evaluate", "design.txt", "--pattern", path.name])
    (directory / "design.txt").write_text(write_design(design))
    return calls


@pytest.mark.parametrize("workload", RUN.WORKLOADS)
def test_sampled_benchmark_calls_replay_their_digests(workload, tmp_path, monkeypatch):
    calls = _sample(workload, tmp_path)
    assert len(calls) == {"sim_distinct": 32, "sim_cached": 16, "eval_wide": 262}[workload]
    monkeypatch.chdir(tmp_path)
    recorded = DIGESTS[workload]
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0, (argv, err.getvalue())
        key = RUN.call_key(argv)
        assert RUN.digest(out.getvalue(), err.getvalue()) == recorded[key], key
