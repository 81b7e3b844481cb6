#!/usr/bin/env python3
"""Scenario benchmark for vortexlab: time to a verified report.

    python3 perfbench/run.py --workload dirac-point --seed 3 --seconds 45 --trace 0

Run from the root of a checkout.  The program under test is the source tree
in ``src/``; nothing is installed.  Each op is one scenario run as a fresh
``python -m vortexlab.cli run <config.json>`` process, exactly what a user
runs, gated on its exit code and its ``report.json``.

``--trace 0`` reports the end-to-end metrics: the wall time of one run
process, the wall time of a fresh ``cli validate`` process (set-up), the run
process's peak RSS and the workload's closed-form error.  ``--trace 1``
alternates untraced ops with traced ops (``traced_op.py``, every public
function of the package wrapped from outside) and reports per-module self
times and counts, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from math import pi
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED_OP = Path(__file__).resolve().parent / "traced_op.py"

OP_TIMEOUT_S = 150.0  # one op; a run must end within 180 s
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
SEED_SPREAD = 0.05  # physical input scaled by a factor in [1 - this, 1 + this]

END_TO_END = {
    "scenario_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_err": "rel",
}


@dataclass(frozen=True)
class Workload:
    """One CLI config.  `vary` is the physical input the seed scales away
    from `base` (the scenario default); `oracle` names the closed-form check
    whose measured value is `oracle_err`."""

    scenario: str
    params: dict
    vary: str
    base: float
    oracle: str

    def config(self, seed: int) -> dict:
        factor = 1.0
        if seed != 0:
            rng = random.Random(f"{self.scenario}/{seed}")
            factor = rng.uniform(1.0 - SEED_SPREAD, 1.0 + SEED_SPREAD)
        return {"scenario": self.scenario, "params": {**self.params, self.vary: self.base * factor}}


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "dirac-point": Workload("dirac-fundamental", {"cells": 256}, "mass", pi, "fundamental-l1"),
    "patch-viscous": Workload(
        "vortex-patch", {"t_end": 1.0, "output_times": [0.25, 0.5, 0.75, 1.0]},
        "radius", 1.0, "l1-error",
    ),
    "gaussian-relax": Workload(
        "asymptotics", {"cells": 384, "output_times": [0.25 * k for k in range(1, 13)]},
        "mass", 1.0, "virial-growth",
    ),
}


@dataclass
class Op:
    """Outcome of one child process."""

    ok: bool
    wall_s: float
    rss_mb: float
    reason: str = ""
    oracle_err: float | None = None
    trace: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def add(self, op: Op) -> Op:
        self.attempted += 1
        if not op.ok:
            self.failed += 1
            self.reasons.append(op.reason)
        return op


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, log_path: Path):
    """Run argv to completion; returns (exit code, wall seconds, peak RSS in MB).

    The exit status and rusage come from os.wait4 on this child alone.  A child
    still running after OP_TIMEOUT_S is killed and reported with exit code -9."""
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: stop and reap the child before leaving
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def gate(code: int, report_path: Path, oracle: str) -> tuple[str, float | None]:
    """Correctness gate for one op: exit 0, report.json with passed=true, and
    the workload's oracle check present.  Returns (failure reason or "", oracle value)."""
    if code != 0:
        return f"exit code {code}", None
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}", None
    failing = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
    if report.get("passed") is not True or failing:
        return f"report not passed: {failing}", None
    found = [c["measured"] for c in report["checks"] if c.get("name") == oracle]
    if not found:
        return f"oracle check {oracle!r} missing", None
    return "", float(found[0])


def bytes_written(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def run_op(wl: Workload, config_path: Path, workdir: Path, traced: bool) -> Op:
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    if traced:
        spans_path = workdir / "spans.json"
        argv = [sys.executable, str(TRACED_OP), str(config_path), str(outdir), str(spans_path)]
    else:
        argv = [sys.executable, "-m", "vortexlab.cli", "run", str(config_path), "--out", str(outdir)]
    log_path = workdir / "op.log"
    code, wall, rss = spawn(argv, log_path)
    reason, err = gate(code, outdir / wl.scenario / "report.json", wl.oracle)
    if code != 0:
        reason += f" ({log_path.read_text(errors='replace').strip().splitlines()[-1:]})"
    op = Op(not reason, wall, rss, reason, err)
    if op.ok and traced:
        op.trace = json.loads(spans_path.read_text())
        op.trace["bytes_written"] = bytes_written(outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    return op


def time_setup(config_path: Path, workdir: Path) -> float:
    """Wall seconds of one fresh `cli validate` process."""
    argv = [sys.executable, "-m", "vortexlab.cli", "validate", str(config_path)]
    code, wall, _ = spawn(argv, workdir / "validate.log")
    if code != 0:
        raise RuntimeError(f"validate exited {code}: {(workdir / 'validate.log').read_text()[-2000:]}")
    return wall


def time_import(workdir: Path) -> float:
    """Seconds a fresh interpreter spends in `import vortexlab.cli`."""
    out = workdir / "import.log"
    code = ("import time; t = time.perf_counter(); import vortexlab.cli; "
            "print(repr(time.perf_counter() - t))")
    rc, _, _ = spawn([sys.executable, "-c", code], out)
    if rc != 0:
        raise RuntimeError(f"import vortexlab.cli exited {rc}: {out.read_text()[-2000:]}")
    return float(out.read_text().split()[-1])


def run_ops(wl, config_path, workdir, deadline, tally, pattern):
    """Start ops in the given repeating pattern of traced flags while the next
    op is predicted to end before `deadline`; at least one full pattern runs."""
    ops, walls = [], []
    while True:
        traced = pattern[len(ops) % len(pattern)]
        op = tally.add(run_op(wl, config_path, workdir, traced))
        ops.append(op)
        walls.append(op.wall_s)
        if len(ops) >= len(pattern) and time.perf_counter() + statistics.median(walls) > deadline:
            return ops


def timed_metrics(wl, config_path, workdir, deadline, tally) -> dict:
    """End-to-end metrics: set-up samples, then untraced ops."""
    time_setup(config_path, workdir)  # warm-up: byte-compile and page in, untimed
    setup = [time_setup(config_path, workdir) for _ in range(SETUP_SAMPLES)]
    good = [op for op in run_ops(wl, config_path, workdir, deadline, tally, [False]) if op.ok]
    if not good:
        return {}
    values = {
        "scenario_s": statistics.median(op.wall_s for op in good),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(op.rss_mb for op in good),
        "oracle_err": statistics.median(op.oracle_err for op in good),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced_metrics(wl, config_path, workdir, deadline, tally) -> tuple[dict, bool]:
    """Per-layer metrics: untraced and traced ops alternate, so the tracing
    overhead compares ops of the same run.  Returns (metrics, accounting holds)."""
    import_s = statistics.median(time_import(workdir) for _ in range(IMPORT_SAMPLES))
    ops = run_ops(wl, config_path, workdir, deadline, tally, [False, True])
    plain = [op.wall_s for op in ops if op.ok and op.trace is None]
    traced = [op for op in ops if op.ok and op.trace is not None]
    if not plain or not traced:
        return {}, True
    accounting_ok = True
    per_op = []
    for op in traced:
        values, problems = layers.analyse(op.trace)
        if problems:
            accounting_ok = False
            print(f"trace accounting: {problems}", file=sys.stderr)
        values["trace.op_wall_s"] = op.wall_s
        per_op.append(values)
    values = {k: statistics.median(v[k] for v in per_op) for k in per_op[0]}
    values["cli.import_s"] = import_s
    values["trace.overhead"] = values["trace.op_wall_s"] / statistics.median(plain)
    missing = sorted(set(layers.UNITS) - set(values))
    if missing:
        accounting_ok = False
        print(f"per-layer metrics missing: {missing}", file=sys.stderr)
    return {k: {"value": v, "unit": layers.UNITS[k]} for k, v in values.items()}, accounting_ok


def measure(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run of a workload; returns the result object."""
    deadline = time.perf_counter() + seconds
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(wl.config(seed)))
    tally = Tally()
    if trace:
        metrics, accounting_ok = traced_metrics(wl, config_path, workdir, deadline, tally)
    else:
        metrics, accounting_ok = timed_metrics(wl, config_path, workdir, deadline, tally), True
    for reason in tally.reasons:
        print(f"op failed: {reason}", file=sys.stderr)
    return {
        "correct": bool(metrics) and accounting_ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vortexlab" / "cli.py").is_file():
        print(f"error: no vortexlab source tree at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
