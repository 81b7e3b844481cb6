#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at tiny sizes (about 20 s).

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that BENCHMARK.json names the
metrics and workloads the harness reports, that seeded inputs are pinned and
bounded, that the per-op gate counts every kind of failure (nonzero exit,
missing report, FAIL check, missing oracle, invalid config with CLI exit 2),
and that a tiny timed run and a tiny traced run report every metric with
nesting spans whose self times add up to the op.
"""

from __future__ import annotations

import json
import shutil
import sys

import layers
import run
from run import Tally, Workload

SMOKE_OK = {
    "gaussian": Workload("asymptotics", {"cells": 128, "t_end": 1.0, "output_times": [0.25, 0.5, 0.75, 1.0]},
                         "mass", 1.0, "virial-growth"),
    "dirac": Workload("dirac-fundamental", {"cells": 128, "t_end": 1.0, "output_times": [1.0]},
                      "mass", run.pi, "fundamental-l1"),
}
# 64 cells are too coarse for the patch closed form: the l1-error check FAILs (exit 1)
SMOKE_FAIL_CHECK = Workload("vortex-patch", {"cells": 64, "t_end": 0.25, "output_times": [0.25]},
                            "radius", 1.0, "l1-error")
# cfl outside (0, 1] is rejected by config validation (exit 2)
SMOKE_INVALID = Workload("dirac-fundamental", {"cells": 64, "cfl": 2.0}, "mass", run.pi, "fundamental-l1")


def expect(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok: {what}")


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json lists the workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end-to-end metrics match the timed run")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS,
           "BENCHMARK.json per-layer metrics match the traced run")


def check_seeds():
    for name, wl in run.WORKLOADS.items():
        expect(wl.config(0)["params"][wl.vary] == wl.base, f"{name}: seed 0 is the pinned default")
        for seed in range(1, 20):
            cfg = wl.config(seed)
            factor = cfg["params"][wl.vary] / wl.base
            rest = {k: v for k, v in cfg["params"].items() if k != wl.vary}
            if cfg != wl.config(seed) or not 0.95 <= factor <= 1.05 or rest != wl.params:
                raise AssertionError(f"{name}: seed {seed} gives {cfg}")
        expect(True, f"{name}: seeds 1..19 are reproducible and scale only {wl.vary} within [0.95, 1.05]")


def check_gate(tmp):
    report = tmp / "report.json"
    good = {"passed": True, "checks": [{"name": "x", "measured": 0.5, "passed": True}]}
    report.write_text(json.dumps(good))
    expect(run.gate(0, report, "x") == ("", 0.5), "gate accepts a passing report with the oracle")
    expect(run.gate(3, report, "x")[0] == "exit code 3", "gate fails a nonzero exit")
    expect(run.gate(0, report, "y")[0].startswith("oracle check"), "gate fails a missing oracle check")
    report.write_text(json.dumps({**good, "passed": False}))
    expect(run.gate(0, report, "x")[0].startswith("report not passed"), "gate fails passed=false")
    report.unlink()
    expect(run.gate(0, report, "x")[0].startswith("unreadable report"), "gate fails a missing report")


def check_failures_counted(tmp):
    tally = Tally()
    for wl, code in ((SMOKE_FAIL_CHECK, 1), (SMOKE_INVALID, 2)):
        config = tmp / "config.json"
        config.write_text(json.dumps(wl.config(0)))
        op = tally.add(run.run_op(wl, config, tmp, traced=False))
        expect(not op.ok and op.reason.startswith(f"exit code {code} "), f"{wl.scenario} {wl.params}: counted as failed ({op.reason})")
    expect((tally.attempted, tally.failed) == (2, 2), "failed ops are counted against attempted ops")


def check_runs(tmp):
    timed = run.measure(SMOKE_OK["gaussian"], seed=0, seconds=0, trace=False, workdir=tmp / "timed")
    expect(timed["correct"] and timed["failed"] == 0 and timed["attempted"] >= 1, "tiny timed run is correct")
    expect(set(timed["metrics"]) == set(run.END_TO_END), "tiny timed run reports every end-to-end metric")
    for name, wl in SMOKE_OK.items():
        traced = run.measure(wl, seed=0, seconds=0, trace=True, workdir=tmp / f"traced-{name}")
        expect(traced["correct"] and traced["attempted"] == 2, f"tiny traced {name} run is correct (spans nest, self times sum)")
        expect(set(traced["metrics"]) == set(layers.UNITS), f"tiny traced {name} run reports every per-layer metric")
    m = traced["metrics"]
    expect(m["solver.steps"]["value"] > 0 and m["potentials.velocity.step_calls"]["value"] == 2 * m["solver.steps"]["value"],
           "two velocity solves per SSP step are attributed to solver.run")


def check_accounting():
    bad = {"names": ["op", "a"], "spans": [[0, 0.0, 1.0, -1], [1, 0.5, 1.5, 0]], "runs": [],
           "kernel_builds": 0, "bytes_written": 0}
    _, problems = layers.analyse(bad)
    expect(any("outside its parent" in p for p in problems), "a span outside its parent is reported")


def main() -> int:
    if not (run.SRC / "vortexlab" / "cli.py").is_file():
        print(f"error: no vortexlab source tree at {run.SRC}", file=sys.stderr)
        return 2
    tmp = run.WORK / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        check_benchmark_json()
        check_seeds()
        check_gate(tmp)
        check_accounting()
        check_failures_counted(tmp)
        check_runs(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
