"""Per-module metrics from the spans one traced op recorded (see traced_op.py).

A span's self time is its duration minus the time its child spans cover.
Spans come from a single thread, so when they nest (every child inside its
parent, siblings disjoint) the children's union is their sum and the self
times of one op add up to its root span; `analyse` checks both.
"""

from __future__ import annotations

VELOCITY = "potentials.velocity_from_values"
CSV_WRITER = "burgers.write_radial_trajectory_csv"

# name -> unit of every per-layer metric the traced run reports
UNITS = {
    "potentials.velocity.step_calls": "count",
    "potentials.velocity.step_s": "s",
    "potentials.velocity.diag_s": "s",
    "potentials.velocity.ms_per_call": "ms",
    "potentials.potential_s": "s",
    "potentials.self_s": "s",
    "potentials.kernel_builds": "count",
    "solver.steps": "count",
    "solver.self_s": "s",
    "solver.step_ms": "ms",
    "solver.clipped_mass": "mass",
    "diagnostics.records": "count",
    "diagnostics.self_s": "s",
    "burgers.steps": "count",
    "burgers.self_s": "s",
    "burgers.csv_s": "s",
    "grids.self_s": "s",
    "grids.bytes_written": "bytes",
    "closed_forms.self_s": "s",
    "scenarios.self_s": "s",
    "cli.import_s": "s",
    "trace.op_wall_s": "s",
    "trace.overhead": "ratio",
}

def analyse(trace: dict) -> tuple[dict, list]:
    """Per-layer metrics of one traced op, and a list of accounting problems
    (empty when spans nest and self times sum to the root span).

    cli.import_s and the trace.* metrics are measured by the caller."""
    names = trace["names"]
    spans = trace["spans"]
    problems = []
    child_time = [0.0] * len(spans)
    last_end = {}
    roots = []
    for i, (_, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ends before it starts")
        if parent < 0:
            roots.append(i)
            continue
        _, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end:
            problems.append(f"span {i} ({names[spans[i][0]]}) outside its parent")
        if start < last_end.get(parent, p_start):
            problems.append(f"span {i} ({names[spans[i][0]]}) overlaps a sibling")
        last_end[parent] = end
        child_time[parent] += end - start
    if len(roots) != 1:
        problems.append(f"expected one root span, found {len(roots)}")
    self_time = [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)]
    root_s = spans[roots[0]][2] - spans[roots[0]][1] if roots else 0.0
    if abs(sum(self_time) - root_s) > 1e-9 * max(root_s, 1.0):
        problems.append(f"self times sum to {sum(self_time)!r}, root span is {root_s!r}")

    def name(i):
        return names[spans[i][0]] if i >= 0 else ""

    def has_ancestor(i, pred):
        i = spans[i][3]
        while i >= 0:
            if pred(name(i)):
                return True
            i = spans[i][3]
        return False

    def module_self(module, exclude=lambda i: False):
        prefix = module + "."
        return sum(self_time[i] for i in range(len(spans)) if name(i).startswith(prefix) and not exclude(i))

    def total(indices):
        return sum(spans[i][2] - spans[i][1] for i in indices)

    def named(target):
        return [i for i in range(len(spans)) if name(i) == target]

    velocity = named(VELOCITY)
    step_calls = [i for i in velocity if name(spans[i][3]) == "solver.run"]
    def in_csv(i):
        return name(i) == CSV_WRITER or has_ancestor(i, lambda n: n == CSV_WRITER)

    runs = trace["runs"]
    steps = sum(r[0] for r in runs)
    step_s = total(step_calls)
    solver_self = module_self("solver")
    values = {
        "potentials.velocity.step_calls": len(step_calls),
        "potentials.velocity.step_s": step_s,
        "potentials.velocity.diag_s": total(
            i for i in velocity if has_ancestor(i, lambda n: n.startswith("diagnostics."))),
        "potentials.velocity.ms_per_call": 1e3 * total(velocity) / len(velocity) if velocity else 0.0,
        "potentials.potential_s": total(named("potentials.potential_values")),
        "potentials.self_s": module_self("potentials"),
        "potentials.kernel_builds": trace["kernel_builds"],
        "solver.steps": steps,
        "solver.self_s": solver_self,
        "solver.step_ms": 1e3 * (solver_self + step_s) / steps if steps else 0.0,
        "solver.clipped_mass": sum(r[1] for r in runs),
        "diagnostics.records": sum(r[2] for r in runs),
        "diagnostics.self_s": module_self("diagnostics"),
        "burgers.steps": len(named("burgers.step_finite_volume")),
        "burgers.self_s": module_self("burgers", exclude=in_csv),
        "burgers.csv_s": total(named(CSV_WRITER)),
        "grids.self_s": module_self("grids"),
        "grids.bytes_written": trace["bytes_written"],
        "closed_forms.self_s": module_self("closed_forms"),
        "scenarios.self_s": module_self("scenarios"),
    }
    return values, problems
