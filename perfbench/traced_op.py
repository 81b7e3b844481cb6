"""Run one scenario config in-process with every public function of the
vortexlab package wrapped in a timing span, from outside the program.

    PYTHONPATH=src python3 perfbench/traced_op.py <config.json> <outdir> <spans.json>

A function is wrapped once and the wrapper is bound in every module namespace
that binds the original (``velocity_from_values`` is bound in ``solver``,
``diagnostics``, ``potentials`` and the package), so calls made through any
of those names are recorded.  Private helpers (``_advance``, ``_stable_dt``,
``_make_record``, ...) are not wrapped; their time is their caller's self time.

Spans are kept in memory and written once, at the end, as JSON:
``{"op": id, "names": [...], "spans": [[name index, start, end, parent], ...],
"runs": [[steps, clipped mass, records], ...], "kernel_builds": n}``.
Parent -1 marks the root span ``op``.  Exit code 0 when every check of the
report passes, 1 otherwise.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from pathlib import Path
from time import perf_counter

PACKAGE = "vortexlab"


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent]
        self.stack = [-1]
        self.runs = []  # one [steps, clipped_mass, records] per solver.run

    def wrap(self, name, fn, on_return=None):
        key = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, perf_counter(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def instrument(self, modules):
        """Replace every public package function in each module namespace by
        one shared wrapper per function."""
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.removeprefix(PACKAGE + '.')}.{obj.__qualname__}"
                    hook = self._record_run if name == "solver.run" else None
                    wrappers[id(obj)] = self.wrap(name, obj, hook)
                setattr(mod, attr, wrappers[id(obj)])

    def _record_run(self, traj):
        self.runs.append([traj.steps, traj.clipped_mass, len(traj.records)])


def main(config_path: str, outdir: str, spans_path: str) -> int:
    import vortexlab  # noqa: F401  (loads every submodule)
    from vortexlab import potentials, scenarios

    config = json.loads(Path(config_path).read_text())
    spec = scenarios.ScenarioSpec(name=config["scenario"], params=config.get("params", {}), outdir=outdir)
    tracer = Tracer()
    tracer.instrument([m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")])
    result = tracer.wrap("op", scenarios.run_scenario)(spec)
    Path(spans_path).write_text(json.dumps({
        "op": os.getpid(),
        "names": tracer.names,
        "spans": tracer.spans,
        "runs": tracer.runs,
        "kernel_builds": potentials._kernel_table.cache_info().misses,
    }))
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
