"""Compare two output trees of `vortexlab.cli run` file by file and print one line per file.

    python tools/diff_outputs.py <base outdir> <head outdir>

JSON files are compared without their wall times (`elapsed_s`, `wall_time_s`), every
other file byte for byte.  A file found in only one tree is listed as such.  The exit
code is always 0: a change may move rounding on purpose, so the lines are a log.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

WALL_TIMES = ("elapsed_s", "wall_time_s")


def _json(path: Path) -> str:
    doc = json.loads(path.read_text())
    for key in WALL_TIMES:
        doc.pop(key, None)
    return json.dumps(doc, sort_keys=True)


def main(base: str, head: str) -> int:
    trees = Path(base), Path(head)
    files = sorted({p.relative_to(tree) for tree in trees for p in tree.rglob("*") if p.is_file()})
    same = 0
    for name in files:
        a, b = (tree / name for tree in trees)
        if not (a.is_file() and b.is_file()):
            verdict = f"only in {'base' if a.is_file() else 'head'}"
        elif name.suffix == ".json":
            verdict = "identical" if _json(a) == _json(b) else "differs"
        else:
            verdict = "identical" if a.read_bytes() == b.read_bytes() else "differs"
        same += verdict == "identical"
        print(f"{verdict:>12}  {name}")
    print(f"{same} of {len(files)} files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
