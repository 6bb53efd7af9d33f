"""Replay CLI commands against recorded digests of their exit code and stdout.

`cli_golden.json` maps each command, written with a diagram name (Z1, Z2,
R3) in place of the diagram path, to the sha256 of "<exit code>\\n<stdout>".
The digests pin the output of refactors to be byte-identical.  After a
change that alters output on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json

and say in the change log which commands changed and why.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import combinations

from strandjoin.arc_diagram import Z1, Z2, ArcDiagram, serialize
from strandjoin.cli import run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

# The rank-3 interleaved ladder: x1..x6 on one arc, x_i matched with x_{i+3}.
R3 = ArcDiagram(
    (("x1", "x2", "x3", "x4", "x5", "x6"),),
    {"x1": 1, "x4": 1, "x2": 2, "x5": 2, "x3": 3, "x6": 3},
    "alpha",
)
DIAGRAMS = {"Z1": Z1, "Z2": Z2, "R3": R3}


def _subsets(k: int) -> list[str]:
    return [
        "{" + ",".join(str(i) for i in s) + "}"
        for r in range(k + 1)
        for s in combinations(range(1, k + 1), r)
    ]


def commands() -> list[tuple]:
    """Every recorded command, as argv with a diagram name in the diagram slot."""
    cmds = []
    for name, k in (("Z1", 1), ("Z2", 2)):
        subsets = _subsets(k)
        ms = [f"{form}{s}" for s in subsets for form in ("amod:", "elementary:A:")]
        for u in subsets:
            for m in ms:
                for v in subsets:
                    cmds.append(("join", name, f"elementary:D:{u}", m, f"elementary:D:{v}"))
        cmds.append(("check", name, "all"))
        cmds.append(("blocks", name))
        cmds.append(("nice", name, "slice"))
        cmds.extend(("nice", name, f"cap:{s}") for s in subsets)
    for name, k in (("Z1", 1), ("Z2", 2), ("R3", 3)):
        for s in _subsets(k):
            for form in ("amod:", "elementary:A:"):
                cmds.append(("double", name, f"{form}{s}"))
    cmds.extend(("check", "R3", suite) for suite in ("structures", "sfh", "homotopy"))
    cmds.append(("nice", "R3", "slice"))
    cmds.extend(("nice", "R3", f"cap:{s}") for s in _subsets(3))
    return cmds


def digest(cmd: tuple, paths: dict) -> str:
    argv = [cmd[0], paths[cmd[1]], *cmd[2:]]
    buf = io.StringIO()
    rc = run(argv, buf)
    return hashlib.sha256(f"{rc}\n{buf.getvalue()}".encode()).hexdigest()


def _write_diagrams(directory: str) -> dict:
    paths = {}
    for name, z in DIAGRAMS.items():
        paths[name] = os.path.join(directory, f"{name}.arcd")
        with open(paths[name], "w") as fh:
            fh.write(serialize(z))
    return paths


def test_cli_output_matches_recorded_digests(tmp_path):
    with open(GOLDEN) as fh:
        recorded = json.load(fh)
    paths = _write_diagrams(str(tmp_path))
    cmds = commands()
    assert sorted(recorded) == sorted(" ".join(c) for c in cmds)
    changed = [" ".join(c) for c in cmds if digest(c, paths) != recorded[" ".join(c)]]
    assert not changed, f"{len(changed)} commands changed output, first: {changed[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        paths = _write_diagrams(d)
        table = {" ".join(c): digest(c, paths) for c in commands()}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
