"""Workload definitions: seeded arc diagrams and the operation list of each workload.

Every diagram is an interleaved "ladder" on one arc or its beta-type twin:
points x_1 .. x_2k with x_i matched to x_{i+k}.  Rank 1 and 2 are the
canonical Z1 and Z2, rank 3 and 4 the ladder diagrams of the ROADMAP.  The
seed draws the point labels and the order of the match lines, so the program
parses a different text each time while the algebra, and so the amount of
work, stays the same; in `validate-z2` it also draws the module descriptors.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, replace

from checks import strand_basis


@dataclass(frozen=True)
class Diagram:
    name: str  # short key such as "R3"
    kind: str  # "alpha" or "beta"
    points: tuple  # point labels along the single arc
    pairs: tuple  # (p, q) of matched points, pair i+1 at index i
    line_order: tuple  # order in which the match lines are written
    path: str = ""  # where the text file was written

    def text(self) -> str:
        lines = [f"type: {self.kind}", "arc: " + " ".join(self.points)]
        for i in self.line_order:
            p, q = self.pairs[i]
            lines.append(f"match {i + 1}: {p} {q}")
        return "\n".join(lines) + "\n"


def ladder(name: str, k: int, kind: str, rng: random.Random) -> Diagram:
    """The rank-k interleaved ladder with seeded labels and match-line order."""
    letters = "abcdefghjkmnpqrstuvwxyz"
    numbers = rng.sample(range(1, 1000), 2 * k)
    points = tuple(f"{rng.choice(letters)}{n}" for n in numbers)
    pairs = tuple((points[i], points[i + k]) for i in range(k))
    order = list(range(k))
    rng.shuffle(order)
    return Diagram(name, kind, points, pairs, tuple(order))


def subsets(k: int) -> list[frozenset]:
    return [
        frozenset(s) for r in range(k + 1) for s in itertools.combinations(range(1, k + 1), r)
    ]


def label(s) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command or a library call, run in a fresh process."""

    kind: str  # "cli" or "lib"
    args: tuple  # CLI argv, or (function name, diagram path, descriptors...)
    check: str  # name of the output check in checks.py
    diagram: str  # key of the diagram the operation runs on

    @property
    def label(self) -> str:
        """The operation with diagram files named by base name, the same in every checkout."""
        args = " ".join(os.path.basename(a) if a.endswith(".arcd") else a for a in self.args)
        return args if self.kind == "cli" else "lib " + args

    def spec(self) -> dict:
        return {"kind": self.kind, "args": list(self.args)}


def _cli(diagram: Diagram, command: str, *rest: str, seed: int | None = None) -> Op:
    head = ("--seed", str(seed)) if seed is not None else ()
    return Op("cli", head + (command, diagram.path) + rest, command, diagram.name)


def _lib(diagram: Diagram, fn: str, *descs: str) -> Op:
    return Op("lib", (fn, diagram.path) + descs, "verdict", diagram.name)


def _modules_for_m(k: int) -> list[str]:
    return [f"{kind}:{label(s)}" for s in subsets(k) for kind in ("amod", "elementary:A")]


def _idempotent_blocks(diagram: Diagram) -> set:
    """The (left, right) idempotent pairs that carry basis elements."""
    pair = {p: i + 1 for i, pq in enumerate(diagram.pairs) for p in pq}
    return {
        (occ | {pair[s] for s, _ in movers}, occ | {pair[t] for _, t in movers})
        for movers, occ in strand_basis(diagram)
    }


def _validate_z2(seed: int, dg: dict) -> list[Op]:
    z1, z2 = dg["Z1"], dg["Z2"]
    rng = random.Random(f"validate-z2:{seed}")
    subs = subsets(2)
    full = frozenset((1, 2))
    blocks = _idempotent_blocks(z2)
    # Subsets I for which elementary:D:{I} meets M's left idempotents, so the
    # join's domain is not empty: amod:{K} has generators with right
    # idempotent K, elementary:A:{K} the one generator over the complement.
    meets = {f"amod:{label(K)}": [L for L in subs if (L, K) in blocks] for K in subs}
    meets.update({f"elementary:A:{label(K)}": [full - K] for K in subs})

    def join_args(m: str) -> tuple:
        return (f"elementary:D:{label(rng.choice(meets[m]))}", m,
                f"elementary:D:{label(rng.choice(meets[m]))}")

    ops = [_cli(z2, "check", "all", seed=seed), _cli(z1, "check", "all", seed=seed)]
    ops += [_cli(z2, "join", *join_args(m)) for m in _modules_for_m(2)]
    ops.append(_cli(z2, "nice", "slice"))
    ops += [_cli(z2, "nice", f"cap:{label(s)}") for s in subs]
    # The library verdicts, which no CLI command reaches, on two seeded
    # modules of each family; the identity check needs U's complement among
    # M's left idempotents.
    for family in ("amod", "elementary:A"):
        for K in rng.sample(subs, 2):
            ops.append(_lib(z2, "join_symmetry_verdict", *join_args(f"{family}:{label(K)}")))
        for K in rng.sample(subs, 2):
            m = f"{family}:{label(K)}"
            u = rng.choice([full - L for L in meets[m]])
            ops.append(_lib(z2, "join_identity_check", f"elementary:D:{label(u)}", m))
    return ops


def _session_r3(seed: int, dg: dict) -> list[Op]:
    r3, r3b = dg["R3"], dg["R3b"]
    ops = [_cli(r3, "double", m) for m in _modules_for_m(3)]
    ops.append(_cli(r3, "blocks"))
    ops += [_cli(r3, "nice", f"cap:{label(s)}") for s in subsets(3)]
    ops += [_cli(r3, "check", "dga", seed=seed), _cli(r3, "check", "variants", seed=seed)]
    ops += [_cli(r3b, "blocks"), _cli(r3b, "check", "variants", seed=seed)]
    return ops


def _tables_r4(seed: int, dg: dict) -> list[Op]:
    r4, r3 = dg["R4"], dg["R3"]
    # Each `algebra` dump precedes the `blocks` of the same diagram: the block
    # check reads the differential from it.
    return [_cli(r4, "algebra"), _cli(r4, "blocks"), _cli(r3, "algebra"), _cli(r3, "blocks")]


# name -> (the diagrams it needs as (key, rank, type), operation-list builder);
# why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    "validate-z2": ((("Z1", 1, "alpha"), ("Z2", 2, "alpha")), _validate_z2),
    "session-r3": ((("R3", 3, "alpha"), ("R3b", 3, "beta")), _session_r3),
    "tables-r4": ((("R4", 4, "alpha"), ("R3", 3, "alpha")), _tables_r4),
}


def build(workload: str, seed: int, workdir: str) -> tuple[dict, list[Op]]:
    """Write the seeded diagram files under workdir; return them and the operation list."""
    specs, builder = WORKLOADS[workload]
    rng = random.Random(f"diagrams:{seed}")
    diagrams = {}
    os.makedirs(workdir, exist_ok=True)
    for key, k, kind in specs:
        d = ladder(key, k, kind, rng)
        path = os.path.join(workdir, f"{key}.arcd")
        with open(path, "w") as fh:
            fh.write(d.text())
        diagrams[key] = replace(d, path=path)
    return diagrams, builder(seed, diagrams)
