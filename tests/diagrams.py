"""Arc diagrams for the tests: the ladders, seeded random draws, and the
half-edge oracle for `arc_diagram.closed_components`."""

from __future__ import annotations

from strandjoin.arc_diagram import ArcDiagram


def ladder(k: int, kind: str = "alpha", split: bool = False) -> ArcDiagram:
    """The rank-k interleaved ladder: x1..x2k on one arc, x_i matched with
    x_(i+k).  With split, x1 is an arc of its own: x1 | x2 ... x2k."""
    points = tuple(f"x{i}" for i in range(1, 2 * k + 1))
    arcs = (points[:1], points[1:]) if split else (points,)
    return ArcDiagram(arcs, {p: i % k + 1 for i, p in enumerate(points)}, kind)


def random_diagram(rng, max_rank: int = 3) -> ArcDiagram:
    """A seed-randomized well-formed arc diagram of rank <= max_rank: one to
    three arcs, alpha or beta.  It may be degenerate (closed_components > 0)."""
    k = rng.randint(1, max_rank)
    narcs = rng.randint(1, min(3, 2 * k))
    points = [f"p{i}" for i in range(1, 2 * k + 1)]
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, 2 * k), narcs - 1)) if narcs > 1 else []
    arcs, prev = [], 0
    for c in cuts + [2 * k]:
        arcs.append(tuple(points[prev:c]))
        prev = c
    order = [p for a in arcs for p in a]
    rng.shuffle(order)
    matching = {}
    for i in range(k):
        matching[order[2 * i]] = i + 1
        matching[order[2 * i + 1]] = i + 1
    return ArcDiagram(tuple(arcs), matching, rng.choice(("alpha", "beta")))


def closed_components_by_half_edges(z: ArcDiagram) -> int:
    """`closed_components`' oracle, on segments and their half-edges.

    The arcs are cut at every point into segments, each with two half-ends.
    Surgery on {p, q} joins the end that enters p to the end that leaves q,
    and the end that enters q to the end that leaves p.  The walks from the
    arcs' free ends visit every segment off a closed component; each walk
    from a segment they left unvisited is one closed component.
    """
    segments = []
    ends_at: dict = {}  # ("pt", p) -> {"in": half, "out": half}
    free_halves = []
    for ai, arc in enumerate(z.arcs):
        nodes = [("end", ai, 0)] + [("pt", p) for p in arc] + [("end", ai, 1)]
        for si, (a, b) in enumerate(zip(nodes, nodes[1:])):
            seg = (ai, si)
            segments.append(seg)
            for node, half in ((a, (seg, 0)), (b, (seg, 1))):
                if node[0] == "end":
                    free_halves.append(half)
                else:
                    side = "out" if half[1] == 0 else "in"
                    ends_at.setdefault(node, {})[side] = half
    mate: dict = {}
    for i in range(1, z.rank + 1):
        p, q = z.pair(i)
        hp, hq = ends_at[("pt", p)], ends_at[("pt", q)]
        for a, b in ((hp["in"], hq["out"]), (hq["in"], hp["out"])):
            mate[a] = b
            mate[b] = a
    visited: set = set()

    def walk(half) -> None:
        while True:
            seg, side = half
            if seg in visited:
                return
            visited.add(seg)
            other = (seg, 1 - side)
            if other not in mate:
                return
            half = mate[other]

    for start in free_halves:
        walk(start)
    closed = 0
    for seg in segments:
        if seg not in visited:
            closed += 1
            walk((seg, 0))
    return closed
