"""Seeded random arc diagrams, the off-ladder inputs of the tests' sweeps."""

from __future__ import annotations

from strandjoin.arc_diagram import ArcDiagram, validate


def random_diagram(rng, max_rank: int = 3) -> ArcDiagram:
    """A seed-randomized valid arc diagram of rank <= max_rank."""
    while True:
        k = rng.randint(1, max_rank)
        narcs = rng.randint(1, min(3, 2 * k))
        points = [f"p{i}" for i in range(1, 2 * k + 1)]
        rng.shuffle(points)
        cuts = sorted(rng.sample(range(1, 2 * k), narcs - 1)) if narcs > 1 else []
        arcs, prev = [], 0
        for c in cuts + [2 * k]:
            arcs.append(tuple(points[prev:c]))
            prev = c
        arcs = tuple(a for a in arcs if a)
        order = [p for a in arcs for p in a]
        rng.shuffle(order)
        matching = {}
        for i in range(k):
            matching[order[2 * i]] = i + 1
            matching[order[2 * i + 1]] = i + 1
        z = ArcDiagram(arcs, matching, rng.choice(("alpha", "beta")))
        if not validate(z):
            return z
