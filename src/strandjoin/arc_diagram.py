"""Arc diagrams: oriented arcs with 2k marked points matched in pairs.

An arc diagram parametrizes a sutured surface; here we keep only the
combinatorics (the arcs, the 2-to-1 matching, and the alpha/beta type) plus
numerical surface statistics.  The four variants of a diagram are generated
by orientation reversal and type switching.
"""

from __future__ import annotations

from .gf2 import Frozen


class SurfaceStats(Frozen):
    __slots__ = _fields = ("euler_characteristic", "num_sutures")

    def __init__(self, euler_characteristic: int, num_sutures: int):
        self._init(euler_characteristic, num_sutures)


class ArcDiagram(Frozen):
    """Arcs are ordered tuples of point names; matching maps each point to a pair index 1..k."""

    __slots__ = _fields = ("arcs", "matching", "kind")  # matching: sorted (point, pair-index)

    def __init__(self, arcs, matching, kind: str = "alpha"):
        if isinstance(matching, dict):
            matching = matching.items()
        self._init(tuple(tuple(a) for a in arcs), tuple(sorted(matching)), kind)

    @property
    def match(self) -> dict:
        return dict(self.matching)

    @property
    def points(self) -> tuple:
        return tuple(p for arc in self.arcs for p in arc)

    @property
    def rank(self) -> int:
        return max((i for _, i in self.matching), default=0)

    def pair(self, i: int) -> tuple:
        return tuple(p for p, j in self.matching if j == i)

    def pair_of(self, point) -> int:
        return self.match[point]

    def position(self, point) -> tuple[int, int]:
        """(arc index, index along the arc) of a point."""
        for i, arc in enumerate(self.arcs):
            if point in arc:
                return i, arc.index(point)
        raise KeyError(point)

    def before(self, p, q) -> bool:
        """True iff p and q lie on the same arc with p strictly before q."""
        ai, pi = self.position(p)
        aj, qi = self.position(q)
        return ai == aj and pi < qi


def validate(z: ArcDiagram) -> list[str]:
    """Return a list of violations; empty means the diagram is valid."""
    problems: list[str] = []
    pts = list(z.points)
    if len(pts) != len(set(pts)):
        problems.append("duplicate point identifiers across arcs")
    if z.kind not in ("alpha", "beta"):
        problems.append(f"unknown kind {z.kind!r}")
    match = z.match
    if set(match) != set(pts):
        problems.append("matching domain differs from the set of marked points")
    by_pair: dict[int, list] = {}
    for p, i in z.matching:
        by_pair.setdefault(i, []).append(p)
    k = len(by_pair)
    if by_pair and sorted(by_pair) != list(range(1, k + 1)):
        problems.append("pair indices are not 1..k")
    for i, ps in sorted(by_pair.items()):
        if len(ps) != 2:
            problems.append(f"matching not 2-to-1: pair {i} has {len(ps)} points")
    if problems:
        return problems
    if _has_closed_component(z):
        problems.append("0-surgery on matched pairs produces a closed component")
    return problems


def _has_closed_component(z: ArcDiagram) -> bool:
    """Check the 1-manifold obtained by 0-surgery on each matched pair.

    Surgery on {p, q} cuts the arcs at both points, leaving four loose ends
    (the sides before/after p and q), and reglues them pairwise away from the
    original configuration.  There are two such regluings per pair (crosswise
    and same-side); the diagram is accepted when some choice of regluing, one
    per pair, produces no closed components.  Both canonical small diagrams
    (an adjacent pair on one arc, an interleaved rank-2 pair) are valid under
    exactly one of the two regluings each, so the choice must be per pair.
    """
    import itertools

    # Segments between consecutive cut points; half-ends labeled by the
    # bounding node and incidence side.
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
    pairs = [z.pair(i) for i in range(1, z.rank + 1)]
    if not segments:
        return False

    def closed_exists(choice: tuple[bool, ...]) -> bool:
        mate: dict = {}
        for (p, q), crosswise in zip(pairs, choice):
            hp, hq = ends_at[("pt", p)], ends_at[("pt", q)]
            if crosswise:
                links = [(hp["in"], hq["out"]), (hq["in"], hp["out"])]
            else:
                links = [(hp["in"], hq["in"]), (hp["out"], hq["out"])]
            for a, b in links:
                mate[a] = b
                mate[b] = a
        visited = set()
        for start in free_halves:
            half = start
            while True:
                seg, side = half
                if seg in visited:
                    break
                visited.add(seg)
                other = (seg, 1 - side)
                if other not in mate:
                    break
                half = mate[other]
        return len(visited) != len(segments)

    return all(
        closed_exists(choice)
        for choice in itertools.product((True, False), repeat=len(pairs))
    )


def reverse(z: ArcDiagram) -> ArcDiagram:
    """Reverse the orientation of every arc (the variant -Z)."""
    return ArcDiagram(tuple(tuple(reversed(a)) for a in z.arcs), z.matching, z.kind)


def flip_type(z: ArcDiagram) -> ArcDiagram:
    """Switch alpha <-> beta (the variant Z-bar)."""
    return ArcDiagram(z.arcs, z.matching, "beta" if z.kind == "alpha" else "alpha")


def surface_stats(z: ArcDiagram) -> SurfaceStats:
    return SurfaceStats(
        euler_characteristic=len(z.arcs) - z.rank,
        num_sutures=2 * len(z.arcs),
    )


def serialize(z: ArcDiagram) -> str:
    lines = [f"type: {z.kind}"]
    for arc in z.arcs:
        lines.append("arc: " + " ".join(str(p) for p in arc))
    by_pair: dict[int, list] = {}
    for p, i in z.matching:
        by_pair.setdefault(i, []).append(p)
    for i in sorted(by_pair):
        ps = sorted(by_pair[i], key=lambda p: z.points.index(p))
        lines.append(f"match {i}: " + " ".join(str(p) for p in ps))
    return "\n".join(lines) + "\n"


class ParseError(ValueError):
    pass


def parse(text: str) -> ArcDiagram:
    """Parse the line-based text format; raises ParseError with line numbers."""
    arcs: list[tuple] = []
    matching: dict = {}
    kind = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("type:"):
            if kind is not None:
                raise ParseError(f"line {lineno}: duplicate type line")
            kind = line[len("type:"):].strip()
            if kind not in ("alpha", "beta"):
                raise ParseError(f"line {lineno}: type must be alpha or beta")
        elif line.startswith("arc:"):
            pts = line[len("arc:"):].split()
            if not pts:
                raise ParseError(f"line {lineno}: empty arc")
            arcs.append(tuple(pts))
        elif line.startswith("match"):
            head, _, rest = line.partition(":")
            try:
                idx = int(head[len("match"):].strip())
            except ValueError as e:
                raise ParseError(f"line {lineno}: bad match index") from e
            pts = rest.split()
            if len(pts) != 2:
                raise ParseError(f"line {lineno}: match line needs exactly 2 points")
            for p in pts:
                if p in matching:
                    raise ParseError(f"line {lineno}: point {p} matched twice")
                matching[p] = idx
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    if kind is None:
        raise ParseError("missing type line")
    return ArcDiagram(tuple(arcs), matching, kind)


# Canonical test diagrams: the smallest diagrams exhibiting idempotents,
# moving strands, and crossings respectively.
Z0 = ArcDiagram((), {}, "alpha")
Z1 = ArcDiagram((("a1", "a2"),), {"a1": 1, "a2": 1}, "alpha")
Z2 = ArcDiagram(
    (("a1", "a2", "a3", "a4"),),
    {"a1": 1, "a3": 1, "a2": 2, "a4": 2},
    "alpha",
)


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
