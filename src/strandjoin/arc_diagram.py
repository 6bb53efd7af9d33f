"""Arc diagrams: oriented arcs with 2k marked points matched in pairs.

An arc diagram parametrizes a sutured surface; here we keep only the
combinatorics (the arcs, the 2-to-1 matching, and the alpha/beta type).
The four variants of a diagram are generated by orientation reversal and
type switching.
"""

from __future__ import annotations

from .gf2 import Frozen


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

    def position(self, point) -> tuple[int, int]:
        """(arc index, index along the arc) of a point."""
        for i, arc in enumerate(self.arcs):
            if point in arc:
                return i, arc.index(point)
        raise KeyError(point)


def validate(z: ArcDiagram) -> list[str]:
    """Return a list of violations; empty means the diagram is well formed,
    though it may be degenerate (`closed_components`)."""
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
    return problems


def closed_components(z: ArcDiagram) -> int:
    """The number c of closed components left by surgery on every matched pair.

    Zarev (arXiv:0908.1106, section 2) asks that 0-surgery on all pairs leave
    no closed component, the surgery being the boundary of the oriented
    surface F(Z): one orientable 1-handle per pair, so the strand that arrives
    at p leaves from p's mate.  Naming each strand segment by the point it
    leaves, that is the map x -> mate(succ(x)), which ends at an arc's last
    point.  The walks from the arcs' starts reach every point off a closed
    component; the cycles among the points left are the closed components.
    A diagram with c > 0 is degenerate; the program still accepts it.
    """
    mate = {}
    for i in range(1, z.rank + 1):
        p, q = z.pair(i)
        mate[p], mate[q] = q, p
    succ = {a: b for arc in z.arcs for a, b in zip(arc, arc[1:])}
    seen: set = set()
    for arc in z.arcs:
        x = mate[arc[0]] if arc else None
        while x is not None:
            seen.add(x)
            x = mate[succ[x]] if x in succ else None
    c = 0
    for x in mate:
        if x not in seen:
            c += 1
            while x not in seen:
                seen.add(x)
                x = mate[succ[x]]
    return c


def reverse(z: ArcDiagram) -> ArcDiagram:
    """Reverse the orientation of every arc (the variant -Z)."""
    return ArcDiagram(tuple(tuple(reversed(a)) for a in z.arcs), z.matching, z.kind)


def flip_type(z: ArcDiagram) -> ArcDiagram:
    """Switch alpha <-> beta (the variant Z-bar)."""
    return ArcDiagram(z.arcs, z.matching, "beta" if z.kind == "alpha" else "alpha")


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


class InputError(ValueError):
    """Input the program cannot use: a file it cannot read, a diagram or
    descriptor it cannot parse, or a diagram a construction does not take."""


class ParseError(InputError):
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
