"""Planar nice Heegaard diagrams for twisting slices and caps, as an
independent combinatorial oracle against the algebraic models.

The Heegaard surface is modeled as one unit square per arc plus one handle
chart per matched pair, glued along marked top-edge intervals.  All curves
are straight segments with exact rational coordinates.  Intersections and
region complexes are computed from the geometry, and the rectangle and
strip counts from the regions and the points' order along their arcs,
never from the algebra.

Coordinates (per square with m marked points p_1..p_m in arc order):
  heights   h(p_i) = i/(m+1) on the left and right edges,
  top marks tau(p_i) = 1 - i/(m+1) (the top edge carries the reversed
  orientation), half-width eps = 1/(4(m+1)).
Alpha pieces run from (0, h(p)) to (tau(p)-eps, 1), beta pieces from
(1, h(p)) to (tau(p)+eps, 1), so two pieces cross in the square exactly
when they realize an upward moving strand.  Inside a handle the two curves
cross once.  A cap's beta circles are modeled by their handle crossings,
with the closing arc treated as disjoint from the rest of the diagram.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .arc_diagram import ArcDiagram, InputError, validate
from .gf2 import StructureError
from .strands import ABasisElem, enumerate_basis
from .ainf import ModuleStructure, check_structure

F = Fraction


def _seg_intersect(a1, a2, b1, b2):
    """Proper intersection point of two open segments, or None."""
    d1 = (a2[0] - a1[0], a2[1] - a1[1])
    d2 = (b2[0] - b1[0], b2[1] - b1[1])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        return None
    t = ((b1[0] - a1[0]) * d2[1] - (b1[1] - a1[1]) * d2[0]) / den
    s = ((b1[0] - a1[0]) * d1[1] - (b1[1] - a1[1]) * d1[0]) / den
    if not (0 < t < 1 and 0 < s < 1):
        return None
    return (a1[0] + t * d1[0], a1[1] + t * d1[1])


def _split_segments(segments) -> list:
    """Cut each segment at its crossings with the others and at endpoints on it.

    The tests run on integer coordinates: every endpoint is scaled by the
    common denominator of the chart (4(m+1) for a square of an m-point arc, 4
    for a handle), and a `Fraction` point is made only for a real crossing.
    """
    den = math.lcm(*(c.denominator for p1, p2, _ in segments for c in p1 + p2))
    scaled = [
        tuple(c.numerator * (den // c.denominator) for c in p1 + p2)
        for p1, p2, _ in segments
    ]
    pieces = []
    for (p1, p2, tag), a in zip(segments, scaled):
        ax, ay, dx, dy = a[0], a[1], a[2] - a[0], a[3] - a[1]
        cuts = {p1, p2}
        for (q1, q2, _), b in zip(segments, scaled):
            if b == a:
                continue
            ex, ey = b[2] - b[0], b[3] - b[1]
            cross = dx * ey - dy * ex
            if cross:
                wx, wy = b[0] - ax, b[1] - ay
                tn, sn = wx * ey - wy * ex, wx * dy - wy * dx
                if cross < 0:
                    cross, tn, sn = -cross, -tn, -sn
                if 0 < tn < cross and 0 < sn < cross:
                    t = Fraction(tn, cross)
                    cuts.add((p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1])))
            for q, qx, qy in ((q1, b[0], b[1]), (q2, b[2], b[3])):
                wx, wy = qx - ax, qy - ay
                if dx * wy == dy * wx and 0 < wx * dx + wy * dy < dx * dx + dy * dy:
                    cuts.add(q)
        fdx, fdy = p2[0] - p1[0], p2[1] - p1[1]
        ordered = sorted(cuts, key=lambda pt: (pt[0] - p1[0]) * fdx + (pt[1] - p1[1]) * fdy)
        pieces.extend((u, v, tag) for u, v in zip(ordered, ordered[1:]))
    return pieces


def _direction_key(half) -> tuple:
    """Counterclockwise order of a half-edge's direction: (quadrant, slope)."""
    (x1, y1), (x2, y2), _ = half
    dx, dy = x2 - x1, y2 - y1
    if dx > 0 and dy >= 0:
        q = 0
    elif dx <= 0 and dy > 0:
        q = 1
    elif dx < 0 and dy <= 0:
        q = 2
    else:
        q = 3
    # Only quadrants 1 and 3 hold vertical edges; each starts with them.
    return (q, dy / dx if dx else -math.inf)


_GLUE = ("glue", "handle-glue")
# The kinds of the two edges at a corner, a point where alpha meets beta.
_CORNER_KINDS = ({"alpha", "beta"}, {"alpha", "beta_circle"})


class Chart:
    """A planar chart: segments with tags, later assembled into faces."""

    def __init__(self, name: tuple):
        self.name = name
        self.segments: list = []  # (p1, p2, tag)

    def add(self, p1, p2, tag):
        self.segments.append((p1, p2, tag))


class NotDrawable(InputError):
    """A diagram that has no planar nice diagram here: a beta-type one."""


class PlanarDiagram:
    """A nice diagram built from squares and handle charts: of the twisting
    slice when cap is None, else of the cap whose elementary dividing set is
    the subset cap, with a beta circle at each pair outside it."""

    def __init__(self, z: ArcDiagram, cap=None):
        problems = validate(z)
        if problems:
            raise InputError(f"invalid arc diagram: {problems}")
        if z.kind != "alpha":
            raise NotDrawable("planar diagrams are constructed for alpha-type input")
        self.z = z
        self.cap = None if cap is None else frozenset(cap)
        pairs = range(1, z.rank + 1)
        self.circles = frozenset() if cap is None else frozenset(pairs) - self.cap
        self.match = z.match
        self.h: dict = {}
        self.tau: dict = {}
        self.eps: dict = {}
        self.pos: dict = {}  # point -> (arc index, index along the arc)
        for ai, arc in enumerate(z.arcs):
            m = len(arc)
            for i, p in enumerate(arc, start=1):
                self.h[p] = F(i, m + 1)
                self.tau[p] = 1 - F(i, m + 1)
                self.eps[p] = F(1, 4 * (m + 1))
                self.pos[p] = (ai, i)
        # handle i: bottom end at the globally-first point of the pair
        self.handle_ends: dict = {}
        for i in pairs:
            pts = sorted(z.pair(i), key=lambda p: z.position(p))
            self.handle_ends[i] = (pts[0], pts[1])
        self.points: dict = {}  # name -> (alpha object, beta object)
        self.coords: dict = {}  # name -> (chart, xy)
        self.point_at: dict = {}  # (chart, xy) -> name
        self._build_points()
        self.charts = self._build_charts()
        self.regions = self._build_regions()

    # -- intersection points ------------------------------------------------

    def _alpha_piece(self, p):
        return ((F(0), self.h[p]), (self.tau[p] - self.eps[p], F(1)))

    def _beta_piece(self, p):
        # The right edge carries the reversed orientation: marks at tau(p).
        return ((F(1), self.tau[p]), (self.tau[p] + self.eps[p], F(1)))

    def _build_points(self):
        z, match = self.z, self.match
        if self.cap is None:
            for ai, arc in enumerate(z.arcs):
                for a, b in itertools.combinations(arc, 2):
                    pt = _seg_intersect(*self._alpha_piece(a), *self._beta_piece(b))
                    if pt is None:
                        raise StructureError("expected crossing missing")
                    name = ("y", a, b)
                    self.points[name] = (("alpha", match[a]), ("beta", match[b]))
                    self.coords[name] = (("sq", ai), pt)
            for i in range(1, z.rank + 1):
                name = ("x", i)
                self.points[name] = (("alpha", i), ("beta", i))
                self.coords[name] = (("h", i), (F(1, 2), F(1, 2)))
        else:
            for i in sorted(self.circles):
                name = ("w", i)
                self.points[name] = (("alpha", i), ("beta_circle", i))
                self.coords[name] = (("h", i), (F(1, 2), F(1, 2)))
        self.point_at.update((at, name) for name, at in self.coords.items())

    # -- charts ----------------------------------------------------------------

    def _build_charts(self) -> list:
        z = self.z
        charts = []
        for ai, arc in enumerate(z.arcs):
            c = Chart(("sq", ai))
            one = F(1)
            c.add((F(0), F(0)), (one, F(0)), ("boundary",))
            c.add((F(0), F(0)), (F(0), one), ("boundary",))
            c.add((one, F(0)), (one, one), ("boundary",))
            # top edge split at attachment marks
            marks = [F(0), one]
            glue_info = []
            for p in arc:
                t, e = self.tau[p], self.eps[p]
                i = self.match[p]
                end = 0 if self.handle_ends[i][0] == p else 1
                cuts = [t - 2 * e, t - e, t + e, t + 2 * e]
                if i in self.circles:
                    cuts.append(t)
                marks.extend(cuts)
                # sub-interval -> (handle, end, relative span on the handle edge)
                glue_info.append((p, i, end, t, e))
            marks = sorted(set(marks))
            for m1, m2 in zip(marks, marks[1:]):
                tag = ("boundary",)
                for (p, i, end, t, e) in glue_info:
                    if t - 2 * e <= m1 and m2 <= t + 2 * e:
                        tag = ("glue", i, end, t, e)
                        break
                c.add((m1, one), (m2, one), tag)
            for p in arc:
                c.add(*self._alpha_piece(p), ("alpha", self.match[p]))
                if self.cap is None:
                    c.add(*self._beta_piece(p), ("beta", self.match[p]))
            charts.append(c)
        for i in range(1, z.rank + 1):
            c = Chart(("h", i))
            one = F(1)
            c.add((F(0), F(0)), (F(0), one), ("boundary",))
            c.add((one, F(0)), (one, one), ("boundary",))
            for y, end in ((F(0), 0), (one, 1)):
                cuts = [F(0), F(1, 4), F(3, 4), one]
                if i in self.circles:
                    cuts.append(F(1, 2))
                cuts = sorted(set(cuts))
                for m1, m2 in zip(cuts, cuts[1:]):
                    c.add((m1, y), (m2, y), ("handle-glue", i, end))
            c.add((F(1, 4), F(0)), (F(3, 4), one), ("alpha", i))
            if self.cap is None:
                c.add((F(3, 4), F(0)), (F(1, 4), one), ("beta", i))
            elif i in self.circles:
                c.add((F(1, 2), F(0)), (F(1, 2), one), ("beta_circle", i))
            charts.append(c)
        return charts

    # -- region complex -----------------------------------------------------------

    def _chart_faces(self, chart: Chart):
        """Faces of one chart's arrangement: cycles of (from, to, tag)
        half-edges, each traversed with the face on its left."""
        halves = []  # the twin of half-edge i is i ^ 1
        for a, b, tag in _split_segments(chart.segments):
            halves += [(a, b, tag), (b, a, tag)]
        out_edges: dict = {}
        for i, (a, _, _) in enumerate(halves):
            out_edges.setdefault(a, []).append(i)
        rank = {}
        for lst in out_edges.values():
            lst.sort(key=lambda i: _direction_key(halves[i]))
            rank.update((i, r) for r, i in enumerate(lst))
        faces = []
        seen = set()
        for start in range(len(halves)):
            cycle = []
            cur = start
            while cur not in seen:
                seen.add(cur)
                cycle.append(halves[cur])
                # turn to the clockwise neighbour of the reversed edge
                cur = out_edges[halves[cur][1]][rank[cur ^ 1] - 1]
            if sum(a[0] * b[1] - b[0] * a[1] for a, b, _ in cycle) > 0:
                faces.append(cycle)  # the outer face has nonpositive area
        return faces

    def _build_regions(self):
        """Regions: faces joined across glued edges.  Each region records its
        corners, whether it meets the boundary, its (chart, cycle) faces, and
        the points at its source and target corners, where a face traversed
        with the region on its left turns onto alpha and off it.  No corner
        lies on a glued edge, so both of its edges are in one face."""
        face_edges = []
        face_charts = []
        glue_faces: dict = {}  # glue key -> [face id]
        for chart in self.charts:
            for cycle in self._chart_faces(chart):
                fid = len(face_edges)
                face_edges.append(cycle)
                face_charts.append(chart.name)
                for e in cycle:
                    if e[2][0] in _GLUE:
                        glue_faces.setdefault(self._glue_key(e), []).append(fid)
        parent = list(range(len(face_edges)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for fids in glue_faces.values():
            for a, b in zip(fids, fids[1:]):
                parent[find(a)] = find(b)
        regions: dict = {}
        for fid, cycle in enumerate(face_edges):
            reg = regions.setdefault(
                find(fid), {"corners": [], "boundary": False, "faces": [], "sources": [], "targets": []}
            )
            reg["faces"].append((face_charts[fid], cycle))
            if any(e[2][0] == "boundary" for e in cycle):
                reg["boundary"] = True
            for e1, e2 in zip(cycle, cycle[1:] + cycle[:1]):
                if {e1[2][0], e2[2][0]} in _CORNER_KINDS:
                    corner = (face_charts[fid], e1[1])
                    reg["corners"].append(corner)
                    reg["sources" if e2[2][0] == "alpha" else "targets"].append(self.point_at.get(corner))
        return list(regions.values())

    def _glue_key(self, e):
        """A canonical key matching glued edge pieces across charts."""
        a, b = sorted(e[:2])
        tag = e[2]
        if tag[0] == "handle-glue":
            _, i, end = tag
            return ("g", i, end, a[0], b[0])
        _, i, end, t, eps = tag
        # map square-top x-positions onto the handle edge coordinate
        u1 = (a[0] - (t - 2 * eps)) / (4 * eps)
        u2 = (b[0] - (t - 2 * eps)) / (4 * eps)
        if end == 1:
            u1, u2 = 1 - u1, 1 - u2
        u1, u2 = sorted((u1, u2))
        return ("g", i, end, u1, u2)

    # -- niceness ------------------------------------------------------------------

    def check_nice(self) -> list:
        """Return violations of niceness; empty when every interior region is
        a bigon or rectangle."""
        problems = []
        for reg in self.regions:
            if reg["boundary"]:
                continue
            ncorners = len(reg["corners"])
            if ncorners not in (2, 4):
                problems.append(f"interior region with {ncorners} corners")
        return problems

    def all_regions_boundary(self) -> bool:
        return all(reg["boundary"] for reg in self.regions)

    # -- generators -------------------------------------------------------------------

    def enumerate_generators(self) -> list:
        """All point sets: at most one point per alpha/beta object, covering
        every beta circle.  Ordered by size, then by the points' positions
        in `repr` order."""
        pos = {n: k for k, n in enumerate(sorted(self.points, key=repr))}
        choices: dict = {}  # alpha object -> [no point, then each of its points]
        for n, (aobj, _) in self.points.items():
            choices.setdefault(aobj, [None]).append(n)
        circles = {b for _, b in self.points.values() if b[0] == "beta_circle"}
        picked = []
        for pick in itertools.product(*choices.values()):
            combo = [n for n in pick if n is not None]
            bobjs = {self.points[n][1] for n in combo}
            if len(bobjs) == len(combo) and circles <= bobjs:
                picked.append(sorted(combo, key=pos.get))
        picked.sort(key=lambda combo: (len(combo), [pos[n] for n in combo]))
        return [frozenset(combo) for combo in picked]

    # -- structure counting --------------------------------------------------------------

    def differential_table(self, gens) -> dict:
        """Count interior rectangle regions connecting generators.

        A rectangle needs no emptiness test: its faces hold no points but its
        four corners, and a point of g cannot sit at a target corner, whose
        alpha object a source corner of g already holds.
        """
        genset = set(gens)
        out = {g: set() for g in gens}
        for reg in self.regions:
            if reg["boundary"] or len(reg["corners"]) != 4:
                continue
            src, tgt = set(reg["sources"]), set(reg["targets"])
            if len(src) != 2 or len(tgt) != 2 or None in src | tgt:
                continue
            for g in gens:
                if src <= g:
                    new = (g - src) | tgt
                    if new in genset:
                        out[g].add(new)
        return out

    def action_tables(self, gens):
        """Boundary-strip action counts for every algebra basis element.

        A basis element with k moving strands acts through k simultaneous
        strips, one per strand; the shadows may overlap, and emptiness is
        measured against the stationary points of the generator.  The pairs
        its strands hold and its occupied pairs make up its right idempotent on
        the left and its left idempotent on the right, so it meets only the
        generators whose alpha (left) or beta (right) objects are that set.

        Returns (left, right): {(elem index, generator) -> set of outputs}.
        """
        am = enumerate_basis(self.z)
        genset = set(gens)
        tables = ({}, {})
        for side, table in enumerate(tables):
            by_obj = {g: {self.points[n][side][1]: n for n in g} for g in gens}
            holding: dict = {}  # object set -> its generators, in gens order
            for g in gens:
                holding.setdefault(frozenset(by_obj[g]), []).append(g)
            idem = am.right_idem if side == 0 else am.left_idem
            for e_idx, elem in enumerate(am.elems):
                if not elem.movers:
                    continue
                for g in holding.get(idem[e_idx], ()):
                    out = self._multi_strip_move(elem, g, by_obj[g], genset, side)
                    if out is not None:
                        table.setdefault((e_idx, g), set()).add(out)
        return tables

    def _multi_strip_move(self, elem, g, by_obj, genset, side):
        """Apply all strands of a basis element at once, or None.

        side 0 acts at the left edge through alpha objects, side 1 at the
        right edge through beta objects; by_obj maps g's objects on that
        side, elem's idempotent there, to g's points.  A strand (a, b) moves
        the point of g at b's pair on the left, y(b, c) or x, at a's pair on
        the right, y(c, a) or x, through a strip in the square from the edge
        marks of a and b, and through the handle too when the point is x,
        for which c is the held end itself.
        """
        moving, targets, strips = set(), set(), []
        for a, b in elem.movers:
            # the end of the strand whose pair g holds, and the other
            held, free = (b, a) if side == 0 else (a, b)
            name = by_obj[self.match[held]]
            if name[0] == "y" and name[1 + side] == held:
                tgt = name[: 1 + side] + (free,) + name[2 + side :]
                c = name[2 - side]
            elif name[0] == "x":
                tgt, c = ("y", a, b), held
            else:
                return None
            if tgt not in self.points:
                return None
            strips.append((side, self.pos[a], self.pos[b], self.pos[c]))
            moving.add(name)
            targets.add(tgt)
        if not self._strip_ok(g, moving, strips):
            return None
        new = frozenset((g - moving) | targets)
        return new if new in genset else None

    def _strip_ok(self, g, moving, strips) -> bool:
        """Whether no point of g outside `moving` lies in one of the strips.

        A strip (side, pos(a), pos(b), pos(c)) is bounded by the pieces of a
        and b on that side and the crossing piece of c.  From the left edge
        an alpha piece meets the beta pieces in falling arc order, from the
        right edge a beta piece meets the alpha pieces in rising order, and
        a position starts with its arc.  A handle chart holds only its own
        x, which is the moving point, so no x blocks.
        """
        for name in g - moving:
            if name[0] != "y":
                continue
            p, q = self.pos[name[1]], self.pos[name[2]]
            for side, a, b, c in strips:
                if (a <= p <= b and q >= c) if side == 0 else (a <= q <= b and p <= c):
                    return False
        return True


def build_twisting_slice_diagram(z: ArcDiagram) -> PlanarDiagram:
    d = PlanarDiagram(z)
    problems = d.check_nice()
    if problems:
        raise StructureError(f"slice diagram not nice: {problems}")
    return d


def build_cap_diagram(z: ArcDiagram, I) -> PlanarDiagram:
    return PlanarDiagram(z, I)


def generator_to_elem(d: PlanarDiagram, g) -> ABasisElem:
    movers = tuple(sorted((name[1], name[2]) for name in g if name[0] == "y"))
    occupied = frozenset(name[1] for name in g if name[0] == "x")
    return ABasisElem(movers, occupied)


def count_domains(d: PlanarDiagram) -> ModuleStructure:
    """The AA bimodule structure counted from the diagram's domains.

    The count is not validated here; callers check it with `check_structure`,
    as `compare_with_algebra` does.
    """
    am = enumerate_basis(d.z)
    # Point names sort the same under every hash seed; set reprs do not.
    gens = tuple(sorted(d.enumerate_generators(), key=sorted))
    lidem = {g: frozenset(d.points[n][0][1] for n in g) for g in gens}
    ridem = {g: frozenset(d.points[n][1][1] for n in g) for g in gens}
    # A cap's regions all meet the boundary and its w-points never move, so
    # its table comes out empty.
    left, right = d.action_tables(gens)
    table = {((), g, ()): {(None, y, None) for y in outs} for g, outs in d.differential_table(gens).items() if outs}
    table.update({((e,), g, ()): {(None, y, None) for y in outs} for (e, g), outs in left.items()})
    table.update({((), g, (e,)): {(None, y, None) for y in outs} for (e, g), outs in right.items()})
    return ModuleStructure("AA", am, am, gens, lidem, ridem, table, name="count(slice)" if d.cap is None else "count(cap)")


class ComparisonVerdict:
    def __init__(self, isomorphic: bool, witness: str = ""):
        self.isomorphic, self.witness = isomorphic, witness


def compare_with_algebra(d: PlanarDiagram, m: ModuleStructure) -> ComparisonVerdict:
    """Match diagram generators with module generators and compare all tables."""
    if d.cap is not None:  # one generator, all operations vanish, idempotent = complement
        gens = d.enumerate_generators()
        if len(gens) != 1 or len(m.gens) != 1:
            return ComparisonVerdict(False, "cap should have exactly one generator")
        occ = frozenset(d.points[n][0][1] for n in gens[0])
        mg = m.gens[0]
        idem = m.lidem[mg] if m.left_alg is not None else m.ridem[mg]
        if occ != idem:
            return ComparisonVerdict(False, f"cap idempotent mismatch: {occ} vs {idem}")
        if m.table or not d.all_regions_boundary():
            return ComparisonVerdict(False, "cap structure not trivial")
        return ComparisonVerdict(True)
    am = enumerate_basis(d.z)
    counted = count_domains(d)
    bad = check_structure(counted)
    if bad is not None:
        argsL, g, argsR = bad
        where = f"({argsL}, {generator_to_elem(d, g)!r}, {argsR})"
        return ComparisonVerdict(False, f"counted model fails its structure equation at {where}")
    bij = {}
    for g in counted.gens:
        elem = generator_to_elem(d, g)
        if elem not in am.index:
            return ComparisonVerdict(False, f"generator {g} has no algebra image")
        bij[g] = am.index[elem]
    if len(set(bij.values())) != len(bij) or len(bij) != len(m.gens):
        return ComparisonVerdict(False, "generator counts differ")
    for g in counted.gens:
        if counted.lidem[g] != m.lidem[bij[g]] or counted.ridem[g] != m.ridem[bij[g]]:
            return ComparisonVerdict(False, f"idempotent mismatch at {g}")
    mapped = {}
    for (argsL, g, argsR), outs in counted.table.items():
        key = (argsL, bij[g], argsR)
        mapped[key] = frozenset(bij[y] for _, y, _ in outs)
    theirs = {k: frozenset(y for _, y, _ in v) for k, v in m.table.items()}
    if mapped != theirs:
        for k in set(mapped) | set(theirs):
            if mapped.get(k, frozenset()) != theirs.get(k, frozenset()):
                return ComparisonVerdict(
                    False, f"table mismatch at {k}: {mapped.get(k)} vs {theirs.get(k)}"
                )
    return ComparisonVerdict(True)
