"""Planar nice Heegaard diagrams for twisting slices and caps, as an
independent combinatorial oracle against the algebraic models.

The Heegaard surface is modeled as one unit square per arc plus one handle
chart per matched pair, glued along marked top-edge intervals.  All curves
are straight segments with exact rational coordinates; intersections,
region complexes, and the rectangle/strip counts are computed from the
geometry, never from the algebra.

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
from dataclasses import dataclass, field
from fractions import Fraction

from .arc_diagram import ArcDiagram, validate
from .strands import ABasisElem, enumerate_basis
from .ainf import ModuleStructure, _add, check_structure

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


def _on_segment(p, a, b) -> bool:
    """Whether p lies strictly inside segment ab."""
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    if cross != 0:
        return False
    dot = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
    sq = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    return 0 < dot < sq


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


def _point_in_polygon(p, poly) -> bool:
    """Strict interior test by exact ray crossing (horizontal ray to +x)."""
    x, y = p
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if _on_segment(p, poly[i], poly[(i + 1) % n]) or p == poly[i]:
            return False
        if (y1 > y) != (y2 > y):
            xin = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if xin > x:
                inside = not inside
    return inside


@dataclass
class Chart:
    """A planar chart: segments with tags, later assembled into faces."""

    name: tuple
    segments: list = field(default_factory=list)  # (p1, p2, tag)

    def add(self, p1, p2, tag):
        self.segments.append((p1, p2, tag))


class PlanarDiagram:
    """A nice diagram built from squares and handle charts."""

    def __init__(self, z: ArcDiagram, family: str, cap_subset=None):
        problems = validate(z)
        if problems:
            raise ValueError(f"invalid arc diagram: {problems}")
        if z.kind != "alpha":
            raise ValueError("planar diagrams are constructed for alpha-type input")
        self.z = z
        self.family = family
        self.cap_subset = frozenset(cap_subset) if cap_subset is not None else None
        self.h: dict = {}
        self.tau: dict = {}
        self.eps: dict = {}
        self.arc_of: dict = {}
        for ai, arc in enumerate(z.arcs):
            m = len(arc)
            for i, p in enumerate(arc, start=1):
                self.h[p] = F(i, m + 1)
                self.tau[p] = 1 - F(i, m + 1)
                self.eps[p] = F(1, 4 * (m + 1))
                self.arc_of[p] = ai
        # handle i: bottom end at the globally-first point of the pair
        self.handle_ends: dict = {}
        for i in range(1, z.rank + 1):
            pts = sorted(z.pair(i), key=lambda p: z.position(p))
            self.handle_ends[i] = (pts[0], pts[1])
        self.points: dict = {}  # name -> (alpha object, beta object)
        self.coords: dict = {}  # name -> (chart, xy)
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
        z = self.z
        if self.family == "slice":
            for ai, arc in enumerate(z.arcs):
                for a, b in itertools.combinations(arc, 2):
                    pt = _seg_intersect(*self._alpha_piece(a), *self._beta_piece(b))
                    if pt is None:
                        raise AssertionError("expected crossing missing")
                    name = ("y", a, b)
                    self.points[name] = (("alpha", z.pair_of(a)), ("beta", z.pair_of(b)))
                    self.coords[name] = (("sq", ai), pt)
            for i in range(1, z.rank + 1):
                name = ("x", i)
                self.points[name] = (("alpha", i), ("beta", i))
                self.coords[name] = (("h", i), (F(1, 2), F(1, 2)))
        else:
            for i in range(1, z.rank + 1):
                if i in self.cap_subset:
                    continue
                name = ("w", i)
                self.points[name] = (("alpha", i), ("beta_circle", i))
                self.coords[name] = (("h", i), (F(1, 2), F(1, 2)))

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
                i = z.pair_of(p)
                end = 0 if self.handle_ends[i][0] == p else 1
                cuts = [t - 2 * e, t - e, t + e, t + 2 * e]
                if self.family == "cap" and i not in self.cap_subset:
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
                c.add(*self._alpha_piece(p), ("alpha", z.pair_of(p)))
                if self.family == "slice":
                    c.add(*self._beta_piece(p), ("beta", z.pair_of(p)))
            charts.append(c)
        for i in range(1, z.rank + 1):
            c = Chart(("h", i))
            one = F(1)
            c.add((F(0), F(0)), (F(0), one), ("boundary",))
            c.add((one, F(0)), (one, one), ("boundary",))
            for y, end in ((F(0), 0), (one, 1)):
                cuts = [F(0), F(1, 4), F(3, 4), one]
                if self.family == "cap" and i not in self.cap_subset:
                    cuts.append(F(1, 2))
                cuts = sorted(set(cuts))
                for m1, m2 in zip(cuts, cuts[1:]):
                    c.add((m1, y), (m2, y), ("handle-glue", i, end))
            c.add((F(1, 4), F(0)), (F(3, 4), one), ("alpha", i))
            if self.family == "slice":
                c.add((F(3, 4), F(0)), (F(1, 4), one), ("beta", i))
            else:
                if i not in self.cap_subset:
                    c.add((F(1, 2), F(0)), (F(1, 2), one), ("beta_circle", i))
            charts.append(c)
        return charts

    # -- region complex -----------------------------------------------------------

    def _chart_faces(self, chart: Chart):
        """Faces of one chart's arrangement, with tagged boundary edges."""
        pieces = _split_segments(chart.segments)
        # half-edge structure
        out_edges: dict = {}
        halves = []
        for idx, (a, b, tag) in enumerate(pieces):
            halves.append({"from": a, "to": b, "tag": tag, "id": 2 * idx})
            halves.append({"from": b, "to": a, "tag": tag, "id": 2 * idx + 1})
        for h in halves:
            out_edges.setdefault(h["from"], []).append(h)

        for v, lst in out_edges.items():
            def full_key(h):
                dx = h["to"][0] - h["from"][0]
                dy = h["to"][1] - h["from"][1]
                if dx > 0 and dy >= 0:
                    q = 0
                elif dx <= 0 and dy > 0:
                    q = 1
                elif dx < 0 and dy <= 0:
                    q = 2
                else:
                    q = 3
                slope = dy / dx if dx != 0 else None
                if q in (0, 2):
                    s = slope if slope is not None else F(10**9)
                else:
                    s = slope if slope is not None else F(-10**9)
                return (q, s)

            lst.sort(key=full_key)
        twin = {}
        for h in halves:
            twin[h["id"]] = h["id"] ^ 1
        by_id = {h["id"]: h for h in halves}

        def next_half(h):
            v = h["to"]
            lst = out_edges[v]
            rev = by_id[twin[h["id"]]]
            i = next(j for j, k in enumerate(lst) if k["id"] == rev["id"])
            return lst[(i - 1) % len(lst)]

        faces = []
        seen = set()
        for h in halves:
            if h["id"] in seen:
                continue
            cycle = []
            cur = h
            while cur["id"] not in seen:
                seen.add(cur["id"])
                cycle.append(cur)
                cur = next_half(cur)
            area2 = sum(
                e["from"][0] * e["to"][1] - e["to"][0] * e["from"][1] for e in cycle
            )
            if area2 <= 0:
                continue  # outer face
            faces.append(cycle)
        return faces

    def _build_regions(self):
        face_edges = []
        face_charts = []
        glue_edge_owner: dict = {}
        for chart in self.charts:
            for cycle in self._chart_faces(chart):
                fid = len(face_edges)
                face_edges.append(cycle)
                face_charts.append(chart.name)
                for e in cycle:
                    tag = e["tag"]
                    if tag[0] in ("glue", "handle-glue"):
                        key = self._glue_key(chart.name, e)
                        glue_edge_owner.setdefault(key, []).append(fid)
        parent = list(range(len(face_edges)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i, j):
            parent[find(i)] = find(j)

        for key, fids in glue_edge_owner.items():
            for a, b in zip(fids, fids[1:]):
                union(a, b)
        regions: dict = {}
        for fid, cycle in enumerate(face_edges):
            rid = find(fid)
            reg = regions.setdefault(
                rid, {"corners": [], "boundary": False, "faces": []}
            )
            reg["faces"].append((face_charts[fid], cycle))
            for i, e in enumerate(cycle):
                if e["tag"][0] == "boundary":
                    reg["boundary"] = True
            # corners: vertices where an alpha-type edge meets a beta-type edge
            n = len(cycle)
            for i in range(n):
                t1 = cycle[i]["tag"][0]
                t2 = cycle[(i + 1) % n]["tag"][0]
                v = cycle[i]["to"]
                kinds = {t1, t2}
                if kinds == {"alpha", "beta"} or kinds == {"alpha", "beta_circle"}:
                    reg["corners"].append((face_charts[fid], v))
        return list(regions.values())

    def _glue_key(self, chart_name, e):
        """A canonical key matching glued edge pieces across charts."""
        a, b = sorted((e["from"], e["to"]))
        tag = e["tag"]
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
        every beta circle."""
        circles = set()
        for name, (aobj, bobj) in self.points.items():
            if bobj[0] == "beta_circle":
                circles.add(bobj[1])
        names = sorted(self.points, key=repr)
        gens = []
        for r in range(len(names) + 1):
            for combo in itertools.combinations(names, r):
                aobjs = [self.points[n][0] for n in combo]
                bobjs = [self.points[n][1] for n in combo]
                if len(set(aobjs)) != len(aobjs) or len(set(bobjs)) != len(bobjs):
                    continue
                covered = {o[1] for o in bobjs if o[0] == "beta_circle"}
                if covered != circles:
                    continue
                gens.append(frozenset(combo))
        return gens

    # -- structure counting --------------------------------------------------------------

    def _vertex_point_name(self, chart, xy):
        for name, (c, p) in self.coords.items():
            if c == chart and p == xy:
                return name
        return None

    def _region_cycle(self, reg):
        """The merged boundary cycle of a region: (chart, edge) pairs,
        traversed through glued edges."""
        glue_at = {}
        for fi, (chart, cycle) in enumerate(reg["faces"]):
            for ei, e in enumerate(cycle):
                if e["tag"][0] in ("glue", "handle-glue"):
                    key = self._glue_key(chart, e)
                    glue_at.setdefault(key, []).append((fi, ei))
        start = None
        for fi, (chart, cycle) in enumerate(reg["faces"]):
            for ei, e in enumerate(cycle):
                if e["tag"][0] not in ("glue", "handle-glue"):
                    start = (fi, ei)
                    break
            if start:
                break
        if start is None:
            return []
        merged = []
        fi, ei = start
        visited = set()
        while True:
            chart, cycle = reg["faces"][fi]
            e = cycle[ei]
            if (fi, ei) in visited:
                break
            visited.add((fi, ei))
            if e["tag"][0] in ("glue", "handle-glue"):
                key = self._glue_key(chart, e)
                partners = [o for o in glue_at.get(key, []) if o != (fi, ei)]
                if partners:
                    fi, ei = partners[0]
                    visited.add((fi, ei))
                    _, cyc2 = reg["faces"][fi]
                    ei = (ei + 1) % len(cyc2)
                    continue
                ei = (ei + 1) % len(cycle)
                continue
            merged.append((chart, e))
            ei = (ei + 1) % len(cycle)
        return merged

    def differential_table(self, gens) -> dict:
        """Count interior rectangle regions connecting generators.

        The boundary of a counted rectangle, traversed with the region on
        the left, runs along alpha curves from source corners to target
        corners, so source corners sit at the starts of the alpha runs.
        """
        genset = set(gens)
        out = {g: set() for g in gens}
        for reg in self.regions:
            if reg["boundary"] or len(reg["corners"]) != 4:
                continue
            cycle = self._region_cycle(reg)
            if not cycle:
                continue
            kinds = [e["tag"][0] for _, e in cycle]
            n = len(cycle)
            src_names = []
            tgt_names = []
            for i in range(n):
                prev = kinds[(i - 1) % n]
                cur = kinds[i]
                if cur.startswith("alpha") and not prev.startswith("alpha"):
                    chart, e = cycle[i]
                    nm = self._vertex_point_name(chart, e["from"])
                    src_names.append(nm)
                if cur.startswith("beta") and not prev.startswith("beta"):
                    chart, e = cycle[i]
                    nm = self._vertex_point_name(chart, e["from"])
                    tgt_names.append(nm)
            if len(src_names) != 2 or len(tgt_names) != 2 or None in src_names + tgt_names:
                continue
            src = set(src_names)
            # A rectangle counts only when no other point of g lies inside
            # or on the boundary of one of its faces.
            polys = [(chart, [e["from"] for e in cyc]) for chart, cyc in reg["faces"]]
            for g in gens:
                if src <= g:
                    new = (g - src) | set(tgt_names)
                    if new in genset and self._strip_ok(g, src, polys):
                        out[g].add(new)
        return out

    def action_tables(self, gens):
        """Boundary-strip action counts for every algebra basis element.

        A basis element with k moving strands acts through k simultaneous
        strips, one per strand; the shadows may overlap, and emptiness is
        measured against the stationary points of the generator.

        Returns (left, right): {(elem index, generator) -> set of outputs}.
        """
        am = enumerate_basis(self.z)
        left: dict = {}
        right: dict = {}
        occ = {g: frozenset(self.points[n][0][1] for n in g) for g in gens}
        bocc = {g: frozenset(self.points[n][1][1] for n in g) for g in gens}
        genset = set(gens)
        pair_of = self.z.match
        for e_idx, elem in enumerate(am.elems):
            if not elem.movers:
                continue
            for g in gens:
                out = self._multi_strip_move(
                    elem, g, occ[g], genset, pair_of, side="left"
                )
                if out is not None:
                    left.setdefault((e_idx, g), set()).add(out)
                out = self._multi_strip_move(
                    elem, g, bocc[g], genset, pair_of, side="right"
                )
                if out is not None:
                    right.setdefault((e_idx, g), set()).add(out)
        return left, right

    def _multi_strip_move(self, elem, g, side_occ, genset, pair_of, side):
        """Apply all strands of a basis element at once, or None."""
        moved_pairs = set()
        moving = set()
        targets = set()
        polys = []
        by_alpha = {self.points[n][0][1]: n for n in g if side == "left"}
        by_beta = {self.points[n][1][1]: n for n in g if side == "right"}
        for (a, b) in elem.movers:
            if side == "left":
                i = pair_of[b]
                name = by_alpha.get(i)
                if name is None:
                    return None
                if name[0] == "y" and name[1] == b:
                    c = name[2]
                    tgt = ("y", a, c)
                    if tgt not in self.points:
                        return None
                    arc = self.arc_of[a]
                    poly = [
                        (F(0), self.h[a]),
                        self.coords[tgt][1],
                        self.coords[name][1],
                        (F(0), self.h[b]),
                    ]
                    polys.append((("sq", arc), poly))
                elif name[0] == "x":
                    tgt = ("y", a, b)
                    if tgt not in self.points:
                        return None
                    hp = self._handle_strip_polys(a, b, i, side="left")
                    if hp is None:
                        return None
                    polys.extend(hp)
                else:
                    return None
            else:
                i = pair_of[a]
                name = by_beta.get(i)
                if name is None:
                    return None
                if name[0] == "y" and name[2] == a:
                    c = name[1]
                    tgt = ("y", c, b)
                    if tgt not in self.points:
                        return None
                    arc = self.arc_of[a]
                    poly = [
                        (F(1), self.tau[a]),
                        self.coords[name][1],
                        self.coords[tgt][1],
                        (F(1), self.tau[b]),
                    ]
                    polys.append((("sq", arc), poly))
                elif name[0] == "x":
                    tgt = ("y", a, b)
                    if tgt not in self.points:
                        return None
                    hp = self._handle_strip_polys(a, b, i, side="right")
                    if hp is None:
                        return None
                    polys.extend(hp)
                else:
                    return None
            moved_pairs.add(pair_of[b] if side == "left" else pair_of[a])
            moving.add(name)
            targets.add(tgt)
        if elem.occupied != side_occ - moved_pairs:
            return None
        if not self._strip_ok(g, moving, polys):
            return None
        new = frozenset((g - moving) | targets)
        if new not in genset:
            return None
        return new

    def _handle_strip_polys(self, a, b, i, side):
        """Strip through handle i for the horizontal-to-strand move."""
        arc = self.arc_of[a]
        tgt = self.coords[("y", a, b)][1]
        if side == "left":
            p = b
        else:
            p = a
        t, e = self.tau[p], self.eps[p]
        if side == "left":
            square_poly = [
                (F(0), self.h[a]),
                tgt,
                (t + e, F(1)),
                (t - e, F(1)),
                (F(0), self.h[b]),
            ]
        else:
            square_poly = [
                (F(1), self.tau[a]),
                (t + e, F(1)),
                (t - e, F(1)),
                tgt,
                (F(1), self.tau[b]),
            ]
        end = 0 if self.handle_ends[i][0] == p else 1
        if end == 0:
            handle_poly = [(F(1, 4), F(0)), (F(1, 2), F(1, 2)), (F(3, 4), F(0))]
        else:
            handle_poly = [(F(3, 4), F(1)), (F(1, 2), F(1, 2)), (F(1, 4), F(1))]
        return [(("sq", arc), square_poly), (("h", i), handle_poly)]

    def _strip_ok(self, g, moving, polys) -> bool:
        for name in g:
            if name in moving:
                continue
            chart, p = self.coords[name]
            for (pchart, poly) in polys:
                if pchart != chart:
                    continue
                if _point_in_polygon(p, poly):
                    return False
                n = len(poly)
                for k in range(n):
                    if _on_segment(p, poly[k], poly[(k + 1) % n]) or p == poly[k]:
                        return False
        return True


def build_twisting_slice_diagram(z: ArcDiagram) -> PlanarDiagram:
    d = PlanarDiagram(z, "slice")
    problems = d.check_nice()
    if problems:
        raise AssertionError(f"slice diagram not nice: {problems}")
    return d


def build_cap_diagram(z: ArcDiagram, I) -> PlanarDiagram:
    return PlanarDiagram(z, "cap", cap_subset=I)


def enumerate_generators(d: PlanarDiagram) -> list:
    return d.enumerate_generators()


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
    gens = d.enumerate_generators()
    # Point names sort the same under every hash seed; set reprs do not.
    gens = tuple(sorted(gens, key=sorted))
    occ = {}
    bocc = {}
    for g in gens:
        occ[g] = frozenset(d.points[n][0][1] for n in g)
        bocc[g] = frozenset(d.points[n][1][1] for n in g)
    lidem = {g: occ[g] for g in gens}
    ridem = {g: bocc[g] for g in gens}
    table: dict = {}

    if d.family == "slice":
        diff = d.differential_table(gens)
        for g, outs in diff.items():
            for y in outs:
                _add(table, ((), g, ()), y)
        left, right = d.action_tables(gens)
        for (e_idx, g), outs in left.items():
            for y in outs:
                _add(table, ((e_idx,), g, ()), y)
        for (e_idx, g), outs in right.items():
            for y in outs:
                _add(table, ((), g, (e_idx,)), y)
    return ModuleStructure(
        "AA", am, am, gens, lidem, ridem, table, validate=False, name=f"count({d.family})"
    )


@dataclass
class ComparisonVerdict:
    isomorphic: bool
    witness: str = ""
    bijection: dict = None  # type: ignore[assignment]


def compare_with_algebra(d: PlanarDiagram, m: ModuleStructure) -> ComparisonVerdict:
    """Match diagram generators with module generators and compare all tables."""
    am = enumerate_basis(d.z)
    counted = count_domains(d)
    bad = check_structure(counted)
    if bad is not None:
        argsL, g, argsR = bad
        where = f"({argsL}, {generator_to_elem(d, g)!r}, {argsR})"
        return ComparisonVerdict(False, f"counted model fails its structure equation at {where}")
    if d.family == "slice":
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
            mapped[key] = frozenset(bij[y] for y in outs)
        theirs = {k: frozenset(v) for k, v in m.table.items()}
        if mapped != theirs:
            for k in set(mapped) | set(theirs):
                if mapped.get(k, frozenset()) != theirs.get(k, frozenset()):
                    return ComparisonVerdict(
                        False, f"table mismatch at {k}: {mapped.get(k)} vs {theirs.get(k)}"
                    )
        return ComparisonVerdict(True, bijection=bij)
    # caps: one generator, all operations vanish, idempotent = complement
    gens = d.enumerate_generators()
    if len(gens) != 1 or len(m.gens) != 1:
        return ComparisonVerdict(False, "cap should have exactly one generator")
    g = gens[0]
    occ = frozenset(d.points[n][0][1] for n in g)
    mg = m.gens[0]
    idem = m.lidem[mg] if m.left_alg is not None else m.ridem[mg]
    if occ != idem:
        return ComparisonVerdict(False, f"cap idempotent mismatch: {occ} vs {idem}")
    if m.table or not d.all_regions_boundary():
        return ComparisonVerdict(False, "cap structure not trivial")
    return ComparisonVerdict(True, bijection={g: mg})


def dump_regions(d: PlanarDiagram) -> str:
    lines = []
    for i, reg in enumerate(d.regions):
        kind = "boundary" if reg["boundary"] else f"interior({len(reg['corners'])} corners)"
        charts = sorted({repr(c) for c, _ in reg["faces"]})
        lines.append(f"region {i}: {kind} across {', '.join(charts)}")
    return "\n".join(lines) + "\n"
