"""The nice-diagram counts as first written: the reference for `PlanarDiagram`.

`OraclePlanarDiagram` shares the library's construction of points and
charts and replaces everything after it with the original methods: faces
walked over dict half-edges, glue keys recomputed per region, generators
filtered from every subset of points, a mirrored left/right copy of the
strip move with its `Fraction` strip polygons, a point scan for each vertex
name, and an emptiness test for every rectangle and strip: no other point of
the generator inside a polygon or on its boundary.
"""

from __future__ import annotations

import itertools

from strandjoin.nice_diagram import F, Chart, PlanarDiagram, _split_segments
from strandjoin.strands import enumerate_basis


def _on_segment(p, a, b) -> bool:
    """Whether p lies strictly inside segment ab."""
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    if cross != 0:
        return False
    dot = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
    sq = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    return 0 < dot < sq


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


class OraclePlanarDiagram(PlanarDiagram):
    """A `PlanarDiagram` counted by the original methods."""

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
                    arc = self.pos[a][0]
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
                    arc = self.pos[a][0]
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
        arc = self.pos[a][0]
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
