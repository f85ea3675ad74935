"""Refining a simple lattice polygon into triangles of doubled area 1.

The pipeline has two stages.  Ear clipping first cuts the polygon into
n - 2 lattice triangles using only polygon vertices.  Each triangle is
then refined recursively: a triangle with a non-primitive edge splits at
a lattice point of that edge, and a triangle whose edges are all
primitive but whose doubled area exceeds 1 splits at the interior point
located by the Bezout construction.  Every split strictly reduces the
children's areas, so the process terminates with exactly
twice_polygon_area unit-doubled-area ("primitive") triangles.

Refinement runs on plain tuples: a triangle is (a, b, c, twice_area)
with (x, y) points, counterclockwise.  One step, _split, does both
kinds of split and checks that its children are counterclockwise,
non-degenerate and cover the parent's area.  The finished list is then
proved once by _certify, a tiling certificate: the directed edges of
all triangles, each cancelled against its reverse, leave exactly the
polygon's counterclockwise primitive boundary edges.  Triangulation
stores the tuples and builds LatticeTriangle and SplitEvent objects
only when they are first asked for.

The whole refinement is deterministic: ears are clipped at the first
eligible vertex in ring order, edges are examined in a fixed order, and
children are processed depth-first in construction order.  Re-running
on the same polygon reproduces the identical triangle list and event
log.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from heapq import heappop, heappush

from .core import (
    InternalInvariantError,
    LatticePoint,
    LatticePolygon,
    Point,
    PreconditionError,
    _oriented,
    edge_gcd,
    twice_polygon_area,
    twice_signed_area,
)
# normalize and interior_split_point are not called here, but the
# per-layer tracer of bench/tracing.py looks them up in this module
from .bezout import _split_offset, interior_split_point, normalize  # noqa: F401


class SplitRule(Enum):
    EDGE_GCD = "edge-gcd-split"
    INTERIOR_POINT = "interior-point-split"


#: (a, b, c, twice_area), counterclockwise
TriangleTuple = tuple[Point, Point, Point, int]
#: (parent, rule, split point, children)
EventTuple = tuple[TriangleTuple, SplitRule, Point, tuple[TriangleTuple, ...]]


@dataclass(frozen=True)
class LatticeTriangle:
    """A non-degenerate lattice triangle stored counterclockwise with
    its doubled area cached."""

    v0: LatticePoint
    v1: LatticePoint
    v2: LatticePoint
    twice_area: int

    def __post_init__(self) -> None:
        if type(self.twice_area) is not int or self.twice_area <= 0 or \
                twice_signed_area(self.v0, self.v1, self.v2) != self.twice_area:
            raise InternalInvariantError("triangle must be counterclockwise "
                                         "with a consistent int doubled area")

    @classmethod
    def from_points(cls, p: LatticePoint, q: LatticePoint,
                    r: LatticePoint) -> "LatticeTriangle":
        """Build a triangle from vertices in either orientation; the
        first vertex is kept in place, the other two swap if needed."""
        return cls(*_oriented(p, q, r))

    @property
    def vertices(self) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
        return (self.v0, self.v1, self.v2)


@dataclass(frozen=True)
class SplitEvent:
    """One refinement step: ``parent`` was replaced by ``children``
    after splitting at ``point`` under ``rule``.

    Children cover the parent exactly (areas add up) and introduce no
    vertex besides the split point.
    """

    parent: LatticeTriangle
    rule: SplitRule
    point: LatticePoint
    children: tuple[LatticeTriangle, ...]

    def __post_init__(self) -> None:
        if sum(ch.twice_area for ch in self.children) != self.parent.twice_area:
            raise InternalInvariantError("split children must cover the parent")
        allowed = set(self.parent.vertices) | {self.point}
        for ch in self.children:
            if not set(ch.vertices) <= allowed:
                raise InternalInvariantError("split child uses a foreign vertex")


def _as_tuple(tri: LatticeTriangle) -> TriangleTuple:
    return ((tri.v0.x, tri.v0.y), (tri.v1.x, tri.v1.y),
            (tri.v2.x, tri.v2.y), tri.twice_area)


def _as_triangle(t: TriangleTuple) -> LatticeTriangle:
    a, b, c, s = t
    return LatticeTriangle(LatticePoint(*a), LatticePoint(*b),
                           LatticePoint(*c), s)


def _event(parent: LatticeTriangle, rule: SplitRule, d: Point,
           children: tuple[TriangleTuple, ...]) -> SplitEvent:
    return SplitEvent(parent, rule, LatticePoint(*d),
                      tuple(_as_triangle(ch) for ch in children))


@dataclass(frozen=True)
class Triangulation:
    """Finished refinement of a polygon into exactly twice_polygon_area
    counterclockwise triangles of doubled area 1 that tile it, proved
    by primitive_triangulation's tiling certificate before it is built.

    ``triangle_tuples`` and ``event_tuples`` hold the refinement
    kernel's plain tuples, triangles in completion order and the split
    log that replays the refinement from the initial ear clipping.
    ``triangles`` and ``events`` are the same as LatticeTriangle and
    SplitEvent objects, built with all their checks on first access
    and cached.
    """

    triangle_tuples: tuple[TriangleTuple, ...]
    event_tuples: tuple[EventTuple, ...]

    @cached_property
    def triangles(self) -> tuple[LatticeTriangle, ...]:
        return tuple(_as_triangle(t) for t in self.triangle_tuples)

    @cached_property
    def events(self) -> tuple[SplitEvent, ...]:
        return tuple(_event(_as_triangle(parent), rule, d, children)
                     for parent, rule, d, children in self.event_tuples)


def initial_triangulation(poly: LatticePolygon) -> list[LatticeTriangle]:
    """Ear-clip ``poly`` into len(poly) - 2 triangles on its own
    vertices.

    An ear is a strictly convex vertex whose closed triangle contains no
    other ring vertex; the first ear in ring order is clipped each pass.
    For a validated simple polygon an ear always exists (Meisters,
    "Polygons have ears", 1975).

    The ring stays a subsequence of the input order, so the first ear
    is the smallest index found to be one.  A heap holds the vertices
    whose state is not known, at first all of them.  A clip changes
    only its two neighbours' triangles, so only they go back on the
    heap; every vertex found not to be an ear stays so until then.  For
    a vertex that is not strictly convex that is clear.  A blocked
    vertex b with neighbours a and c stays blocked because, of the ring
    vertices in its triangle abc, one farthest from the line ac is not
    strictly convex (below), so it is no ear, and the triangle never
    runs empty while abc stands.

    That vertex x is not strictly convex because the open segment bx
    meets no edge, so it runs inside the polygon, while both edges at x
    point to the side of x away from b: the inside angle at x holds the
    direction to b and is at least 180 degrees.  Hence only vertices
    that are not strictly convex are candidate blockers.  A clip only
    narrows its neighbours' angles, so a vertex leaves the candidates
    for good once it is found strictly convex.  The candidates are kept
    sorted by x, and a triangle tests those in its bounding box.
    """
    vs = poly.vertices
    pts = [(v.x, v.y) for v in vs]
    n = len(pts)
    prv = [n - 1] + list(range(n - 1))
    nxt = list(range(1, n)) + [0]
    candidate = [(bx - ax) * (cy - ay) <= (cx - ax) * (by - ay)
                 for (ax, ay), (bx, by), (cx, cy)
                 in zip(pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1])]
    by_x = sorted([(x, y, i) for i, (x, y) in enumerate(pts) if candidate[i]])

    def ear_area(b: int) -> int:
        """The doubled area of b's triangle if b is an ear, else 0."""
        a, c = prv[b], nxt[b]
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        area = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        if area <= 0:
            return 0
        if candidate[b]:
            candidate[b] = False
            del by_x[bisect_left(by_x, (bx, by, b))]
        ymin, ymax = min(ay, by, cy), max(ay, by, cy)
        for k in range(bisect_left(by_x, (min(ax, bx, cx),)),
                       bisect_left(by_x, (max(ax, bx, cx) + 1,))):
            px, py, j = by_x[k]
            if py < ymin or py > ymax or j == a or j == c:
                continue
            if (bx - ax) * (py - ay) >= (px - ax) * (by - ay) \
                    and (cx - bx) * (py - by) >= (px - bx) * (cy - by) \
                    and (ax - cx) * (py - cy) >= (px - cx) * (ay - cy):
                return 0
        return area

    unknown = list(range(n))  # sorted, so already a heap
    queued = [True] * n
    out: list[LatticeTriangle] = []
    b = 0
    for _ in range(n - 3):
        while True:
            if not unknown:
                raise InternalInvariantError("no ear found in a simple polygon")
            b = heappop(unknown)
            queued[b] = False
            area = ear_area(b)
            if area:
                break
        a, c = prv[b], nxt[b]
        out.append(LatticeTriangle(vs[a], vs[b], vs[c], area))
        nxt[a], prv[c] = c, a
        for v in (a, c):
            if not queued[v]:
                queued[v] = True
                heappush(unknown, v)
    # the last clipped vertex still points into the remaining triangle
    c = nxt[b]
    out.append(LatticeTriangle.from_points(
        *(vs[i] for i in sorted((c, nxt[c], nxt[nxt[c]])))))
    if sum(t.twice_area for t in out) != twice_polygon_area(poly):
        raise InternalInvariantError("ear clipping lost area")
    return out


def _split(a: Point, b: Point, c: Point,
           s: int) -> tuple[SplitRule, Point, tuple[TriangleTuple, ...]]:
    """Split the counterclockwise triangle abc of doubled area s > 1.

    Edges are examined in the fixed order ab, bc, ca.  For the first
    edge PQ whose deltas have gcd k > 1, with O the opposite vertex, the
    split point is D = ((k-1)*P + Q) / k, the edge lattice point one
    step from P, and the children are (P, D, O) then (Q, O, D).  With
    all edges primitive, D is the Bezout point with c as the pivot,
    which lies strictly inside, and the children are (a, b, D),
    (a, D, c) then (b, c, D).

    Each child is checked to be counterclockwise and non-degenerate,
    and their doubled areas to sum to s; anything else raises
    InternalInvariantError.
    """
    for p, q, o in ((a, b, c), (b, c, a), (c, a, b)):
        (px, py), (qx, qy) = p, q
        k = math.gcd(qx - px, qy - py)
        if k > 1:
            d = (px + (qx - px) // k, py + (qy - py) // k)
            rule = SplitRule.EDGE_GCD
            corners = ((p, d, o), (q, o, d))
            break
    else:
        (ax, ay), (bx, by), (cx, cy) = a, b, c
        ox, oy = _split_offset(ax - cx, ay - cy, bx - cx, by - cy, s)
        d = (cx + ox, cy + oy)
        rule = SplitRule.INTERIOR_POINT
        corners = ((a, b, d), (a, d, c), (b, c, d))
    children = []
    total = 0
    for u, v, w in corners:
        (ux, uy), (vx, vy), (wx, wy) = u, v, w
        area = (vx - ux) * (wy - uy) - (wx - ux) * (vy - uy)
        if area <= 0:
            raise InternalInvariantError(
                f"{rule.value} at {d} gives a clockwise or degenerate child")
        total += area
        children.append((u, v, w, area))
    if total != s:
        raise InternalInvariantError(
            f"{rule.value} at {d}: children do not cover the parent")
    return rule, d, tuple(children)


def gcd_edge_split(tri: LatticeTriangle) -> SplitEvent | None:
    """Split at a lattice point of the first non-primitive edge, or
    return None if all three edges are primitive.

    Edges are examined in the fixed order v0v1, v1v2, v2v0.  For an edge
    AB whose deltas have gcd k > 1 the split point is
    ((k-1)*A + B) / k, the edge lattice point one step from A; the
    children are (A, D, C) then (B, C, D) with C the opposite vertex.
    """
    corners = tri.vertices
    if all(edge_gcd(corners[i - 1], corners[i]) == 1 for i in range(3)):
        return None
    return _event(tri, *_split(*_as_tuple(tri)))


def interior_split(tri: LatticeTriangle) -> SplitEvent:
    """Split a triangle with all-primitive edges and doubled area > 1
    at the lattice point produced by the Bezout construction with v2 as
    the pivot.

    The point lies strictly inside, because a point on an edge through
    the pivot would make that edge non-primitive, so the split is
    always three-way: (v0, v1, D), (v0, D, v2), (v1, v2, D).
    """
    if tri.twice_area <= 1:
        raise PreconditionError("triangle already has doubled area 1")
    corners = tri.vertices
    for i in range(3):
        if edge_gcd(corners[i], corners[(i + 1) % 3]) != 1:
            raise PreconditionError(
                "interior_split requires all edges primitive; "
                "apply gcd_edge_split first")
    return _event(tri, *_split(*_as_tuple(tri)))


def _refine(poly: LatticePolygon
            ) -> tuple[list[TriangleTuple], list[EventTuple]]:
    """Refine the ear-clipped triangles of ``poly`` depth-first: the
    initial triangles in order, each split's children next, in
    construction order.  Returns the finished triangles in completion
    order and the split log."""
    stack = [_as_tuple(t) for t in reversed(initial_triangulation(poly))]
    done: list[TriangleTuple] = []
    events: list[EventTuple] = []
    while stack:
        tri = stack.pop()
        if tri[3] == 1:
            done.append(tri)
            continue
        rule, d, children = _split(*tri)
        events.append((tri, rule, d, children))
        stack.extend(reversed(children))
    return done, events


def _certify(poly: LatticePolygon, tris: list[TriangleTuple]) -> None:
    """Prove that ``tris`` tile ``poly`` with triangles of doubled
    area 1, or raise InternalInvariantError.

    Every triangle must be counterclockwise with doubled area 1,
    recomputed from its vertices, and there must be
    twice_polygon_area(poly) of them.  Each directed edge cancels a
    pending copy of its reverse or waits for one; what is left must be
    exactly the polygon's counterclockwise primitive boundary edges.
    The triangles then sum, as a 2-chain, to the polygon: every point
    off the edges lies in exactly one triangle, so there is no overlap
    and no gap.
    """
    if len(tris) != twice_polygon_area(poly):
        raise InternalInvariantError(
            "triangle count must equal the doubled polygon area")
    pending: set[tuple[Point, Point]] = set()
    cancelled = 0
    for a, b, c, _ in tris:
        (ax, ay), (bx, by), (cx, cy) = a, b, c
        if (bx - ax) * (cy - ay) - (cx - ax) * (by - ay) != 1:
            raise InternalInvariantError(
                f"triangle {a} {b} {c} is not counterclockwise "
                "of doubled area 1")
        # unrolled over the edges ab, bc, ca: this loop runs once per
        # output triangle
        if (b, a) in pending:
            pending.remove((b, a))
            cancelled += 1
        else:
            pending.add((a, b))
        if (c, b) in pending:
            pending.remove((c, b))
            cancelled += 1
        else:
            pending.add((b, c))
        if (a, c) in pending:
            pending.remove((a, c))
            cancelled += 1
        else:
            pending.add((c, a))
    # an add that found its edge already pending was lost; the set
    # then no longer holds the edge sum
    if len(pending) != 3 * len(tris) - 2 * cancelled:
        raise InternalInvariantError("two triangles share a directed edge")
    boundary = set()
    for p, q in poly.edges():
        k = edge_gcd(p, q)
        sx, sy = (q.x - p.x) // k, (q.y - p.y) // k
        points = [(p.x + j * sx, p.y + j * sy) for j in range(k + 1)]
        boundary.update(zip(points, points[1:]))
    if pending != boundary:
        raise InternalInvariantError(
            "triangle edges do not cancel to the polygon boundary")


def primitive_triangulation(poly: LatticePolygon) -> Triangulation:
    """Fully refine ``poly`` into triangles of doubled area 1.

    Work proceeds depth-first: the initial ear-clipped triangles are
    processed in order, and each split's children are processed next,
    in construction order.  The result, proved by the tiling
    certificate, lists triangles in completion order together with the
    full split-event log.
    """
    tris, events = _refine(poly)
    _certify(poly, tris)
    return Triangulation(tuple(tris), tuple(events))
