"""Refining a simple lattice polygon into triangles of doubled area 1.

The pipeline has two stages.  initial_triangulation first cuts the
polygon into n - 2 lattice triangles, the "ears", using only polygon
vertices: one sweep in (x, y) order keeps, for each region between two
edges across it, the stack of an x-monotone piece, and cuts triangles
off those stacks as the vertices arrive, in O(n log n) on every simple
ring with no lattice frame and no index.  Each triangle is then
refined recursively: a triangle with a non-primitive edge splits at a
lattice point of that edge, and a triangle whose edges are all
primitive but whose doubled area exceeds 1 splits at the interior point
located by the Bezout construction.  Every split strictly reduces the
children's areas, so the process terminates with exactly
twice_polygon_area unit-doubled-area ("primitive") triangles.

Everything between the polygon's int ring and the output runs on plain
tuples: a triangle is (a, b, c, twice_area) with (x, y) points,
counterclockwise.  _ears cuts the ring into such tuples, and
initial_triangulation only wraps them as LatticeTriangles for a caller
of the library.  One kernel, the generator _steps, pops a triangle off
a stack that its caller owns, does either kind of split inline, checks
that the children are counterclockwise, non-degenerate and cover the
parent's area, pushes them and yields the event; a unit first child is
finished where it is made, and an edge split of height 1 finishes its
whole fan in one loop, proved by its first split's checks.  The
generator _refinement takes the ears from _ears, certifies them and
runs the kernel to the end as one stream, which the command line's
triangulate and svg both read event by event without holding the log;
primitive_triangulation collects the same stream, and gcd_edge_split
and interior_split take one step of the kernel.  The result is proved
as the paper's induction goes, in O(n) beyond the splits themselves:
_certify_ears proves that the n - 2 ears tile the polygon, the directed
edges of the ears cancelling to the ring's own edges, and _steps
proves that each split's children tile their parent, so the finished
triangles tile the polygon.  Triangulation stores the tuples and
builds LatticeTriangle and SplitEvent objects only when they are first
asked for.

The whole refinement is deterministic: the ears depend only on the
ring's vertices and their order, edges are examined in a fixed order, and
children are processed depth-first in construction order.  Re-running
on the same polygon reproduces the identical triangle list and event
log.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import gcd
from typing import Iterator

from .core import (
    InternalInvariantError,
    LatticePoint,
    LatticePolygon,
    Point,
    PreconditionError,
    _first_not_below,
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


_EDGE_GCD = SplitRule.EDGE_GCD
_INTERIOR_POINT = SplitRule.INTERIOR_POINT


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


def _event(event: EventTuple) -> SplitEvent:
    parent, rule, d, children = event
    return SplitEvent(_as_triangle(parent), rule, LatticePoint(*d),
                      tuple(_as_triangle(ch) for ch in children))


@dataclass(frozen=True)
class Triangulation:
    """Finished refinement of a polygon into exactly twice_polygon_area
    counterclockwise triangles of doubled area 1 that tile it, proved
    as primitive_triangulation builds it: the ears tile the polygon and
    each split's children tile their parent.

    ``triangle_tuples`` and ``event_tuples`` hold the refinement
    kernel's plain tuples, triangles in completion order and the split
    log that replays the refinement from the initial triangulation.
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
        return tuple(_event(e) for e in self.event_tuples)


#: a stacked vertex: its point, its chain (0 lower, 1 upper, -1 the
#: piece's last vertex) and its ring index
_Stacked = tuple[Point, int, int]


def _cut(stack: list[_Stacked], e: _Stacked,
         out: list[tuple[int, int, int, int]]) -> bool:
    """One stack step of Garey, Johnson, Preparata and Tarjan,
    "Triangulating a simple polygon", 1978: the vertex ``e`` arrives at
    an x-monotone piece whose vertices not yet cut off are ``stack``,
    all on the top's chain but the bottom one, and the triangles it
    cuts off go to ``out`` as ring indices counterclockwise and the
    doubled area.

    A vertex on the other chain, or the last one, cuts off every
    stacked vertex and returns True; one on the same chain cuts off the
    top as long as their triangle with the next is strictly convex.
    Either way ``e`` is pushed.
    """
    (px, py), side, u = e
    upper = stack[-1][1]
    fan = side != upper
    top = t = stack.pop()
    while stack:
        (sx, sy), (tx, ty) = stack[-1][0], t[0]
        area = (tx - sx) * (py - sy) - (px - sx) * (ty - sy)
        if upper:
            area = -area
        if area <= 0 and not fan:
            break
        s = stack.pop()
        out.append((s[2], u, t[2], area) if upper
                   else (s[2], t[2], u, area))
        t = s
    stack += (top, e) if fan else (t, e)
    return fan


def _arrive(region: list[list[_Stacked]], e: _Stacked,
            out: list[tuple[int, int, int, int]]) -> list[list[_Stacked]]:
    """The stacks of ``region`` after ``e`` arrives in it: _cut runs on
    each, and of the two that a merge vertex leaves, the one whose
    chain ``e`` is not on is closed and goes."""
    going = region
    for stack in region:
        if not _cut(stack, e, out) and len(region) == 2:
            going = [stack]
    return going


def _ears(poly: LatticePolygon) -> list[TriangleTuple]:
    """The n - 2 triangles of initial_triangulation, as
    (a, b, c, twice_area) tuples of (x, y) points, in the order that
    one sweep cuts them off.

    The sweep is that of de Berg, Cheong, van Kreveld and Overmars,
    Computational Geometry, ch. 3, over the vertices in (x, y) order,
    which acts as a rotation too small to change any other comparison,
    so vertical edges and straight vertices need no special case.  A
    vertex whose neighbours both come after it is a start vertex if it
    is convex and a split vertex if not; both before it, an end or a
    merge vertex; else regular.  The status lists, bottom to top, the
    edges across the sweep line with the polygon above them.  Each
    edge's region, up to the next edge above, holds the stack of _cut
    of the x-monotone piece it is in, and each vertex arrives in the
    region below or above it, on its upper or lower chain (Hertel and
    Mehlhorn, FCT 1983).  A split vertex arrives on the chain of its
    region's stack, as de Berg's diagonal to the stack's top would
    have it, and the stack goes on in the region on that chain's side
    of the split vertex; the region on the other side restarts from
    the old top and the split vertex.  A merge vertex leaves
    its region the stacks of both regions it ends, and the next vertex
    to arrive there closes one of them and goes on with the other, as
    de Berg's diagonal to the merge vertex would.
    """
    pts = poly.ring
    n = len(pts)
    status: list[tuple[Point, Point, int]] = []
    # the stacks of each region, by the ring index of its edge's start
    regions: dict[int, list[list[_Stacked]]] = {}
    out: list[tuple[int, int, int, int]] = []
    for v in sorted(range(n), key=pts.__getitem__):
        u = (v - 1) % n
        a, p, b = pts[u], pts[v], pts[(v + 1) % n]
        px, py = p
        convex = (px - a[0]) * (b[1] - py) > (py - a[1]) * (b[0] - px)
        k = _first_not_below(status, px, py)
        if a < p:  # the edge from a ends here, and it is status[k]
            if b > p:  # regular, with the polygon above
                status[k] = (p, b, v)
                regions[v] = _arrive(regions.pop(u), (p, 0, v), out)
                continue
            del status[k]
            above = _arrive(regions.pop(u), (p, -1 if convex else 0, v), out)
            if convex:  # end
                continue
            j = status[k - 1][2]  # merge: the region below takes both
            regions[j] = _arrive(regions[j], (p, 1, v), out) + above
        elif b > p:  # start or split
            status.insert(k, (p, b, v))
            if convex:
                regions[v] = [[(p, 0, v)]]
                continue
            j = status[k - 1][2]
            below: list[list[_Stacked]] = []
            above = []
            for stack in regions[j]:
                top = stack[-1]
                _cut(stack, (p, top[1], v), out)
                (below if top[1] else above).append(stack)
            regions[j] = below or [[top, (p, 1, v)]]
            regions[v] = above or [[top, (p, 0, v)]]
        else:  # regular, with the polygon below: the edge below
            j = status[k - 1][2]
            regions[j] = _arrive(regions[j], (p, 1, v), out)
    if len(out) != n - 2 or \
            sum(t[3] for t in out) != twice_polygon_area(poly):
        raise InternalInvariantError("the sweep lost area")
    return [(pts[a], pts[b], pts[c], s) for a, b, c, s in out]


def initial_triangulation(poly: LatticePolygon) -> list[LatticeTriangle]:
    """Cut ``poly`` into len(poly) - 2 counterclockwise triangles of
    positive area on its own vertices, straight ones included.

    One sweep in (x, y) order, _ears, cuts them off the stacks of the
    x-monotone pieces that its regions hold: O(n log n) comparisons on
    every simple ring, with no lattice frame and no index.  The list
    depends only on the ring's vertices and their order, so a rerun gives
    the same one, and _certify_ears proves that it tiles the polygon.
    It is _ears, the tuples that the refinement reads, as
    LatticeTriangle objects on the polygon's own LatticePoints.
    """
    point = dict(zip(poly.ring, poly.vertices))
    return [LatticeTriangle(point[a], point[b], point[c], s)
            for a, b, c, s in _ears(poly)]


def _steps(stack: list[TriangleTuple],
           done: list[TriangleTuple]) -> Iterator[EventTuple]:
    """The refinement kernel: pop triangles off ``stack`` until it is
    empty, move each of doubled area 1 to ``done``, and split each other
    one, push its children and yield the event.

    A triangle abc of doubled area s > 1, counterclockwise, splits at
    the first edge PQ, in the order ab, bc, ca, whose deltas have gcd
    k > 1, with O the opposite vertex: at D = P + w, w = (Q - P) / k,
    into (P, D, O) then (Q, O, D).  With all edges primitive, it splits
    at the Bezout point D with c as the pivot, strictly inside, into
    (a, b, D), (a, D, c) then (b, c, D).  The children go on the stack
    so that the first is popped next; a unit first child goes to ``done``.

    Each child's doubled area is computed from its own corners, and
    the children must all be positive and sum to s; anything else
    raises InternalInvariantError.  That proves they tile the parent,
    whose s is exact too.  For an edge split, area(p, q, o) =
    area(p, d, o) + area(d, q, o) + area(p, q, d) for any d, so the sum
    puts d on the line pq and positive children put it strictly between
    p and q.  For an interior split the three areas sum to s for any d,
    and all three are positive only when d is strictly inside.

    An interior split's first child always has doubled area 1:
    D x w = s - 1 for the offsets u, v, D from c and w = v - u
    (bezout), so w x (D - u) = 1; a faulty D that passed the checks
    would leave fewer than 2A triangles, which _refinement rejects.
    An edge split with s1 = 1 is a fan of height 1, one loop.  The
    checks put D on PQ with w x (O - P) = 1, so Q = P + s * w, w is
    primitive, and each (Q, O, D_i), D_i = P + i * w, has doubled area
    s - i and primitive edges QO and O D_i, as w x (O - Q) =
    w x (O - D_i) = 1.  One step at a time would split it at D_(i+1),
    every check holding, into the unit triangle (D_i, D_(i+1), O) and
    (Q, O, D_(i+1)), popped next: the loop yields those events and
    finishes the triangles in that order, the last (Q, O, D_(s-1)).
    """
    pop, append = stack.pop, done.append
    while stack:
        tri = pop()
        a, b, c, s = tri
        if s == 1:
            append(tri)
            continue
        (ax, ay), (bx, by), (cx, cy) = a, b, c
        if (k := gcd(bx - ax, by - ay)) > 1:
            p, q, o = a, b, c
        elif (k := gcd(cx - bx, cy - by)) > 1:
            p, q, o = b, c, a
        elif (k := gcd(ax - cx, ay - cy)) > 1:
            p, q, o = c, a, b
        if k > 1:
            (px, py), (qx, qy), (ox, oy) = p, q, o
            wx, wy = (qx - px) // k, (qy - py) // k
            dx, dy = px + wx, py + wy
            s1 = wx * (oy - py) - (ox - px) * wy
            s2 = (ox - qx) * (dy - qy) - (dx - qx) * (oy - qy)
            rule, d = _EDGE_GCD, (dx, dy)
            positive, total = s1 > 0 and s2 > 0, s1 + s2
        else:
            dx, dy = _split_offset(ax - cx, ay - cy, bx - cx, by - cy, s)
            dx, dy = cx + dx, cy + dy
            s1 = (bx - ax) * (dy - ay) - (dx - ax) * (by - ay)
            s2 = (dx - ax) * (cy - ay) - (cx - ax) * (dy - ay)
            s3 = (cx - bx) * (dy - by) - (dx - bx) * (cy - by)
            rule, d = _INTERIOR_POINT, (dx, dy)
            positive, total = s1 > 0 and s2 > 0 and s3 > 0, s1 + s2 + s3
        if not positive:
            raise InternalInvariantError(
                f"{rule.value} at {d} gives a clockwise or degenerate child")
        if total != s:
            raise InternalInvariantError(
                f"{rule.value} at {d}: children do not cover the parent")
        if k == 1:
            first, second, third = (a, b, d, s1), (a, d, c, s2), (b, c, d, s3)
            append(first)
            stack += third, second
            yield tri, rule, d, (first, second, third)
            continue
        if s1 > 1:
            first, rest = (p, d, o, s1), (q, o, d, s2)
            stack += rest, first
            yield tri, rule, d, (first, rest)
            continue
        rest, d, dx, dy = tri, p, px, py  # a fan of height 1, from P
        for r in range(s - 1, 0, -1):
            e = (dx := dx + wx, dy := dy + wy)
            unit, nxt = (d, e, o, 1), (q, o, e, r)
            append(unit)
            yield rest, rule, e, (unit, nxt)
            d, rest = e, nxt
        append(rest)


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
    return _event(next(_steps([_as_tuple(tri)], [])))


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
    if any(edge_gcd(corners[i - 1], corners[i]) != 1 for i in range(3)):
        raise PreconditionError("interior_split requires all edges "
                                "primitive; apply gcd_edge_split first")
    return _event(next(_steps([_as_tuple(tri)], [])))


def _certify_ears(poly: LatticePolygon, ears: list[TriangleTuple]) -> None:
    """Prove that ``ears`` tile ``poly``, or raise InternalInvariantError.

    Each ear's doubled area s, which _steps splits, must be positive
    and the one recomputed from its corners.  Each directed edge
    cancels a pending copy of its reverse or waits for one; a second
    pending copy means two ears overlap beside that edge.  What is left
    must be exactly the ring's own vertex-to-vertex edges.  The ears
    then sum, as a 2-chain, to the polygon: every point off the edges
    lies in exactly one ear, so there is no overlap and no gap.
    """
    pending: set[tuple[Point, Point]] = set()
    for a, b, c, s in ears:
        (ax, ay), (bx, by), (cx, cy) = a, b, c
        if s <= 0 or (bx - ax) * (cy - ay) - (cx - ax) * (by - ay) != s:
            raise InternalInvariantError(
                f"ear {a} {b} {c} is not counterclockwise of doubled area {s}")
        for p, q in (a, b), (b, c), (c, a):
            if (q, p) in pending:
                pending.remove((q, p))
            elif (p, q) in pending:
                raise InternalInvariantError("two ears share a directed edge")
            else:
                pending.add((p, q))
    ring = poly.ring
    if pending != set(zip(ring, ring[1:] + ring[:1])):
        raise InternalInvariantError(
            "ear edges do not cancel to the polygon boundary")


def _refinement(poly: LatticePolygon,
                done: list[TriangleTuple]) -> Iterator[EventTuple]:
    """Refine ``poly`` depth-first as one stream: triangulate it on its
    vertices, certify those ears, then yield each split event of _steps
    as it happens while the finished triangles go to ``done``, which
    starts empty, in completion order.  The initial triangles are
    refined in order, each split's children next, in construction
    order.  Once the stream is spent, ``done`` holds exactly
    twice_polygon_area(poly) triangles, or InternalInvariantError has
    been raised."""
    stack = _ears(poly)
    stack.reverse()
    _certify_ears(poly, stack)
    yield from _steps(stack, done)
    if len(done) != twice_polygon_area(poly):
        raise InternalInvariantError(
            "triangle count must equal the doubled polygon area")


def primitive_triangulation(poly: LatticePolygon) -> Triangulation:
    """Fully refine ``poly`` into triangles of doubled area 1.

    It collects the stream of _refinement, which the command line reads
    event by event: the triangles in completion order together with the
    full split-event log, held in memory.  Work proceeds depth-first:
    the initial triangles on the polygon's vertices are processed in
    order, and each split's children are processed next, in
    construction order.  The result is proved as it is built: the ears
    tile the polygon, each split's children tile their parent, and
    there are twice_polygon_area(poly) triangles.
    """
    done: list[TriangleTuple] = []
    events = tuple(_refinement(poly, done))
    return Triangulation(tuple(done), events)
