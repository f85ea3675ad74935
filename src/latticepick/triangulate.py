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
with (x, y) points, counterclockwise.  One kernel, the generator
_steps, pops a triangle off a stack that its caller owns, does either
kind of split inline, checks that the children are counterclockwise,
non-degenerate and cover the parent's area, pushes them and yields the
event; a unit first child is finished where it is made, and an edge
split of height 1 finishes its whole fan in one loop, proved by its
first split's checks.  The generator _refinement ear-clips, certifies
the ears and runs the kernel to the end as one stream, which the
command line's triangulate and svg both read event by event without
holding the log; primitive_triangulation collects the same stream, and
gcd_edge_split and interior_split take one step of the kernel.  The
result is proved as the paper's induction goes, in O(n) beyond the
splits themselves: _certify_ears proves that the n - 2 ears tile the
polygon, the directed edges of the ears cancelling to the ring's own
edges, and _steps proves that each split's children tile their
parent, so the finished triangles tile the polygon.
Triangulation stores the tuples and builds LatticeTriangle and
SplitEvent objects only when they are first asked for.

Ear clipping tests a candidate ear against the input's vertices that
are not strictly convex, indexed once by rows in a reduced lattice
frame: it reads the exact integer interval of each of the triangle's
rows that holds one, so a sliver fan's ears read a row or two each.

The whole refinement is deterministic: ears are clipped at the first
eligible vertex in ring order, edges are examined in a fixed order, and
children are processed depth-first in construction order.  Re-running
on the same polygon reproduces the identical triangle list and event
log.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from heapq import heappop, heappush
from math import gcd
from typing import Iterator, Sequence

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
        return tuple(_event(e) for e in self.event_tuples)


def _row_frame(pts: Sequence[Point]) -> tuple[Point, Point]:
    """An integer frame (f, g) of determinant +1 in which the points
    ``pts`` (not all on one line) spread least along f.

    Lagrange-Gauss reduction of the integer scatter form
    Q(f) = n * sum((f . p)^2) - (sum(f . p))^2, which is positive
    definite, returns a reduced basis with Q(f) <= Q(g), f a shortest
    vector.  g is negated if needed so that f[0] * g[1] - f[1] * g[0]
    is +1, which keeps counterclockwise triangles counterclockwise.
    """
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    qxx = n * sum(x * x for x, _ in pts) - sx * sx
    qxy = n * sum(x * y for x, y in pts) - sx * sy
    qyy = n * sum(y * y for _, y in pts) - sy * sy

    def form(u: Point, v: Point) -> int:
        return qxx * u[0] * v[0] + qxy * (u[0] * v[1] + u[1] * v[0]) \
            + qyy * u[1] * v[1]

    f, g = ((1, 0), (0, 1)) if qxx <= qyy else ((0, 1), (1, 0))
    qf = form(f, f)
    while True:
        # g minus the nearest integer multiple of f
        mu = (2 * form(f, g) + qf) // (2 * qf)
        g = (g[0] - mu * f[0], g[1] - mu * f[1])
        qg = form(g, g)
        if qg >= qf:
            break
        f, g, qf = g, f, qg
    if f[0] * g[1] - f[1] * g[0] < 0:
        g = (-g[0], -g[1])
    return f, g


def _row_index(pts: Sequence[Point]
               ) -> tuple[list[Point], dict[int, list[int]], list[int]]:
    """The points of the counterclockwise ring ``pts`` in the frame
    (F, G) of _row_frame, the sorted G by their F of the vertices that
    are not strictly convex, and those F sorted."""
    (f0, f1), (g0, g1) = _row_frame(pts)
    fg = [(f0 * x + f1 * y, g0 * x + g1 * y) for x, y in pts]
    rows: dict[int, list[int]] = {}
    for (ax, ay), (bx, by), (cx, cy), (f, g) in zip(
            pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1], fg):
        if (bx - ax) * (cy - ay) <= (cx - ax) * (by - ay):
            rows.setdefault(f, []).append(g)
    for row in rows.values():
        row.sort()
    return fg, rows, sorted(rows)


def _row_hit(rows: dict[int, list[int]], keys: list[int], a: Point,
             b: Point, c: Point) -> bool:
    """Whether a point of ``rows`` other than a, b and c lies in the
    closed counterclockwise triangle abc, all in frame coordinates
    (F, G): ``rows`` maps F to the sorted G of its points, and ``keys``
    holds its F sorted; only those rows are read.

    Each row F = r of the triangle holds the G of one closed interval,
    from its lower boundary to its upper one, whose integer part
    [ceil, floor] is exact in integer floor division.  Sorted by F as
    u, v, w, the long edge uw bounds every row on one side and the short
    edges uv (rows before v) and vw (rows from v on) on the other; the
    short side is the lower one when u, v, w is counterclockwise.
    """
    # rotate so u has the least F, keeping the order counterclockwise
    if b[0] < a[0] and b[0] <= c[0]:
        u, p, q = b, c, a
    elif c[0] < a[0] and c[0] < b[0]:
        u, p, q = c, a, b
    else:
        u, p, q = a, b, c
    # w has the most F; the short side is the lower one when u, v, w
    # stays counterclockwise, that is when v is p
    if p[0] >= q[0]:
        (fu, gu), (fv, gv), (fw, gw), short_low = u, q, p, False
    else:
        (fu, gu), (fv, gv), (fw, gw), short_low = u, p, q, True
    for r in keys[bisect_left(keys, fu):bisect_right(keys, fw)]:
        row = rows[r]
        # each side's G at row r as a fraction n / d, d > 0
        n1, d1 = gu * (fw - r) + gw * (r - fu), fw - fu
        if r < fv:
            n2, d2 = gu * (fv - r) + gv * (r - fu), fv - fu
        elif fv < fw:
            n2, d2 = gv * (fw - r) + gw * (r - fv), fw - fv
        else:
            n2, d2 = gv, 1
        if short_low:
            n1, d1, n2, d2 = n2, d2, n1, d1
        top = n2 // d2
        i = bisect_left(row, -(-n1 // d1))
        while i < len(row) and row[i] <= top:
            if (r, row[i]) not in (a, b, c):
                return True
            i += 1
    return False


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
    direction to b and is at least 180 degrees.  A clip only narrows
    its neighbours' angles, so x was not strictly convex in the input
    either.  So the index holds the input's vertices that are not
    strictly convex, built once and never edited, and a triangle abc
    is tested against all of them but a, b and c.  That finds the x of
    every blocked triangle, and any alive vertex it finds blocks abc.
    A clipped vertex blocks no ear: as the strictly convex apex of an
    empty triangle it lies outside what is left of the polygon, closed,
    so in no later ear's closed triangle.

    They are kept by rows in the frame of _row_frame, built in
    O(n log n): the lines of constant F, along which the ring spreads
    least, so a sliver fan's slivers span a row or two.  A triangle
    reads the exact integer interval of each of its rows that holds
    one (_row_hit).  The frame has determinant +1, so containment and
    orientation are the same in it as in the plane.
    """
    vs, pts = poly.vertices, poly.ring
    n = len(pts)
    prv = [n - 1] + list(range(n - 1))
    nxt = list(range(1, n)) + [0]
    fg, rows, keys = _row_index(pts)

    def ear_area(b: int) -> int:
        """The doubled area of b's triangle if b is an ear, else 0."""
        a, c = prv[b], nxt[b]
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        area = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        if area <= 0 or _row_hit(rows, keys, fg[a], fg[b], fg[c]):
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
    """Refine ``poly`` depth-first as one stream: ear-clip it, certify
    the ears, then yield each split event of _steps as it happens while
    the finished triangles go to ``done``, which starts empty, in
    completion order.  The initial triangles are refined in order, each
    split's children next, in construction order.  Once the stream is
    spent, ``done`` holds exactly twice_polygon_area(poly) triangles,
    or InternalInvariantError has been raised."""
    stack = [_as_tuple(t) for t in reversed(initial_triangulation(poly))]
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
    the initial ear-clipped triangles are processed in order, and each
    split's children are processed next, in construction order.  The
    result is proved as it is built: the ears tile the polygon, each
    split's children tile their parent, and there are
    twice_polygon_area(poly) triangles.
    """
    done: list[TriangleTuple] = []
    events = tuple(_refinement(poly, done))
    return Triangulation(tuple(done), events)
