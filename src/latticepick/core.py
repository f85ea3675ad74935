"""Exact integer lattice geometry: points, predicates, gcd machinery,
and validated simple polygons.

Everything in this module is pure integer arithmetic.  Predicates decide
by the sign of exact determinants, never by floating point, so results
are reproducible and rounding-free at any permitted coordinate
magnitude.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

#: Coordinates beyond this magnitude are rejected when polygons are
#: built.  The bound keeps the file formats portable to fixed-width
#: implementations; the arithmetic here is exact regardless.
COORDINATE_LIMIT = 2**31

#: a lattice point as a plain (x, y) tuple, for the integer kernels
Point = tuple[int, int]


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class DegenerateSegmentError(GeometryError):
    """Operation on a segment whose endpoints coincide."""


class DegenerateTriangleError(GeometryError):
    """Operation on three collinear (zero-area) points."""


class PreconditionError(GeometryError):
    """An operation was invoked outside its documented contract."""


class InternalInvariantError(GeometryError):
    """A mathematically guaranteed invariant failed; this is a bug."""


class PolygonError(GeometryError):
    """A vertex list does not describe a valid simple lattice polygon.

    ``indices`` identifies the offending vertices (or edge start
    indices) in input order.
    """

    def __init__(self, message: str, indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.indices = indices


class TooFewVerticesError(PolygonError):
    pass


class CoordinateRangeError(PolygonError):
    pass


class RepeatedVertexError(PolygonError):
    pass


class ZeroAreaError(PolygonError):
    pass


class SelfIntersectionError(PolygonError):
    pass


@dataclass(frozen=True)
class LatticePoint:
    """A point of the integer lattice.  Construction raises
    PreconditionError for a coordinate that is not exactly an int, so
    no bool and no float enters any function that takes points."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if type(self.x) is not int or type(self.y) is not int:
            v = self.y if type(self.x) is int else self.x
            raise PreconditionError(f"coordinate {v!r} of {self} is not an int")

    def __sub__(self, other: "LatticePoint") -> "LatticeVector":
        return LatticeVector(self.x - other.x, self.y - other.y)

    def __add__(self, vec: "LatticeVector") -> "LatticePoint":
        return LatticePoint(self.x + vec.dx, self.y + vec.dy)


@dataclass(frozen=True)
class LatticeVector:
    """Difference of two lattice points."""

    dx: int
    dy: int

    def cross(self, other: "LatticeVector") -> int:
        return self.dx * other.dy - other.dx * self.dy

    def dot(self, other: "LatticeVector") -> int:
        return self.dx * other.dx + self.dy * other.dy


@dataclass(frozen=True)
class BezoutResult:
    """gcd ``g`` of a pair (p, q) with coefficients p*s + q*t == g."""

    g: int
    s: int
    t: int


class PointLocation(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def twice_signed_area(a: LatticePoint, b: LatticePoint, c: LatticePoint) -> int:
    """Doubled signed area of triangle abc: positive iff a, b, c wind
    counterclockwise, zero iff collinear.  Doubling keeps the value an
    exact integer."""
    return (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)


def _oriented(a: LatticePoint, b: LatticePoint, c: LatticePoint,
              ) -> tuple[LatticePoint, LatticePoint, LatticePoint, int]:
    """Triangle corners a, b, c counterclockwise, a kept first, and
    their doubled area.  Raises DegenerateTriangleError for collinear
    corners."""
    s = twice_signed_area(a, b, c)
    if s == 0:
        raise DegenerateTriangleError(f"collinear vertices {a}, {b}, {c}")
    return (a, b, c, s) if s > 0 else (a, c, b, -s)


def extended_gcd(p: int, q: int) -> BezoutResult:
    """Greatest common divisor with Bezout coefficients, p*s + q*t == g.

    The coefficients are canonical: the two-row iterative scheme runs on
    (|p|, |q|) and the signs are folded back afterwards, so equal inputs
    always produce identical output and the returned |s| is the smallest
    among valid coefficient pairs.  gcd(0, 0) is 0 with s = t = 0.
    """
    if p == 0 and q == 0:
        return BezoutResult(0, 0, 0)
    r0, r1 = abs(p), abs(q)
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1:
        quot = r0 // r1
        r0, r1 = r1, r0 - quot * r1
        s0, s1 = s1, s0 - quot * s1
        t0, t1 = t1, t0 - quot * t1
    return BezoutResult(r0, -s0 if p < 0 else s0, -t0 if q < 0 else t0)


def edge_gcd(a: LatticePoint, b: LatticePoint) -> int:
    """gcd of the coordinate deltas of segment ab; equals the number of
    lattice points on the half-open segment [a, b)."""
    if a == b:
        raise DegenerateSegmentError(f"segment endpoints coincide at {a}")
    return math.gcd(abs(b.x - a.x), abs(b.y - a.y))


def segment_lattice_points(a: LatticePoint, b: LatticePoint) -> list[LatticePoint]:
    """All lattice points on the closed segment ab, ordered from a to b.

    There are edge_gcd(a, b) + 1 of them, evenly spaced.
    """
    k = edge_gcd(a, b)
    sx = (b.x - a.x) // k
    sy = (b.y - a.y) // k
    return [LatticePoint(a.x + j * sx, a.y + j * sy) for j in range(k + 1)]


def point_on_segment(p: LatticePoint, a: LatticePoint, b: LatticePoint) -> bool:
    """Whether p lies on the closed segment ab (endpoints included)."""
    if a == b:
        return p == a
    return twice_signed_area(a, b, p) == 0 and \
        _in_box((p.x, p.y), (a.x, a.y), (b.x, b.y))


def _in_box(p: Point, a: Point, b: Point) -> bool:
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_share_point(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Whether closed segments p1p2 and q1q2, given as (x, y) tuples,
    have any point in common."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = p1, p2, q1, q2
    # doubled signed areas of (q1, q2, p1), (q1, q2, p2), (p1, p2, q1)
    # and (p1, p2, q2)
    d1 = (dx - cx) * (ay - cy) - (ax - cx) * (dy - cy)
    d2 = (dx - cx) * (by - cy) - (bx - cx) * (dy - cy)
    d3 = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
    d4 = (bx - ax) * (dy - ay) - (dx - ax) * (by - ay)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return ((d1 == 0 and _in_box(p1, q1, q2))
            or (d2 == 0 and _in_box(p2, q1, q2))
            or (d3 == 0 and _in_box(q1, p1, p2))
            or (d4 == 0 and _in_box(q2, p1, p2)))


def _shoelace(vertices: Sequence[LatticePoint]) -> int:
    total = 0
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total


def _edge_quads(vertices: Sequence[LatticePoint]) -> list[tuple[int, int, int, int]]:
    n = len(vertices)
    return [(vertices[i].x, vertices[i].y,
             vertices[(i + 1) % n].x, vertices[(i + 1) % n].y)
            for i in range(n)]


def _classify_point(px: int, py: int,
                    quads: Sequence[tuple[int, int, int, int]]) -> PointLocation:
    """Classify (px, py) against a closed ring given as edge coordinate
    quadruples.  Boundary is decided by exact collinearity, interior by
    even-odd parity of a horizontal ray with a half-open vertex rule."""
    inside = False
    for x1, y1, x2, y2 in quads:
        if (x2 - x1) * (py - y1) == (y2 - y1) * (px - x1) \
                and min(x1, x2) <= px <= max(x1, x2) \
                and min(y1, y2) <= py <= max(y1, y2):
            return PointLocation.BOUNDARY
        if (y1 > py) != (y2 > py):
            # exact comparison of px against the ray crossing abscissa
            side = (x1 - px) * (y2 - y1) + (py - y1) * (x2 - x1)
            if (side > 0) == (y2 > y1):
                inside = not inside
    return PointLocation.INTERIOR if inside else PointLocation.EXTERIOR


@dataclass(frozen=True)
class LatticePolygon:
    """A simple lattice polygon stored counterclockwise.

    Construction validates everything: vertex count, coordinate bounds
    (LatticePoint itself refuses a coordinate that is not an int),
    degenerate edges, orientation, and exact boundary simplicity (an
    integer Shamos-Hoey sweep, O(n log n) comparisons, finds whether
    any two non-adjacent edges touch).  Only when it finds a contact
    is each edge i, in order, tested against the later edges whose
    bounding boxes meet its own, to name the first offending pair in
    (i, j) order; that is quadratic only when many edges overlap in x
    before that pair.  Use validate_polygon to build one from raw
    vertices of either orientation.
    """

    vertices: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        _check_polygon(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[LatticePoint, LatticePoint]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def _check_polygon(vs: tuple[LatticePoint, ...]) -> None:
    n = len(vs)
    if n < 3:
        raise TooFewVerticesError(f"need at least 3 vertices, got {n}")
    for i, v in enumerate(vs):
        if abs(v.x) > COORDINATE_LIMIT or abs(v.y) > COORDINATE_LIMIT:
            raise CoordinateRangeError(
                f"vertex {i} at {v} exceeds |coordinate| <= 2**31", (i,))
    pts = [(v.x, v.y) for v in vs]
    for i in range(n):
        j = (i + 1) % n
        if pts[i] == pts[j]:
            raise RepeatedVertexError(f"vertices {i} and {j} coincide", (i, j))
    # adjacent edges may be collinear but must not fold back onto each other
    for i in range(n):
        (ax, ay), (bx, by), (cx, cy) = pts[i - 1], pts[i], pts[(i + 1) % n]
        if (bx - ax) * (cy - ay) == (cx - ax) * (by - ay) \
                and (bx - ax) * (cx - bx) + (by - ay) * (cy - by) < 0:
            raise SelfIntersectionError(
                f"edge {i} folds back onto edge {(i - 1) % n}",
                ((i - 1) % n, i))
    # non-adjacent edges must not share any point; the sweep decides,
    # and only on a contact are edge pairs tested to name the first one
    if _sweep_finds_contact(pts):
        pair = _first_contact(pts)
        if pair is None:
            raise InternalInvariantError(
                "the sweep found a contact that the pairwise test did not")
        i, j = pair
        raise SelfIntersectionError(f"edges {i} and {j} intersect", pair)
    area2 = _shoelace(vs)
    if area2 == 0:
        raise ZeroAreaError("polygon has zero area")
    if area2 < 0:
        raise PolygonError("vertices must wind counterclockwise; "
                           "use validate_polygon to normalize orientation")


def _sweep_finds_contact(pts: list[Point]) -> bool:
    """Whether two non-adjacent closed edges of the ring share a point,
    by the Shamos-Hoey sweep (Shamos & Hoey, "Geometric intersection
    problems", FOCS 1976) in exact integers.

    The ring ``pts`` of (x, y) tuples must have no repeated consecutive
    vertex and no fold-back, so that ring-adjacent edges meet only at
    their common vertex.

    Edge i runs from its lexicographically smaller endpoint, where it
    enters the sweep, to the larger one, where it leaves.  At each
    point, in (x, y) order, edges enter before edges leave, so edges
    that only touch there are active together.  The status lists the
    active edges from bottom to top.  An edge entering at p goes above
    the edges that pass below p and below those that pass above it;
    against an edge through p it is ordered by direction, which decides
    only between edges that both start at p.  An entering edge is
    tested against its status neighbours, and a leaving edge's two
    status neighbours against each other.

    Before the first contact point q, no two active non-adjacent edges
    meet, so the order is exact, and ring-adjacent edges that start at
    one vertex are ordered by direction.  Once the edges entering at q
    are in, the active edges through q sit next to each other in the
    status.  Each of them has at most one ring neighbour among them, so
    if two of them are not adjacent, two status neighbours among them
    are not adjacent either, and they were tested when they became
    status neighbours.
    """
    n = len(pts)
    left: list[Point] = []
    right: list[Point] = []
    events = []
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if b < a:
            a, b = b, a
        left.append(a)
        right.append(b)
        events.append((a, 0, i))
        events.append((b, 1, i))
    events.sort()

    def meet(i: int, j: int) -> bool:
        return (i - j) % n not in (1, n - 1) and _segments_share_point(
            left[i], right[i], left[j], right[j])

    status: list[int] = []
    for p, leaving, e in events:
        px, py = p
        lo, hi = 0, len(status)
        if leaving:
            # the first active edge not strictly below p; e is in the
            # run of edges through p, at most two when nothing was found
            while lo < hi:
                mid = (lo + hi) // 2
                (ax, ay), (bx, by) = left[status[mid]], right[status[mid]]
                if (bx - ax) * (py - ay) > (by - ay) * (px - ax):
                    lo = mid + 1
                else:
                    hi = mid
            k = status.index(e, lo)
            del status[k]
            if 0 < k < len(status) and meet(status[k - 1], status[k]):
                return True
            continue
        rx, ry = right[e]
        while lo < hi:
            mid = (lo + hi) // 2
            t = status[mid]
            (ax, ay), (bx, by) = left[t], right[t]
            side = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if side == 0:
                # p lies on t; if t also starts at p, order by direction
                side = (bx - px) * (ry - py) - (by - py) * (rx - px)
            if side > 0:
                lo = mid + 1
            else:
                hi = mid
        status.insert(lo, e)
        if lo > 0 and meet(status[lo - 1], e):
            return True
        if lo + 1 < len(status) and meet(e, status[lo + 1]):
            return True
    return False


def _first_contact(pts: list[Point]) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, in (i, j) order, of non-adjacent
    edges of the ring that share a point, or None.

    Edge i is tested only against the edges j > i whose bounding boxes
    meet its own, in order of i, so the search stops at the first i
    that has a contact.  They are found through the edges sorted by
    their left x: those that start no further right than edge i ends
    are a prefix, and a binary tree over it, holding the rightmost end
    below each node, yields the ones that end no further left than
    edge i starts in O(log n) steps each.
    """
    n = len(pts)
    boxes = []
    for i in range(n):
        (ax, ay), (bx, by) = pts[i], pts[(i + 1) % n]
        boxes.append((min(ax, bx), max(ax, bx), min(ay, by), max(ay, by), i))
    by_x = sorted(boxes)
    starts = [box[0] for box in by_x]
    size = 1 << (n - 1).bit_length()
    reach = [starts[0]] * (2 * size)  # node v's children are 2v and 2v + 1
    reach[size:size + n] = [box[1] for box in by_x]
    for v in range(size - 1, 0, -1):
        reach[v] = max(reach[2 * v], reach[2 * v + 1])
    for i, (x0, x1, y0, y1, _) in enumerate(boxes):
        end = bisect_right(starts, x1)
        first = n
        stack = [(1, 0, size)]
        while stack:
            v, lo, hi = stack.pop()
            if lo >= end or reach[v] < x0:
                continue
            if v < size:
                mid = (lo + hi) // 2
                stack += ((2 * v, lo, mid), (2 * v + 1, mid, hi))
                continue
            _, _, qy0, qy1, j = by_x[lo]
            if i + 1 < j < first and not (i == 0 and j == n - 1) \
                    and qy0 <= y1 and qy1 >= y0 \
                    and _segments_share_point(pts[i], pts[(i + 1) % n],
                                              pts[j], pts[(j + 1) % n]):
                first = j
        if first < n:
            return i, first
    return None


def validate_polygon(vertices: Sequence[LatticePoint]) -> LatticePolygon:
    """Build a LatticePolygon from raw vertices, reversing clockwise
    input so the result always winds counterclockwise.  Raises a
    PolygonError subclass describing the first problem found."""
    vs = tuple(vertices)
    if len(vs) >= 3 and _shoelace(vs) < 0:
        vs = vs[:1] + vs[:0:-1]
    return LatticePolygon(vs)


def twice_polygon_area(poly: LatticePolygon) -> int:
    """Doubled area of the polygon by the shoelace sum; always a
    positive integer for a validated polygon."""
    return _shoelace(poly.vertices)


def point_in_polygon(p: LatticePoint, poly: LatticePolygon) -> PointLocation:
    """Exact classification of p as interior, boundary, or exterior."""
    return _classify_point(p.x, p.y, _edge_quads(poly.vertices))
