"""Exact integer lattice geometry: points, predicates, gcd machinery,
and validated simple polygons.

Everything in this module is pure integer arithmetic.  Predicates decide
by the sign of exact determinants, never by floating point, so results
are reproducible and rounding-free at any permitted coordinate
magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

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
    indices) in input order, also for clockwise input to
    validate_polygon.  A self-intersection names one pair of
    non-adjacent edges that share a point: the first pair the
    Shamos-Hoey sweep over the vertices meets, the edges that start at
    two coinciding vertices or two touching edges next to each other in
    its status, and not always the first in (i, j) order.  Every ring
    with a contact goes to the sweep, so the bounding-box pre-pass that
    proves simple rings simple changes no pair named.
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


def _euclid(p: int, q: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(p, q) and p*s + q*t == g, as plain ints.

    The two-row iterative scheme runs on (|p|, |q|) and the signs are
    folded back afterwards, so equal inputs always produce identical
    output and the returned |s| is the smallest among valid coefficient
    pairs.  gcd(0, 0) is 0 with s = t = 0.
    """
    if p == 0 and q == 0:
        return 0, 0, 0
    r0, r1 = abs(p), abs(q)
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1:
        quot = r0 // r1
        r0, r1 = r1, r0 - quot * r1
        s0, s1 = s1, s0 - quot * s1
        t0, t1 = t1, t0 - quot * t1
    return r0, -s0 if p < 0 else s0, -t0 if q < 0 else t0


def extended_gcd(p: int, q: int) -> BezoutResult:
    """Greatest common divisor with Bezout coefficients, p*s + q*t == g:
    the canonical ones of _euclid."""
    return BezoutResult(*_euclid(p, q))


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


def _twice_area(ring: Sequence[Point]) -> int:
    """The shoelace sum of the closed ring ``ring``: its doubled signed
    area, positive iff it winds counterclockwise."""
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
               in zip(ring, ring[1:] + ring[:1]))


def _edge_lattice_points(ring: Sequence[Point]) -> Iterator[list[Point]]:
    """The lattice points of each edge of the closed ring ``ring``, from
    its start to its end: edge_gcd + 1 of them, evenly spaced."""
    for (px, py), (qx, qy) in zip(ring, ring[1:] + ring[:1]):
        k = math.gcd(qx - px, qy - py)
        sx, sy = (qx - px) // k, (qy - py) // k
        yield [(px + j * sx, py + j * sy) for j in range(k + 1)]


def _edge_quads(ring: Sequence[Point]) -> list[tuple[int, int, int, int]]:
    return [(x0, y0, x1, y1) for (x0, y0), (x1, y1)
            in zip(ring, ring[1:] + ring[:1])]


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
    degenerate edges, orientation, and exact boundary simplicity: a
    sort-and-sweep over the edges' bounding boxes proves most simple
    rings simple within O(n) work, and where it does not, an integer
    Shamos-Hoey sweep over the vertices in (x, y) order, one event each
    and O(n log n) comparisons, decides whether any two non-adjacent
    edges touch and names the first pair it meets.  Use
    validate_polygon to build one from raw vertices of either
    orientation.

    The polygon carries its vertices as (x, y) int pairs, ``ring``, and
    its doubled area, ``twice_area``, both set by the validation and
    read from then on by every integer kernel; neither takes part in
    equality or hashing.  The command line builds its polygons from the
    int ring alone (_ring_polygon), and such a polygon makes its
    ``vertices`` on first access, so a caller that never asks for them
    builds no LatticePoint.
    """

    vertices: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        ring = tuple([(v.x, v.y) for v in self.vertices])
        doubled = _twice_area(ring)
        _check_polygon(ring, doubled)
        self.__dict__.update(ring=ring, twice_area=doubled)

    def __getattr__(self, name: str) -> tuple[LatticePoint, ...]:
        # only a polygon built by _ring_polygon lacks its vertices
        if name != "vertices":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        vertices = tuple([LatticePoint(x, y) for x, y in self.ring])
        self.__dict__["vertices"] = vertices
        return vertices

    def __len__(self) -> int:
        return len(self.ring)

    def edges(self) -> list[tuple[LatticePoint, LatticePoint]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def _check_polygon(ring: tuple[Point, ...], doubled: int) -> None:
    """Raise a PolygonError for the first fault found in the ring
    ``ring`` of doubled signed area ``doubled``, or return if it has
    none."""
    n = len(ring)
    if n < 3:
        raise TooFewVerticesError(f"need at least 3 vertices, got {n}")
    # one pass over the ring finds the first vertex out of range, the
    # first repeated one and the first fold-back (adjacent edges may be
    # collinear but must not fold back onto each other); they are
    # reported in that order
    lim = COORDINATE_LIMIT
    far = repeat = fold = n
    for i, ((ax, ay), (bx, by), (cx, cy)) in enumerate(
            zip(ring[-1:] + ring[:-1], ring, ring[1:] + ring[:1])):
        if not (-lim <= bx <= lim and -lim <= by <= lim):
            far = min(far, i)
        if bx == cx and by == cy:
            repeat = min(repeat, i)
        elif (bx - ax) * (cy - ay) == (cx - ax) * (by - ay) \
                and (bx - ax) * (cx - bx) + (by - ay) * (cy - by) < 0:
            fold = min(fold, i)
    if far < n:
        raise CoordinateRangeError(f"vertex {far} at {LatticePoint(*ring[far])} "
                                   "exceeds |coordinate| <= 2**31", (far,))
    if repeat < n:
        j = (repeat + 1) % n
        raise RepeatedVertexError(f"vertices {repeat} and {j} coincide",
                                  (repeat, j))
    if fold < n:
        raise SelfIntersectionError(
            f"edge {fold} folds back onto edge {(fold - 1) % n}",
            ((fold - 1) % n, fold))
    # non-adjacent edges must not share any point: the box pre-pass
    # proves most simple rings so, and the sweep decides the rest and
    # names the first contact it meets
    if not _boxes_prove_simple(ring):
        pair = _sweep_finds_contact(ring)
        if pair:
            i, j = pair
            raise SelfIntersectionError(f"edges {i} and {j} intersect", pair)
    if doubled == 0:
        raise ZeroAreaError("polygon has zero area")
    if doubled < 0:
        raise PolygonError("vertices must wind counterclockwise; "
                           "use validate_polygon to normalize orientation")


#: _boxes_prove_simple gives a ring up to the sweep once its work runs
#: past _BOX_WORK_BASE plus _BOX_WORK for each edge it has entered.  A
#: visit to an active edge is one unit, 40-110 ns, and an exact test
#: _BOX_TEST units, 0.7-1 us (CPython 3.11, 2-core x86-64).  Sawtooth,
#: comb and staircase rings visit 3-4 active edges per edge and test
#: none; the 240 stars of 40-60 vertices in count_large, seeds 1-40,
#: visit about 6, test up to 1 and run at most 551 units ahead of 6 per
#: edge.  The budget grows per edge entered, so a dense prefix stops
#: the pre-pass early.  Before the sweep ran, it took 8-10 % of the
#: sweep's time on tests/conftest.py crossed_star_ring(1004 to 4004),
#: 58-75 % on its mirror image x -> -x, whose sweep meets a contact
#: early, 0.2-1.0 ms against 0.3-1.4 ms, and 11 % on the spiral and the
#: 90-degree comb of 10^4 vertices.
_BOX_WORK = 6
_BOX_WORK_BASE = 640
_BOX_TEST = 8


def _boxes_prove_simple(pts: Sequence[Point]) -> bool:
    """True if no two non-adjacent closed edges of the ring share a
    point, proved by a sort-and-sweep over the edges' bounding boxes;
    False if two of them do, or once its work runs past the budget set
    by _BOX_WORK_BASE and _BOX_WORK.  The ring must meet the
    precondition of _sweep_finds_contact.

    Two closed segments that share a point have closed boxes that meet.
    The edges enter in the order of their left x, and the active list
    holds those entered before whose right x is not left of the
    entering edge, so each pair of edges whose boxes meet is seen when
    the later one enters.  Ring neighbours are skipped; every other
    pair whose y-ranges meet goes to the exact _segments_share_point.
    """
    n = len(pts)
    boxes = [((ax, bx, ay, by, i) if ay <= by else (ax, bx, by, ay, i))
             if ax <= bx else
             ((bx, ax, ay, by, i) if ay <= by else (bx, ax, by, ay, i))
             for i, ((ax, ay), (bx, by))
             in enumerate(zip(pts, pts[1:] + pts[:1]))]
    boxes.sort()
    budget = _BOX_WORK_BASE
    active: list[tuple[int, int, int, int, int]] = []
    for e in boxes:
        x, _, ylo, yhi, i = e
        budget += _BOX_WORK - len(active)
        if budget < 0:
            return False
        kept = []
        for f in active:
            if f[1] >= x:
                kept.append(f)
                if f[2] <= yhi and ylo <= f[3] \
                        and (i - f[4]) % n not in (1, n - 1):
                    budget -= _BOX_TEST
                    j = f[4]
                    if budget < 0 or _segments_share_point(
                            pts[i], pts[(i + 1) % n],
                            pts[j], pts[(j + 1) % n]):
                        return False
        kept.append(e)
        active = kept
    return True


def _first_not_below(status: Sequence[tuple[Point, Point, int]],
                     px: int, py: int) -> int:
    """The index in ``status`` of the first edge not strictly below the
    point (px, py), by binary search: ``status`` lists edges as
    (start, end, index), start < end in (x, y) order, from bottom to top
    along a sweep line that they all cross at that point's place in the
    (x, y) order."""
    lo, hi = 0, len(status)
    while lo < hi:
        mid = (lo + hi) // 2
        (ax, ay), (bx, by), _ = status[mid]
        if (bx - ax) * (py - ay) > (by - ay) * (px - ax):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _sweep_finds_contact(pts: Sequence[Point]) -> tuple[int, int] | None:
    """A pair (i, j), i < j, of non-adjacent closed edges of the ring
    that share a point, or None if there is none, by the Shamos-Hoey
    sweep (Shamos & Hoey, "Geometric intersection problems", FOCS 1976)
    in exact integers.

    The ring ``pts`` of (x, y) tuples must have no repeated consecutive
    vertex and no fold-back, so that ring-adjacent edges meet only at
    their common vertex.

    The sweep visits the n vertices in (x, y) order.  Edge i starts at
    the smaller of its endpoints and ends at the larger, and the status
    lists the edges started and not yet ended from bottom to top.  Two
    coinciding vertices u < v are named at once, as the edges u and v
    that leave them along the ring.  At any other vertex p, one binary
    search finds the first status edge not strictly below p.  From
    there, p's edges that end at p leave and those that start at p take
    their slot, the lower first, and the two new neighbour pairs at the
    ends of the slot are tested.

    The slot is right by an invariant: until a contact is reported, no
    two status neighbours that are not ring neighbours share a point,
    since each pair is tested as it becomes neighbours.  Before the
    first contact point the status order is exact, so the edges through
    p sit next to each other, and any two of them that are neighbours
    are ring neighbours, which meet only at p: p's own edges.  So an
    end vertex's two edges are status neighbours, a regular vertex's
    leaving edge is the only edge through it and its entering edge
    belongs in that slot, and an edge of another vertex through a start
    vertex becomes the upper neighbour of that vertex's upper edge.

    The pair returned is the first pair of status neighbours tested
    that share a point, or the first two coinciding vertices.  It is a
    real contact, and the same one on every run of the same ring, but
    not always the first in (i, j) order.

    _check_polygon runs the sweep only where _boxes_prove_simple has
    not proved the ring simple: on every ring with a contact, to name
    it, and on rings too dense for the pre-pass's budget, where it keeps
    validation within O(n log n).
    """
    n = len(pts)

    def meet(s: tuple[Point, Point, int],
             t: tuple[Point, Point, int]) -> tuple[int, int] | None:
        i, j = s[2], t[2]
        if (i - j) % n in (1, n - 1) or not _segments_share_point(
                s[0], s[1], t[0], t[1]):
            return None
        return (i, j) if i < j else (j, i)

    # each status entry is an edge as (start, end, index)
    status: list[tuple[Point, Point, int]] = []
    u = -1
    for v in sorted(range(n), key=pts.__getitem__):
        p = pts[v]
        if u >= 0 and pts[u] == p:
            return u, v  # the sort is stable, so u < v
        u = v
        px, py = p
        a, b = pts[v - 1], pts[(v + 1) % n]
        starts = [(p, q, i) for q, i in ((a, (v - 1) % n), (b, v)) if q > p]
        if len(starts) == 2 and \
                (a[0] - px) * (b[1] - py) < (b[0] - px) * (a[1] - py):
            starts.reverse()  # the edge to b is the lower one
        lo = _first_not_below(status, px, py)
        hi = lo + len(starts)  # the slot status[lo:hi] after the swap
        status[lo:lo + 2 - len(starts)] = starts
        if 0 < lo < len(status) and (pair := meet(status[lo - 1], status[lo])):
            return pair
        if lo < hi < len(status) and (pair := meet(status[hi - 1], status[hi])):
            return pair
    return None


def _polygon(ring: tuple[Point, ...], doubled: int) -> LatticePolygon:
    _check_polygon(ring, doubled)
    poly = object.__new__(LatticePolygon)
    poly.__dict__.update(ring=ring, twice_area=doubled)
    return poly


def _ring_polygon(ring: tuple[Point, ...]) -> LatticePolygon:
    """The LatticePolygon of the ring ``ring`` of (x, y) pairs of exact
    ints, reversed if it winds clockwise, built as validate_polygon
    builds it but with its shoelace sum taken once and its vertices
    made only on first access.  Raises the same PolygonError, with
    indices into ``ring`` in either orientation."""
    doubled = _twice_area(ring)
    if doubled < 0:
        try:
            return _polygon(ring[:1] + ring[:0:-1], -doubled)
        except PolygonError:
            pass  # the same fault is raised below, in the caller's order
    return _polygon(ring, doubled)


def validate_polygon(vertices: Sequence[LatticePoint]) -> LatticePolygon:
    """Build a LatticePolygon from raw vertices, reversing clockwise
    input so the result always winds counterclockwise.  Raises a
    PolygonError subclass describing the first problem found, with
    indices into ``vertices`` in either orientation."""
    vs = tuple(vertices)
    ring = tuple([(v.x, v.y) for v in vs])
    poly = _ring_polygon(ring)
    # the caller's own points, in the polygon's order
    poly.__dict__["vertices"] = vs if poly.ring is ring else vs[:1] + vs[:0:-1]
    return poly


def twice_polygon_area(poly: LatticePolygon) -> int:
    """Doubled area of the polygon by the shoelace sum, computed once
    when it was validated; always a positive integer."""
    return poly.twice_area


def point_in_polygon(p: LatticePoint, poly: LatticePolygon) -> PointLocation:
    """Exact classification of p as interior, boundary, or exterior."""
    return _classify_point(p.x, p.y, _edge_quads(poly.ring))
