"""Lattice-point counting and the area identity twice_area = 2i + u - 2.

boundary_count is a gcd sum over the edges.  interior_count_oracle and
the triangle counters count interior points edge by edge with one
Euclid-like floor sum per non-vertical edge, in O(n log C) integer
work for n edges and coordinates up to C, never touching the area.
Both polygon counters read the (x, y) int ring that the polygon built
once, when it was validated, and make no LatticePoint.
polygon_lattice_points lists the points themselves with one exact
scan of the edges' crossings row by row, in O(rows * edges + points).
verify_pick and verify_additivity pit the counts against the shoelace
area and fail loudly on any disagreement, which is the whole point of
keeping both.  Every function here takes any valid polygon, whatever
its bounding box: the size guards belong to the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .core import (
    GeometryError,
    InternalInvariantError,
    LatticePoint,
    LatticePolygon,
    Point,
    PointLocation,
    PolygonError,
    PreconditionError,
    _oriented,
    edge_gcd,
    point_in_polygon,
    point_on_segment,
    segment_lattice_points,
    twice_polygon_area,
)

class InvalidCutError(GeometryError):
    """A requested polygon cut does not split it into two simple parts."""


@dataclass(frozen=True)
class PickCount:
    """Interior count, boundary count, and doubled area of one polygon.
    Construction enforces twice_area == 2*interior + boundary - 2, so a
    PickCount cannot exist unless the identity holds."""

    interior: int
    boundary: int
    twice_area: int

    def __post_init__(self) -> None:
        if self.boundary < 3:
            raise InternalInvariantError("a polygon has at least 3 boundary points")
        if self.twice_area != 2 * self.interior + self.boundary - 2:
            raise InternalInvariantError(
                f"area identity violated: twice_area={self.twice_area}, "
                f"interior={self.interior}, boundary={self.boundary}")


@dataclass(frozen=True)
class AdditivityWitness:
    """Counts collected from a polygon split in two along a cut path,
    with ``d`` the number of lattice points on the cut (shared endpoints
    counted once).  Construction enforces the transfer identities
    i = i1 + i2 + d - 2 and u = u1 + u2 - 2d + 2, which imply that the
    doubled areas add: 2i + u - 2 = (2i1 + u1 - 2) + (2i2 + u2 - 2)."""

    interior: int
    boundary: int
    interior_1: int
    boundary_1: int
    interior_2: int
    boundary_2: int
    cut_points: int

    def __post_init__(self) -> None:
        i, u, d = self.interior, self.boundary, self.cut_points
        i1, u1 = self.interior_1, self.boundary_1
        i2, u2 = self.interior_2, self.boundary_2
        if i != i1 + i2 + d - 2:
            raise InternalInvariantError("interior transfer identity violated")
        if u != u1 + u2 - 2 * d + 2:
            raise InternalInvariantError("boundary transfer identity violated")


def boundary_count(poly: LatticePolygon) -> int:
    """Number of lattice points on the polygon boundary: the sum of
    edge gcds, each edge contributing its half-open point count."""
    ring = poly.ring
    return sum(gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1)
               in zip(ring, ring[1:] + ring[:1]))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of (a*t + b) // m over t in [0, n), for n >= 0 and m >= 1,
    in O(log m) steps of Euclid's algorithm on (m, a).  Each step peels
    off the whole quotients of a and b, then swaps the roles of the
    two axes under the line (a*t + b) / m: Graham, Knuth & Patashnik,
    Concrete Mathematics, section 3.5, in the form of floor_sum in the
    AtCoder Library (atcoder/math.hpp)."""
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _interior_count(pts: Sequence[Point]) -> int:
    """Interior lattice points of the counterclockwise ring ``pts`` of
    (x, y) int pairs.

    Nudge every lattice point p to p + (eps, delta) with
    0 < eps << delta << 1.  The nudged points miss every vertex and
    edge, and a nudged interior point stays inside.  T counts the
    lattice points whose nudge lands inside, column by column: on the
    line x + eps, the edges with x in [x_left, x_right) cross at f(x) +
    eps * slope, the inside runs from each edge running right up to the
    next one running left, and a run from f to g holds ceil(g) - ceil(f)
    nudged points.  So T is the sum of ceil(f(x)) over the columns of
    the edges running left, minus that over the edges running right,
    one _floor_sum each.  B counts the boundary points whose nudge lands
    inside: (eps, 1) lies left of a direction (dx, dy) iff dx > 0, or
    dx == 0 and dy < 0; an edge's relative interior counts iff it lies
    left of the edge, and a vertex counts iff it lies inside the corner,
    that is left of both edges at a convex vertex and of either at a
    reflex or straight one.  The interior count is T - B.

    Each edge's sum also has a closed form (Concrete Mathematics,
    equation 3.32), but summed over the edges it turns back into the
    shoelace sum plus gcd terms; the Euclid-like route keeps this count
    independent of the area verify_pick checks it against.
    """
    (px, py), (qx, qy) = pts[-1], pts[0]
    in_x, in_y = qx - px, qy - py
    in_left = in_x > 0 or (in_x == 0 and in_y < 0)
    count = 0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        dx, dy = x1 - x0, y1 - y0
        left = dx > 0 or (dx == 0 and dy < 0)
        if in_x * dy - in_y * dx > 0:
            count -= left and in_left
        else:
            count -= left or in_left
        if dx > 0:
            count -= (y0 * dx + _floor_sum(dx, dx, dy, dx - 1)
                      + gcd(dx, dy) - 1)
        elif dx < 0:
            count += y1 * -dx + _floor_sum(-dx, -dx, -dy, -dx - 1)
        elif dy < 0:
            count += dy + 1
        in_x, in_y, in_left = dx, dy, left
    return count


def interior_count_oracle(poly: LatticePolygon) -> int:
    """Count interior lattice points exactly, by one floor sum per
    non-vertical edge (_interior_count), in O(n log C) whatever the
    bounding box, independent of the shoelace area and of the gcd
    boundary sum."""
    return _interior_count(poly.ring)


def polygon_lattice_points(poly: LatticePolygon,
                           ) -> tuple[list[LatticePoint], list[LatticePoint]]:
    """All (interior, boundary) lattice points of the polygon in
    row-major order (by y, then x), in O(rows * edges + points): the
    caller pays for every point it asks for.  Each row's boundary x's
    come from the edges' own lattice points.  The edges
    crossing row y by the half-open rule (y1 > y) != (y2 > y) bound its
    inside runs, whose other lattice x's are interior.  A crossing x is
    keyed as the integer 2*floor(x) + (0 if x is integral else 1); that
    orders it exactly against every integer, and crossings sharing a
    key lie in one open unit interval, so no fractions are compared."""
    on_row: dict[int, set[int]] = {}
    slanted = []  # (ylo, yhi, dx, dy > 0, offset): x = (offset + y*dx) / dy
    for p, q in poly.edges():
        g = edge_gcd(p, q)
        sx, sy = (q.x - p.x) // g, (q.y - p.y) // g
        if sy == 0:
            on_row.setdefault(p.y, set()).update(range(p.x, q.x, sx))
            continue
        for k in range(g):
            on_row.setdefault(p.y + k * sy, set()).add(p.x + k * sx)
        if sy < 0:
            p, q = q, p
        dx, dy = q.x - p.x, q.y - p.y
        slanted.append((p.y, q.y, dx, dy, p.x * dy - p.y * dx))
    interior: list[LatticePoint] = []
    boundary: list[LatticePoint] = []
    for y in range(min(on_row), max(on_row) + 1):
        keys = []
        for ylo, yhi, dx, dy, offset in slanted:
            if ylo <= y < yhi:
                x, frac = divmod(offset + y * dx, dy)
                keys.append(2 * x + 1 if frac else 2 * x)
        keys.sort()
        on_boundary = on_row.get(y, ())
        for lo, hi in zip(keys[::2], keys[1::2]):
            interior += [LatticePoint(x, y)
                         for x in range((lo + 1) // 2, hi // 2 + 1)
                         if x not in on_boundary]
        boundary += [LatticePoint(x, y) for x in sorted(on_boundary)]
    return interior, boundary


def triangle_lattice_counts(a: LatticePoint, b: LatticePoint, c: LatticePoint,
                            ) -> tuple[int, int]:
    """(interior, boundary) lattice-point counts of triangle abc, in
    either orientation, by floor sums and edge gcds in O(log C)."""
    a, b, c, _ = _oriented(a, b, c)
    return (_interior_count(((a.x, a.y), (b.x, b.y), (c.x, c.y))),
            edge_gcd(a, b) + edge_gcd(b, c) + edge_gcd(c, a))


def closed_triangle_count(a: LatticePoint, b: LatticePoint,
                          c: LatticePoint) -> int:
    """Number of lattice points in the closed triangle abc, in O(log C)."""
    return sum(triangle_lattice_counts(a, b, c))


def pick_twice_area(interior: int, boundary: int) -> int:
    """Doubled area from the counts: 2*interior + boundary - 2.
    Requires boundary >= 3 (every polygon has at least its vertices)."""
    if boundary < 3:
        raise PreconditionError(f"boundary count must be >= 3, got {boundary}")
    return 2 * interior + boundary - 2


def verify_pick(poly: LatticePolygon) -> PickCount:
    """Count interior points by floor sums and boundary points by gcd
    sum, in O(n log C), and check the result against the shoelace area,
    which neither count uses.  The returned PickCount re-asserts the
    identity on construction; disagreement is unreachable unless there
    is a bug."""
    interior = interior_count_oracle(poly)
    boundary = boundary_count(poly)
    if boundary < len(poly.ring):
        raise InternalInvariantError(
            "boundary count fell below the vertex count")
    return PickCount(interior, boundary, twice_polygon_area(poly))


def _ring_with_points(poly: LatticePolygon,
                      extra: tuple[LatticePoint, ...]) -> list[LatticePoint]:
    ring: list[LatticePoint] = []
    vs = poly.vertices
    for i, v in enumerate(vs):
        ring.append(v)
        w = vs[(i + 1) % len(vs)]
        between = [p for p in extra
                   if p != v and p != w and point_on_segment(p, v, w)]
        between.sort(key=lambda p: (p.x - v.x) ** 2 + (p.y - v.y) ** 2)
        ring.extend(between)
    return ring


def verify_additivity(poly: LatticePolygon, a: LatticePoint, d: LatticePoint,
                      b: LatticePoint) -> AdditivityWitness:
    """Split ``poly`` along the path A-D-B and check that the lattice
    counts of the parts recombine exactly.

    A and B must be boundary lattice points and D an interior one;
    passing D equal to A degenerates the path to the single chord A-B.
    The cut segments must stay strictly inside the polygon except at
    their boundary endpoints, otherwise InvalidCutError is raised.  The
    returned witness re-asserts the transfer identities on construction.

    The parts, the boundary arc A->B closed through D and the arc B->A
    closed through D, are built as LatticePolygons as they come, never
    reversed.  Their cut edges cancel, so their winding numbers add up
    to the polygon's; both simple and counterclockwise makes each 0 or
    1, so the parts tile the polygon and the cut runs inside it.  A cut
    that touches the boundary, runs along an edge, doubles back on
    itself or leaves the polygon makes a part non-simple, degenerate or
    clockwise instead.
    """
    if a == b:
        raise InvalidCutError("cut endpoints A and B must differ")
    for name, pt in (("A", a), ("B", b)):
        if point_in_polygon(pt, poly) is not PointLocation.BOUNDARY:
            raise InvalidCutError(f"cut point {name}={pt} is not on the boundary")
    path = [a, b] if d == a else [a, d, b]
    if d != a and point_in_polygon(d, poly) is not PointLocation.INTERIOR:
        raise InvalidCutError(f"cut point D={d} is not an interior lattice point")

    ring = _ring_with_points(poly, (a, b))
    ia, ib = ring.index(a), ring.index(b)

    def arc(i: int, j: int) -> list[LatticePoint]:
        return ring[i:j + 1] if i <= j else ring[i:] + ring[:j + 1]

    try:
        part1 = LatticePolygon(tuple(arc(ia, ib) + path[1:-1]))
        part2 = LatticePolygon(tuple(arc(ib, ia) + path[1:-1]))
    except PolygonError as exc:
        # the cause's indices count the part's vertices, not the polygon's
        raise InvalidCutError("cut does not split the polygon into two "
                              "simple counterclockwise parts") from exc

    whole = verify_pick(poly)
    first = verify_pick(part1)
    second = verify_pick(part2)
    cut_points = {p for s, t in zip(path, path[1:])
                  for p in segment_lattice_points(s, t)}
    return AdditivityWitness(
        interior=whole.interior, boundary=whole.boundary,
        interior_1=first.interior, boundary_1=first.boundary,
        interior_2=second.interior, boundary_2=second.boundary,
        cut_points=len(cut_points))
