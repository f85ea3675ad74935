"""Shared generators and oracles for randomized geometry tests.

Random polygons are built by sampling distinct lattice points and
sorting them counterclockwise around their centroid with an exact
integer comparator, then retrying until the result passes validation.
That keeps every generated case inside the library's own preconditions
without ever touching floating point.

The lattice-point oracles here classify every point of the bounding
box with the per-point ray test, or count the points that the row scan
polygon_lattice_points lists; the library counts with floor sums,
independently of both.  The polygon check that tests every pair of
non-adjacent edges and the ear clipper that rescans the ring on every
pass are kept here as oracles for the sweep in latticepick.core and
the indexed ear clipper in latticepick.triangulate.  The segment-by-
segment cut check is kept as the oracle for verify_additivity, which
decides a cut by validating the two parts it makes.  The scan over all
candidate split positions is the oracle for the O(1) Bezout
construction of latticepick.bezout, and the split step built on that
scan, which splits one triangle at a time, is the oracle for the
refinement kernel of latticepick.triangulate.  The global tiling
certificate, which cancels the directed edges of all 2A finished
triangles against the polygon's primitive boundary edges, is the
oracle for the proof that the library builds as it refines: the ears
tile the polygon, and each split's children tile their parent.  The
fan sum of triangle areas is the oracle for the shoelace sum a polygon
keeps, and the tokenizing reader of the plain format is the oracle for
the one-regex fast path of latticepick.cli.
"""

from __future__ import annotations

import math
import random
import re
import time
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Sequence

import pytest

from latticepick import (
    COORDINATE_LIMIT,
    CoordinateRangeError,
    DegenerateTriangleError,
    GeometryError,
    InternalInvariantError,
    LatticePoint,
    LatticePolygon,
    LatticeTriangle,
    PointLocation,
    PolygonError,
    PreconditionError,
    RepeatedVertexError,
    SelfIntersectionError,
    SplitRule,
    TooFewVerticesError,
    Triangulation,
    ZeroAreaError,
    extended_gcd,
    gcd_edge_split,
    initial_triangulation,
    point_in_polygon,
    point_on_segment,
    polygon_lattice_points,
    primitive_triangulation,
    twice_polygon_area,
    twice_signed_area,
    validate_polygon,
)
from latticepick.cli import PolygonParseError
from latticepick.core import _classify_point, _edge_lattice_points, _edge_quads
from latticepick.triangulate import EventTuple, TriangleTuple


def box_scan_points(vertices: Sequence[LatticePoint],
                    ) -> tuple[list[LatticePoint], list[LatticePoint]]:
    """(interior, boundary) lattice points of the closed ring
    ``vertices`` in row-major order, by classifying every point of its
    bounding box.  O(box * edges): keep inputs small."""
    quads = _edge_quads([(v.x, v.y) for v in vertices])
    xs = [v.x for v in vertices]
    ys = [v.y for v in vertices]
    interior: list[LatticePoint] = []
    boundary: list[LatticePoint] = []
    for y in range(min(ys), max(ys) + 1):
        for x in range(min(xs), max(xs) + 1):
            loc = _classify_point(x, y, quads)
            if loc is PointLocation.INTERIOR:
                interior.append(LatticePoint(x, y))
            elif loc is PointLocation.BOUNDARY:
                boundary.append(LatticePoint(x, y))
    return interior, boundary


def row_scan_counts(vertices: Sequence[LatticePoint]) -> tuple[int, int]:
    """(interior, boundary) lattice-point counts of the closed ring
    ``vertices``, in either orientation, as the lengths of the lists
    that the row scan polygon_lattice_points returns: the oracle for the
    floor-sum counters.  O(rows * edges + points)."""
    interior, boundary = polygon_lattice_points(validate_polygon(vertices))
    return len(interior), len(boundary)


def row_scan_triangle_counts(a: LatticePoint, b: LatticePoint,
                             c: LatticePoint) -> tuple[int, int]:
    """row_scan_counts of triangle abc; collinear corners raise
    DegenerateTriangleError, as in triangle_lattice_counts."""
    if twice_signed_area(a, b, c) == 0:
        raise DegenerateTriangleError(f"collinear vertices {a}, {b}, {c}")
    return row_scan_counts((a, b, c))


def boundary_count_oracle(poly: LatticePolygon) -> int:
    """Boundary lattice points by plain enumeration, for checking the
    gcd sum boundary_count."""
    return len(box_scan_points(poly.vertices)[1])


def shoelace_oracle(vertices: Sequence[LatticePoint]) -> int:
    """Doubled signed area of the closed ring ``vertices``, as the sum
    of the doubled signed areas of the fan of triangles from its first
    vertex, for checking the library's shoelace sum."""
    o = vertices[0]
    return sum((a.x - o.x) * (b.y - o.y) - (b.x - o.x) * (a.y - o.y)
               for a, b in zip(vertices[1:], vertices[2:]))


_TOKEN = re.compile(r"\S+")
_INT_TOKEN = re.compile(r"[+-]?[0-9]+\Z")
_MAX_DIGITS = 4300


def tokenizing_parse_plain(text: str) -> list[LatticePoint]:
    """The plain format read by splitting every non-blank,
    comment-stripped line into whitespace-separated tokens and checking
    each one: the oracle for the one-regex fast path of
    latticepick.cli._parse_plain, which must give the same vertices or
    raise the same PolygonParseError, line and column included."""
    vertices = []
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = list(_TOKEN.finditer(line))
        if len(tokens) != 2:
            raise PolygonParseError(
                f"expected two integers per vertex line, got {len(tokens)} tokens",
                line=lineno)
        coords = []
        for match in tokens:
            tok, column = match.group(), match.start() + 1
            if not _INT_TOKEN.match(tok):
                raise PolygonParseError(f"non-integer coordinate {tok!r}",
                                        line=lineno, column=column)
            if len(tok.lstrip("+-")) > _MAX_DIGITS:
                raise PolygonParseError(f"coordinate over {_MAX_DIGITS} digits",
                                        line=lineno, column=column)
            coords.append(int(tok))
        vertices.append(LatticePoint(coords[0], coords[1]))
    return vertices


def angular_sort(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Order points counterclockwise around their centroid, starting in
    the upper half plane.  All comparisons are exact: coordinates are
    scaled by len(points) so the centroid stays integral, ties in angle
    fall back to squared distance."""
    k = len(points)
    cx = sum(x for x, _ in points)
    cy = sum(y for _, y in points)

    def half(p: tuple[int, int]) -> int:
        dx, dy = p[0] * k - cx, p[1] * k - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(p: tuple[int, int], q: tuple[int, int]) -> int:
        hp, hq = half(p), half(q)
        if hp != hq:
            return hp - hq
        px, py = p[0] * k - cx, p[1] * k - cy
        qx, qy = q[0] * k - cx, q[1] * k - cy
        cross = px * qy - py * qx
        if cross != 0:
            return -1 if cross > 0 else 1
        return (px * px + py * py) - (qx * qx + qy * qy)

    return sorted(points, key=cmp_to_key(compare))


def random_lattice_polygon(rng: random.Random, n_points: int,
                           span: int) -> LatticePolygon:
    """A valid random polygon with ``n_points`` distinct vertices drawn
    from the square window [-span, span]^2."""
    while True:
        pts: set[tuple[int, int]] = set()
        while len(pts) < n_points:
            pts.add((rng.randint(-span, span), rng.randint(-span, span)))
        ordered = angular_sort(list(pts))
        try:
            return validate_polygon([LatticePoint(x, y) for x, y in ordered])
        except GeometryError:
            continue


CORPUS_SEED = 20260814
CORPUS_SIZE = 500
CORPUS_SPANS = (3, 3, 4, 4, 6, 6, 9, 9, 14, 20)


@dataclass(frozen=True)
class TriangulatedCorpus:
    polygons: tuple[LatticePolygon, ...]
    results: tuple[Triangulation, ...]
    triangulate_seconds: float


@pytest.fixture(scope="session")
def triangulated_corpus() -> TriangulatedCorpus:
    """500 random polygons (<= 12 vertices, coordinates in [-20, 20])
    and their primitive triangulations, shared by acceptance criteria
    2, 5 and 6 and the SVG point check."""
    rng = random.Random(CORPUS_SEED)
    polygons = tuple(
        random_lattice_polygon(rng, rng.randint(3, 12), rng.choice(CORPUS_SPANS))
        for _ in range(CORPUS_SIZE))
    start = time.perf_counter()
    results = tuple(primitive_triangulation(poly) for poly in polygons)
    elapsed = time.perf_counter() - start
    return TriangulatedCorpus(polygons, results, elapsed)


def random_triangle_corners(rng: random.Random, span: int
                            ) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
    """Three non-collinear lattice points in [-span, span]^2."""
    while True:
        a = LatticePoint(rng.randint(-span, span), rng.randint(-span, span))
        b = LatticePoint(rng.randint(-span, span), rng.randint(-span, span))
        c = LatticePoint(rng.randint(-span, span), rng.randint(-span, span))
        if twice_signed_area(a, b, c) != 0:
            return a, b, c


def random_primitive_vector(rng: random.Random, span: int) -> tuple[int, int]:
    """A nonzero vector with coprime components, at most span in each
    coordinate."""
    while True:
        dx = rng.randint(-span, span)
        dy = rng.randint(-span, span)
        if (dx, dy) != (0, 0) and math.gcd(abs(dx), abs(dy)) == 1:
            return dx, dy


def random_unimodular_triangle(rng: random.Random, span: int
                               ) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
    """A triangle of doubled area exactly 1: take a primitive edge
    vector, extend one Bezout companion to the opposite corner, and
    shear the companion by a random multiple of the edge."""
    base = LatticePoint(rng.randint(-span, span), rng.randint(-span, span))
    dx, dy = random_primitive_vector(rng, span)
    bez = extended_gcd(dx, dy)
    # (dx, dy) x (wx, wy) == dx*wy - dy*wx == 1 for the companion below.
    wx, wy = -bez.t, bez.s
    shift = rng.randint(-2, 2)
    apex = LatticePoint(base.x + wx + shift * dx, base.y + wy + shift * dy)
    return base, LatticePoint(base.x + dx, base.y + dy), apex


def random_splittable_triangle(rng: random.Random, span: int,
                               min_doubled_area: int = 2) -> LatticeTriangle:
    """A ccw triangle with every edge primitive and doubled area at
    least ``min_doubled_area``; these are exactly the triangles the
    interior split step has to handle."""
    while True:
        a, b, c = random_triangle_corners(rng, span)
        tri = LatticeTriangle.from_points(a, b, c)
        if tri.twice_area >= min_doubled_area and gcd_edge_split(tri) is None:
            return tri


def split_point_scan(a: LatticePoint, b: LatticePoint,
                     c: LatticePoint) -> LatticePoint:
    """The lattice point that interior_split_point(a, b, c) constructs,
    found by scanning.  With A and B the offsets of a and b from the
    pivot c and n the doubled area, try all n candidate positions
    c + ((n-i)*A + (i-1)*B) / n for i = 1..n and return the single one
    with integer coordinates.  O(n).  Same preconditions as the
    construction; any number of hits other than one raises
    InternalInvariantError."""
    ax, ay = a.x - c.x, a.y - c.y
    bx, by = b.x - c.x, b.y - c.y
    n = abs(ax * by - bx * ay)
    if n == 0:
        raise DegenerateTriangleError("triangle vertices are collinear")
    if n == 1 or math.gcd(ax - bx, ay - by) != 1:
        raise PreconditionError("no interior split point to scan for")
    hits = []
    for i in range(1, n + 1):
        px = (n - i) * ax + (i - 1) * bx
        py = (n - i) * ay + (i - 1) * by
        if px % n == 0 and py % n == 0:
            hits.append(LatticePoint(c.x + px // n, c.y + py // n))
    if len(hits) != 1:
        raise InternalInvariantError(
            f"expected exactly one lattice point among the {n} candidate "
            f"positions, found {len(hits)}")
    return hits[0]


def split_oracle(a: tuple[int, int], b: tuple[int, int],
                 c: tuple[int, int], s: int,
                 ) -> tuple[SplitRule, tuple[int, int], tuple[TriangleTuple, ...]]:
    """One refinement step on the counterclockwise triangle abc of
    doubled area s > 1, written apart from the kernel
    latticepick.triangulate._steps: the first edge PQ, in the order ab,
    bc, ca, whose deltas have gcd k > 1 splits at the lattice point one
    step from P, into (P, D, O) and (Q, O, D) with O the opposite
    vertex; with every edge primitive, abc splits into (a, b, D),
    (a, D, c) and (b, c, D) at the point D that split_point_scan finds
    with c as the pivot.  Each child must be counterclockwise and
    non-degenerate, and their doubled areas must sum to s; anything
    else raises InternalInvariantError."""
    for p, q, o in ((a, b, c), (b, c, a), (c, a, b)):
        k = math.gcd(q[0] - p[0], q[1] - p[1])
        if k > 1:
            d = (p[0] + (q[0] - p[0]) // k, p[1] + (q[1] - p[1]) // k)
            rule, corners = SplitRule.EDGE_GCD, ((p, d, o), (q, o, d))
            break
    else:
        point = split_point_scan(LatticePoint(*a), LatticePoint(*b),
                                 LatticePoint(*c))
        d = (point.x, point.y)
        rule = SplitRule.INTERIOR_POINT
        corners = ((a, b, d), (a, d, c), (b, c, d))
    children = tuple(
        (u, v, w, twice_signed_area(*(LatticePoint(*pt) for pt in (u, v, w))))
        for u, v, w in corners)
    if any(ch[3] <= 0 for ch in children):
        raise InternalInvariantError(
            f"{rule.value} at {d} gives a clockwise or degenerate child")
    if sum(ch[3] for ch in children) != s:
        raise InternalInvariantError(
            f"{rule.value} at {d}: children do not cover the parent")
    return rule, d, children


def refine_oracle(poly: LatticePolygon,
                  ) -> tuple[tuple[TriangleTuple, ...], tuple[EventTuple, ...]]:
    """The finished triangles and the split log of refining the
    ear-clipped triangles of ``poly`` one split_oracle step at a time,
    depth-first, children in construction order: what
    primitive_triangulation must give as triangle_tuples and
    event_tuples."""
    stack = [tuple((v.x, v.y) for v in t.vertices) + (t.twice_area,)
             for t in reversed(initial_triangulation(poly))]
    done, events = [], []
    while stack:
        tri = stack.pop()
        if tri[3] == 1:
            done.append(tri)
            continue
        rule, d, children = split_oracle(*tri)
        events.append((tri, rule, d, children))
        stack.extend(reversed(children))
    return tuple(done), tuple(events)


def tiling_oracle(poly: LatticePolygon, tris: Sequence[TriangleTuple]) -> None:
    """Prove that ``tris`` tile ``poly`` with triangles of doubled
    area 1, or raise InternalInvariantError.

    Every triangle must be counterclockwise with doubled area 1,
    recomputed from its vertices, and there must be
    twice_polygon_area(poly) of them.  Each directed edge cancels a
    pending copy of its reverse or waits for one, in a dict probed once
    per edge; what is left must be exactly the polygon's
    counterclockwise primitive boundary edges.  The triangles then sum,
    as a 2-chain, to the polygon: every point off the edges lies in
    exactly one triangle, so there is no overlap and no gap.
    """
    if len(tris) != twice_polygon_area(poly):
        raise InternalInvariantError(
            "triangle count must equal the doubled polygon area")
    pending: dict[tuple[tuple[int, int], tuple[int, int]], bool] = {}
    cancelled = 0
    for a, b, c, _ in tris:
        (ax, ay), (bx, by), (cx, cy) = a, b, c
        if (bx - ax) * (cy - ay) - (cx - ax) * (by - ay) != 1:
            raise InternalInvariantError(
                f"triangle {a} {b} {c} is not counterclockwise "
                "of doubled area 1")
        for edge in (a, b), (b, c), (c, a):
            if pending.pop(edge[::-1], False):
                cancelled += 1
            else:
                pending[edge] = True
    # an add that found its edge already pending was lost; the dict
    # then no longer holds the edge sum
    if len(pending) != 3 * len(tris) - 2 * cancelled:
        raise InternalInvariantError("two triangles share a directed edge")
    boundary = set()
    for points in _edge_lattice_points(poly.ring):
        boundary.update(zip(points, points[1:]))
    if pending.keys() != boundary:
        raise InternalInvariantError(
            "triangle edges do not cancel to the polygon boundary")


def _in_box(p: LatticePoint, a: LatticePoint, b: LatticePoint) -> bool:
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def _segments_share_point(p1: LatticePoint, p2: LatticePoint,
                          q1: LatticePoint, q2: LatticePoint) -> bool:
    """Whether closed segments p1p2 and q1q2 have any point in common."""
    d1 = twice_signed_area(q1, q2, p1)
    d2 = twice_signed_area(q1, q2, p2)
    d3 = twice_signed_area(p1, p2, q1)
    d4 = twice_signed_area(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) \
            and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _in_box(p1, q1, q2):
        return True
    if d2 == 0 and _in_box(p2, q1, q2):
        return True
    if d3 == 0 and _in_box(q1, p1, p2):
        return True
    if d4 == 0 and _in_box(q2, p1, p2):
        return True
    return False


def edges_touch(vs: Sequence[LatticePoint], i: int, j: int) -> bool:
    """Whether edges i < j of the ring ``vs`` are not adjacent and share
    a point."""
    n = len(vs)
    return (0 <= i < j - 1 < n - 1 and not (i == 0 and j == n - 1)
            and _segments_share_point(vs[i], vs[(i + 1) % n],
                                      vs[j], vs[(j + 1) % n]))


def pairwise_simplicity_oracle(vs: Sequence[LatticePoint]) -> None:
    """Check a counterclockwise ring as LatticePolygon does, testing
    every pair of non-adjacent edges, O(n^2); raises the PolygonError
    of the first failed check.  A self-intersection names the first
    pair in (i, j) order, which LatticePolygon need not name; every
    other error has the same message and indices."""
    n = len(vs)
    if n < 3:
        raise TooFewVerticesError(f"need at least 3 vertices, got {n}")
    for i, v in enumerate(vs):
        if abs(v.x) > COORDINATE_LIMIT or abs(v.y) > COORDINATE_LIMIT:
            raise CoordinateRangeError(
                f"vertex {i} at {v} exceeds |coordinate| <= 2**31", (i,))
    for i in range(n):
        j = (i + 1) % n
        if vs[i] == vs[j]:
            raise RepeatedVertexError(f"vertices {i} and {j} coincide", (i, j))
    for i in range(n):
        a, b, c = vs[i - 1], vs[i], vs[(i + 1) % n]
        if twice_signed_area(a, b, c) == 0 and (b - a).dot(c - b) < 0:
            raise SelfIntersectionError(
                f"edge {i} folds back onto edge {(i - 1) % n}",
                ((i - 1) % n, i))
    for i in range(n):
        for j in range(i + 2, n):
            if edges_touch(vs, i, j):
                raise SelfIntersectionError(
                    f"edges {i} and {j} intersect", (i, j))
    area2 = shoelace_oracle(vs)
    if area2 == 0:
        raise ZeroAreaError("polygon has zero area")
    if area2 < 0:
        raise PolygonError("vertices must wind counterclockwise; "
                           "use validate_polygon to normalize orientation")


def _chord_edge_conflict(p: LatticePoint, q: LatticePoint,
                         e1: LatticePoint, e2: LatticePoint) -> bool:
    """True if polygon edge e1e2 touches cut segment pq anywhere other
    than a single-point contact at p or q."""
    if not _segments_share_point(p, q, e1, e2):
        return False
    if twice_signed_area(p, q, e1) == 0 and twice_signed_area(p, q, e2) == 0:
        # collinear: measure the 1-D overlap along the dominant axis
        if abs(q.x - p.x) >= abs(q.y - p.y):
            c1, c2 = sorted((p.x, q.x))
            d1, d2 = sorted((e1.x, e2.x))
            pk, qk = p.x, q.x
        else:
            c1, c2 = sorted((p.y, q.y))
            d1, d2 = sorted((e1.y, e2.y))
            pk, qk = p.y, q.y
        lo, hi = max(c1, d1), min(c2, d2)
        return lo != hi or lo not in (pk, qk)
    return not (point_on_segment(p, e1, e2) or point_on_segment(q, e1, e2))


def _chord_inside(poly: LatticePolygon, p: LatticePoint,
                  q: LatticePoint) -> bool:
    if any(_chord_edge_conflict(p, q, e1, e2) for e1, e2 in poly.edges()):
        return False
    # no boundary contact besides the endpoints, so the open segment lies
    # entirely inside or entirely outside; test its midpoint at doubled scale
    doubled = [(2 * x1, 2 * y1, 2 * x2, 2 * y2)
               for x1, y1, x2, y2 in _edge_quads(poly.ring)]
    return _classify_point(p.x + q.x, p.y + q.y, doubled) is PointLocation.INTERIOR


def cut_inside_oracle(poly: LatticePolygon, a: LatticePoint, d: LatticePoint,
                      b: LatticePoint) -> bool:
    """Whether A-D-B (the chord A-B when D equals A) is a cut that
    verify_additivity accepts, by testing each cut segment against
    every edge and its midpoint against the polygon: A and B distinct
    boundary points, D interior, the segments not overlapping, and
    each segment touching the boundary only at its endpoints and
    running inside.  O(edges) per segment."""
    if a == b:
        return False
    if point_in_polygon(a, poly) is not PointLocation.BOUNDARY \
            or point_in_polygon(b, poly) is not PointLocation.BOUNDARY:
        return False
    if d == a:
        return _chord_inside(poly, a, b)
    if point_in_polygon(d, poly) is not PointLocation.INTERIOR:
        return False
    if twice_signed_area(a, d, b) == 0 and (a - d).dot(b - d) > 0:
        return False
    return _chord_inside(poly, a, d) and _chord_inside(poly, b, d)


def random_cut_polygon(rng: random.Random) -> LatticePolygon:
    """A small polygon to cut: star-shaped, or a polyomino with or
    without its straight vertices, mirrored half the time."""
    if rng.random() < 0.5:
        return random_lattice_polygon(rng, rng.randint(3, 9), rng.randint(2, 5))
    while (ring := cell_ring(random_polyomino(rng, rng.randint(1, 12)))) is None:
        pass
    if rng.random() < 0.5:
        ring = drop_straight_vertices(ring)
    sign = rng.choice((1, -1))
    return validate_polygon([LatticePoint(sign * x, y) for x, y in ring])


def random_cut(rng: random.Random, poly: LatticePolygon,
               ) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
    """Cut points (a, d, b) for verify_additivity: a and b boundary
    lattice points, equal once in 20 draws, and d equal to a (a chord),
    a lattice point on the line ab, or an interior, boundary or outside
    point of the polygon's bounding box grown by 1."""
    interior, boundary = polygon_lattice_points(poly)
    a, b = rng.sample(boundary, 2)
    if rng.random() < 0.05:
        b = a
    kind = rng.choices(("chord", "line", "interior", "boundary", "box"),
                       (3, 2, 4, 1, 1))[0]
    if kind == "line" and a != b:
        k = math.gcd(b.x - a.x, b.y - a.y)
        j = rng.randint(-1, k + 1)
        return a, LatticePoint(a.x + j * (b.x - a.x) // k,
                               a.y + j * (b.y - a.y) // k), b
    if kind == "interior" and interior:
        return a, rng.choice(interior), b
    if kind == "boundary":
        return a, rng.choice(boundary), b
    if kind == "box":
        xs = [v.x for v in poly.vertices]
        ys = [v.y for v in poly.vertices]
        return a, LatticePoint(rng.randint(min(xs) - 1, max(xs) + 1),
                               rng.randint(min(ys) - 1, max(ys) + 1)), b
    return a, a, b


def _in_closed_triangle(p: LatticePoint, a: LatticePoint, b: LatticePoint,
                        c: LatticePoint) -> bool:
    return (twice_signed_area(a, b, p) >= 0
            and twice_signed_area(b, c, p) >= 0
            and twice_signed_area(c, a, p) >= 0)


def ear_clip_oracle(poly: LatticePolygon) -> list[LatticeTriangle]:
    """Ear clipping that restarts at the first ring vertex on every
    pass and tests each candidate ear against the whole ring,
    O(n^3) at worst; clips the same ears in the same order as
    initial_triangulation."""
    ring = list(poly.vertices)
    out: list[LatticeTriangle] = []
    while len(ring) > 3:
        n = len(ring)
        for i in range(n):
            prev, cur, nxt = ring[i - 1], ring[i], ring[(i + 1) % n]
            if twice_signed_area(prev, cur, nxt) <= 0:
                continue
            skip = {(i - 1) % n, i, (i + 1) % n}
            if any(j not in skip and _in_closed_triangle(ring[j], prev, cur, nxt)
                   for j in range(n)):
                continue
            out.append(LatticeTriangle.from_points(prev, cur, nxt))
            del ring[i]
            break
        else:
            raise InternalInvariantError("no ear found in a simple polygon")
    out.append(LatticeTriangle.from_points(*ring))
    if sum(t.twice_area for t in out) != twice_polygon_area(poly):
        raise InternalInvariantError("ear clipping lost area")
    return out


def cell_ring(cells: set[tuple[int, int]]) -> list[tuple[int, int]] | None:
    """Counterclockwise boundary of a union of unit cells (x, y) to
    (x+1, y+1), with a vertex at every lattice point on it, starting at
    the smallest point; None if the union has a hole or two cells that
    meet only at a corner, since then its boundary is not simple."""
    edges: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for x, y in cells:
        corners = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
        for a, b in zip(corners, corners[1:] + corners[:1]):
            if (b, a) in edges:
                edges.remove((b, a))
            else:
                edges.add((a, b))
    step: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in edges:
        if a in step:
            return None
        step[a] = b
    ring = [min(step)]
    while step[ring[-1]] != ring[0]:
        ring.append(step[ring[-1]])
    return ring if len(ring) == len(step) else None


def drop_straight_vertices(ring: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The ring without its vertices of angle 180 degrees."""
    n = len(ring)
    return [b for i, b in enumerate(ring)
            if (b[0] - ring[i - 1][0]) * (ring[(i + 1) % n][1] - b[1])
            != (b[1] - ring[i - 1][1]) * (ring[(i + 1) % n][0] - b[0])]


def random_polyomino(rng: random.Random, size: int) -> set[tuple[int, int]]:
    """``size`` unit cells grown from (0, 0) by random neighbours."""
    cells = {(0, 0)}
    while len(cells) < size:
        x, y = rng.choice(sorted(cells))
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        cells.add((x + dx, y + dy))
    return cells


def spiral_cells(turns: int) -> set[tuple[int, int]]:
    """A square spiral path of unit cells whose arms are one cell
    apart, with 4 * turns straight runs."""
    cells = {(0, 0)}
    x = y = 0
    for k in range(4 * turns):
        dx, dy = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]
        for _ in range(2 * (k // 2) + 2):
            x, y = x + dx, y + dy
            cells.add((x, y))
    return cells


def sawtooth_ring(rng: random.Random, teeth: int) -> list[tuple[int, int]]:
    """Strip of height 1 with ``teeth`` random saw teeth on top."""
    top = []
    for i in range(teeth, 0, -1):
        top += [(2 * i, 1), (2 * i - 1, 1 + rng.randint(1, 3))]
    return [(0, 0), (2 * teeth, 0)] + top + [(0, 1)]


def comb_ring(rng: random.Random, teeth: int) -> list[tuple[int, int]]:
    """Rectilinear comb: a base of height 1 and ``teeth`` unit-wide
    teeth of random height, one unit apart."""
    ring = [(0, 0), (2 * teeth - 1, 0)]
    for i in range(teeth - 1, -1, -1):
        height = 1 + rng.randint(1, 4)
        ring += [(2 * i + 1, height), (2 * i, height)]
        if i:
            ring += [(2 * i, 1), (2 * i - 1, 1)]
    return ring


def staircase_ring(rng: random.Random, steps: int) -> list[tuple[int, int]]:
    """Staircase band climbing up and to the right with random step
    lengths; the upper chain is the lower one shifted by (-1, 1)."""
    lower = [(0, 0)]
    x = 0
    for y in range(steps):
        x += rng.randint(1, 2)
        lower += [(x, y), (x, y + 1)]
    return lower + [(px - 1, py + 1) for px, py in reversed(lower)]


def two_way_comb_ring(rng: random.Random, teeth: int) -> list[tuple[int, int]]:
    """A cell comb of ``teeth`` unit-wide teeth of random height 1-4 on a
    base row, joined to its image under (x, y) -> (-y - 1, x), without
    its straight vertices: sliver fans in two lattice directions
    (ROADMAP known defect 8)."""
    cells = {(x, 0) for x in range(2 * teeth - 1)}
    for i in range(teeth):
        cells |= {(2 * i, y) for y in range(1, 1 + rng.randint(1, 4))}
    ring = cell_ring(cells | {(-y - 1, x) for x, y in cells})
    assert ring is not None
    return drop_straight_vertices(ring)


def _square_point(r: int, t: int) -> tuple[int, int]:
    """The point at perimeter position t, 0 <= t < 8r, of the square of
    half-side r, counterclockwise from (r, 0)."""
    if t < r:
        return r, t
    if t < 3 * r:
        return 2 * r - t, r
    if t < 5 * r:
        return -r, 4 * r - t
    if t < 7 * r:
        return t - 6 * r, -r
    return r, t - 8 * r


def crossed_star_ring(n: int) -> list[tuple[int, int]]:
    """The star of ROADMAP known defect 7, with n even vertices: spikes
    on the square of half-side 10^6 alternate with a core on the square
    of half-side 10^4, each at the same share of its perimeter, so the
    ring is star-shaped about the origin.  The third-last vertex is then
    moved across the last spike, to the core between the last vertex
    and the first, so the edges on either side of it cross the last two
    edges.  Every edge's bounding box overlaps many others in x."""
    big, small = 10**6, 10**4
    ring = [_square_point(small, 8 * small * k // n) if k % 2
            else _square_point(big, 8 * big * k // n) for k in range(n)]
    ring[n - 3] = _square_point(small, 8 * small * (2 * n - 1) // (2 * n))
    return ring
