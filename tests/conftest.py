"""Shared generators and oracles for randomized geometry tests.

Random polygons are built by sampling distinct lattice points and
sorting them counterclockwise around their centroid with an exact
integer comparator, then retrying until the result passes validation.
That keeps every generated case inside the library's own preconditions
without ever touching floating point.

The lattice-point oracle here classifies every point of the bounding
box with the per-point ray test, independently of the row scan the
library counts with.
"""

from __future__ import annotations

import math
import random
from functools import cmp_to_key
from typing import Sequence

from latticepick import (
    GeometryError,
    LatticePoint,
    LatticePolygon,
    LatticeTriangle,
    PointLocation,
    extended_gcd,
    gcd_edge_split,
    twice_signed_area,
    validate_polygon,
)
from latticepick.core import _classify_point, _edge_quads


def box_scan_points(vertices: Sequence[LatticePoint],
                    ) -> tuple[list[LatticePoint], list[LatticePoint]]:
    """(interior, boundary) lattice points of the closed ring
    ``vertices`` in row-major order, by classifying every point of its
    bounding box.  O(box * edges): keep inputs small."""
    quads = _edge_quads(vertices)
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


def boundary_count_oracle(poly: LatticePolygon) -> int:
    """Boundary lattice points by plain enumeration, for checking the
    gcd sum boundary_count."""
    return len(box_scan_points(poly.vertices)[1])


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
