"""Locating the guaranteed lattice point inside a non-minimal triangle.

Take a lattice triangle with pivot c and doubled area n > 1, and let
u and v be the offsets of its other two vertices from c, ordered so
that u x v = n.  When the edge between them is primitive (w = v - u
has coprime coordinates), the segment joining (n-1)/n * u to
(n-1)/n * v carries exactly one lattice point.  Its offsets d are the
lattice points of the line d x w = n - 1 in the window
0 <= u x d <= n - 1; along the line u x d moves in steps of u x w = n,
so the window holds exactly one of them.  That point lies on or inside
the triangle but is never one of its vertices, which makes it a
splitting point for refinement.

The point is built in O(1), from one Bezout identity and one floor
division, in the input's own coordinates, in the private integer
routine _split_offset, which the refinement kernel in triangulate calls
on plain ints; interior_split_point is the same construction on three
LatticePoints, with its preconditions checked.  The Bezout pair comes
from the modular inverse that the builtin pow computes in C, so no
BezoutResult is built per split; any pair gives the same point, since
the window holds exactly one.  The O(n) scan over all n candidate
positions, which also proves the point unique, lives with the tests as
their oracle.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import (
    InternalInvariantError,
    LatticePoint,
    LatticeVector,
    PreconditionError,
    _oriented,
)


def _split_offset(ux: int, uy: int, vx: int, vy: int,
                  n: int) -> tuple[int, int]:
    """The Bezout split point of the triangle with offsets u and v
    from its pivot, as an offset from the pivot.

    Requires u x v = n > 1 and a primitive w = v - u; the caller checks.
    The inverse s of wy modulo |wx| (s = wy = +-1 if wx = 0) gives
    p0 = (s, t) with p0 x w = s * wy - t * wx = 1, so (n-1) * p0 lies
    on the line d x w = n - 1.  Each step of w along the line adds
    u x w = n to u x d, so one floor division picks the step k that
    brings u x d into the window [0, n - 1], where the segment's
    lattice point provably lies.
    """
    wx, wy = vx - ux, vy - uy
    s = pow(wy, -1, abs(wx)) if wx else wy
    t = (s * wy - 1) // wx if wx else 0
    k = (n - 1) * (ux * t - uy * s) // n
    return (n - 1) * s - k * wx, (n - 1) * t - k * wy


def _offsets(a: LatticePoint, b: LatticePoint,
             c: LatticePoint) -> tuple[LatticeVector, LatticeVector, int]:
    """Offsets a - c and b - c, exchanged so their cross n is > 0."""
    c, a, b, n = _oriented(c, a, b)
    return a - c, b - c, n


def normalize(points: Sequence[LatticePoint],
              pivot: int) -> tuple[LatticeVector, LatticeVector]:
    """The frame offsets (A, B) of a triangle: A x B is its doubled area
    and A.dy < B.dy.  ``pivot`` selects the vertex moved to the origin;
    the other two, in ring order and exchanged if the doubled area is
    negative, are turned by the quarter turn that puts the first
    strictly below the second.  Raises DegenerateTriangleError for
    collinear input.
    Unused in the package: the per-layer tracer of bench/tracing.py
    looks it up in triangulate."""
    if len(points) != 3:
        raise PreconditionError(f"normalize needs exactly 3 points, got {len(points)}")
    if pivot not in (0, 1, 2):
        raise PreconditionError(f"pivot must be 0, 1, or 2, got {pivot}")
    u, v, _ = _offsets(points[(pivot + 1) % 3], points[(pivot + 2) % 3],
                       points[pivot])
    if u.dy < v.dy:
        a, b = u, v
    elif u.dy > v.dy:                   # half turn
        a, b = LatticeVector(-u.dx, -u.dy), LatticeVector(-v.dx, -v.dy)
    elif u.dx < v.dx:                   # quarter turn, (x, y) -> (-y, x)
        a, b = LatticeVector(-u.dy, u.dx), LatticeVector(-v.dy, v.dx)
    else:                               # quarter turn, (x, y) -> (y, -x)
        a, b = LatticeVector(u.dy, -u.dx), LatticeVector(v.dy, -v.dx)
    if a.dy >= b.dy:
        raise InternalInvariantError("normalized triangle must have a.dy < b.dy")
    return a, b


def interior_split_point(a: LatticePoint, b: LatticePoint,
                         c: LatticePoint) -> LatticePoint:
    """The unique lattice point on the closed segment from
    c + (n-1)/n * (a-c) to c + (n-1)/n * (b-c), for the triangle abc of
    doubled area n with pivot c, in either orientation.  Raises
    DegenerateTriangleError for collinear input, and PreconditionError
    for n = 1 or an edge ab that is not primitive.
    """
    u, v, n = _offsets(a, b, c)
    if n == 1:
        raise PreconditionError(
            "triangle already has the minimum doubled area 1; nothing to split")
    if math.gcd(u.dx - v.dx, u.dy - v.dy) != 1:
        raise PreconditionError(
            "opposite edge is not primitive; split it at one of its own "
            "lattice points instead")
    dx, dy = _split_offset(u.dx, u.dy, v.dx, v.dy, n)
    return LatticePoint(c.x + dx, c.y + dy)
