"""Locating the guaranteed lattice point inside a non-minimal triangle.

Place one vertex c of a lattice triangle at the origin and call the
other two A and B, with n the doubled area.  When n > 1 and the edge AB
is primitive (its coordinate deltas are coprime), the segment joining
(n-1)/n * A to (n-1)/n * B carries exactly one lattice point.  That
point lies on or inside the triangle but is never one of its vertices,
which makes it a splitting point for refinement.

The point is built in O(1) from a Bezout identity, once, in the
private integer routine _split_offset, which the refinement kernel in
triangulate calls on plain ints; interior_split_point is the same
construction on three LatticePoints, with its preconditions checked.
The O(n) scan over all n candidate positions, which also proves the
point unique, lives with the tests as their oracle.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import (
    DegenerateTriangleError,
    InternalInvariantError,
    LatticePoint,
    LatticeVector,
    PreconditionError,
    extended_gcd,
)

# Quarter-turn rotation matrices as (m00, m01, m10, m11).
_IDENTITY = (1, 0, 0, 1)
_HALF_TURN = (-1, 0, 0, -1)
_QUARTER_CCW = (0, -1, 1, 0)   # (x, y) -> (-y, x)
_QUARTER_CW = (0, 1, -1, 0)    # (x, y) -> (y, -x)


def _rotation(ux: int, uy: int, vx: int,
              vy: int) -> tuple[int, int, int, int]:
    """The quarter turn that puts offset u strictly below offset v,
    for a counterclockwise pair (u x v > 0)."""
    if uy < vy:
        return _IDENTITY
    if uy > vy:
        return _HALF_TURN
    return _QUARTER_CCW if ux < vx else _QUARTER_CW


def _split_offset(ux: int, uy: int, vx: int, vy: int,
                  n: int) -> tuple[int, int]:
    """The Bezout split point of the triangle with offsets u and v
    from its pivot, as an offset from the pivot.

    Requires u x v = n > 1 and a primitive u - v; the caller checks.
    The offsets are turned so that u lies strictly below v, and the
    inverse turn, the transpose, maps the point back.  In the turned
    frame, with A = (a, c) and B = (b, d), a Bezout identity gives one
    lattice solution of the carrier line (a-b)*y - (c-d)*x = n - 1, and
    one floor division slides it along the line into the window
    c*(n-1)/n <= y < c*(n-1)/n - (c-d), which the segment's lattice
    point provably occupies.
    """
    m00, m01, m10, m11 = _rotation(ux, uy, vx, vy)
    ay = m10 * ux + m11 * uy
    p = m00 * (ux - vx) + m01 * (uy - vy)
    q = ay - (m10 * vx + m11 * vy)          # q < 0 after the turn
    bez = extended_gcd(p, -q)               # p*s - q*t == 1
    x = (n - 1) * bez.t
    y = (n - 1) * bez.s
    i = (ay * (n - 1) - n * y) // (n * q)   # floor; n*q < 0
    x += p * i
    y += q * i
    return m00 * x + m10 * y, m01 * x + m11 * y


def _offsets(a: LatticePoint, b: LatticePoint,
             c: LatticePoint) -> tuple[LatticeVector, LatticeVector, int]:
    """Offsets a - c and b - c, exchanged so their cross n is > 0."""
    u, v = a - c, b - c
    n = u.cross(v)
    if n == 0:
        raise DegenerateTriangleError("triangle vertices are collinear")
    if n < 0:
        u, v, n = v, u, -n
    return u, v, n


def normalize(points: Sequence[LatticePoint],
              pivot: int) -> tuple[LatticeVector, LatticeVector]:
    """The frame offsets (A, B) of a triangle: A x B is its doubled area
    and A.dy < B.dy.  ``pivot`` selects the vertex moved to the origin;
    the other two, in ring order and exchanged if the doubled area is
    negative, are turned by _split_offset's quarter turn.  Raises
    DegenerateTriangleError for collinear input.  Unused in the package:
    the per-layer tracer of bench/tracing.py looks it up in triangulate.
    """
    if len(points) != 3:
        raise PreconditionError(f"normalize needs exactly 3 points, got {len(points)}")
    if pivot not in (0, 1, 2):
        raise PreconditionError(f"pivot must be 0, 1, or 2, got {pivot}")
    u, v, _ = _offsets(points[(pivot + 1) % 3], points[(pivot + 2) % 3],
                       points[pivot])
    m00, m01, m10, m11 = _rotation(u.dx, u.dy, v.dx, v.dy)
    a = LatticeVector(m00 * u.dx + m01 * u.dy, m10 * u.dx + m11 * u.dy)
    b = LatticeVector(m00 * v.dx + m01 * v.dy, m10 * v.dx + m11 * v.dy)
    if a.dy >= b.dy:
        raise InternalInvariantError("normalized triangle must have a.dy < b.dy")
    return a, b


def interior_split_point(a: LatticePoint, b: LatticePoint,
                         c: LatticePoint) -> LatticePoint:
    """The unique lattice point on the closed segment from
    c + (n-1)/n * (a-c) to c + (n-1)/n * (b-c), for the triangle abc of
    doubled area n with pivot c, in either orientation.  Raises
    DegenerateTriangleError for collinear input, and PreconditionError
    when n = 1 or the edge ab is not primitive.
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
