"""Locating the guaranteed lattice point inside a non-minimal triangle.

Place one vertex of a lattice triangle at the origin and call the other
two A and B, with n the doubled area.  When n > 1 and the edge AB is
primitive (its coordinate deltas are coprime), the segment joining
(n-1)/n * A to (n-1)/n * B carries exactly one lattice point.  That
point lies on or inside the triangle but is never one of its vertices,
which makes it a splitting point for refinement.

Two independent routes to the point are provided:

* interior_split_point builds it in O(1) from a Bezout identity.  Every
  lattice point on the carrier line of the shrunk segment has the form
  (x0 + p*i, y0 + q*i); sliding i until the y coordinate falls in a
  half-open window of height |q| pins down the unique representative on
  the segment itself.  The construction lives once, in the private
  integer routine _split_offset, which the refinement kernel in
  triangulate calls on plain ints and normalize shares its frame
  rotation with.
* split_point_scan walks all n evenly spaced candidate positions on the
  shrunk segment and keeps the ones with integer coordinates.  It is
  O(n) and doubles as the uniqueness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    DegenerateTriangleError,
    InternalInvariantError,
    LatticePoint,
    LatticeVector,
    PreconditionError,
    extended_gcd,
)


@dataclass(frozen=True)
class FrameTransform:
    """Invertible affine map taking original coordinates to the
    normalized frame: q = M @ (p - origin).

    M is one of the four quarter-turn rotation matrices (entries in
    {-1, 0, 1}, determinant +1), composed from the axis-swap and
    y-flip reflections.  ``swapped`` records whether the two non-pivot
    vertices traded the A/B roles to fix the orientation sign.
    """

    origin: LatticePoint
    m00: int
    m01: int
    m10: int
    m11: int
    swapped: bool

    def to_normalized(self, p: LatticePoint) -> LatticePoint:
        dx = p.x - self.origin.x
        dy = p.y - self.origin.y
        return LatticePoint(self.m00 * dx + self.m01 * dy,
                            self.m10 * dx + self.m11 * dy)

    def to_original(self, p: LatticePoint) -> LatticePoint:
        det = self.m00 * self.m11 - self.m01 * self.m10  # always +-1
        x = det * (self.m11 * p.x - self.m01 * p.y)
        y = det * (self.m00 * p.y - self.m10 * p.x)
        return LatticePoint(x + self.origin.x, y + self.origin.y)


@dataclass(frozen=True)
class NormalizedTriangle:
    """A triangle moved into the canonical frame for split-point work.

    The pivot vertex sits at the origin, the other two are the offset
    vectors ``a`` and ``b``, and the invariants are

    * twice_area = a x b > 0  (counterclockwise in the frame), and
    * a.dy < b.dy             (strict; the frame rotation guarantees it).

    ``transform`` maps original coordinates into this frame and back.
    """

    a: LatticeVector
    b: LatticeVector
    transform: FrameTransform
    twice_area: int

    def __post_init__(self) -> None:
        if self.twice_area != self.a.cross(self.b) or self.twice_area <= 0:
            raise InternalInvariantError("inconsistent normalized triangle area")
        if self.a.dy >= self.b.dy:
            raise InternalInvariantError("normalized triangle must have a.dy < b.dy")


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
    The offsets are turned so that u lies strictly below v (for a
    normalized triangle the turn is the identity), the point is
    constructed there, and the inverse turn, the transpose, maps it
    back.  This is the one copy of the construction; see
    interior_split_point for the formula.
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


def normalize(points: Sequence[LatticePoint], pivot: int) -> NormalizedTriangle:
    """Translate, possibly relabel, and rotate a triangle into the
    canonical frame.

    ``pivot`` selects the vertex moved to the origin; the remaining two
    become A and B in ring order.  A and B are swapped if needed so the
    doubled area is positive, then one of the four quarter-turn
    rotations is applied so that A ends up strictly below B.  Raises
    DegenerateTriangleError for collinear input.
    """
    if len(points) != 3:
        raise PreconditionError(f"normalize needs exactly 3 points, got {len(points)}")
    if pivot not in (0, 1, 2):
        raise PreconditionError(f"pivot must be 0, 1, or 2, got {pivot}")
    c = points[pivot]
    u = points[(pivot + 1) % 3] - c
    v = points[(pivot + 2) % 3] - c
    n = u.cross(v)
    if n == 0:
        raise DegenerateTriangleError("triangle vertices are collinear")
    swapped = n < 0
    if swapped:
        u, v, n = v, u, -n
    m = _rotation(u.dx, u.dy, v.dx, v.dy)
    a = LatticeVector(m[0] * u.dx + m[1] * u.dy, m[2] * u.dx + m[3] * u.dy)
    b = LatticeVector(m[0] * v.dx + m[1] * v.dy, m[2] * v.dx + m[3] * v.dy)
    return NormalizedTriangle(a=a, b=b,
                              transform=FrameTransform(c, *m, swapped=swapped),
                              twice_area=n)


def _require_splittable(nt: NormalizedTriangle) -> None:
    if nt.twice_area <= 1:
        raise PreconditionError(
            "triangle already has the minimum doubled area 1; nothing to split")
    if math.gcd(nt.a.dx - nt.b.dx, nt.a.dy - nt.b.dy) != 1:
        raise PreconditionError(
            "opposite edge is not primitive; split it at one of its own "
            "lattice points instead")


def interior_split_point(nt: NormalizedTriangle) -> LatticePoint:
    """The unique lattice point on the closed segment from
    (n-1)/n * A to (n-1)/n * B, in normalized-frame coordinates.

    Requires twice_area n > 1 and a primitive edge AB.  Constructed in
    O(1): a Bezout identity gives one lattice solution of the carrier
    line equation (a-b)*y - (c-d)*x = n - 1, and a single floor
    division slides it into the half-open window
    c*(n-1)/n <= y < c*(n-1)/n - (c-d), which the segment's lattice
    point provably occupies.
    """
    _require_splittable(nt)
    return LatticePoint(*_split_offset(nt.a.dx, nt.a.dy, nt.b.dx, nt.b.dy,
                                       nt.twice_area))


def split_point_scan(nt: NormalizedTriangle) -> LatticePoint:
    """Scan all n candidate positions ((n-i)*A + (i-1)*B) / n for
    i = 1..n and return the single one with integer coordinates.

    Same contract as interior_split_point; O(n).  Finding anything
    other than exactly one lattice point is impossible for valid input
    and raises InternalInvariantError.
    """
    _require_splittable(nt)
    n = nt.twice_area
    ax, ay = nt.a.dx, nt.a.dy
    bx, by = nt.b.dx, nt.b.dy
    found = None
    hits = 0
    for i in range(1, n + 1):
        px = (n - i) * ax + (i - 1) * bx
        py = (n - i) * ay + (i - 1) * by
        if px % n == 0 and py % n == 0:
            hits += 1
            found = LatticePoint(px // n, py // n)
    if hits != 1 or found is None:
        raise InternalInvariantError(
            f"expected exactly one lattice point among the {n} candidate "
            f"positions, found {hits}")
    return found
