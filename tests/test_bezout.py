"""Tests for the frame offsets and the constructed split point."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepick import (
    DegenerateTriangleError,
    LatticePoint,
    LatticeVector,
    PreconditionError,
    interior_split,
    interior_split_point,
    normalize,
    twice_signed_area,
)
from latticepick.bezout import _split_offset

from tests.conftest import (
    random_splittable_triangle,
    random_triangle_corners,
    split_point_scan,
)

P = LatticePoint
V = LatticeVector

# the four quarter turns as (m00, m01, m10, m11)
QUARTER_TURNS = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0))


def turned(m: tuple[int, int, int, int], w: LatticeVector) -> LatticeVector:
    return V(m[0] * w.dx + m[1] * w.dy, m[2] * w.dx + m[3] * w.dy)


def in_closed_triangle(p: LatticePoint, a: LatticePoint, b: LatticePoint,
                       c: LatticePoint) -> bool:
    return (twice_signed_area(a, b, p) >= 0
            and twice_signed_area(b, c, p) >= 0
            and twice_signed_area(c, a, p) >= 0)


def pivot_last(corners, pivot: int):
    """(a, b, c) in ring order with c the pivot vertex."""
    return (corners[(pivot + 1) % 3], corners[(pivot + 2) % 3],
            corners[pivot])


def splittable(rng: random.Random, pivot: int):
    """Random corners with pivot last, doubled area > 1 and a primitive
    edge opposite the pivot, in either orientation."""
    while True:
        corners = random_triangle_corners(rng, rng.choice([4, 10, 40]))
        a, b, c = pivot_last(corners, pivot)
        if (abs(twice_signed_area(a, b, c)) > 1
                and math.gcd(a.x - b.x, a.y - b.y) == 1):
            return a, b, c


class TestNormalize:
    def test_translation_only(self):
        a, b = normalize([P(3, 1), P(2, 3), P(1, 1)], pivot=2)
        assert (a, b) == (V(2, 0), V(1, 2))
        assert a.cross(b) == 4

    def test_already_normalized_is_identity(self):
        assert normalize([P(2, 0), P(1, 2), P(0, 0)], pivot=2) == \
            (V(2, 0), V(1, 2))

    def test_negative_orientation_fixed_by_swap(self):
        # same triangle with the non-pivot vertices exchanged
        swapped = normalize([P(1, 2), P(2, 0), P(0, 0)], pivot=2)
        assert swapped == normalize([P(2, 0), P(1, 2), P(0, 0)], pivot=2)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            normalize([P(0, 0), P(1, 1), P(3, 3)], pivot=0)

    def test_quarter_turn_clockwise(self):
        # offsets (2, 1) and (0, 1) share their dy, the first to the
        # right: (x, y) -> (y, -x) puts it below the second
        assert normalize([P(2, 1), P(0, 1), P(0, 0)], pivot=2) == \
            (V(1, -2), V(1, 0))

    @pytest.mark.parametrize("points,pivot", [
        ([P(0, 0), P(1, 0)], 0),
        ([P(0, 0), P(1, 0), P(0, 1)], 3),
    ])
    def test_bad_arguments_rejected(self, points, pivot):
        with pytest.raises(PreconditionError):
            normalize(points, pivot=pivot)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           pivot=st.integers(min_value=0, max_value=2))
    @settings(max_examples=300, deadline=None)
    def test_invariants_and_round_trip(self, seed, pivot):
        rng = random.Random(seed)
        corners = random_triangle_corners(rng, 50)
        a, b = normalize(corners, pivot=pivot)
        assert a.cross(b) == abs(twice_signed_area(*corners))
        assert a.dy < b.dy
        # the frame offsets are the pivot's own offsets, turned by one
        # quarter turn: some turn maps them back
        u, v, c = pivot_last(corners, pivot)
        offsets = {u - c, v - c}
        assert any({turned(m, a), turned(m, b)} == offsets
                   for m in QUARTER_TURNS)


class TestSplitPoint:
    def test_example_steep_triangle(self):
        corners = (P(1, 2), P(-1, 1), P(0, 0))
        assert interior_split_point(*corners) == P(0, 1)
        assert split_point_scan(*corners) == P(0, 1)

    def test_example_point_on_edge(self):
        corners = (P(2, 0), P(1, 1), P(0, 0))
        assert interior_split_point(*corners) == P(1, 0)
        assert split_point_scan(*corners) == P(1, 0)

    def test_original_coordinates(self):
        # the same triangle moved and turned half way round
        corners = (P(8, 5), P(9, 4), P(10, 5))
        assert interior_split_point(*corners) == P(9, 5)
        assert split_point_scan(*corners) == P(9, 5)

    def test_primitive_triangle_rejected(self):
        corners = (P(1, 0), P(0, 1), P(0, 0))
        with pytest.raises(PreconditionError, match="minimum doubled area 1"):
            interior_split_point(*corners)
        with pytest.raises(PreconditionError):
            split_point_scan(*corners)

    def test_non_primitive_opposite_edge_rejected(self):
        # edge from (2,0) to (0,2) has gcd 2
        with pytest.raises(PreconditionError, match="not primitive"):
            interior_split_point(P(2, 0), P(0, 2), P(0, 0))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            interior_split_point(P(0, 0), P(1, 1), P(3, 3))

    @given(seed=st.integers(min_value=0, max_value=10**6),
           pivot=st.integers(min_value=0, max_value=2))
    @settings(max_examples=400, deadline=None)
    def test_matches_scan_oracle(self, seed, pivot):
        a, b, c = splittable(random.Random(seed), pivot)
        d = interior_split_point(a, b, c)
        assert d == split_point_scan(a, b, c)
        assert d == interior_split_point(b, a, c)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           pivot=st.integers(min_value=0, max_value=2))
    @settings(max_examples=400, deadline=None)
    def test_membership_properties(self, seed, pivot):
        a, b, c = splittable(random.Random(seed), pivot)
        if twice_signed_area(a, b, c) < 0:
            a, b = b, a
        d = interior_split_point(a, b, c)
        # d lies on the carrier line (A - B) x D = n - 1, offsets from c
        u, v, w = a - c, b - c, d - c
        assert V(u.dx - v.dx, u.dy - v.dy).cross(w) == u.cross(v) - 1
        assert d not in (a, b, c)
        assert in_closed_triangle(d, a, b, c)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_offset_in_any_frame_matches_scan(self, seed):
        # the refinement kernel calls _split_offset on raw offsets, in
        # every direction, not only with u below v
        rng = random.Random(seed)
        a, b, c = splittable(rng, 2)
        if twice_signed_area(a, b, c) < 0:
            a, b = b, a
        n = twice_signed_area(a, b, c)
        d = split_point_scan(a, b, c)
        assert _split_offset(a.x - c.x, a.y - c.y, b.x - c.x, b.y - c.y,
                             n) == (d.x - c.x, d.y - c.y)

    @pytest.mark.parametrize("w", [(0, 1), (0, -1), (1, 0), (-1, 0),
                                   (1, 6), (-1, 6), (1, -7), (-1, -7),
                                   (-3, -5), (-5, 2), (4, -9), (7, 3)])
    def test_offset_for_every_sign_of_w(self, w):
        # _split_offset inverts wy modulo |wx| for w = v - u: wx = 0
        # (then wy = +-1), wx = +-1, and negative wx and wy
        rng = random.Random(f"{w}")
        wx, wy = w
        checked = 0
        while checked < 40:
            ux, uy = rng.randint(-30, 30), rng.randint(-30, 30)
            n = ux * wy - uy * wx       # u x v, with v = u + w
            if n <= 1:
                continue
            vx, vy = ux + wx, uy + wy
            d = split_point_scan(P(ux, uy), P(vx, vy), P(0, 0))
            assert _split_offset(ux, uy, vx, vy, n) == (d.x, d.y)
            checked += 1

    def test_large_offsets_meet_line_and_window(self):
        # beyond the scan oracle's reach: coordinates up to 2**31, so the
        # doubled area n reaches about 2**63
        rng = random.Random(20261019)
        limit = 2 ** 31
        checked = 0
        while checked < 2000:
            ux, uy, vx, vy = (rng.randint(-limit, limit) for _ in range(4))
            n = ux * vy - vx * uy
            if n < 0:
                ux, uy, vx, vy, n = vx, vy, ux, uy, -n
            wx, wy = vx - ux, vy - uy
            if n <= 1 or math.gcd(wx, wy) != 1:
                continue
            dx, dy = _split_offset(ux, uy, vx, vy, n)
            assert dx * wy - dy * wx == n - 1
            assert 0 <= ux * dy - uy * dx <= n - 1
            c = P(rng.randint(-limit, limit), rng.randint(-limit, limit))
            a, b = P(c.x + ux, c.y + uy), P(c.x + vx, c.y + vy)
            d = interior_split_point(a, b, c)
            assert d == P(c.x + dx, c.y + dy)
            assert d == interior_split_point(b, a, c)
            assert d not in (a, b, c)
            assert in_closed_triangle(d, a, b, c)
            checked += 1

    def test_kernel_splits_at_the_public_point(self):
        rng = random.Random(20261018)
        for _ in range(300):
            tri = random_splittable_triangle(rng, rng.choice([4, 9, 25]))
            assert interior_split(tri).point == \
                interior_split_point(*tri.vertices)
