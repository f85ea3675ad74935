"""Tests for triangle normalization and the constructed split point."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepick import (
    DegenerateTriangleError,
    LatticePoint,
    NormalizedTriangle,
    PointLocation,
    PreconditionError,
    interior_split_point,
    normalize,
    split_point_scan,
    twice_signed_area,
)
from latticepick.bezout import _split_offset

from tests.conftest import random_triangle_corners

P = LatticePoint


def in_closed_triangle(p: LatticePoint, a: LatticePoint, b: LatticePoint,
                       c: LatticePoint) -> bool:
    return (twice_signed_area(a, b, p) >= 0
            and twice_signed_area(b, c, p) >= 0
            and twice_signed_area(c, a, p) >= 0)


def normalized_corners(nt: NormalizedTriangle) -> tuple[LatticePoint, ...]:
    return (P(0, 0), P(nt.a.dx, nt.a.dy), P(nt.b.dx, nt.b.dy))


class TestNormalize:
    def test_translation_only(self):
        nt = normalize([P(3, 1), P(2, 3), P(1, 1)], pivot=2)
        assert (nt.a.dx, nt.a.dy) == (2, 0)
        assert (nt.b.dx, nt.b.dy) == (1, 2)
        assert nt.twice_area == 4

    def test_already_normalized_is_identity(self):
        nt = normalize([P(2, 0), P(1, 2), P(0, 0)], pivot=2)
        assert nt.transform.origin == P(0, 0)
        assert (nt.transform.m00, nt.transform.m01,
                nt.transform.m10, nt.transform.m11) == (1, 0, 0, 1)
        assert not nt.transform.swapped

    def test_negative_orientation_fixed_by_swap(self):
        # same triangle with the non-pivot vertices exchanged
        nt = normalize([P(1, 2), P(2, 0), P(0, 0)], pivot=2)
        assert nt.twice_area == 4
        assert nt.transform.swapped
        assert nt.a.dy < nt.b.dy

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            normalize([P(0, 0), P(1, 1), P(3, 3)], pivot=0)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           pivot=st.integers(min_value=0, max_value=2))
    @settings(max_examples=300, deadline=None)
    def test_invariants_and_round_trip(self, seed, pivot):
        rng = random.Random(seed)
        corners = random_triangle_corners(rng, 50)
        nt = normalize(corners, pivot=pivot)
        assert nt.twice_area == nt.a.cross(nt.b) > 0
        assert nt.a.dy < nt.b.dy
        back = [nt.transform.to_original(q) for q in normalized_corners(nt)]
        assert back[0] == corners[pivot]
        assert set(back) == set(corners)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           pivot=st.integers(min_value=0, max_value=2))
    @settings(max_examples=200, deadline=None)
    def test_transform_is_inverse_pair(self, seed, pivot):
        rng = random.Random(seed)
        corners = random_triangle_corners(rng, 50)
        nt = normalize(corners, pivot=pivot)
        probe = P(rng.randint(-99, 99), rng.randint(-99, 99))
        tf = nt.transform
        assert tf.to_original(tf.to_normalized(probe)) == probe
        assert tf.to_normalized(tf.to_original(probe)) == probe


class TestSplitPoint:
    def test_example_steep_triangle(self):
        corners = [P(1, 2), P(-1, 1), P(0, 0)]
        nt = normalize(corners, pivot=2)
        d = interior_split_point(nt)
        assert d == split_point_scan(nt)
        assert nt.transform.to_original(d) == P(0, 1)

    def test_example_point_on_edge(self):
        nt = normalize([P(2, 0), P(1, 1), P(0, 0)], pivot=2)
        d = interior_split_point(nt)
        assert d == P(1, 0)
        assert d == split_point_scan(nt)

    def test_primitive_triangle_rejected(self):
        nt = normalize([P(1, 0), P(0, 1), P(0, 0)], pivot=2)
        with pytest.raises(PreconditionError):
            interior_split_point(nt)
        with pytest.raises(PreconditionError):
            split_point_scan(nt)

    def test_non_primitive_opposite_edge_rejected(self):
        # edge from (2,0) to (0,2) has gcd 2
        nt = normalize([P(2, 0), P(0, 2), P(0, 0)], pivot=2)
        with pytest.raises(PreconditionError):
            interior_split_point(nt)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           pivot=st.integers(min_value=0, max_value=2))
    @settings(max_examples=400, deadline=None)
    def test_matches_scan_oracle(self, seed, pivot):
        rng = random.Random(seed)
        nt = self._splittable(rng, pivot)
        assert interior_split_point(nt) == split_point_scan(nt)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           pivot=st.integers(min_value=0, max_value=2))
    @settings(max_examples=400, deadline=None)
    def test_membership_properties(self, seed, pivot):
        rng = random.Random(seed)
        nt = self._splittable(rng, pivot)
        d = interior_split_point(nt)
        p = nt.a.dx - nt.b.dx
        q = nt.a.dy - nt.b.dy
        assert p * d.y - q * d.x == nt.twice_area - 1
        o, a, b = normalized_corners(nt)
        assert d not in (o, a, b)
        assert in_closed_triangle(d, o, a, b)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_offset_in_any_frame_matches_scan(self, seed):
        # the refinement kernel calls _split_offset on raw offsets, so
        # every quarter turn is exercised, not only the identity
        rng = random.Random(seed)
        while True:
            a, b, c = random_triangle_corners(rng, rng.choice([4, 10, 40]))
            if twice_signed_area(a, b, c) < 0:
                a, b = b, a
            n = twice_signed_area(a, b, c)
            if n > 1 and math.gcd(a.x - b.x, a.y - b.y) == 1:
                break
        nt = normalize([a, b, c], pivot=2)
        d = nt.transform.to_original(split_point_scan(nt))
        assert _split_offset(a.x - c.x, a.y - c.y, b.x - c.x, b.y - c.y,
                             n) == (d.x - c.x, d.y - c.y)

    @staticmethod
    def _splittable(rng: random.Random,
                    pivot: int) -> NormalizedTriangle:
        import math
        while True:
            corners = random_triangle_corners(rng, rng.choice([4, 10, 40]))
            nt = normalize(corners, pivot=pivot)
            p = abs(nt.a.dx - nt.b.dx)
            q = abs(nt.a.dy - nt.b.dy)
            if nt.twice_area > 1 and math.gcd(p, q) == 1:
                return nt
