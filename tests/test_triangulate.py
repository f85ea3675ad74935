"""Tests for ear clipping and refinement down to doubled-area-1 triangles."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepick import (
    DegenerateTriangleError,
    InternalInvariantError,
    LatticePoint,
    LatticeTriangle,
    PointLocation,
    PreconditionError,
    SplitRule,
    closed_triangle_count,
    gcd_edge_split,
    initial_triangulation,
    interior_split,
    point_in_polygon,
    primitive_triangulation,
    twice_polygon_area,
    twice_signed_area,
    validate_polygon,
)
from latticepick import triangulate
from latticepick.cli import main
from latticepick.triangulate import _certify, _refine, _split

from tests.conftest import (
    cell_ring,
    comb_ring,
    drop_straight_vertices,
    ear_clip_oracle,
    random_lattice_polygon,
    random_polyomino,
    random_splittable_triangle,
    sawtooth_ring,
    spiral_cells,
)

P = LatticePoint


def tri_key(t: LatticeTriangle):
    return (t.v0, t.v1, t.v2)


class TestLatticeTriangle:
    def test_from_points_keeps_ccw(self):
        t = LatticeTriangle.from_points(P(0, 0), P(2, 0), P(0, 2))
        assert t.vertices == (P(0, 0), P(2, 0), P(0, 2))
        assert t.twice_area == 4

    def test_from_points_fixes_cw(self):
        t = LatticeTriangle.from_points(P(0, 0), P(0, 2), P(2, 0))
        assert t.vertices == (P(0, 0), P(2, 0), P(0, 2))

    def test_from_points_rejects_collinear(self):
        with pytest.raises(DegenerateTriangleError):
            LatticeTriangle.from_points(P(0, 0), P(1, 1), P(2, 2))

    @pytest.mark.parametrize("area", [1.0, True])
    def test_non_int_area_rejected(self, area):
        assert LatticeTriangle(P(0, 0), P(1, 0), P(0, 1), 1).twice_area == 1
        with pytest.raises(InternalInvariantError, match="doubled area"):
            LatticeTriangle(P(0, 0), P(1, 0), P(0, 1), area)


class TestInitialTriangulation:
    def test_unit_square(self):
        poly = validate_polygon([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
        tris = initial_triangulation(poly)
        assert len(tris) == 2
        assert all(t.twice_area == 1 for t in tris)

    def test_triangle_is_identity(self):
        poly = validate_polygon([P(0, 0), P(3, 0), P(0, 3)])
        tris = initial_triangulation(poly)
        assert len(tris) == 1
        assert set(tris[0].vertices) == set(poly.vertices)

    def test_convex_pentagon(self):
        poly = validate_polygon([P(0, 0), P(2, 0), P(3, 2), P(1, 3), P(-1, 2)])
        tris = initial_triangulation(poly)
        assert len(tris) == 3
        assert sum(t.twice_area for t in tris) == twice_polygon_area(poly)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_fan_covers_polygon(self, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 10), 9)
        tris = initial_triangulation(poly)
        assert len(tris) == len(poly) - 2
        assert sum(t.twice_area for t in tris) == twice_polygon_area(poly)
        for t in tris:
            assert set(t.vertices) <= set(poly.vertices)


class TestEarClipOracle:
    """initial_triangulation against the ear clipper that rescans the
    ring on every pass (tests/conftest.py), triangle for triangle."""

    def same(self, ring, start=0):
        ring = ring[start:] + ring[:start]
        poly = validate_polygon([P(x, y) for x, y in ring])
        assert initial_triangulation(poly) == ear_clip_oracle(poly)

    @pytest.mark.parametrize("name", ["sawtooth", "comb", "comb90",
                                      "spiral", "spiral_corners",
                                      "collinear", "near_misses"])
    def test_adversarial_shapes(self, name):
        rng = random.Random(71)
        ring = {
            # n = 2003, x-monotone
            "sawtooth": lambda: sawtooth_ring(rng, 1000),
            "comb": lambda: comb_ring(rng, 150),
            # teeth along y: every triangle's x-range spans the teeth
            "comb90": lambda: [(-y, x) for x, y in comb_ring(rng, 150)],
            # n = 1372, every boundary lattice point a vertex
            "spiral": lambda: cell_ring(spiral_cells(9)),
            "spiral_corners": lambda: drop_straight_vertices(
                cell_ring(spiral_cells(14))),
            # a 1 x 300 rectangle: 598 vertices of angle 180 degrees
            "collinear": lambda: cell_ring({(x, 0) for x in range(300)}),
            # reflex vertices a tiny distance from a long slanted edge
            "near_misses": lambda: [(0, 0), (401, 2), (401, 5)] + [
                (x, 1 + (x % 2) * 3) for x in range(199, 0, -1)] + [(0, 4)],
        }[name]()
        self.same(ring)
        if len(ring) < 1000:
            self.same(ring, start=len(ring) // 3)

    def test_random_rectilinear_rings(self):
        rng = random.Random(72)
        done = 0
        while done < 150:
            ring = cell_ring(random_polyomino(rng, rng.randint(2, 60)))
            if ring is None:
                continue
            if rng.random() < 0.5:
                ring = drop_straight_vertices(ring)
            a, b, c, d = rng.choice(((1, 0, 0, 1), (1, 1, 0, 1),
                                     (2, 1, 1, 1), (0, -1, 1, 0)))
            ring = [(a * x + b * y, c * x + d * y) for x, y in ring]
            self.same(ring, start=rng.randrange(len(ring)))
            done += 1

    def test_random_star_shaped_rings(self):
        rng = random.Random(73)
        for _ in range(150):
            poly = random_lattice_polygon(rng, rng.randint(3, 40),
                                          rng.choice((3, 6, 20)))
            ring = [(v.x, v.y) for v in poly.vertices]
            self.same(ring, start=rng.randrange(len(ring)))


class TestGcdEdgeSplit:
    def test_long_bottom_edge(self):
        tri = LatticeTriangle.from_points(P(0, 0), P(4, 0), P(0, 1))
        event = gcd_edge_split(tri)
        assert event is not None
        assert event.rule is SplitRule.EDGE_GCD
        assert event.point == P(1, 0)
        assert sorted(ch.twice_area for ch in event.children) == [1, 3]

    def test_all_edges_primitive(self):
        tri = LatticeTriangle.from_points(P(0, 0), P(1, 0), P(0, 1))
        assert gcd_edge_split(tri) is None

    def test_diagonal_midpoint(self):
        tri = LatticeTriangle.from_points(P(0, 0), P(2, 2), P(3, 1))
        event = gcd_edge_split(tri)
        assert event is not None
        assert event.point == P(1, 1)
        assert sum(ch.twice_area for ch in event.children) == tri.twice_area

    def test_split_point_subdivides_the_edge(self):
        # input is clockwise, so storage swaps v1/v2 and the non-primitive
        # edge is scanned as (6,9) -> (0,0); D sits one gcd step from (6,9)
        tri = LatticeTriangle.from_points(P(0, 0), P(6, 9), P(1, 0))
        event = gcd_edge_split(tri)
        assert event is not None
        assert event.point == P(4, 6)


class TestInteriorSplit:
    def test_three_way(self):
        tri = LatticeTriangle.from_points(P(0, 0), P(1, 2), P(-1, 1))
        event = interior_split(tri)
        assert event.rule is SplitRule.INTERIOR_POINT
        assert event.point == P(0, 1)
        assert len(event.children) == 3
        assert all(ch.twice_area == 1 for ch in event.children)

    def test_non_primitive_edge_rejected(self):
        # (0,0)-(2,0) has gcd 2; this triangle belongs to gcd_edge_split
        tri = LatticeTriangle.from_points(P(0, 0), P(2, 0), P(1, 1))
        with pytest.raises(PreconditionError):
            interior_split(tri)

    def test_primitive_triangle_rejected(self):
        tri = LatticeTriangle.from_points(P(0, 0), P(1, 0), P(0, 1))
        with pytest.raises(PreconditionError):
            interior_split(tri)

    def test_collinear_child_is_internal_error(self, monkeypatch):
        # a split point on the line through v0 and v2 would give a
        # degenerate child; the Bezout point never does
        monkeypatch.setattr(triangulate, "_split_offset",
                            lambda ux, uy, vx, vy, n: (2 * ux, 2 * uy))
        with pytest.raises(InternalInvariantError, match="degenerate child"):
            _split((0, 0), (1, 2), (-1, 1), 3)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_children_cover_parent(self, seed):
        rng = random.Random(seed)
        tri = random_splittable_triangle(rng, rng.choice([4, 9, 25]))
        event = interior_split(tri)
        assert sum(ch.twice_area for ch in event.children) == tri.twice_area
        # the Bezout point lies strictly inside: always three children
        assert len(event.children) == 3
        assert event.rule is SplitRule.INTERIOR_POINT


class TestPrimitiveTriangulation:
    def test_unit_square(self):
        poly = validate_polygon([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
        result = primitive_triangulation(poly)
        assert len(result.triangles) == 2
        assert result.events == ()

    def test_square_side_two(self):
        poly = validate_polygon([P(0, 0), P(2, 0), P(2, 2), P(0, 2)])
        result = primitive_triangulation(poly)
        assert len(result.triangles) == 8

    def test_right_triangle_side_four(self):
        poly = validate_polygon([P(0, 0), P(4, 0), P(0, 4)])
        result = primitive_triangulation(poly)
        assert len(result.triangles) == 16

    def test_deterministic(self):
        poly = validate_polygon([P(0, 0), P(5, 0), P(6, 4), P(2, 7), P(-2, 3)])
        first = primitive_triangulation(poly)
        second = primitive_triangulation(poly)
        assert [tri_key(t) for t in first.triangles] == \
            [tri_key(t) for t in second.triangles]
        assert first.events == second.events

    def test_events_replay_to_final_list(self):
        poly = validate_polygon([P(0, 0), P(5, 0), P(6, 4), P(2, 7), P(-2, 3)])
        result = primitive_triangulation(poly)
        state = Counter(tri_key(t) for t in initial_triangulation(poly))
        for event in result.events:
            key = tri_key(event.parent)
            assert state[key] > 0
            state[key] -= 1
            state.update(tri_key(ch) for ch in event.children)
        assert +state == Counter(tri_key(t) for t in result.triangles)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_count_and_primitivity(self, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 10), 7)
        result = primitive_triangulation(poly)
        assert len(result.triangles) == twice_polygon_area(poly)
        assert all(t.twice_area == 1 for t in result.triangles)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_vertex_closure(self, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 8), 5)
        result = primitive_triangulation(poly)
        for tri in result.triangles:
            for v in tri.vertices:
                assert point_in_polygon(v, poly) is not PointLocation.EXTERIOR

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_output_triangles_are_empty(self, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 8), 5)
        result = primitive_triangulation(poly)
        for tri in result.triangles:
            assert closed_triangle_count(*tri.vertices) == 3

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_interiors_are_pairwise_disjoint(self, seed):
        # tripled centroids stay on the lattice; compare each against
        # every other triangle scaled by 3
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 7), 4)
        tris = primitive_triangulation(poly).triangles
        for i, t in enumerate(tris):
            cx = t.v0.x + t.v1.x + t.v2.x
            cy = t.v0.y + t.v1.y + t.v2.y
            probe = P(cx, cy)
            for j, u in enumerate(tris):
                if i == j:
                    continue
                scaled = [P(3 * v.x, 3 * v.y) for v in u.vertices]
                strictly_inside = all(
                    twice_signed_area(scaled[k], scaled[(k + 1) % 3], probe) > 0
                    for k in range(3))
                assert not strictly_inside


PENTAGON = validate_polygon([P(0, 0), P(5, 0), P(6, 4), P(2, 7), P(-2, 3)])


def flip(t):
    a, b, c, s = t
    return (a, c, b, s)


def shear(t):
    # keeps the doubled area 1 and the orientation, moves vertex c
    (ax, ay), (bx, by), (cx, cy), s = t
    return ((ax, ay), (bx, by), (cx + bx - ax, cy + by - ay), s)


class TestCertificate:
    def test_accepts_the_refinement(self):
        tris, _ = _refine(PENTAGON)
        _certify(PENTAGON, tris)

    @pytest.mark.parametrize("corrupt,caught_by", [
        (lambda ts: ts[:-1], "count"),
        (lambda ts: ts + ts[:1], "count"),
        (lambda ts: [flip(ts[0])] + ts[1:], "not counterclockwise"),
        # count and unit areas still hold: only the edges give these away
        (lambda ts: ts[:5] + [shear(ts[5])] + ts[6:],
         "directed edge|polygon boundary"),
        (lambda ts: [((40, 40), (41, 40), (40, 41), 1)] + ts[1:],
         "polygon boundary"),
    ], ids=["drop", "duplicate", "reverse", "move_vertex", "outside"])
    def test_rejects_a_corrupted_tiling(self, corrupt, caught_by):
        tris, _ = _refine(PENTAGON)
        with pytest.raises(InternalInvariantError, match=caught_by):
            _certify(PENTAGON, corrupt(tris))


def lines_from_objects(result) -> str:
    """The triangulate --events output, formatted from the
    materialized LatticeTriangle and SplitEvent objects."""
    def coords(t: LatticeTriangle) -> str:
        return f"{t.v0.x} {t.v0.y} {t.v1.x} {t.v1.y} {t.v2.x} {t.v2.y}"

    lines = [coords(t) for t in result.triangles]
    for num, event in enumerate(result.events, start=1):
        lines.append(f"event {num} {event.rule.value} "
                     f"point {event.point.x} {event.point.y}")
        lines.append(f"  parent {coords(event.parent)}")
        lines += [f"  child {coords(ch)}" for ch in event.children]
    return "\n".join(lines) + "\n"


class TestCrossCheck:
    def test_cli_matches_materialized_objects(self, tmp_path, capsys):
        rng = random.Random(20140917)
        for k in range(30):
            poly = random_lattice_polygon(rng, rng.randint(3, 9), 7)
            f = tmp_path / f"p{k}.txt"
            f.write_text("".join(f"{v.x} {v.y}\n" for v in poly.vertices))
            assert main(["triangulate", str(f), "--events"]) == 0
            assert capsys.readouterr().out == \
                lines_from_objects(primitive_triangulation(poly))

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_events_match_public_split_replay(self, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 9), 7)
        result = primitive_triangulation(poly)
        stack = list(reversed(initial_triangulation(poly)))
        events, done = [], []
        while stack:
            tri = stack.pop()
            if tri.twice_area == 1:
                done.append(tri)
                continue
            event = gcd_edge_split(tri) or interior_split(tri)
            events.append(event)
            stack.extend(reversed(event.children))
        assert result.events == tuple(events)
        assert result.triangles == tuple(done)
