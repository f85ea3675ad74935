"""Tests for the initial triangulation by monotone pieces and the
refinement down to doubled-area-1 triangles."""

from __future__ import annotations

import random
import time
from collections import Counter
from pathlib import Path

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
    SplitEvent,
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
    verify_pick,
)
from latticepick import core, triangulate
from latticepick.cli import EXIT_INTERNAL, main, parse_polygon
from latticepick.triangulate import _as_tuple, _certify_ears

from tests.conftest import (
    cell_ring,
    comb_ring,
    drop_straight_vertices,
    random_lattice_polygon,
    random_polyomino,
    random_splittable_triangle,
    refine_oracle,
    sawtooth_ring,
    spiral_cells,
    split_oracle,
    staircase_ring,
    tiling_oracle,
    two_way_comb_ring,
)

P = LatticePoint

#: ring families for the initial triangulation, each built from its
#: own Random(74)
SLIVER_FAMILIES = {
    "sawtooth": lambda rng: sawtooth_ring(rng, 150),
    "comb": lambda rng: comb_ring(rng, 100),
    "staircase": lambda rng: staircase_ring(rng, 124),
    "spiral": lambda rng: cell_ring(spiral_cells(9)),
    "two_way_comb": lambda rng: two_way_comb_ring(rng, 75),
}


#: the lattice maps the families are tested in, as (a, b, c, d) for
#: (x, y) -> (a x + b y, c x + d y)
SLIVER_FRAMES = [(2, 1, 1, 1), (0, -1, 1, 0), (1, 3, 0, 1), (1, 0, 0, 1),
                 (0, 1, 1, 0)]


def sliver_family(shape, frame=(1, 0, 0, 1)):
    """The ring of SLIVER_FAMILIES[shape] under the lattice map frame."""
    a, b, c, d = frame
    return [(a * x + b * y, c * x + d * y)
            for x, y in SLIVER_FAMILIES[shape](random.Random(74))]


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


def vertex_classes(ring) -> Counter:
    """How many vertices of the ring, made counterclockwise, are split
    and merge vertices of the sweep in (x, y) order: reflex, with both
    neighbours after them or both before them."""
    pts = validate_polygon([P(x, y) for x, y in ring]).ring
    kinds = Counter()
    for i, p in enumerate(pts):
        a, b = pts[i - 1], pts[(i + 1) % len(pts)]
        if (p[0] - a[0]) * (b[1] - p[1]) < (p[1] - a[1]) * (b[0] - p[0]):
            if a > p and b > p:
                kinds["split"] += 1
            elif a < p and b < p:
                kinds["merge"] += 1
    return kinds


#: generators of GL2(Z) as (a, b, c, d): a quarter turn, two shears and
#: a mirror
UNIMODULAR = ((0, -1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 0))


def compose(word) -> tuple[int, int, int, int]:
    """The product of the UNIMODULAR generators indexed by ``word``."""
    a, b, c, d = 1, 0, 0, 1
    for g in word:
        e, f, g_, h = UNIMODULAR[g]
        a, b, c, d = e * a + f * c, e * b + f * d, g_ * a + h * c, g_ * b + h * d
    return a, b, c, d


class TestEarClipOracle:
    """initial_triangulation by its properties: len(poly) - 2
    counterclockwise triangles on the ring's vertices that the ear
    certificate accepts, and the same list on a second run."""

    def same(self, ring, start=0):
        ring = ring[start:] + ring[:start]
        poly = validate_polygon([P(x, y) for x, y in ring])
        tris = initial_triangulation(poly)
        assert len(tris) == len(poly) - 2
        assert all(t.twice_area == twice_signed_area(*t.vertices) > 0
                   for t in tris)
        assert {v for t in tris for v in t.vertices} <= set(poly.vertices)
        _certify_ears(poly, [_as_tuple(t) for t in tris])
        assert initial_triangulation(poly) == tris

    @pytest.mark.parametrize("name", ["sawtooth", "comb", "comb90",
                                      "spiral", "spiral_corners",
                                      "collinear", "near_misses",
                                      "two_way_comb"])
    def test_adversarial_shapes(self, name):
        rng = random.Random(71)
        ring = {
            # n = 2003, x-monotone
            "sawtooth": lambda: sawtooth_ring(rng, 1000),
            "comb": lambda: comb_ring(rng, 150),
            # teeth along y: a merge vertex between every two teeth
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
            # n = 598, fans in two directions (defect 8)
            "two_way_comb": lambda: two_way_comb_ring(rng, 75),
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

    @pytest.mark.parametrize("frame", SLIVER_FRAMES)
    @pytest.mark.parametrize("shape", SLIVER_FAMILIES)
    def test_sliver_families_in_lattice_frames(self, shape, frame):
        # the shapes of the many_vertices benchmark, the spiral and the
        # two-way comb under (x, y) -> (2x + y, x + y), (-y, x),
        # (x + 3y, y), the identity and the mirror (y, x)
        self.same(sliver_family(shape, frame))

    @pytest.mark.parametrize("shape", SLIVER_FAMILIES)
    def test_sliver_families_have_split_and_merge_vertices(self, shape):
        # no golden input has a merge vertex, and only comb.txt and
        # l_shape.txt have split vertices; in the frames above every
        # family has both
        kinds = sum((vertex_classes(sliver_family(shape, frame))
                     for frame in SLIVER_FRAMES), Counter())
        assert kinds["split"] > 0 and kinds["merge"] > 0

    @given(seed=st.integers(min_value=0, max_value=10**6),
           size=st.integers(min_value=2, max_value=70),
           straight=st.booleans(),
           word=st.lists(st.integers(min_value=0, max_value=3), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_random_polyominoes_in_unimodular_frames(self, seed, size,
                                                      straight, word):
        ring = cell_ring(random_polyomino(random.Random(seed), size))
        if ring is None:
            return
        if not straight:
            ring = drop_straight_vertices(ring)
        a, b, c, d = compose(word)
        self.same([(a * x + b * y, c * x + d * y) for x, y in ring],
                  start=seed % len(ring))


class TestEarClipSpeed:
    """Defect 8: ear clipping was quadratic on sliver fans, 6.1 s on the
    comb of 10^4 vertices and 8.3 s on its image, and later on fans in
    two lattice directions; the triangle guard admits combs up to
    n = 2.2e5.  The sweep into monotone pieces is O(n log n) on every
    ring."""

    def timed(self, ring, limit):
        poly = validate_polygon([P(x, y) for x, y in ring])
        start = time.perf_counter()
        tris = initial_triangulation(poly)
        elapsed = time.perf_counter() - start
        assert len(tris) == len(ring) - 2
        assert sum(t.twice_area for t in tris) == twice_polygon_area(poly)
        assert elapsed < limit, f"took {elapsed:.2f}s, limit {limit}s"
        return poly, tris

    @pytest.mark.parametrize("frame", [(1, 0, 0, 1), (2, 1, 1, 1)])
    def test_comb_of_ten_thousand_vertices(self, frame):
        a, b, c, d = frame
        ring = [(a * x + b * y, c * x + d * y)
                for x, y in comb_ring(random.Random(7), 2500)]
        assert len(ring) == 10000
        self.timed(ring, 2.0)

    def test_two_way_comb_of_ten_thousand_vertices(self):
        # n = 9998; ear clipping with the row index took 2.7-4.0 s
        ring = two_way_comb_ring(random.Random(7), 1250)
        assert len(ring) == 9998
        self.timed(ring, 1.0)

    def test_spiral_of_sixty_turns(self):
        # n = 58 084, each lattice point of the boundary a vertex; ear
        # clipping with the row index took 2.15 s
        ring = cell_ring(spiral_cells(60))
        assert len(ring) == 58084
        self.timed(ring, 1.0)

    def test_plus_with_long_arms(self):
        # 12 vertices with arms of 10^8: the work depends on n only
        big = 10**8
        ring = [(0, 0), (big, 0), (big, 1), (1, 1), (1, big), (0, big),
                (0, 1), (-big, 1), (-big, 0), (-1, 0), (-1, -big),
                (0, -big)]
        poly, tris = self.timed(ring, 1.0)
        _certify_ears(poly, [_as_tuple(t) for t in tris])


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

    def test_wrong_step_is_internal_error(self, monkeypatch, tmp_path,
                                          capsys):
        # a gcd of 2 for the primitive edge (0,0)-(3,1) puts the split
        # point at (1, 0), off the edge: both children are
        # counterclockwise, but their areas 1 and 3 sum to 4, not 3
        monkeypatch.setattr(triangulate, "gcd", lambda dx, dy: 2)
        tri = LatticeTriangle.from_points(P(0, 0), P(3, 1), P(0, 1))
        with pytest.raises(InternalInvariantError,
                           match="children do not cover the parent"):
            gcd_edge_split(tri)
        with pytest.raises(InternalInvariantError,
                           match="children do not cover the parent"):
            primitive_triangulation(validate_polygon(list(tri.vertices)))
        f = tmp_path / "p.txt"
        f.write_text("0 0\n3 1\n0 1\n")
        assert main(["triangulate", str(f), "--events"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("internal error: edge-gcd-split at (1, 0): "
                                "children do not cover the parent\n")

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
        tri = LatticeTriangle.from_points(P(0, 0), P(1, 2), P(-1, 1))
        with pytest.raises(InternalInvariantError, match="degenerate child"):
            interior_split(tri)
        with pytest.raises(InternalInvariantError, match="degenerate child"):
            primitive_triangulation(validate_polygon(list(tri.vertices)))

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


PENTAGON_EARS = [_as_tuple(t) for t in initial_triangulation(PENTAGON)]

#: corruptions of a triangle list by name
CORRUPT = {
    "drop": lambda ts: ts[:-1],
    "duplicate": lambda ts: ts + ts[:1],
    "reverse": lambda ts: [flip(ts[0])] + ts[1:],
    "move_vertex": lambda ts: ts[:1] + [shear(ts[1])] + ts[2:],
    "outside": lambda ts: [((40, 40), (41, 40), (40, 41), 1)] + ts[1:],
    "copy": lambda ts: ts[:1] + ts[:1] + ts[2:],
}
#: the message that must catch each, from the global tiling oracle; count
#: and unit areas still hold under move_vertex, outside and copy, so
#: only the edges give these away.  Under copy the second copy's adds
#: find their edges already pending, which only the size equation sees
CAUGHT_BY_ORACLE = {
    "drop": "count",
    "duplicate": "count",
    "reverse": "not counterclockwise",
    "move_vertex": "directed edge|polygon boundary",
    "outside": "polygon boundary",
    "copy": "directed edge",
}
#: and from the ear certificate, which counts nothing: a second copy of
#: an ear repeats its ring edges, which are never cancelled
CAUGHT_BY_EARS = {
    "drop": "polygon boundary",
    "duplicate": "directed edge",
    "reverse": "not counterclockwise",
    "move_vertex": "directed edge|polygon boundary",
    "outside": "polygon boundary",
    "copy": "directed edge",
}


class TestCertificate:
    """The ear certificate, and the global tiling certificate of
    tests/conftest.py that it replaced, on the same corruptions."""

    def test_accepts_the_refinement(self):
        tiling_oracle(PENTAGON,
                      primitive_triangulation(PENTAGON).triangle_tuples)

    @pytest.mark.parametrize("name", CORRUPT)
    def test_rejects_a_corrupted_tiling(self, name):
        tris = list(primitive_triangulation(PENTAGON).triangle_tuples)
        with pytest.raises(InternalInvariantError,
                           match=CAUGHT_BY_ORACLE[name]):
            tiling_oracle(PENTAGON, CORRUPT[name](tris))

    def test_accepts_the_ears(self):
        _certify_ears(PENTAGON, PENTAGON_EARS)

    @pytest.mark.parametrize("name", CORRUPT)
    def test_rejects_corrupted_ears(self, name):
        with pytest.raises(InternalInvariantError,
                           match=CAUGHT_BY_EARS[name]):
            _certify_ears(PENTAGON, CORRUPT[name](PENTAGON_EARS))

    def test_rejects_an_ear_area_that_is_not_its_own(self):
        # the area _steps splits must be the ear's, from its corners
        (a, b, c, s), *rest = PENTAGON_EARS
        for wrong in (s + 1, -s, 0):
            with pytest.raises(InternalInvariantError,
                               match="not counterclockwise"):
                _certify_ears(PENTAGON, [(a, b, c, wrong)] + rest)

    @pytest.mark.parametrize("frame", ["identity", "skew", "quarter_turn",
                                       "shear"])
    def test_oracle_accepts_every_triangulation(self, frame):
        # the golden inputs, the ring families and random rings, under
        # (x, y) -> (2x + y, x + y), (-y, x) and (x + 3y, y)
        rng = random.Random(75)
        data = Path(__file__).parent / "data"
        shapes = [parse_polygon(path.read_text(), source=str(path)).vertices
                  for path in sorted(data.glob("*.txt"))
                  + sorted(data.glob("*.json"))]
        assert len(shapes) == 14
        shapes += [[P(x, y) for x, y in ring] for ring in (
            comb_ring(rng, 30), sawtooth_ring(rng, 30),
            staircase_ring(rng, 20), cell_ring(spiral_cells(3)))]
        shapes += [random_lattice_polygon(rng, rng.randint(3, 12), 6).vertices
                   for _ in range(20)]
        for vertices in shapes:
            poly = in_frame(vertices, FRAMES[frame])
            tiling_oracle(poly,
                          primitive_triangulation(poly).triangle_tuples)


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
        polygons = [random_lattice_polygon(rng, rng.randint(3, 9), 7)
                    for _ in range(30)]
        # 2A = 5000 triangles and 4434 events: both sections span
        # more than one of the CLI's write batches
        polygons.append(validate_polygon(
            [P(0, 0), P(50, 0), P(50, 50), P(0, 50)]))
        for k, poly in enumerate(polygons):
            f = tmp_path / f"p{k}.txt"
            f.write_text("".join(f"{v.x} {v.y}\n" for v in poly.vertices))
            assert main(["triangulate", str(f), "--events"]) == 0
            assert capsys.readouterr().out == \
                lines_from_objects(primitive_triangulation(poly))

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_events_match_public_split_replay(self, seed):
        # replay the initial triangles with the split oracle of
        # tests/conftest.py, which shares no code with the kernel, on
        # LatticeTriangle and SplitEvent objects
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
            rule, d, children = split_oracle(
                *((v.x, v.y) for v in tri.vertices), tri.twice_area)
            event = SplitEvent(tri, rule, P(*d), tuple(
                LatticeTriangle(P(*u), P(*v), P(*w), s)
                for u, v, w, s in children))
            events.append(event)
            stack.extend(reversed(event.children))
        assert result.events == tuple(events)
        assert result.triangles == tuple(done)


#: GL2(Z) maps (x, y) -> (a x + b y, c x + d y), as (a, b, c, d); the
#: last two reverse the orientation, which validation undoes
FRAMES = {
    "identity": (1, 0, 0, 1),
    "quarter_turn": (0, -1, 1, 0),
    "shear": (1, 3, 0, 1),
    "skew": (2, 1, 1, 1),
    "mirror": (0, 1, 1, 0),
    "skew_mirror": (1, 2, 1, 1),
}


def in_frame(vertices, frame):
    a, b, c, d = frame
    return validate_polygon([P(a * v.x + b * v.y, c * v.x + d * v.y)
                             for v in vertices])


class TestKernelOracle:
    """The refinement kernel against refine_oracle (tests/conftest.py),
    tuple for tuple: the same triangles and the same split log in the
    same order.  The public one-step splits must give each logged
    event."""

    def same(self, poly):
        result = primitive_triangulation(poly)
        triangles, events = refine_oracle(poly)
        assert result.triangle_tuples == triangles
        assert result.event_tuples == events
        for event in result.events:
            assert (gcd_edge_split(event.parent)
                    or interior_split(event.parent)) == event

    @pytest.mark.parametrize("frame", FRAMES.values(), ids=FRAMES.keys())
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_polygons_in_every_frame(self, frame, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 9), 5)
        self.same(in_frame(poly.vertices, frame))

    @pytest.mark.parametrize("side", range(1, 7))
    def test_squares_down_to_the_unit_square(self, side):
        # edge splits only; the unit square splits no triangle
        square = [P(0, 0), P(side, 0), P(side, side), P(0, side)]
        for frame in FRAMES.values():
            self.same(in_frame(square, frame))

    def test_primitive_edge_triangles(self):
        # every edge primitive, so the first split is at the Bezout point
        fixed = [P(0, 0), P(7, 1), P(3, 8)]
        rng = random.Random(74)
        corners = [fixed] + [list(random_splittable_triangle(rng, 6).vertices)
                             for _ in range(20)]
        for vertices in corners:
            for frame in FRAMES.values():
                poly = in_frame(vertices, frame)
                assert primitive_triangulation(poly).event_tuples[0][1] \
                    is SplitRule.INTERIOR_POINT
                self.same(poly)


#: the frames of determinant +1, which keep the ring's vertex order
FAN_FRAMES = {name: FRAMES[name]
              for name in ("identity", "skew", "quarter_turn", "shear")}


class TestFan:
    """An edge split whose first child has doubled area 1 finishes its
    whole fan in one loop of the kernel: its events and finished
    triangles must be those of splitting one step at a time."""

    @pytest.mark.parametrize("rotation", ["ab", "bc", "ca"])
    @pytest.mark.parametrize("frame", FAN_FRAMES.values(),
                             ids=FAN_FRAMES.keys())
    def test_height_one_fans_match_the_step_replay(self, frame, rotation):
        # (p, p + k*w, o) with w x (o - p) = 1, rotated so that the fan
        # edge pq is the triangle's ab, bc or ca
        rng = random.Random(f"{frame}{rotation}")
        m00, m01, m10, m11 = frame
        for k in range(2, 301):
            # p, w = (1, 0) and o = p + (j, 1) before the frame
            x0, y0, j = rng.randint(-50, 50), rng.randint(-50, 50), \
                rng.randint(-k - 3, k + 3)
            p, q, o = ((m00 * (x0 + x) + m01 * (y0 + y),
                        m10 * (x0 + x) + m11 * (y0 + y))
                       for x, y in ((0, 0), (k, 0), (j, 1)))
            ring = {"ab": (p, q, o), "bc": (o, p, q), "ca": (q, o, p)}
            poly = validate_polygon([P(*v) for v in ring[rotation]])
            result = primitive_triangulation(poly)
            events = result.event_tuples
            assert (result.triangle_tuples, events) == refine_oracle(poly)
            assert len(events) == k - 1
            assert all(e[1] is SplitRule.EDGE_GCD for e in events)

    @pytest.mark.parametrize("frame", FRAMES.values(), ids=FRAMES.keys())
    def test_interior_split_first_child_is_unit(self, frame):
        # the Bezout window puts d on d x w = s - 1, so the first child
        # (a, b, d) has doubled area 1, by the oracle and in the kernel
        rng = random.Random(23)
        for _ in range(100):
            tri = random_splittable_triangle(rng, rng.choice([4, 9, 25]))
            rule, _, children = split_oracle(*_as_tuple(tri))
            assert rule is SplitRule.INTERIOR_POINT
            assert children[0][3] == 1
        interior = 0
        for _ in range(20):
            poly = random_lattice_polygon(rng, rng.randint(3, 9), 12)
            for _, rule, d, children in primitive_triangulation(
                    in_frame(poly.vertices, frame)).event_tuples:
                if rule is SplitRule.INTERIOR_POINT:
                    a, b, _, s1 = children[0]
                    assert s1 == 1
                    assert twice_signed_area(P(*a), P(*b), P(*d)) == 1
                    interior += 1
        assert interior > 0


class TestVertexSource:
    """Every triangle vertex is a ring vertex or an event's split
    point, and there are Pick's i + u of them: the command line builds
    its point text from the ring and the split log alone."""

    def same(self, poly):
        result = primitive_triangulation(poly)
        vertices = {p for a, b, c, _ in result.triangle_tuples
                    for p in (a, b, c)}
        assert set(poly.ring) | {d for _, _, d, _ in result.event_tuples} \
            == vertices
        counts = verify_pick(poly)
        assert len(vertices) == counts.interior + counts.boundary

    @pytest.mark.parametrize("frame", FRAMES.values(), ids=FRAMES.keys())
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_polygons_in_every_frame(self, frame, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 9), 5)
        self.same(in_frame(poly.vertices, frame))

    @pytest.mark.parametrize("side", range(1, 7))
    def test_squares(self, side):
        square = [P(0, 0), P(side, 0), P(side, side), P(0, side)]
        for frame in FRAMES.values():
            self.same(in_frame(square, frame))


class TestNoBezoutResult:
    def test_refinement_builds_none(self, monkeypatch):
        # the kernel's Bezout step runs on plain ints; extended_gcd
        # would build a core.BezoutResult per interior split
        built = []

        class Counting(core.BezoutResult):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(core, "BezoutResult", Counting)
        assert core.extended_gcd(4, 6).g == 2 and len(built) == 1
        built.clear()
        poly = validate_polygon([P(0, 0), P(37, 1), P(14, 29)])
        assert twice_polygon_area(poly) >= 1000
        result = primitive_triangulation(poly)
        assert result.event_tuples[0][1] is SplitRule.INTERIOR_POINT
        assert len(result.triangle_tuples) == twice_polygon_area(poly)
        assert built == []
