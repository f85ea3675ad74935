"""Tests for lattice-point counting, the doubled area identity, and the
two-part additivity check."""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepick import (
    AdditivityWitness,
    BoxTooLargeError,
    DegenerateTriangleError,
    InternalInvariantError,
    InvalidCutError,
    LatticePoint,
    PickCount,
    PolygonError,
    PreconditionError,
    SelfIntersectionError,
    TooFewVerticesError,
    boundary_count,
    closed_triangle_count,
    interior_count_oracle,
    pick_twice_area,
    polygon_lattice_points,
    primitive_triangulation,
    segment_lattice_points,
    triangle_lattice_counts,
    twice_polygon_area,
    validate_polygon,
    verify_additivity,
    verify_pick,
)

from latticepick.pick import _floor_sum
from tests.conftest import (
    boundary_count_oracle,
    box_scan_points,
    cell_ring,
    comb_ring,
    cut_inside_oracle,
    random_cut,
    random_cut_polygon,
    random_lattice_polygon,
    random_polyomino,
    random_triangle_corners,
    random_unimodular_triangle,
    row_scan_counts,
    row_scan_triangle_counts,
    sawtooth_ring,
    spiral_cells,
)

P = LatticePoint

UNIT_SQUARE = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
SQUARE_2 = [P(0, 0), P(2, 0), P(2, 2), P(0, 2)]
U_SHAPE = [P(0, 0), P(6, 0), P(6, 5), P(4, 5), P(4, 2),
           P(2, 2), P(2, 5), P(0, 5)]


class TestBoundaryCount:
    def test_unit_square(self):
        assert boundary_count(validate_polygon(UNIT_SQUARE)) == 4

    def test_square_side_two(self):
        assert boundary_count(validate_polygon(SQUARE_2)) == 8

    def test_flat_top_triangle(self):
        poly = validate_polygon([P(0, 0), P(2, 0), P(1, 1)])
        assert boundary_count(poly) == 4

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 8), 9)
        assert boundary_count(poly) == boundary_count_oracle(poly)


class TestInteriorOracle:
    def test_unit_square(self):
        assert interior_count_oracle(validate_polygon(UNIT_SQUARE)) == 0

    def test_square_side_two(self):
        assert interior_count_oracle(validate_polygon(SQUARE_2)) == 1

    def test_steep_triangle_single_point(self):
        poly = validate_polygon([P(0, 0), P(1, 2), P(-1, 1)])
        assert interior_count_oracle(poly) == 1
        interior, boundary = polygon_lattice_points(poly)
        assert interior == [P(0, 1)]
        assert len(boundary) == 3

    def test_guard_triggers(self):
        poly = validate_polygon([P(0, 0), P(10**4, 0), P(0, 10**4)])
        with pytest.raises(BoxTooLargeError):
            interior_count_oracle(poly, max_box_points=10**6)

    def test_guard_is_configurable(self):
        poly = validate_polygon([P(0, 0), P(30, 0), P(0, 30)])
        assert interior_count_oracle(poly, max_box_points=10**4) == 406

    def test_tall_sawtooth_counts_fast(self):
        # 98 003 vertices in a box of 9.81e7 points, under the default
        # guard: the row scan took 45 s here, rows times edges
        t, h = 49_000, 1000
        ring = [P(0, 0), P(2 * t, 0)]
        for i in range(t, 0, -1):
            ring += [P(2 * i, 1), P(2 * i - 1, h)]
        poly = validate_polygon(ring + [P(0, 1)])
        start = time.perf_counter()
        interior = interior_count_oracle(poly)
        elapsed = time.perf_counter() - start
        assert interior == 48_951_000
        assert twice_polygon_area(poly) == \
            2 * interior + boundary_count(poly) - 2
        assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"

    def test_quadrilateral_spanning_the_coordinate_box(self):
        side = 2**31
        poly = validate_polygon([P(-side, -side + 3), P(side - 5, -side),
                                 P(side, side - 7), P(-side + 11, side)])
        with pytest.raises(BoxTooLargeError):
            interior_count_oracle(poly)
        # no oracle reaches this size: PickCount checks the identity
        # against the shoelace area on construction
        counts = verify_pick(poly, max_box_points=(2 * side + 1) ** 2)
        assert counts.twice_area == twice_polygon_area(poly)


class TestFlatEdges:
    def test_flat_edge_is_counted_not_expanded(self):
        # a row scan that listed each point of the 10^6-long flat edges
        # peaked above 100 MB here
        w = 10**6
        rect = validate_polygon([P(0, 0), P(w, 0), P(w, 1), P(0, 1)])
        tracemalloc.start()
        try:
            assert interior_count_oracle(rect) == 0
            assert triangle_lattice_counts(P(0, 0), P(w, 0), P(w, 1)) == \
                (0, w + 2)
            assert closed_triangle_count(P(0, 0), P(w, 0), P(w, 1)) == w + 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak} bytes, limit 1 MiB"


class TestTriangleCounters:
    def test_flat_top_triangle(self):
        assert triangle_lattice_counts(P(0, 0), P(2, 0), P(1, 1)) == (0, 4)

    def test_steep_triangle(self):
        assert triangle_lattice_counts(P(0, 0), P(1, 2), P(-1, 1)) == (1, 3)

    def test_closed_count(self):
        assert closed_triangle_count(P(0, 0), P(1, 0), P(0, 1)) == 3
        assert closed_triangle_count(P(0, 0), P(2, 0), P(1, 1)) == 4
        assert closed_triangle_count(P(0, 0), P(20, 0), P(0, 20)) == 231

    @pytest.mark.parametrize("corners,counts", [
        ((P(0, 0), P(1, 0), P(0, 10**6)), (0, 10**6 + 2)),
        ((P(0, 0), P(1, 0), P(0, 2**31)), (0, 2**31 + 2)),
        ((P(0, 0), P(1, 1), P(2**30, 2**30 + 1)), (0, 3)),
        ((P(-2**31, -2**31), P(2**31, 2**31 - 1), P(1 - 2**31, 1 - 2**31)),
         (0, 3)),
    ])
    def test_tall_slivers_count_fast(self, corners, counts):
        # the row scan took 2 s at height 10^6 and would take an hour
        # at 2^31; floor sums take microseconds
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            assert triangle_lattice_counts(*corners) == counts
            assert closed_triangle_count(*corners) == sum(counts)
            best = min(best, time.perf_counter() - start)
        assert best < 0.01, f"took {best * 1e3:.1f}ms, limit 10ms"

    def test_collinear_corners_rejected(self):
        for count in (triangle_lattice_counts, closed_triangle_count):
            with pytest.raises(DegenerateTriangleError):
                count(P(0, 0), P(2, 1), P(4, 2))

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_matches_bounding_box_scan(self, seed):
        rng = random.Random(seed)
        a, b, c = random_triangle_corners(rng, rng.choice([4, 12, 40]))
        interior, boundary = box_scan_points([a, b, c])
        expected = (len(interior), len(boundary))
        assert triangle_lattice_counts(a, b, c) == expected
        assert row_scan_triangle_counts(a, b, c) == expected
        assert closed_triangle_count(a, b, c) == sum(expected)


def histogram_ring(rng: random.Random) -> list[LatticePoint]:
    """A rectilinear polygon of columns on a common base, mirrored or
    transposed at random: horizontal edges, collinear vertices, several
    vertices on one row and reflex corners."""
    k = rng.randint(1, 6)
    xs = sorted(rng.sample(range(15), k + 1))
    heights = [rng.randint(1, 8) for _ in range(k)]
    ring = [P(xs[0], 0), P(xs[-1], 0)]
    for i in reversed(range(k)):
        ring += [P(xs[i + 1], heights[i]), P(xs[i], heights[i])]
    ring = [p for i, p in enumerate(ring) if p != ring[i - 1]]
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    ring = [P(sx * p.x, sy * p.y) for p in ring]
    if rng.random() < 0.5:
        ring = [P(p.y, p.x) for p in ring]
    return ring


def collinear_runs_ring(rng: random.Random) -> list[LatticePoint]:
    """A random polygon, scaled up, with lattice points of its edges
    inserted as extra vertices."""
    scale = rng.randint(1, 3)
    poly = random_lattice_polygon(rng, rng.randint(3, 7), 6)
    ring = []
    for a, b in poly.edges():
        a, b = P(scale * a.x, scale * a.y), P(scale * b.x, scale * b.y)
        ring += [p for j, p in enumerate(segment_lattice_points(a, b)[:-1])
                 if j == 0 or rng.random() < 0.5]
    return ring


def sliver_ring(rng: random.Random) -> list[LatticePoint]:
    """A long thin triangle of doubled area 1, or the parallelogram of
    doubled area 2 it spans."""
    a, b, c = random_unimodular_triangle(rng, 20)
    if rng.random() < 0.5:
        return [a, b, c]
    return [a, b, P(b.x + c.x - a.x, b.y + c.y - a.y), c]


def _points(ring: list[tuple[int, int]]) -> list[LatticePoint]:
    return [P(x, y) for x, y in ring]


def polyomino_ring(rng: random.Random) -> list[LatticePoint]:
    """The boundary of a random polyomino, with a vertex at every
    lattice point on it, straight vertices included."""
    while (ring := cell_ring(random_polyomino(rng, rng.randint(1, 12)))) is None:
        pass
    return _points(ring)


RINGS = {
    "random": lambda rng: list(
        random_lattice_polygon(rng, rng.randint(3, 10), 9).vertices),
    "histogram": histogram_ring,
    "collinear_runs": collinear_runs_ring,
    "sliver": sliver_ring,
    "comb": lambda rng: _points(comb_ring(rng, rng.randint(1, 5))),
    "sawtooth": lambda rng: _points(sawtooth_ring(rng, rng.randint(1, 5))),
    "spiral": lambda rng: _points(cell_ring(spiral_cells(rng.randint(1, 2)))),
    "polyomino": polyomino_ring,
}

# the 8 symmetries of the square lattice and one unimodular shear, as
# (a, b, c, d) for (x, y) -> (a*x + b*y, c*x + d*y)
FRAMES = ([(sx, 0, 0, sy) for sx in (1, -1) for sy in (1, -1)]
          + [(0, sx, sy, 0) for sx in (1, -1) for sy in (1, -1)]
          + [(1, 2, 0, 1)])


def in_frame(ring: list[LatticePoint], frame: tuple[int, int, int, int],
             ) -> list[LatticePoint]:
    a, b, c, d = frame
    return [P(a * p.x + b * p.y, c * p.x + d * p.y) for p in ring]


class TestRowScan:
    """The row scan polygon_lattice_points, point by point, and the
    floor-sum counters against the per-point bounding-box oracle of the
    tests."""

    @given(shape=st.sampled_from(sorted(RINGS)),
           seed=st.integers(min_value=0, max_value=10**6),
           far=st.booleans(), clockwise=st.booleans())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_box_scan(self, shape, seed, far, clockwise):
        rng = random.Random(seed)
        ring = RINGS[shape](rng)
        if far:
            ox = rng.choice((1, -1)) * (2**31 - 100)
            oy = rng.choice((1, -1)) * (2**31 - 100)
            ring = [P(p.x + ox, p.y + oy) for p in ring]
        poly = validate_polygon(ring)
        if clockwise:
            ring = list(poly.vertices[::-1])
        expected = box_scan_points(poly.vertices)
        assert polygon_lattice_points(poly) == expected
        assert interior_count_oracle(poly) == len(expected[0])
        assert boundary_count(poly) == len(expected[1])
        if len(ring) == 3:
            counts = (len(expected[0]), len(expected[1]))
            assert triangle_lattice_counts(*ring) == counts
            assert closed_triangle_count(*ring) == sum(counts)


class TestFloorSums:
    """The floor-sum counters against the point counts of the row scan
    polygon_lattice_points and of the per-point box scan, on every ring
    family, in every lattice frame."""

    @given(n=st.integers(min_value=0, max_value=40),
           m=st.integers(min_value=1, max_value=40),
           a=st.integers(min_value=-10**3, max_value=10**3),
           b=st.integers(min_value=-10**3, max_value=10**3))
    @settings(max_examples=300, deadline=None)
    def test_floor_sum_matches_direct_sum(self, n, m, a, b):
        assert _floor_sum(n, m, a, b) == sum((a * t + b) // m for t in range(n))

    @pytest.mark.parametrize("shape", sorted(RINGS))
    def test_matches_scans_in_every_frame(self, shape):
        rng = random.Random(shape)
        for _ in range(20):
            ring = RINGS[shape](rng)
            for frame in FRAMES:
                moved = in_frame(ring, frame)
                poly = validate_polygon(moved)
                interior, boundary = box_scan_points(poly.vertices)
                counts = (len(interior), len(boundary))
                assert row_scan_counts(moved) == counts
                assert (interior_count_oracle(poly),
                        boundary_count(poly)) == counts
                if len(moved) == 3:
                    assert triangle_lattice_counts(*moved) == counts
                    assert row_scan_triangle_counts(*moved) == counts

    @pytest.mark.parametrize("ring", [
        comb_ring(random.Random(1), 150),
        sawtooth_ring(random.Random(2), 150),
        cell_ring(spiral_cells(8)),
    ], ids=["comb", "sawtooth", "spiral"])
    def test_matches_row_scan_on_large_rings(self, ring):
        for frame in FRAMES:
            poly = validate_polygon(in_frame(_points(ring), frame))
            assert (interior_count_oracle(poly), boundary_count(poly)) == \
                row_scan_counts(poly.vertices)


class TestPickIdentity:
    def test_primitive_triangle_anchor(self):
        assert pick_twice_area(0, 3) == 1

    def test_square_side_two(self):
        assert pick_twice_area(1, 8) == 8

    def test_flat_top_triangle(self):
        assert pick_twice_area(0, 4) == 2

    def test_boundary_too_small(self):
        with pytest.raises(PreconditionError):
            pick_twice_area(5, 2)

    def test_pickcount_enforces_identity(self):
        with pytest.raises(InternalInvariantError):
            PickCount(interior=1, boundary=8, twice_area=9)

    def test_verify_unit_square(self):
        counts = verify_pick(validate_polygon(UNIT_SQUARE))
        assert (counts.interior, counts.boundary, counts.twice_area) == (0, 4, 2)

    def test_verify_square_side_two(self):
        counts = verify_pick(validate_polygon(SQUARE_2))
        assert (counts.interior, counts.boundary, counts.twice_area) == (1, 8, 8)

    def test_verify_concave(self):
        counts = verify_pick(validate_polygon(U_SHAPE))
        assert counts.twice_area == 48
        assert counts.twice_area == 2 * counts.interior + counts.boundary - 2

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_end_to_end_random(self, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 10), 9)
        counts = verify_pick(poly)
        assert counts.twice_area == twice_polygon_area(poly)
        assert 2 * counts.interior + counts.boundary - 2 == counts.twice_area

    def test_every_primitive_triangle_counts_0_3(self):
        poly = validate_polygon([P(0, 0), P(5, 0), P(6, 4), P(2, 7), P(-2, 3)])
        for tri in primitive_triangulation(poly).triangles:
            sub = validate_polygon(list(tri.vertices))
            counts = verify_pick(sub)
            assert (counts.interior, counts.boundary,
                    counts.twice_area) == (0, 3, 1)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_split_events_transfer_counts(self, seed):
        # every split conserves the doubled identity between parent
        # and children
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 7), 5)
        for event in primitive_triangulation(poly).events:
            def doubled(tri):
                i, u = triangle_lattice_counts(*tri.vertices)
                assert 2 * i + u - 2 == tri.twice_area
                return 2 * i + u - 2
            assert doubled(event.parent) == \
                sum(doubled(ch) for ch in event.children)


class TestAdditivity:
    def test_square_side_two_path(self):
        poly = validate_polygon(SQUARE_2)
        w = verify_additivity(poly, P(0, 0), P(1, 1), P(2, 2))
        assert w.cut_points == 3
        assert (w.interior, w.boundary) == (1, 8)
        assert (w.interior_1, w.boundary_1) == (0, 6)
        assert (w.interior_2, w.boundary_2) == (0, 6)

    def test_unit_square_chord(self):
        poly = validate_polygon(UNIT_SQUARE)
        w = verify_additivity(poly, P(0, 0), P(0, 0), P(1, 1))
        assert w.cut_points == 2
        assert (w.interior_1, w.boundary_1) == (0, 3)
        assert (w.interior_2, w.boundary_2) == (0, 3)

    def test_cut_leaving_polygon_rejected(self):
        poly = validate_polygon(U_SHAPE)
        # the top chord crosses the gap between the two arms
        with pytest.raises(InvalidCutError):
            verify_additivity(poly, P(0, 5), P(0, 5), P(6, 5))

    def test_cut_along_edge_rejected(self):
        poly = validate_polygon(UNIT_SQUARE)
        with pytest.raises(InvalidCutError):
            verify_additivity(poly, P(0, 0), P(0, 0), P(1, 0))

    def test_overlapping_cut_segments_rejected(self):
        poly = validate_polygon(U_SHAPE)
        with pytest.raises(InvalidCutError):
            verify_additivity(poly, P(0, 3), P(5, 3), P(2, 3))

    def test_equal_endpoints_rejected(self):
        poly = validate_polygon(SQUARE_2)
        with pytest.raises(InvalidCutError):
            verify_additivity(poly, P(0, 0), P(1, 1), P(0, 0))

    def test_exterior_d_rejected(self):
        poly = validate_polygon(SQUARE_2)
        with pytest.raises(InvalidCutError):
            verify_additivity(poly, P(0, 0), P(5, 5), P(2, 2))

    def test_boundary_d_rejected(self):
        poly = validate_polygon(SQUARE_2)
        with pytest.raises(InvalidCutError):
            verify_additivity(poly, P(0, 0), P(1, 0), P(2, 2))

    def test_non_boundary_endpoint_rejected(self):
        poly = validate_polygon(SQUARE_2)
        with pytest.raises(InvalidCutError):
            verify_additivity(poly, P(1, 1), P(1, 1), P(2, 2))

    @pytest.mark.parametrize("poly,a,d,b,cause", [
        # touches the boundary at (2, 2) and (4, 2): a contact in the top part
        (U_SHAPE, P(0, 4), P(3, 1), P(6, 4), SelfIntersectionError),
        # runs along an edge: a part of two vertices
        (UNIT_SQUARE, P(0, 0), P(0, 0), P(1, 0), TooFewVerticesError),
        # A-D contains B-D: a fold-back at D
        (U_SHAPE, P(0, 3), P(5, 3), P(2, 3), SelfIntersectionError),
        # crosses the gap between the arms: the gap's part winds clockwise
        (U_SHAPE, P(2, 4), P(2, 4), P(4, 4), PolygonError),
    ])
    def test_bad_cut_fails_as_a_part(self, poly, a, d, b, cause):
        with pytest.raises(InvalidCutError) as exc:
            verify_additivity(validate_polygon(poly), a, d, b)
        assert type(exc.value.__cause__) is cause

    def test_agrees_with_cut_oracle(self):
        rng = random.Random(7)
        accepted = total = 0
        for _ in range(1200):
            poly = random_cut_polygon(rng)
            for _ in range(8):
                a, d, b = random_cut(rng, poly)
                try:
                    verify_additivity(poly, a, d, b)
                    ok = True
                except InvalidCutError:
                    ok = False
                assert ok == cut_inside_oracle(poly, a, d, b), \
                    (poly.vertices, a, d, b)
                accepted += ok
                total += 1
        assert 0.2 * total < accepted < 0.6 * total

    def test_witness_enforces_identities(self):
        with pytest.raises(InternalInvariantError):
            AdditivityWitness(interior=5, boundary=8, interior_1=1,
                              boundary_1=6, interior_2=1, boundary_2=6,
                              cut_points=3)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_interior_cuts(self, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(4, 8), 6)
        interior, boundary = polygon_lattice_points(poly)
        if not interior:
            return
        d = rng.choice(interior)
        a, b = rng.sample(boundary, 2)
        try:
            w = verify_additivity(poly, a, d, b)
        except InvalidCutError:
            assert not cut_inside_oracle(poly, a, d, b)
            return
        assert cut_inside_oracle(poly, a, d, b)
        assert w.interior == interior_count_oracle(poly)
        assert w.boundary == boundary_count(poly)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_chord_cuts(self, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(4, 8), 6)
        _, boundary = polygon_lattice_points(poly)
        a, b = rng.sample(boundary, 2)
        try:
            w = verify_additivity(poly, a, a, b)
        except InvalidCutError:
            assert not cut_inside_oracle(poly, a, a, b)
            return
        assert cut_inside_oracle(poly, a, a, b)
        assert w.cut_points >= 2
        assert w.interior == interior_count_oracle(poly)
