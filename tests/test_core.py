"""Unit tests for the integer primitives and polygon validation."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepick import (
    COORDINATE_LIMIT,
    CoordinateRangeError,
    DegenerateSegmentError,
    LatticePoint,
    LatticePolygon,
    LatticeTriangle,
    LatticeVector,
    PointLocation,
    PolygonError,
    PreconditionError,
    RepeatedVertexError,
    SelfIntersectionError,
    TooFewVerticesError,
    ZeroAreaError,
    closed_triangle_count,
    edge_gcd,
    extended_gcd,
    interior_split_point,
    normalize,
    point_in_polygon,
    point_on_segment,
    segment_lattice_points,
    triangle_lattice_counts,
    twice_polygon_area,
    twice_signed_area,
    validate_polygon,
)

from tests.conftest import (
    angular_sort,
    cell_ring,
    comb_ring,
    drop_straight_vertices,
    pairwise_simplicity_oracle,
    random_lattice_polygon,
    random_polyomino,
    sawtooth_ring,
    spiral_cells,
)

P = LatticePoint

coord = st.integers(min_value=-10**6, max_value=10**6)
seg_coord = st.integers(min_value=-2000, max_value=2000)
small_int = st.integers(min_value=-10**9, max_value=10**9)


class TestLatticePoint:
    @pytest.mark.parametrize("bad", [0.5, 2.0, True, False])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_int_coordinate_rejected(self, axis, bad):
        coords = {"x": 0, "y": 0, axis: bad}
        with pytest.raises(PreconditionError, match=f"coordinate {bad!r} "):
            P(coords["x"], coords["y"])

    def test_vector_sum_stays_on_the_lattice(self):
        assert P(1, 2) + LatticeVector(3, -4) == P(4, -2)
        with pytest.raises(PreconditionError, match="coordinate 0.5 "):
            P(0, 0) + LatticeVector(0.5, 0)


class TestSignedArea:
    def test_ccw_positive(self):
        assert twice_signed_area(P(0, 0), P(1, 0), P(0, 1)) == 1

    def test_cw_negative(self):
        assert twice_signed_area(P(0, 0), P(0, 1), P(1, 0)) == -1

    def test_collinear_zero(self):
        assert twice_signed_area(P(0, 0), P(2, 2), P(5, 5)) == 0

    @given(ax=coord, ay=coord, bx=coord, by=coord, cx=coord, cy=coord)
    @settings(max_examples=200)
    def test_antisymmetry_and_cyclic(self, ax, ay, bx, by, cx, cy):
        a, b, c = P(ax, ay), P(bx, by), P(cx, cy)
        area = twice_signed_area(a, b, c)
        assert twice_signed_area(b, c, a) == area
        assert twice_signed_area(a, c, b) == -area

    @given(ax=coord, ay=coord, bx=coord, by=coord, cx=coord, cy=coord,
           tx=coord, ty=coord)
    @settings(max_examples=200)
    def test_translation_invariance(self, ax, ay, bx, by, cx, cy, tx, ty):
        v = LatticeVector(tx, ty)
        a, b, c = P(ax, ay), P(bx, by), P(cx, cy)
        assert twice_signed_area(a + v, b + v, c + v) == \
            twice_signed_area(a, b, c)


class TestExtendedGcd:
    def test_zero_zero(self):
        r = extended_gcd(0, 0)
        assert (r.g, r.s, r.t) == (0, 0, 0)

    def test_known_values(self):
        assert extended_gcd(0, 7) == extended_gcd(0, 7)
        r = extended_gcd(0, 7)
        assert (r.g, r.s, r.t) == (7, 0, 1)
        r = extended_gcd(3, 5)
        assert (r.g, r.s, r.t) == (1, 2, -1)
        r = extended_gcd(6, 4)
        assert (r.g, r.s, r.t) == (2, 1, -1)

    @given(p=small_int, q=small_int)
    @settings(max_examples=300)
    def test_bezout_identity(self, p, q):
        r = extended_gcd(p, q)
        assert r.g == math.gcd(p, q)
        assert p * r.s + q * r.t == r.g

    @given(p=small_int, q=small_int)
    @settings(max_examples=200)
    def test_sign_folding(self, p, q):
        r = extended_gcd(p, q)
        rn = extended_gcd(-p, -q)
        assert (rn.g, rn.s, rn.t) == (r.g, -r.s, -r.t)


class TestSegments:
    def test_edge_gcd_axis(self):
        assert edge_gcd(P(0, 0), P(6, 0)) == 6

    def test_edge_gcd_diagonal(self):
        assert edge_gcd(P(1, 1), P(7, 4)) == 3

    def test_edge_gcd_primitive(self):
        assert edge_gcd(P(0, 0), P(3, 5)) == 1

    def test_edge_gcd_degenerate(self):
        with pytest.raises(DegenerateSegmentError):
            edge_gcd(P(2, 2), P(2, 2))

    def test_segment_points(self):
        pts = segment_lattice_points(P(1, 1), P(7, 4))
        assert pts == [P(1, 1), P(3, 2), P(5, 3), P(7, 4)]

    @given(ax=seg_coord, ay=seg_coord, bx=seg_coord, by=seg_coord)
    @settings(max_examples=200, deadline=None)
    def test_segment_points_count_and_membership(self, ax, ay, bx, by):
        a, b = P(ax, ay), P(bx, by)
        if a == b:
            return
        pts = segment_lattice_points(a, b)
        assert len(pts) == edge_gcd(a, b) + 1
        assert pts[0] == a and pts[-1] == b
        assert all(point_on_segment(p, a, b) for p in pts)

    def test_point_on_segment_off_line(self):
        assert not point_on_segment(P(1, 2), P(0, 0), P(4, 4))

    def test_point_on_segment_beyond_end(self):
        assert not point_on_segment(P(5, 5), P(0, 0), P(4, 4))

    def test_point_on_segment_interior(self):
        assert point_on_segment(P(2, 2), P(0, 0), P(4, 4))

    def test_point_on_degenerate_segment(self):
        assert point_on_segment(P(3, -1), P(3, -1), P(3, -1))
        for p in (P(3, 0), P(4, -1), P(0, 0)):
            assert not point_on_segment(p, P(3, -1), P(3, -1))


# every public function that takes three triangle corners
TRIANGLE_ENTRY_POINTS = {
    "from_points": LatticeTriangle.from_points,
    "interior_split_point": interior_split_point,
    "normalize": lambda a, b, c: normalize([a, b, c], 0),
    "triangle_lattice_counts": triangle_lattice_counts,
    "closed_triangle_count": closed_triangle_count,
}


class TestTriangleCorners:
    # the corners would be splittable (doubled area 3, primitive edge
    # ab); the bad one is refused as it is built, so no function that
    # takes three corners ever sees it
    @pytest.mark.parametrize("corners,bad", [
        (((0, 0), (3, 1), (0.5, 2)), "0.5"),
        (((0, 0), (3, 1), (0, True)), "True"),
        (((2.0, 0), (5, 1), (2, 1)), "2.0"),
        (((False, 0), (3, 1), (0, 1)), "False"),
    ])
    @pytest.mark.parametrize("entry", sorted(TRIANGLE_ENTRY_POINTS))
    def test_non_int_coordinate_rejected(self, entry, corners, bad):
        with pytest.raises(PreconditionError, match=f"coordinate {bad} "):
            TRIANGLE_ENTRY_POINTS[entry](*(P(x, y) for x, y in corners))


class TestPolygonValidation:
    def test_unit_triangle(self):
        poly = validate_polygon([P(0, 0), P(1, 0), P(0, 1)])
        assert twice_polygon_area(poly) == 1

    def test_clockwise_input_reversed(self):
        poly = validate_polygon([P(0, 0), P(0, 1), P(1, 0)])
        assert twice_polygon_area(poly) == 1
        assert poly.vertices[0] == P(0, 0)

    def test_direct_construction_rejects_clockwise(self):
        with pytest.raises(PolygonError):
            LatticePolygon((P(0, 0), P(0, 1), P(1, 0)))

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVerticesError):
            validate_polygon([P(0, 0), P(1, 0)])

    def test_coordinate_range(self):
        with pytest.raises(CoordinateRangeError):
            validate_polygon([P(0, 0), P(COORDINATE_LIMIT + 1, 0), P(0, 1)])

    def test_consecutive_duplicate(self):
        with pytest.raises(RepeatedVertexError):
            validate_polygon([P(0, 0), P(0, 0), P(1, 0), P(0, 1)])

    def test_bowtie_rejected(self):
        with pytest.raises(SelfIntersectionError):
            validate_polygon([P(0, 0), P(2, 2), P(2, 0), P(0, 2)])

    def test_fold_back_rejected(self):
        # spike: the boundary doubles back along its own edge
        with pytest.raises(SelfIntersectionError):
            validate_polygon([P(0, 0), P(4, 0), P(2, 0), P(2, 2)])

    def test_repeated_nonadjacent_vertex_rejected(self):
        with pytest.raises(SelfIntersectionError):
            validate_polygon([P(0, 0), P(2, 0), P(1, 1),
                              P(2, 2), P(0, 2), P(1, 1)])

    def test_vertex_on_foreign_edge_rejected(self):
        with pytest.raises(SelfIntersectionError):
            validate_polygon([P(0, 0), P(4, 0), P(4, 4), P(2, 0)])

    def test_all_collinear_rejected(self):
        # a collinear walk has to retrace its own edges, so the overlap
        # check fires; ZeroAreaError stays as the backstop class
        with pytest.raises(SelfIntersectionError):
            validate_polygon([P(0, 0), P(1, 1), P(2, 2)])
        assert issubclass(ZeroAreaError, PolygonError)

    def test_collinear_edge_chain_allowed(self):
        # midpoints on straight runs are legal vertices
        poly = validate_polygon([P(0, 0), P(1, 0), P(2, 0), P(2, 2), P(0, 2)])
        assert twice_polygon_area(poly) == 8

    def test_error_reports_indices(self):
        with pytest.raises(SelfIntersectionError) as exc_info:
            validate_polygon([P(0, 0), P(2, 2), P(2, 0), P(0, 2)])
        assert exc_info.value.indices == (0, 2)


class TestPolygonArea:
    def test_square(self):
        poly = validate_polygon([P(0, 0), P(3, 0), P(3, 3), P(0, 3)])
        assert twice_polygon_area(poly) == 18

    def test_concave(self):
        poly = validate_polygon([P(0, 0), P(4, 0), P(4, 4), P(2, 2), P(0, 4)])
        assert twice_polygon_area(poly) == 24

    @given(seed=st.integers(min_value=0, max_value=10**6),
           tx=coord, ty=coord)
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, seed, tx, ty):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 8), 9)
        v = LatticeVector(tx, ty)
        moved = validate_polygon([p + v for p in poly.vertices])
        assert twice_polygon_area(moved) == twice_polygon_area(poly)


class TestPointInPolygon:
    # concave arrowhead: interior probes must respect the notch
    ARROW = [P(0, 0), P(4, 0), P(4, 4), P(2, 2), P(0, 4)]

    def classify(self, p):
        return point_in_polygon(p, validate_polygon(self.ARROW))

    def test_interior(self):
        assert self.classify(P(2, 1)) is PointLocation.INTERIOR

    def test_exterior_inside_bbox(self):
        assert self.classify(P(2, 3)) is PointLocation.EXTERIOR

    def test_exterior_outside_bbox(self):
        assert self.classify(P(9, 9)) is PointLocation.EXTERIOR

    def test_vertex_is_boundary(self):
        assert self.classify(P(2, 2)) is PointLocation.BOUNDARY

    def test_edge_point_is_boundary(self):
        assert self.classify(P(3, 3)) is PointLocation.BOUNDARY

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_vertices_and_edge_points_are_boundary(self, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 8), 9)
        for a, b in poly.edges():
            for p in segment_lattice_points(a, b):
                assert point_in_polygon(p, poly) is PointLocation.BOUNDARY

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_outside_bounding_box_is_exterior(self, seed):
        rng = random.Random(seed)
        poly = random_lattice_polygon(rng, rng.randint(3, 8), 9)
        xmax = max(v.x for v in poly.vertices)
        probe = P(xmax + 1 + rng.randint(0, 5), rng.randint(-12, 12))
        assert point_in_polygon(probe, poly) is PointLocation.EXTERIOR


def verdict(check, vertices):
    """None if ``check`` accepts the ring, else the error's class,
    message and indices."""
    try:
        check(tuple(vertices))
    except PolygonError as exc:
        return type(exc), str(exc), exc.indices
    return None


def rotated(ring):
    return [(-y, x) for x, y in ring]


class TestSimplicitySweep:
    """The sweep in LatticePolygon against the pairwise oracle: the
    same verdict, error class, message and indices on every ring, in
    both orientations."""

    def same(self, ring, both=True):
        """The verdicts on the ring and, with ``both``, on its reverse;
        a simple ring has None for its counterclockwise orientation."""
        found = []
        for r in (ring, ring[::-1]) if both else (ring,):
            vs = [P(x, y) for x, y in r]
            found.append(verdict(LatticePolygon, vs))
            assert found[-1] == verdict(pairwise_simplicity_oracle, vs), r
        return found

    def outcome(self, ring):
        found = self.same(ring)
        return None if None in found else found[0][0]

    def test_random_rings_in_a_small_box(self):
        # most such rings touch themselves; the angular sorts add
        # simple ones with many collinear vertices
        rng = random.Random(61)
        outcomes = Counter()
        for k in range(3000):
            ring = [(rng.randint(-4, 4), rng.randint(-4, 4))
                    for _ in range(rng.randint(4, 30))]
            if k % 3 == 0:
                ring = angular_sort(list(set(ring)))
            outcomes[self.outcome(ring)] += 1
        assert outcomes[None] >= 300
        assert outcomes[SelfIntersectionError] >= 1000

    def test_perturbed_rectilinear_rings(self):
        # boundaries of random cell unions, sheared, with one vertex
        # moved by at most one step: vertices land on edges, edges
        # overlap, and vertical edges abound
        rng = random.Random(62)
        outcomes = Counter()
        for _ in range(600):
            ring = cell_ring(random_polyomino(rng, rng.randint(2, 40)))
            if ring is None:
                continue
            if rng.random() < 0.5:
                ring = drop_straight_vertices(ring)
            a, b, c, d = rng.choice(((1, 0, 0, 1), (1, 1, 0, 1),
                                     (2, 1, 1, 1), (0, -1, 1, 0)))
            ring = [(a * x + b * y, c * x + d * y) for x, y in ring]
            j = rng.randrange(len(ring))
            x, y = ring[j]
            ring[j] = (x + rng.randint(-1, 1), y + rng.randint(-1, 1))
            outcomes[self.outcome(ring)] += 1
        assert outcomes[None] >= 100
        assert outcomes[SelfIntersectionError] >= 100

    @pytest.mark.parametrize("ring,pair", [
        # two lobes meet at a repeated vertex whose edges leave one
        # occurrence to the left and the other to the right
        ([(-2, -1), (0, 0), (-2, 1), (0, 3), (2, 1), (0, 0), (2, -1),
          (0, -3)], (0, 4)),
        # pinched figure eight, both lobes on one side each
        ([(0, 0), (-2, 1), (-2, -1), (0, 0), (2, -1), (2, 1)], (0, 2)),
        # a vertex on the inside of a foreign edge
        ([(0, 0), (4, 0), (4, 2), (2, 0), (0, 2)], (0, 2)),
        # a vertex on a vertical edge
        ([(0, 0), (2, 0), (2, 4), (1, 4), (1, 3), (2, 3), (2, 1), (0, 1)],
         (1, 4)),
        # collinear overlap of non-adjacent edges, horizontal and vertical
        ([(0, 0), (4, 0), (4, 2), (6, 2), (6, 0), (2, 0), (2, -2), (0, -2)],
         (0, 4)),
        ([(0, 0), (0, 4), (-2, 4), (-2, 6), (0, 6), (0, 2), (2, 2), (2, 0)],
         (0, 4)),
        # a proper crossing far from every vertex
        ([(0, 0), (10, 1), (10, 3), (1, -5), (0, 9)], (0, 2)),
    ])
    def test_named_contacts(self, ring, pair):
        vs = [P(x, y) for x, y in ring]
        with pytest.raises(SelfIntersectionError) as exc_info:
            pairwise_simplicity_oracle(tuple(vs))
        assert exc_info.value.indices == pair
        assert self.outcome(ring) is SelfIntersectionError

    def test_near_misses_are_simple(self):
        # a vertex 1/sqrt(k^2 + 4) away from a long slanted edge, and
        # teeth one unit apart
        k = 201
        assert self.outcome([(0, 0), (k, 2), (k, 4), (k // 2, 1), (0, 3)]) is None
        rng = random.Random(63)
        assert self.outcome(comb_ring(rng, 40)) is None
        assert self.outcome(rotated(comb_ring(rng, 40))) is None

    @pytest.mark.parametrize("name", ["sawtooth", "comb", "comb90",
                                      "spiral", "collinear"])
    def test_large_valid_shapes(self, name):
        rng = random.Random(64)
        ring = {
            "sawtooth": lambda: sawtooth_ring(rng, 300),
            "comb": lambda: comb_ring(rng, 150),
            "comb90": lambda: rotated(comb_ring(rng, 150)),
            "spiral": lambda: cell_ring(spiral_cells(6)),
            "collinear": lambda: cell_ring({(x, 0) for x in range(300)}),
        }[name]()
        assert len(ring) >= 600
        assert self.same(ring, both=False) == [None]
        # one vertex pushed towards the next tooth, arm or side
        j = len(ring) // 2
        x, y = ring[j]
        for dx, dy in ((1, 0), (0, -1)):
            self.same(ring[:j] + [(x + dx, y + dy)] + ring[j + 1:],
                      both=False)

    @staticmethod
    def notched_sawtooth(k):
        """The ring of ROADMAP known defect 7: a strip with k teeth and
        one vertex at (-1, 1) whose edge crosses the last edge, so the
        first pair is (n - 3, n - 1) with n = 2k + 4."""
        ring = [(0, 0), (2 * k, 0)]
        ring += [(x, 5 if x % 2 == 0 else 7) for x in range(2 * k, -1, -1)]
        return ring[:-1] + [(-1, 1)] + ring[-1:]

    def test_late_first_pair(self):
        ring = self.notched_sawtooth(500)
        n = len(ring)
        assert n == 1004
        assert self.same(ring, both=False) == \
            [(SelfIntersectionError, f"edges {n - 3} and {n - 1} intersect",
              (n - 3, n - 1))]

    @pytest.mark.parametrize("j,dx,y,low", [
        (3, 0, 0, (0, 2)),     # onto the base
        (41, -3, 6, (40, 42)),  # across the next tooth
    ])
    def test_early_and_late_contacts(self, j, dx, y, low):
        # a tooth tip moved adds a contact at low edge indices; the
        # late contact of the notch must not hide it
        ring = self.notched_sawtooth(100)
        ring[j] = (ring[j][0] + dx, y)
        assert self.same(ring)[0] == (SelfIntersectionError,
                                      f"edges {low[0]} and {low[1]} intersect",
                                      low)

    def test_sweep_scales(self):
        # n = 2000: the pairwise scan would test about 2 * 10^6 pairs
        rng = random.Random(65)
        for ring in (sawtooth_ring(rng, 1000), comb_ring(rng, 500),
                     rotated(comb_ring(rng, 500))):
            validate_polygon([P(x, y) for x, y in ring])
