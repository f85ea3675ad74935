"""Unit tests for the integer primitives and polygon validation."""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticepick.core as core
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
    edges_touch,
    pairwise_simplicity_oracle,
    random_lattice_polygon,
    random_polyomino,
    sawtooth_ring,
    shoelace_oracle,
    spiral_cells,
    staircase_ring,
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


class TestPolygonCache:
    """The int ring and the doubled area a polygon computes once."""

    @staticmethod
    def build(seed: int, clockwise: bool) -> tuple[list, LatticePolygon]:
        rng = random.Random(seed)
        vs = list(random_lattice_polygon(rng, rng.randint(3, 12), 20).vertices)
        if clockwise:
            vs.reverse()
        return vs, validate_polygon(vs)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           clockwise=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_area_and_ring_match_the_oracles(self, seed, clockwise):
        vs, poly = self.build(seed, clockwise)
        assert shoelace_oracle(vs) * (-1 if clockwise else 1) \
            == twice_polygon_area(poly) == shoelace_oracle(poly.vertices) > 0
        assert poly.ring == tuple((v.x, v.y) for v in poly.vertices)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           clockwise=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_cache_leaves_equality_and_hash_alone(self, seed, clockwise):
        _, poly = self.build(seed, clockwise)
        twice_polygon_area(poly)
        assert poly.ring
        fresh = LatticePolygon(poly.vertices)
        assert poly == fresh and hash(poly) == hash(fresh)
        assert len({poly, fresh}) == 1 and repr(poly) == repr(fresh)
        assert [f.name for f in dataclasses.fields(poly)] == ["vertices"]

    @given(seed=st.integers(min_value=0, max_value=10**6),
           clockwise=st.booleans(), tx=coord, ty=coord)
    @settings(max_examples=40, deadline=None)
    def test_replace_validates_and_recomputes(self, seed, clockwise, tx, ty):
        _, poly = self.build(seed, clockwise)
        area = twice_polygon_area(poly)
        v = LatticeVector(tx, ty)
        moved = dataclasses.replace(
            poly, vertices=tuple(p + v for p in poly.vertices))
        assert moved.ring == tuple((x + tx, y + ty) for x, y in poly.ring)
        assert twice_polygon_area(moved) == area
        with pytest.raises(PolygonError, match="counterclockwise"):
            dataclasses.replace(poly, vertices=poly.vertices[::-1])
        with pytest.raises(RepeatedVertexError):
            dataclasses.replace(poly, vertices=poly.vertices[:1] + poly.vertices)


#: the 8 symmetries of the square lattice, (x, y) -> (ax + by, cx + dy)
LATTICE_SYMMETRIES = [(1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1),
                      (0, 1, -1, 0), (-1, 0, 0, 1), (1, 0, 0, -1),
                      (0, 1, 1, 0), (0, -1, -1, 0)]
#: a valid ring, and one of each fault class; a ring of zero area that
#: repeats no vertex and folds back nowhere crosses itself, so both
#: builders name the crossing, ZeroAreaError being the backstop
RING_KINDS = ("valid", "few", "far", "repeat", "fold", "cross", "zero")


def random_ring(rng: random.Random, kind: str) -> list[tuple[int, int]]:
    """A random ring of (x, y) pairs, clockwise half the time, with a
    fault of the class ``kind``."""
    if kind == "zero":  # two lobes of equal area, scaled and shifted
        k, h, dx, dy = (rng.randint(1, 9) for _ in range(4))
        ring = [(0, 0), (2 * k, 2 * h), (2 * k, 0), (0, 2 * h)]
        return [(x + dx, y + dy) for x, y in ring]
    ring = [(v.x, v.y) for v in
            random_lattice_polygon(rng, rng.randint(3, 12), 20).vertices]
    if rng.random() < 0.5:
        ring.reverse()
    i = rng.randrange(len(ring))
    if kind == "few":
        ring = ring[:rng.randint(0, 2)]
    elif kind == "far":
        x, y = ring[i]
        ring[i] = (x, rng.choice((1, -1)) * (2**31 + rng.randint(1, 3)))
    elif kind == "repeat":
        ring.insert(i, ring[i])
    elif kind == "fold":  # out along a spike and straight back
        x, y = ring[i]
        ring[i + 1:i + 1] = [(x + rng.randint(1, 5), y + rng.randint(-5, 5)),
                             (x, y)]
    elif kind == "cross":
        rng.shuffle(ring)
    return ring


class TestRingEntry:
    """core._ring_polygon, which the command line builds its polygons
    with from int pairs, against validate_polygon on the same vertices
    as LatticePoints."""

    @staticmethod
    def outcome(build, ring):
        try:
            poly = build(ring)
        except PolygonError as exc:
            return type(exc), str(exc), exc.indices
        return (type(poly), poly.ring, poly.twice_area, poly.vertices, poly,
                hash(poly), repr(poly))

    @pytest.mark.parametrize("frame", LATTICE_SYMMETRIES)
    @pytest.mark.parametrize("kind", RING_KINDS)
    def test_agrees_with_validate_polygon(self, kind, frame):
        a, b, c, d = frame
        rng = random.Random(f"{kind} {frame}")
        classes = Counter()
        for _ in range(25):
            ring = [(a * x + b * y, c * x + d * y)
                    for x, y in random_ring(rng, kind)]
            got = self.outcome(lambda r: core._ring_polygon(tuple(r)), ring)
            assert got == self.outcome(
                lambda r: validate_polygon([P(x, y) for x, y in r]), ring)
            classes[got[0]] += 1
        expected = {"valid": LatticePolygon, "few": TooFewVerticesError,
                    "far": CoordinateRangeError, "repeat": RepeatedVertexError,
                    "zero": SelfIntersectionError}.get(kind)
        if expected is not None:
            assert set(classes) == {expected}
        elif kind == "fold":
            assert SelfIntersectionError in classes

    def test_builds_vertices_on_first_access(self):
        poly = core._ring_polygon(((0, 0), (0, 3), (2, 0)))
        assert "vertices" not in vars(poly)
        assert poly.ring == ((0, 0), (2, 0), (0, 3)) and poly.twice_area == 6
        assert poly.vertices == (P(0, 0), P(2, 0), P(0, 3))
        assert poly.vertices is poly.vertices
        with pytest.raises(AttributeError):
            poly.no_such_attribute


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


def checked_verdict(check, vs):
    """The verdict of ``check`` on the ring ``vs``, asserted to agree
    with the pairwise oracle's.  The error class is the same.  Where the
    oracle names a contact, ``check`` may name any pair of non-adjacent
    edges that share a point, by the oracle's own predicate; every
    other error has the oracle's message and indices."""
    found = verdict(check, vs)
    expected = verdict(pairwise_simplicity_oracle, vs)
    if expected and expected[1].endswith(" intersect"):
        assert found and found[0] is SelfIntersectionError, (found, vs)
        i, j = found[2]
        assert found[1] == f"edges {i} and {j} intersect", vs
        assert edges_touch(vs, i, j), (found, vs)
    else:
        assert found == expected, vs
    return found


def plant_faults(rng, ring):
    """Move one to three vertices of ``ring`` out of range, or repeat
    them, or fold the boundary back after them, in place."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(ring))
        x, y = ring[i]
        fault = rng.randrange(3)
        if fault == 0:
            ring[i] = (x, rng.choice((-1, 1)) * (COORDINATE_LIMIT + 1))
        elif fault == 1:
            ring.insert(i, (x, y))
        else:  # back to the vertex before
            ring.insert(i + 1, ring[i - 1])


def rotated(ring):
    return [(-y, x) for x, y in ring]


def small_box_rings(seed=61, count=3000):
    """Random rings in a 9 x 9 box, most of which touch themselves;
    every third is an angular sort, which adds simple ones with many
    collinear vertices."""
    rng = random.Random(seed)
    for k in range(count):
        ring = [(rng.randint(-4, 4), rng.randint(-4, 4))
                for _ in range(rng.randint(4, 30))]
        if k % 3 == 0:
            ring = angular_sort(list(set(ring)))
        yield ring


def planted_fault_rings(seed=67, count=600):
    """Random polygons with faults planted by plant_faults."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = list(random_lattice_polygon(rng, rng.randint(4, 10), 9).ring)
        plant_faults(rng, ring)
        yield ring


def clockwise_fault_rings(seed=68, count=600):
    """Random polygons turned clockwise, half with faults planted, half
    with one vertex moved anywhere in the box."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = list(random_lattice_polygon(rng, rng.randint(4, 10),
                                           9).ring)[::-1]
        if rng.random() < 0.5:
            plant_faults(rng, ring)
        else:
            ring[rng.randrange(len(ring))] = (rng.randint(-9, 9),
                                              rng.randint(-9, 9))
        yield ring


def perturbed_rectilinear_rings(seed=62, count=600):
    """Boundaries of random cell unions, sheared, with one vertex moved
    by at most one step: vertices land on edges, edges overlap, and
    vertical edges abound.  Unions whose boundary is not simple are
    skipped."""
    rng = random.Random(seed)
    for _ in range(count):
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
        yield ring


class TestSimplicitySweep:
    """The sweep in LatticePolygon against the pairwise oracle, on every
    ring and in both orientations: the same verdict and error class, a
    real contact wherever the oracle finds one, and the oracle's
    message and indices for every other error."""

    def same(self, ring, both=True):
        """The verdicts on the ring and, with ``both``, on its reverse;
        a simple ring has None for its counterclockwise orientation."""
        return [checked_verdict(LatticePolygon, [P(x, y) for x, y in r])
                for r in ((ring, ring[::-1]) if both else (ring,))]

    def outcome(self, ring):
        found = self.same(ring)
        return None if None in found else found[0][0]

    @staticmethod
    def sweep_alone(ring):
        """The pair the sweep names on the ring, which meets its
        precondition, asserted to be a real contact.  Validation runs
        the sweep only where the box pre-pass proves nothing, so this
        checks it on rings the pre-pass proves simple too."""
        assert meets_sweep_precondition(ring), ring
        pair = core._sweep_finds_contact(tuple(ring))
        assert pair is None or edges_touch([P(x, y) for x, y in ring],
                                           *pair), (pair, ring)
        return pair

    def test_random_rings_in_a_small_box(self):
        outcomes = Counter()
        for ring in small_box_rings():
            outcomes[self.outcome(ring)] += 1
        assert outcomes[None] >= 300
        assert outcomes[SelfIntersectionError] >= 1000

    def test_first_fault_of_the_first_failed_check(self):
        # vertices out of range, repeated and folded back, planted
        # anywhere in any mix: the one pass over the ring must report
        # what the three checks in turn would
        outcomes = Counter()
        for ring in planted_fault_rings():
            [found] = self.same(ring, both=False)
            outcomes[found and found[0]] += 1
        assert outcomes[CoordinateRangeError] >= 100
        assert outcomes[RepeatedVertexError] >= 100
        assert outcomes[SelfIntersectionError] >= 50

    def test_clockwise_faults_keep_input_indices(self):
        # validate_polygon checks clockwise input reversed; each fault
        # must still be named by the caller's indices
        outcomes = Counter()
        for ring in clockwise_fault_rings():
            vs = [P(x, y) for x, y in ring]
            expected = verdict(pairwise_simplicity_oracle, vs)
            # a clockwise ring the oracle refuses only for its orientation
            # is valid input to validate_polygon
            if shoelace_oracle(vs) < 0 and expected \
                    and expected[0] is not PolygonError:
                found = checked_verdict(validate_polygon, vs)
                outcomes[found[1].split()[0]] += 1
        # out of range, repeated, folded back, touching
        for kind in ("vertex", "vertices", "edge", "edges"):
            assert outcomes[kind] >= 30, outcomes

    def test_perturbed_rectilinear_rings(self):
        outcomes = Counter()
        for ring in perturbed_rectilinear_rings():
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
        # three vertices at one point
        ([(0, 0), (2, 1), (2, 2), (0, 0), (-1, 2), (-2, 1), (0, 0), (-1, -2),
          (1, -2)], (0, 2)),
        # a vertex on the inside of a foreign edge where both edges of the
        # vertex start there in the sweep's (x, y) order, and where both
        # end there
        ([(0, 0), (6, 0), (8, 2), (3, 3), (10, 4), (12, 6), (6, 6)], (2, 6)),
        ([(0, 0), (-6, 0), (-8, 2), (-3, 3), (-10, 4), (-12, 6), (-6, 6)],
         (2, 6)),
    ])
    def test_named_contacts(self, ring, pair):
        # the oracle names the first pair in (i, j) order; the sweep
        # names a real contact, checked in self.outcome
        vs = [P(x, y) for x, y in ring]
        with pytest.raises(SelfIntersectionError) as exc_info:
            pairwise_simplicity_oracle(tuple(vs))
        assert exc_info.value.indices == pair
        assert self.outcome(ring) is SelfIntersectionError
        assert self.sweep_alone(ring) and self.sweep_alone(ring[::-1])

    def test_near_misses_are_simple(self):
        # a vertex 1/sqrt(k^2 + 4) away from a long slanted edge, and
        # teeth one unit apart
        k = 201
        assert self.outcome([(0, 0), (k, 2), (k, 4), (k // 2, 1), (0, 3)]) is None
        rng = random.Random(63)
        assert self.outcome(comb_ring(rng, 40)) is None
        assert self.outcome(rotated(comb_ring(rng, 40))) is None

    @pytest.mark.parametrize("name", [
        shear + shape for shear in ("", "sheared_")
        for shape in ("sawtooth", "comb", "comb90", "spiral", "collinear")])
    def test_large_valid_shapes(self, name):
        rng = random.Random(64)
        ring = {
            "sawtooth": lambda: sawtooth_ring(rng, 300),
            "comb": lambda: comb_ring(rng, 150),
            "comb90": lambda: rotated(comb_ring(rng, 150)),
            "spiral": lambda: cell_ring(spiral_cells(6)),
            "collinear": lambda: cell_ring({(x, 0) for x in range(300)}),
        }[name.removeprefix("sheared_")]()
        assert len(ring) >= 600
        # one vertex pushed towards the next tooth, arm or side
        j = len(ring) // 2
        x, y = ring[j]
        rings = [ring] + [ring[:j] + [(x + dx, y + dy)] + ring[j + 1:]
                          for dx, dy in ((1, 0), (0, -1))]
        if name.startswith("sheared_"):
            # by (x, y) -> (x, 4x + y), which slants the vertical edges
            rings = [[(x, 4 * x + y) for x, y in r] for r in rings]
        assert self.same(rings[0], both=False) == [None]
        assert self.sweep_alone(rings[0]) is None
        for r in rings[1:]:
            [found] = self.same(r, both=False)
            if meets_sweep_precondition(r):
                assert (self.sweep_alone(r) is None) == (found is None)

    @staticmethod
    def notched_sawtooth(k):
        """A strip with k teeth and one vertex at (-1, 1) whose edge
        crosses the last edge, so the only contact is (n - 3, n - 1)
        with n = 2k + 4."""
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
        # a tooth tip moved adds a contact at low edge indices, which
        # the oracle names first; the sweep, which meets the notch
        # first, may name either, as long as it is real
        ring = self.notched_sawtooth(100)
        ring[j] = (ring[j][0] + dx, y)
        with pytest.raises(SelfIntersectionError) as exc_info:
            pairwise_simplicity_oracle(tuple(P(x, y) for x, y in ring))
        assert exc_info.value.indices == low
        assert self.outcome(ring) is SelfIntersectionError

    def test_sweep_scales(self):
        # n = 2000: the pairwise scan would test about 2 * 10^6 pairs
        rng = random.Random(65)
        for ring in (sawtooth_ring(rng, 1000), comb_ring(rng, 500),
                     rotated(comb_ring(rng, 500))):
            validate_polygon([P(x, y) for x, y in ring])


def meets_sweep_precondition(ring):
    """Whether the ring has at least 3 vertices, no vertex equal to the
    next and no edge that folds back onto the one before."""
    n = len(ring)
    if n < 3:
        return False
    for i, (ax, ay) in enumerate(ring):
        (bx, by), (cx, cy) = ring[(i + 1) % n], ring[(i + 2) % n]
        if (bx, by) == (cx, cy) or (
                (bx - ax) * (cy - ay) == (cx - ax) * (by - ay)
                and (bx - ax) * (cx - bx) + (by - ay) * (cy - by) < 0):
            return False
    return True


def has_contact(vs):
    n = len(vs)
    return any(edges_touch(vs, i, j)
               for i in range(n) for j in range(i + 2, n))


def box_work_fits(ring):
    """Whether the box pre-pass, when it finds no contact on the ring,
    stays within its budget at every edge it enters, by an upper bound
    on its work.  By the time it has entered the k-th edge in its order
    (left x, then the rest of the box), it has visited one active edge
    for each pair among the first k whose x-ranges meet and at most one
    more for each of them that left the active list, and it has made
    one exact test, of core._BOX_TEST units, for each non-adjacent pair
    among them whose boxes meet."""
    n = len(ring)
    boxes = sorted((min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]),
                    max(a[1], b[1]), i)
                   for i, (a, b) in enumerate(zip(ring, ring[1:] + ring[:1])))
    work = 0
    for k, (xlo, _, ylo, yhi, i) in enumerate(boxes, 1):
        work += 1
        for _, uhi, vlo, vhi, j in boxes[:k - 1]:
            if uhi >= xlo:
                work += 1
                if vlo <= yhi and ylo <= vhi and (i - j) % n not in (1, n - 1):
                    work += core._BOX_TEST
        if work > core._BOX_WORK_BASE + core._BOX_WORK * k:
            return False
    return True


@pytest.fixture
def sweeps(monkeypatch):
    """The sizes of the rings that validation hands to the sweep, one
    entry per call, recorded by a counter patched onto
    core._sweep_finds_contact."""
    sizes = []
    sweep = core._sweep_finds_contact

    def counting(pts):
        sizes.append(len(pts))
        return sweep(pts)

    monkeypatch.setattr(core, "_sweep_finds_contact", counting)
    return sizes


class TestBoxPrePass:
    """The bounding-box pre-pass proves a ring simple only if it is, by
    the pairwise oracle's predicate, and proves every simple ring whose
    box work is within its budget.  Validation runs the sweep only
    where the pre-pass proves nothing."""

    def test_agrees_with_the_oracle_on_random_rings(self):
        # the rings of TestSimplicitySweep that meet the precondition,
        # and more in the small box; the sweep is checked on them too,
        # since validation now runs it mostly on rings with a contact
        rings = [ring for family in (small_box_rings(),
                                     small_box_rings(seed=161),
                                     planted_fault_rings(),
                                     clockwise_fault_rings(),
                                     perturbed_rectilinear_rings())
                 for ring in family if meets_sweep_precondition(ring)]
        assert len(rings) >= 4200
        outcomes = Counter()
        for ring in rings:
            vs = [P(x, y) for x, y in ring]
            simple = not has_contact(vs)
            proved = core._boxes_prove_simple(tuple(ring))
            assert simple or not proved, ring
            fits = simple and box_work_fits(ring)
            assert proved or not fits, ring
            pair = core._sweep_finds_contact(tuple(ring))
            assert (pair is None) == simple, ring
            assert pair is None or edges_touch(vs, *pair), (pair, ring)
            outcomes[simple, fits, proved] += 1
        assert outcomes[True, True, True] >= 2000, outcomes
        assert outcomes[False, False, False] >= 2000, outcomes

    @pytest.mark.parametrize("name", ["comb", "sawtooth", "staircase"])
    def test_no_sweep_on_sparse_simple_rings(self, name, sweeps):
        # 3-4 active edges visited per edge and no exact test, at
        # n = 600 and at n = 10^4
        make = {"comb": comb_ring, "sawtooth": sawtooth_ring,
                "staircase": staircase_ring}[name]
        rng = random.Random(69)
        for size in (150, 2500):
            ring = make(rng, size)
            validate_polygon([P(x, y) for x, y in ring])
        assert sweeps == []

    def test_no_sweep_on_random_stars_within_budget(self, sweeps):
        rng = random.Random(69)
        stars = [random_lattice_polygon(rng, rng.randint(40, 60), 100).ring
                 for _ in range(40)]
        within = [ring for ring in stars if box_work_fits(ring)]
        assert len(within) >= 30
        del sweeps[:]  # random_lattice_polygon validates its drafts
        for ring in within:
            LatticePolygon(tuple(P(x, y) for x, y in ring))
        assert sweeps == []

    def test_sweep_names_every_contact(self, sweeps):
        rings = [ring for ring in small_box_rings(seed=162, count=1200)
                 if meets_sweep_precondition(ring)]
        rings.append(TestSimplicitySweep.notched_sawtooth(500))
        contacts = 0
        for ring in rings:
            vs = [P(x, y) for x, y in ring]
            if not has_contact(vs):
                continue
            del sweeps[:]
            with pytest.raises(SelfIntersectionError):
                LatticePolygon(tuple(vs))
            assert sweeps == [len(ring)]
            contacts += 1
        assert contacts >= 300

    @pytest.mark.parametrize("name,n", [("spiral", 14644), ("comb90", 10000),
                                        ("sheared_sawtooth", 603)])
    def test_sweep_decides_past_the_budget(self, name, n, sweeps):
        # about 120 and 3700 active edges visited per edge; under the
        # shear, 3 visits and one exact test per edge: the pre-pass
        # gives up and the sweep proves the ring simple
        ring = {
            "spiral": lambda: cell_ring(spiral_cells(30)),
            "comb90": lambda: rotated(comb_ring(random.Random(7), 2500)),
            "sheared_sawtooth": lambda: [
                (x, 4 * x + y)
                for x, y in sawtooth_ring(random.Random(7), 300)],
        }[name]()
        assert len(ring) == n
        validate_polygon([P(x, y) for x, y in ring])
        assert sweeps == [n]
