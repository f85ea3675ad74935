"""Acceptance suite: one test per release criterion, each printing a
single PASS or FAIL line so the run can be audited from the log.

Every check is exact integer equality; there are no tolerances
anywhere.  Random corpora use fixed seeds so failures reproduce.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

from latticepick import (
    LatticePoint,
    boundary_count,
    closed_triangle_count,
    extended_gcd,
    interior_count_oracle,
    interior_split_point,
    pick_twice_area,
    triangle_lattice_counts,
    twice_polygon_area,
    twice_signed_area,
)
from latticepick.cli import main

from tests.conftest import (
    CORPUS_SEED,
    CORPUS_SIZE,
    CORPUS_SPANS,
    random_lattice_polygon,
    random_triangle_corners,
    random_unimodular_triangle,
    split_point_scan,
)

P = LatticePoint
DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


@contextmanager
def criterion(capsys, number: int, title: str):
    """Run one acceptance check and print its verdict uncaptured."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} FAIL: {title}", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {number} PASS: {title}", flush=True)


def test_criterion_1_pick_identity_at_scale(capsys):
    with criterion(capsys, 1,
                   "Pick identity on 1000 random polygons, exact"):
        rng = random.Random(CORPUS_SEED + 1)
        start = time.perf_counter()
        for _ in range(1000):
            poly = random_lattice_polygon(rng, rng.randint(3, 12),
                                          rng.choice(CORPUS_SPANS))
            doubled = 2 * interior_count_oracle(poly) + boundary_count(poly) - 2
            assert doubled == twice_polygon_area(poly)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, limit 30s"


def test_criterion_2_triangulation_count(capsys, triangulated_corpus):
    with criterion(capsys, 2,
                   "500 triangulations: count equals doubled area, "
                   "all pieces doubled area 1"):
        corpus = triangulated_corpus
        assert len(corpus.results) == CORPUS_SIZE
        for poly, result in zip(corpus.polygons, corpus.results):
            assert len(result.triangles) == twice_polygon_area(poly)
            assert all(t.twice_area == 1 for t in result.triangles)
        assert corpus.triangulate_seconds < 60.0, \
            f"took {corpus.triangulate_seconds:.1f}s, limit 60s"


def test_criterion_3_minimal_iff_three_points(capsys):
    with criterion(capsys, 3,
                   "10^4 triangles: exactly 3 closed lattice points "
                   "iff doubled area 1"):
        rng = random.Random(CORPUS_SEED + 3)
        start = time.perf_counter()
        for index in range(10**4):
            if index % 10 < 3:
                corners = random_unimodular_triangle(
                    rng, rng.choice((5, 30, 250)))
            else:
                corners = random_triangle_corners(
                    rng, rng.choice((10, 100, 1000)))
            doubled = abs(twice_signed_area(*corners))
            count = closed_triangle_count(*corners)
            if doubled == 1:
                assert count == 3
            else:
                assert count > 3
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"


def _random_split_candidate(rng: random.Random):
    """A triangle with primitive opposite edge and doubled area in
    [2, 10^4], drawn log-uniformly, built from a Bezout solution so the
    doubled area is exact by construction."""
    n = min(10**4, max(2, round(math.exp(rng.uniform(math.log(2),
                                                     math.log(10**4))))))
    while True:
        p = rng.randint(-60, 60)
        q = rng.randint(-60, 60)
        if max(abs(p), abs(q)) >= 12 and math.gcd(abs(p), abs(q)) == 1:
            break
    bez = extended_gcd(p, q)
    a0, c0 = -n * bez.t, n * bez.s
    m = -round(a0 / p) if p else -round(c0 / q)
    a, c = a0 + p * m, c0 + q * m
    ox, oy = rng.randint(-50, 50), rng.randint(-50, 50)
    pa = P(a + ox, c + oy)
    pb = P(a - p + ox, c - q + oy)
    pc = P(ox, oy)
    return (pa, pb, pc), n


def test_criterion_4_split_point_unique_and_equal(capsys):
    with criterion(capsys, 4,
                   "10^4 triangles: scan finds one lattice point, "
                   "construction matches it in original coordinates"):
        rng = random.Random(CORPUS_SEED + 4)
        start = time.perf_counter()
        for _ in range(10**4):
            corners, n = _random_split_candidate(rng)
            assert abs(twice_signed_area(*corners)) == n <= 10**4
            # split_point_scan raises unless exactly one element of the
            # scaled-segment family is integral
            scanned = split_point_scan(*corners)
            assert interior_split_point(*corners) == scanned
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, limit 30s"


def test_criterion_5_additivity_of_every_split(capsys, triangulated_corpus):
    with criterion(capsys, 5,
                   "every split event: doubled counts of parent equal "
                   "the sum over children"):
        def doubled_pick(tri):
            i, u = triangle_lattice_counts(*tri.vertices)
            return 2 * i + u - 2

        for result in triangulated_corpus.results:
            for event in result.events:
                assert doubled_pick(event.parent) == \
                    sum(doubled_pick(ch) for ch in event.children)


def test_criterion_6_primitive_triangle_anchor(capsys, triangulated_corpus):
    with criterion(capsys, 6,
                   "every primitive triangle counts (interior=0, "
                   "boundary=3), area one half"):
        assert pick_twice_area(0, 3) == 1
        for result in triangulated_corpus.results:
            for tri in result.triangles:
                assert triangle_lattice_counts(*tri.vertices) == (0, 3)


def test_criterion_7_bezout_identity(capsys):
    with criterion(capsys, 7,
                   "10^5 extended gcd calls satisfy p*s + q*t = g"):
        rng = random.Random(CORPUS_SEED + 7)
        start = time.perf_counter()
        for index in range(10**5):
            if index % 50 == 0:
                p, q = rng.randint(-20, 20), rng.randint(-20, 20)
            else:
                p, q = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
            r = extended_gcd(p, q)
            assert p * r.s + q * r.t == r.g == math.gcd(p, q)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s, limit 5s"


def test_criterion_8_cli_golden_corpus(capsys, tmp_path):
    with criterion(capsys, 8,
                   "CLI outputs byte-identical to the committed corpus "
                   "for all five subcommands"):
        files = sorted(DATA.glob("*.txt")) + sorted(DATA.glob("*.json"))
        assert len(files) >= 10
        for path in files:
            for name, argv in [
                ("area", ["area", str(path)]),
                ("count", ["count", str(path)]),
                ("pick", ["pick", str(path)]),
                ("triangulate", ["triangulate", str(path), "--events"]),
            ]:
                assert main(argv) == 0
                got = capsys.readouterr().out
                want = (GOLDEN / path.stem / f"{name}.txt").read_text()
                assert got == want, f"{name} drifted for {path.name}"
            svg_out = tmp_path / f"{path.stem}.svg"
            assert main(["svg", str(path), "-o", str(svg_out)]) == 0
            assert svg_out.read_bytes() == \
                (GOLDEN / path.stem / "render.svg").read_bytes()
