"""Seeded inputs and the operation list of each workload.

A workload is a list of CLI invocations (ops), each with the exit code
it must return and a check of its output.  Inputs are generated from
the seed alone and written to files; the program sees only the files.
Polygon sizes are fixed per slot and only shapes vary with the seed, so
the work of a pass barely changes from seed to seed.

``scale`` shrinks every input (1.0 is the benchmark; the smoke test uses
a small value) without changing the mix of ops.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from math import gcd, isqrt
from pathlib import Path
from typing import Callable

from oracles import CheckError, Polygon, check_svg, check_triangulate

Point = tuple[int, int]

EXIT_OK, EXIT_IO, EXIT_PARSE, EXIT_INVALID, EXIT_GUARD = 0, 1, 2, 3, 4


@dataclass
class Op:
    """One CLI call: its argv, the exit code it must return, and a check
    that raises CheckError unless the output is exactly right."""

    label: str
    argv: list[str]
    expect_code: int
    check: Callable[[str, bytes | None], dict]
    poly: Polygon | None = None
    svg_path: Path | None = None
    triangulates: bool = False
    events: bool = False
    # filled in by the harness the first time the output passes its check
    verified: bytes | None = None
    info: dict = field(default_factory=dict)

    def verify(self, stdout: str, svg: bytes | None) -> None:
        digest = hashlib.blake2b(stdout.encode())
        if svg is not None:
            digest.update(svg)
        key = digest.digest()
        if key != self.verified:
            self.info = self.check(stdout, svg) or {}
            self.verified = key


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    # the highest percentile with at least ten samples beyond it in a
    # run of the baseline, fixed so that runs stay comparable
    tail_pct: float


# ---------------------------------------------------------------- checks

def expect_text(expected: str) -> Callable[[str, bytes | None], dict]:
    def check(stdout: str, svg: bytes | None) -> dict:
        if stdout != expected:
            raise CheckError(f"stdout {stdout[:200]!r} != {expected[:200]!r}")
        return {}
    return check


def expect_triangulation(poly: Polygon, events: bool):
    def check(stdout: str, svg: bytes | None) -> dict:
        return check_triangulate(stdout, poly, events)
    return check


def expect_golden_triangulation(expected: str, poly: Polygon):
    def check(stdout: str, svg: bytes | None) -> dict:
        expect_text(expected)(stdout, svg)
        return check_triangulate(stdout, poly, events=True)
    return check


def expect_svg(poly: Polygon, golden: bytes | None = None):
    def check(stdout: str, svg: bytes | None) -> dict:
        if stdout:
            raise CheckError("svg printed to stdout")
        if svg is None:
            raise CheckError("svg file missing")
        if golden is not None and svg != golden:
            raise CheckError("svg differs from the golden corpus")
        check_svg(svg, poly)
        return {}
    return check


def expect_error(stdout: str, svg: bytes | None) -> dict:
    if stdout:
        raise CheckError(f"error exit wrote to stdout: {stdout[:200]!r}")
    return {}


# ---------------------------------------------------------------- shapes

def _angle_cmp(u: Point, v: Point) -> int:
    hu = 0 if u[1] > 0 or (u[1] == 0 and u[0] > 0) else 1
    hv = 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1
    if hu != hv:
        return hu - hv
    c = u[0] * v[1] - u[1] * v[0]
    return -1 if c > 0 else (1 if c < 0 else 0)


def star_ring(points: list[Point], center: Point) -> list[Point] | None:
    """Sort points by exact angle around ``center``.  The ring is simple
    and star-shaped about the center when all directions differ and
    every turn between neighbours is under a half turn; otherwise None."""
    cx, cy = center
    rel = sorted(((x - cx, y - cy) for x, y in points),
                 key=functools.cmp_to_key(_angle_cmp))
    for i, u in enumerate(rel):
        v = rel[(i + 1) % len(rel)]
        if u[0] * v[1] - u[1] * v[0] <= 0:
            return None
    return [(x + cx, y + cy) for x, y in rel]


def star_polygon(rng: random.Random, n: int, span: int) -> list[Point]:
    """Random non-convex star-shaped n-gon whose bounding box is
    exactly (span + 1)^2 lattice points: four anchors touch the box
    sides and the rest lie in an annulus around the centre."""
    h = span // 2
    span = 2 * h
    while True:
        pts = {(span, h + rng.randint(-h // 4, h // 4)),
               (h + rng.randint(-h // 4, h // 4), span),
               (0, h + rng.randint(-h // 4, h // 4)),
               (h + rng.randint(-h // 4, h // 4), 0)}
        while len(pts) < n:
            x, y = rng.randint(0, span), rng.randint(0, span)
            r2 = (x - h) ** 2 + (y - h) ** 2
            if (h * 3 // 10) ** 2 <= r2 <= h * h:
                pts.add((x, y))
        ring = star_ring(sorted(pts), (h, h))
        if ring is not None:
            return ring


def small_polygon(rng: random.Random, n: int, span: int) -> list[Point]:
    """Random simple n-gon in a (span + 1)^2 box, star-shaped about a
    lattice point; n drops when the box is too small to fit one."""
    center = (span // 2, span // 2)
    while True:
        for _ in range(200):
            pts = set()
            while len(pts) < n:
                p = (rng.randint(0, span), rng.randint(0, span))
                if p != center:
                    pts.add(p)
            ring = star_ring(sorted(pts), center)
            if ring is not None:
                return ring
        n -= 1


def primitive_triangle(rng: random.Random, twice_area: int) -> list[Point]:
    """Random fat triangle with all three edges primitive, so refinement
    is all interior splits.  Its doubled area is ``twice_area`` rounded
    up to odd: by Pick, 2A = 2i + 3 - 2 when the edges are primitive."""
    twice_area |= 1
    side = isqrt(2 * twice_area)
    while True:
        bx = rng.randint(side // 2, side)
        by = rng.randint(-side // 3, side // 3)
        if gcd(bx, by) != 1:
            continue
        # bx*s + by*t = 1, so C0 = (-T*t, T*s) has cross(B, C0) = T
        s, t = _bezout(bx, by)
        cx, cy = -twice_area * t, twice_area * s
        nb = bx * bx + by * by
        k = (rng.randint(nb // 5, 4 * nb // 5) - (cx * bx + cy * by)) // nb
        cx, cy = cx + k * bx, cy + k * by
        if gcd(cx, cy) == 1 and gcd(cx - bx, cy - by) == 1:
            return [(0, 0), (bx, by), (cx, cy)]


def _bezout(p: int, q: int) -> tuple[int, int]:
    r0, r1, s0, s1, t0, t1 = p, q, 1, 0, 0, 1
    while r1:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    return (s0, t0) if r0 == 1 else (-s0, -t0)


def polygon_near_area(rng: random.Random, n: int, twice_area: int) -> list[Point]:
    """Random star-shaped n-gon with doubled area within 3% above
    ``twice_area``."""
    span = isqrt(2 * twice_area)
    while True:
        ring = small_polygon(rng, n, span)
        got = Polygon(ring).twice_area
        if twice_area <= got <= twice_area * 103 // 100 and len(ring) == n:
            return ring
        span = max(4, isqrt(span * span * twice_area // got) + rng.randint(-1, 1))


def square(side: int) -> list[Point]:
    return [(0, 0), (side, 0), (side, side), (0, side)]


def sliver(rng: random.Random, width: int) -> list[Point]:
    """Thin triangle along the diagonal of a width x (width + 1) box:
    a box far larger than its area."""
    w, h = width, width + 1
    while True:
        c = 2 * rng.randint(width // 2, 2 * width) + 1   # doubled area
        d = -(-c // w)
        x = w * d - c                                     # w*y - h*x == c
        if 0 < x and x + d < h:
            return [(0, 0), (w, h), (x, x + d)]


def sawtooth(rng: random.Random, teeth: int) -> list[Point]:
    """Strip of height 1 with ``teeth`` saw teeth on top; x-monotone,
    so simple.  2A grows linearly in the vertex count."""
    top = []
    for i in range(teeth, 0, -1):
        top += [(2 * i, 1), (2 * i - 1, 1 + rng.randint(1, 3))]
    return [(0, 0), (2 * teeth, 0)] + top + [(0, 1)]


def comb(rng: random.Random, teeth: int) -> list[Point]:
    """Rectilinear comb: a base of height 1 and ``teeth`` unit-wide teeth
    of random height, separated by unit gaps."""
    ring = [(0, 0), (2 * teeth - 1, 0)]
    for i in range(teeth - 1, -1, -1):
        height = 1 + rng.randint(1, 4)
        ring += [(2 * i + 1, height), (2 * i, height)]
        if i:
            ring += [(2 * i, 1), (2 * i - 1, 1)]
    return ring


def staircase(rng: random.Random, steps: int) -> list[Point]:
    """Staircase band climbing up and to the right with random step
    lengths; the upper chain is the lower one shifted by (-1, 1), so the
    band is thin and 2A is linear in the vertex count."""
    lower = [(0, 0)]
    x = 0
    for y in range(steps):
        x += rng.randint(1, 2)
        lower += [(x, y), (x, y + 1)]
    return lower + [(px - 1, py + 1) for px, py in reversed(lower)]


# ---------------------------------------------------------------- files

def write_polygon(rng: random.Random, path: Path, ring: list[Point], spread: int,
                  structured: bool = False, turn: bool = True) -> Polygon:
    """Translate the ring by up to ``spread`` and, with ``turn``, rotate
    its start vertex and maybe reverse it, so the program sees shifted
    and clockwise input too; write it to ``path`` and return what was
    written."""
    dx, dy = rng.randint(-spread, spread), rng.randint(-spread, spread)
    if turn:
        start = rng.randrange(len(ring))
        ring = ring[start:] + ring[:start]
        if rng.random() < 0.3:
            ring = ring[::-1]
    ring = [(x + dx, y + dy) for x, y in ring]
    if structured:
        path.write_text(json.dumps([list(p) for p in ring]))
    else:
        path.write_text("".join(f"{x} {y}\n" for x, y in ring))
    return Polygon(ring)


def _parse_input(path: Path) -> list[Point]:
    """The benchmark's own reader for the repository's sample inputs."""
    text = path.read_text()
    if text.lstrip().startswith("["):
        return [tuple(p) for p in json.loads(text)]
    ring = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].split()
        if line:
            ring.append((int(line[0]), int(line[1])))
    return ring


def polygon_ops(path: Path, poly: Polygon, commands: tuple[str, ...],
                svg_dir: Path | None = None) -> list[Op]:
    """Ops for the given subcommands on one valid polygon file, each with
    its oracle."""
    ops = []
    stem = path.stem
    for cmd in commands:
        if cmd == "area":
            ops.append(Op(f"area {stem}", ["area", str(path)], EXIT_OK,
                          expect_text(poly.area_text()), poly))
        elif cmd == "count":
            ops.append(Op(f"count {stem}", ["count", str(path)], EXIT_OK,
                          expect_text(poly.count_text()), poly))
        elif cmd == "pick":
            ops.append(Op(f"pick {stem}", ["pick", str(path)], EXIT_OK,
                          expect_text(poly.pick_text()), poly))
        elif cmd in ("triangulate", "triangulate --events"):
            events = cmd.endswith("--events")
            ops.append(Op(f"{cmd} {stem}", ["triangulate", str(path)]
                          + (["--events"] if events else []), EXIT_OK,
                          expect_triangulation(poly, events), poly,
                          triangulates=True, events=events))
        elif cmd == "svg":
            out = svg_dir / f"{stem}.svg"
            ops.append(Op(f"svg {stem}", ["svg", str(path), "-o", str(out)],
                          EXIT_OK, expect_svg(poly), poly, svg_path=out,
                          triangulates=True))
        else:
            raise ValueError(cmd)
    return ops


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, round(value * scale))


# ---------------------------------------------------------------- workloads

def count_large(rng: random.Random, work: Path, root: Path, scale: float) -> Workload:
    """count and pick on large bounding boxes: squares, random 40-60-gons
    and a sliver whose box is far larger than its area.  The box scan
    (box points x edges) dominates; validation is trivial at n <= 60."""
    slots = [(f"square{side}", square(_scaled(side, scale, 4)))
             for side in (120, 180, 240)]
    for n, span in ((40, 66), (44, 80), (48, 92), (52, 106), (56, 120), (60, 132)):
        slots.append((f"star{n}", star_polygon(rng, _scaled(n, scale, 6),
                                               _scaled(span, scale, 12))))
    slots.append(("sliver", sliver(rng, _scaled(300, scale, 8))))
    ops = []
    for name, ring in slots:
        path = work / f"{name}.txt"
        ops += polygon_ops(path, write_polygon(rng, path, ring, 10**6), ("count", "pick"))
    return Workload(ops, warmup=ops[:2], tail_pct=75.0)


def many_vertices(rng: random.Random, work: Path, root: Path, scale: float) -> Workload:
    """area and triangulate on thin polygons with hundreds of vertices
    and a doubled area of O(n): the O(n^2) validation and the ear
    clipping dominate, refinement is small and nothing is counted.

    The shapes are the same for every seed, made from a fixed seed of
    their own and written from the vertex they were made from: the ear
    clipping's time moves by up to 3x with the tooth pattern and the
    start vertex, which spread this workload's tail by 0.19 over ten
    seeds.  The seed moves each polygon."""
    def size(n: int) -> int:
        return _scaled(n, scale, 3)

    shape_rng = random.Random("many_vertices")
    slots = [("sawtooth300", sawtooth(shape_rng, size(150))),
             ("comb400", comb(shape_rng, size(100))),
             ("staircase500", staircase(shape_rng, size(124))),
             ("sawtooth600", sawtooth(shape_rng, size(300))),
             ("comb600", comb(shape_rng, size(150)))]
    ops = []
    for name, ring in slots:
        path = work / f"{name}.txt"
        ops += polygon_ops(path, write_polygon(rng, path, ring, 10**6, turn=False),
                           ("area", "triangulate"))
    return Workload(ops, warmup=ops[:2], tail_pct=75.0)


def refine_large(rng: random.Random, work: Path, root: Path, scale: float) -> Workload:
    """triangulate with and without --events on few-vertex polygons of
    large area: squares (edge-gcd splits) and primitive-edge triangles
    and random polygons (interior splits)."""
    def area(t: int) -> int:
        return _scaled(t, scale, 8)

    slots = [("square50", square(_scaled(50, scale, 2))),
             ("square80", square(_scaled(80, scale, 2)))]
    for t in (7000, 11000, 17000):
        slots.append((f"triangle{t}", primitive_triangle(rng, area(t))))
    for n, t in ((8, 8000), (10, 12000), (12, 16000)):
        slots.append((f"poly{n}", polygon_near_area(rng, n, area(t))))
    ops = []
    for name, ring in slots:
        path = work / f"{name}.txt"
        ops += polygon_ops(path, write_polygon(rng, path, ring, 10**6),
                           ("triangulate", "triangulate --events"))
    return Workload(ops, warmup=ops[:2], tail_pct=75.0)


def small_mixed(rng: random.Random, work: Path, root: Path, scale: float) -> Workload:
    """All five subcommands on small random polygons and the golden
    inputs, plus the error contract."""
    commands = ("area", "count", "pick", "triangulate", "svg")
    svg_dir = work / "svg"
    svg_dir.mkdir(exist_ok=True)
    ops: list[Op] = []
    paths = []
    for k in range(_scaled(200, scale, 3)):
        span = rng.randint(3, 20)
        ring = small_polygon(rng, rng.randint(3, 12), span)
        structured = rng.random() < 0.25
        path = work / f"rand{k:03d}.{'json' if structured else 'txt'}"
        paths.append(path)
        ops += polygon_ops(path, write_polygon(rng, path, ring, 1000, structured),
                           commands, svg_dir)

    data = root / "tests" / "data"
    golden = data / "golden"
    for path in sorted(data.glob("*.txt")) + sorted(data.glob("*.json")):
        poly = Polygon(_parse_input(path))
        want = {c: (golden / path.stem / f"{c}.txt").read_text()
                for c in ("area", "count", "pick", "triangulate")}
        ops += [Op(f"{c} golden/{path.stem}", [c, str(path)], EXIT_OK,
                   expect_text(want[c]), poly) for c in ("area", "count", "pick")]
        ops.append(Op(f"triangulate golden/{path.stem}",
                      ["triangulate", str(path), "--events"], EXIT_OK,
                      expect_golden_triangulation(want["triangulate"], poly), poly,
                      triangulates=True, events=True))
        out = svg_dir / f"golden_{path.stem}.svg"
        ops.append(Op(f"svg golden/{path.stem}", ["svg", str(path), "-o", str(out)],
                      EXIT_OK,
                      expect_svg(poly, (golden / path.stem / "render.svg").read_bytes()),
                      poly, svg_path=out, triangulates=True))

    bad: list[tuple[Path, int]] = []
    for path in sorted((data / "invalid").iterdir()):
        bad.append((path, EXIT_PARSE if path.stem == "bad_number" else EXIT_INVALID))
    # ROADMAP's known defects 1-3, each expected to exit 2.  Defects 4-5
    # (svg or triangulate on a huge polygon) are left out: they never end.
    defects = work / "defects"
    defects.mkdir(exist_ok=True)
    (defects / "non_utf8.txt").write_bytes(b"0 0\n4 0\n0 4\n# \xff\xfe\n")
    (defects / "huge_int.txt").write_text("0 0\n" + "7" * 4400 + " 0\n0 4\n")
    (defects / "deep_json.json").write_text("[" * 200_000)
    bad += [(defects / "non_utf8.txt", EXIT_PARSE),
            (defects / "huge_int.txt", EXIT_PARSE),
            (defects / "deep_json.json", EXIT_PARSE)]
    for path, code in bad:
        for c in commands:
            argv = [c, str(path)] + (["-o", str(svg_dir / "bad.svg")] if c == "svg" else [])
            ops.append(Op(f"{c} {path.parent.name}/{path.stem}", argv, code, expect_error))
    ops += [Op("count guard", ["count", str(paths[0]), "--max-box-points", "1"],
               EXIT_GUARD, expect_error),
            Op("area missing file", ["area", str(work / "missing.txt")],
               EXIT_IO, expect_error),
            Op("bad command line", ["area"], EXIT_PARSE, expect_error)]
    warm = [op for op in ops if "golden/unit_square" in op.label]
    return Workload(ops, warmup=warm, tail_pct=99.0)


WORKLOADS = {
    "count_large": count_large,
    "many_vertices": many_vertices,
    "refine_large": refine_large,
    "small_mixed": small_mixed,
}


def build(name: str, seed: int, work: Path, root: Path, scale: float = 1.0) -> Workload:
    """Generate and write the inputs of one workload; the same seed gives
    the same files."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, work, root, scale)
