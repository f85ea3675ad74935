"""Integer-only output oracles for the benchmark.

Nothing here imports the library under test.  Each check recomputes what
the CLI must print from the input vertices alone (shoelace area, gcd
boundary sums, the area identity 2A = 2i + u - 2) and raises CheckError
on the first disagreement.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

Point = tuple[int, int]

EVENT_RULES = {
    "edge-gcd-split": 1,        # triangles added by one split of this rule
    "interior-point-split": 2,
    "degenerate-three-way": 1,
}


class CheckError(Exception):
    """The program printed something other than the exact answer."""


def twice_signed_area(vs: Sequence[Point]) -> int:
    n = len(vs)
    return sum(vs[i][0] * vs[(i + 1) % n][1] - vs[(i + 1) % n][0] * vs[i][1]
               for i in range(n))


def ccw(vs: Sequence[Point]) -> list[Point]:
    """The ring counterclockwise, keeping the first vertex in place."""
    vs = list(vs)
    return vs if twice_signed_area(vs) > 0 else vs[:1] + vs[:0:-1]


def boundary_points(vs: Sequence[Point]) -> int:
    n = len(vs)
    return sum(gcd(vs[(i + 1) % n][0] - vs[i][0], vs[(i + 1) % n][1] - vs[i][1])
               for i in range(n))


def box_points(vs: Sequence[Point]) -> int:
    xs = [x for x, _ in vs]
    ys = [y for _, y in vs]
    return (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)


class Polygon:
    """Exact reference quantities of one simple lattice polygon."""

    def __init__(self, vertices: Sequence[Point]):
        self.vertices = tuple(vertices)
        self.twice_area = abs(twice_signed_area(vertices))
        self.boundary = boundary_points(vertices)
        # Pick: 2A = 2i + u - 2
        self.interior = (self.twice_area - self.boundary + 2) // 2
        self.box = box_points(vertices)
        if self.twice_area <= 0 or \
                2 * self.interior + self.boundary - 2 != self.twice_area:
            raise ValueError("generator produced a degenerate polygon")

    def area_text(self) -> str:
        a = self.twice_area
        exact = str(a // 2) if a % 2 == 0 else f"{a}/2"
        return f"twice_area={a}\narea={exact}\n"

    def count_text(self) -> str:
        return f"interior={self.interior} boundary={self.boundary}\n"

    def pick_text(self) -> str:
        return (f"interior={self.interior} boundary={self.boundary} "
                f"twice_area={self.twice_area} OK\n")

    def primitive_boundary_edges(self) -> dict[tuple[int, int, int, int], int]:
        """The ccw boundary cut into lattice steps, as directed edges."""
        vs = ccw(self.vertices)
        edges = {}
        for i, (ax, ay) in enumerate(vs):
            bx, by = vs[(i + 1) % len(vs)]
            k = gcd(bx - ax, by - ay)
            sx, sy = (bx - ax) // k, (by - ay) // k
            for j in range(k):
                edges[(ax + j * sx, ay + j * sy, ax + (j + 1) * sx,
                       ay + (j + 1) * sy)] = 1
        return edges


def _ints(line: str, count: int) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise CheckError(f"expected {count} integers: {line!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise CheckError(f"non-integer field: {line!r}") from None


def _twice_tri(t: Sequence[int]) -> int:
    x0, y0, x1, y1, x2, y2 = t
    return (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)


def check_tiling(lines: Sequence[str], poly: Polygon) -> None:
    """Exactly 2A lines, each a ccw triangle of doubled area 1, whose
    directed edges cancel pairwise down to the polygon's ccw primitive
    boundary edges, each exactly once.  With every piece ccw, that
    leaves no gap and no overlap."""
    if len(lines) != poly.twice_area:
        raise CheckError(f"{len(lines)} triangles for doubled area "
                         f"{poly.twice_area}")
    open_edges: dict[tuple[int, int, int, int], int] = {}
    for line in lines:
        t = _ints(line, 6)
        if _twice_tri(t) != 1:
            raise CheckError(f"not a ccw triangle of doubled area 1: {line!r}")
        x0, y0, x1, y1, x2, y2 = t
        for e in ((x0, y0, x1, y1), (x1, y1, x2, y2), (x2, y2, x0, y0)):
            rev = (e[2], e[3], e[0], e[1])
            left = open_edges.get(rev)
            if left:
                if left == 1:
                    del open_edges[rev]
                else:
                    open_edges[rev] = left - 1
            else:
                open_edges[e] = open_edges.get(e, 0) + 1
    if open_edges != poly.primitive_boundary_edges():
        raise CheckError("triangle edges do not cancel to the polygon boundary")


def check_event_log(lines: Sequence[str], poly: Polygon) -> dict[str, int]:
    """Parse the --events log; each split's children must be ccw and add
    up to the parent, and the ear-clip triangles plus the triangles each
    split adds must reach 2A.  Returns the number of splits per rule."""
    splits = dict.fromkeys(EVENT_RULES, 0)
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if len(head) != 6 or head[0] != "event" or head[3] != "point" or \
                head[2] not in EVENT_RULES or head[1] != str(sum(splits.values()) + 1):
            raise CheckError(f"malformed event line {lines[i]!r}")
        rule = head[2]
        splits[rule] += 1
        children = 1 + EVENT_RULES[rule]
        block = lines[i + 1:i + 2 + children]
        if len(block) != children + 1 or not block[0].startswith("  parent ") or \
                not all(b.startswith("  child ") for b in block[1:]):
            raise CheckError(f"malformed block after {lines[i]!r}")
        parent = _twice_tri(_ints(block[0][len("  parent "):], 6))
        kids = [_twice_tri(_ints(b[len("  child "):], 6)) for b in block[1:]]
        if parent <= 0 or min(kids) <= 0 or sum(kids) != parent:
            raise CheckError(f"children do not cover the parent at {lines[i]!r}")
        i += 2 + children
    added = sum(EVENT_RULES[r] * k for r, k in splits.items())
    if len(poly.vertices) - 2 + added != poly.twice_area:
        raise CheckError("event log does not account for every triangle")
    return splits


def check_triangulate(stdout: str, poly: Polygon, events: bool) -> dict[str, int]:
    lines = stdout.splitlines()
    check_tiling(lines[:poly.twice_area], poly)
    if not events:
        if len(lines) != poly.twice_area:
            raise CheckError("unexpected lines after the triangles")
        return {}
    return check_event_log(lines[poly.twice_area:], poly)


def check_svg(svg: bytes, poly: Polygon) -> None:
    """One circle per lattice point, one polygon per triangle plus the
    outline."""
    text = svg.decode("utf-8")
    circles = text.count("<circle ")
    polygons = text.count("<polygon ")
    if circles != poly.interior + poly.boundary:
        raise CheckError(f"{circles} circles for "
                         f"{poly.interior + poly.boundary} lattice points")
    if polygons != poly.twice_area + 1:
        raise CheckError(f"{polygons} polygons for {poly.twice_area} triangles")
