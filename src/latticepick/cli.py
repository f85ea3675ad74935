"""Command-line front end: polygon files in; exact areas, lattice-point
counts, primitive triangulations, and SVG renderings out.

Exit codes: 0 success, 1 I/O failure, 2 parse error (file or command
line), 3 invalid polygon, 4 size guard exceeded, 5 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import stat
import sys
from fractions import Fraction
from itertools import islice
from typing import Iterable, TextIO

from .core import (
    GeometryError,
    InternalInvariantError,
    LatticePolygon,
    Point,
    PolygonError,
    _edge_lattice_points,
    _ring_polygon,
    twice_polygon_area,
)
from .pick import boundary_count, interior_count_oracle, verify_pick
from .triangulate import SplitRule, TriangleTuple, _refinement
# validate_polygon, polygon_lattice_points and primitive_triangulation
# are not called here, but the per-layer tracer of bench/tracing.py
# looks them up in this module
from .core import validate_polygon  # noqa: F401
from .pick import polygon_lattice_points  # noqa: F401
from .triangulate import primitive_triangulation  # noqa: F401

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_INVALID_POLYGON = 3
EXIT_GUARD = 4
EXIT_INTERNAL = 5

#: triangulate and svg refuse a polygon of doubled area 2A above this
#: before any work: it has 2A triangles, all held until every check
#: has passed (--events: their lines too; svg: its points and text).
#: On the side-300 square, 2A = 180 000, main took per triangle, in CPU
#: time and peak RSS of a fresh process writing to /dev/null:
#: triangulate 1.8-2.8 us and 0.22 KB, --events 2.8-4.3 us and 0.39 KB,
#: svg 3.3-4.5 us and 0.55 KB (CPython 3.11, 2-core x86-64).  Many
#: vertices cost more: triangulate took 2.5-3.6 s of CPU and 173 MB on
#: the admitted comb of 220 000 vertices (tests/conftest.py
#: comb_ring(Random(7), 55000), 2A = 494 624): the initial triangulation
#: 0.5-0.8 s, reading 0.2-0.4 s, validating 0.3-0.4 s; turned by 90
#: degrees 5.4-6.5 s and 173 MB, of which the initial triangulation
#: 1.7-2.2 s and validating 2.1-2.6 s: its sweeps hold n/2 and n/4
#: edges.
_MAX_TRIANGLES = 5 * 10**5
#: every command refuses a regular file of more bytes than this before
#: it reads a byte, and any other file once it has read one character
#: more than this, so that no input drives a process much past 0.6 GB.
#: Reading and validating peak at about 29 B per byte of a plain file
#: of "x y" lines and 21 B of a JSON one, about 250 B per vertex:
#: area on comb_ring(Random(7), 250000), n = 10^6 and 8.8 MB, took 2.1 s
#: of CPU and peaked at 262 MB, the spiral cell_ring(spiral_cells(120))
#: of 231 364 vertices 32 B per byte, and at this limit the comb of
#: 1 880 000 vertices (16.7 MB) 4.2 s and 479 MB, fresh processes with
#: 16.5 MB after import (CPython 3.11, 2-core x86-64).
_MAX_INPUT_BYTES = 16 * 2**20
#: count and pick refuse a polygon whose bounding box holds more lattice
#: points than --max-box-points, by default this, before any work.
#: Since counting went to floor sums it bounds no work, but it stays for
#: now: its exit 4 is documented command-line behaviour that the README,
#: TestExitCodes, the CI's expect_exit 4 and the benchmark's small_mixed
#: "count guard" op all pin, so it can go only with a benchmark change.
_MAX_BOX_POINTS = 10**8
#: triangulate writes its triangles, then its events, in batches of
#: this many, one join and one write each.  One join per section was
#: as fast, but at 2A = 180 000 it raised the peak RSS of --events
#: from 0.45 to 0.82 KB per triangle.
_WRITE_BATCH = 4096
_TOKEN = re.compile(r"\S+")
_INT_TOKEN = re.compile(r"[+-]?[0-9]+\Z")
_MAX_DIGITS = 4300  # int()'s default limit, far beyond COORDINATE_LIMIT
_COORD = rf"([+-]?[0-9]{{1,{_MAX_DIGITS}}})"
#: one line of the plain format with no comment: blank, or a vertex of
#: two _COORDs split and padded by spaces and tabs.  The ^ lets a match
#: start only at a line start, so a search past a line that does not
#: match tries each later position in O(1); without it, a line of 20 000
#: digits took 1.5 s, quadratic in its length
_PLAIN_LINE = re.compile(rf"^[ \t]*(?:{_COORD}[ \t]+{_COORD}[ \t]*)?(?:\n|\Z)",
                         re.MULTILINE)
_SVG_SCALE = 24  # SVG units per lattice step
_SVG_MARGIN = 1  # lattice steps of blank border around the bounding box


class PolygonParseError(GeometryError):
    """Input text does not describe a polygon; carries a 1-based position."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        position = ""
        if line is not None:
            position = f" (line {line}" + \
                (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + position)
        self.line = line
        self.column = column


class _GuardError(GeometryError):
    """The input is over a size guard of the command line."""


def _parse_plain(text: str) -> list[Point]:
    # fast path: a text with no comment and no carriage return whose
    # lines _PLAIN_LINE matches, each one whole line that _parse_lines
    # would read the same way, so the matches must meet end to end and
    # reach the end of the text.  _parse_lines reads any other text or
    # names the line and column of its fault
    if "#" not in text and "\r" not in text:
        pairs = []
        end = 0
        for match in _PLAIN_LINE.finditer(text):
            if match.start() != end:
                break
            end = match.end()
            if match[1]:
                pairs.append((int(match[1]), int(match[2])))
        else:
            if end == len(text):
                return pairs
    return _parse_lines(text)


def _parse_lines(text: str) -> list[Point]:
    vertices = []
    # break lines only where open() does; str.splitlines also breaks at
    # form feeds, U+2028 and the like, inside comments too
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        # a line that _PLAIN_LINE matches is blank or two signed runs of
        # at most _MAX_DIGITS ASCII digits, split and padded by spaces
        # and tabs.  _TOKEN splits there too, so the tokenizing code below
        # would pass the same two tokens and read the same ints.  Every
        # other line goes to that code, which reads it or names the line
        # and column of its fault.
        match = _PLAIN_LINE.match(line)
        if match:
            if match[1]:
                vertices.append((int(match[1]), int(match[2])))
            continue
        if not line.strip():
            continue
        tokens = list(_TOKEN.finditer(line))
        if len(tokens) != 2:
            raise PolygonParseError(
                f"expected two integers per vertex line, got {len(tokens)} tokens",
                line=lineno)
        coords = []
        for match in tokens:
            tok, column = match.group(), match.start() + 1
            if not _INT_TOKEN.match(tok):
                raise PolygonParseError(f"non-integer coordinate {tok!r}",
                                        line=lineno, column=column)
            if len(tok.lstrip("+-")) > _MAX_DIGITS:
                raise PolygonParseError(f"coordinate over {_MAX_DIGITS} digits",
                                        line=lineno, column=column)
            coords.append(int(tok))
        vertices.append((coords[0], coords[1]))
    return vertices


def _parse_structured(text: str) -> list[Point]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolygonParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except ValueError:  # int() refusing a literal over its digit limit
        raise PolygonParseError("integer literal with too many digits") from None
    except RecursionError:
        raise PolygonParseError("JSON nested too deeply") from None
    if not isinstance(data, list):
        raise PolygonParseError("expected a top-level array of [x, y] pairs")
    vertices = []
    for idx, item in enumerate(data):
        # json reads every integer literal as an exact int
        if not isinstance(item, list) or len(item) != 2 or \
                any(isinstance(c, bool) or not isinstance(c, int) for c in item):
            raise PolygonParseError(f"element {idx} is not an [x, y] integer pair")
        vertices.append((item[0], item[1]))
    return vertices


def _sniff_format(text: str, source: str) -> str:
    if source.endswith(".json"):
        return "structured"
    return "structured" if text.lstrip().startswith("[") else "plain"


def parse_polygon(text: str, fmt: str = "auto",
                  source: str = "<input>") -> LatticePolygon:
    """Parse polygon text in the plain (one "x y" per line, # comments)
    or structured (JSON array of [x, y] pairs) format and return the
    validated, counterclockwise LatticePolygon."""
    if fmt == "auto":
        fmt = _sniff_format(text, source)
    if fmt == "plain":
        ring = _parse_plain(text)
    elif fmt == "structured":
        ring = _parse_structured(text)
    else:
        raise ValueError(f"unknown polygon format {fmt!r}")
    return _ring_polygon(tuple(ring))


def _load(path: str, fmt: str) -> LatticePolygon:
    with open(path, "r", encoding="utf-8") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size > _MAX_INPUT_BYTES:
            raise _GuardError(f"input of {info.st_size} bytes is over the "
                              f"limit of {_MAX_INPUT_BYTES}")
        # a pipe or a device has no size to check first, so no read
        # takes more than the limit plus one.  The limit is counted in
        # characters here, so a text under it can hold up to four
        # times as many bytes; a text over it is over it in bytes too
        try:
            text = fh.read(_MAX_INPUT_BYTES + 1)
        except UnicodeDecodeError as exc:
            raise PolygonParseError(
                f"input is not UTF-8: {exc.reason} at byte {exc.start}") from None
        if len(text) > _MAX_INPUT_BYTES:
            raise _GuardError(f"input is over the limit of {_MAX_INPUT_BYTES} "
                              "bytes")
    # one leading byte-order mark, as some editors write, is not content
    return parse_polygon(text.removeprefix("\ufeff"), fmt, source=path)


def _cmd_area(args: argparse.Namespace, out: TextIO) -> int:
    poly = _load(args.file, args.format)
    doubled = twice_polygon_area(poly)
    out.write(f"twice_area={doubled}\n")
    out.write(f"area={Fraction(doubled, 2)}\n")
    return EXIT_OK


def _guard_box(poly: LatticePolygon, limit: int) -> None:
    xs, ys = zip(*poly.ring)
    count = (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)
    if count > limit:
        raise _GuardError(f"bounding box holds {count} lattice points, "
                          f"over the limit of {limit}")


def _cmd_count(args: argparse.Namespace, out: TextIO) -> int:
    poly = _load(args.file, args.format)
    _guard_box(poly, args.max_box_points)
    interior = interior_count_oracle(poly)
    boundary = boundary_count(poly)
    out.write(f"interior={interior} boundary={boundary}\n")
    return EXIT_OK


def _cmd_pick(args: argparse.Namespace, out: TextIO) -> int:
    poly = _load(args.file, args.format)
    _guard_box(poly, args.max_box_points)
    counts = verify_pick(poly)
    out.write(f"interior={counts.interior} boundary={counts.boundary} "
              f"twice_area={counts.twice_area} OK\n")
    return EXIT_OK


def _guard_triangles(poly: LatticePolygon) -> None:
    doubled = twice_polygon_area(poly)
    if doubled > _MAX_TRIANGLES:
        raise _GuardError(
            f"doubled area 2A = {doubled} means {doubled} triangles, over "
            f"the limit of {_MAX_TRIANGLES}")


def _write_lines(out: TextIO, lines: Iterable[str]) -> None:
    """Write ``lines`` with one join and one write per _WRITE_BATCH of
    them."""
    it = iter(lines)
    while batch := list(islice(it, _WRITE_BATCH)):
        out.write("".join(batch))


def _check_point_count(poly: LatticePolygon, count: int) -> None:
    """Raise InternalInvariantError unless ``count`` ring and split
    points are Pick's i + u = (2A + u + 2) / 2.  Every vertex of a
    primitive triangle is one of them, so a lost split point stops the
    run before any output."""
    expected = (twice_polygon_area(poly) + boundary_count(poly) + 2) // 2
    if count != expected:
        raise InternalInvariantError(f"{count} ring and split points, "
                                     f"not Pick's i + u = {expected}")


def _cmd_triangulate(args: argparse.Namespace, out: TextIO) -> int:
    poly = _load(args.file, args.format)
    _guard_triangles(poly)
    # each point printed appears in several lines: turn each into text
    # once, when it first appears.  No event is kept: its --events lines
    # are formatted as it arrives, and every check runs before any write
    text = {p: f"{p[0]} {p[1]}" for p in poly.ring}
    done: list[TriangleTuple] = []
    stream = _refinement(poly, done)
    lines: list[str] = []
    if args.events:
        edge, interior = (rule.value for rule in SplitRule)
        # the kernel's children: (p, d, o), (q, o, d), with p, q, o the
        # corners rotated to start at p, or (a, b, d), (a, d, c), (b, c, d)
        for num, ((a, b, c, _), _, d, children) in enumerate(stream, 1):
            if (td := text.get(d)) is None:
                td = text[d] = f"{d[0]} {d[1]}"
            ta, tb, tc = text[a], text[b], text[c]
            if len(children) == 3:
                lines.append(f"event {num} {interior} point {td}\n"
                             f"  parent {ta} {tb} {tc}\n"
                             f"  child {ta} {tb} {td}\n"
                             f"  child {ta} {td} {tc}\n"
                             f"  child {tb} {tc} {td}\n")
                continue
            p = children[0][0]
            tp, tq, to = (ta, tb, tc) if p == a else \
                (tb, tc, ta) if p == b else (tc, ta, tb)
            lines.append(f"event {num} {edge} point {td}\n"
                         f"  parent {ta} {tb} {tc}\n"
                         f"  child {tp} {td} {to}\n"
                         f"  child {tq} {to} {td}\n")
    else:
        for _, _, d, _ in stream:
            if d not in text:
                text[d] = f"{d[0]} {d[1]}"
    _check_point_count(poly, len(text))
    _write_lines(out, (f"{text[a]} {text[b]} {text[c]}\n"
                       for a, b, c, _ in done))
    _write_lines(out, lines)
    return EXIT_OK


def render_svg(poly: LatticePolygon, triangles: Iterable[TriangleTuple],
               points: Iterable[Point]) -> str:
    """Render the polygon, its primitive ``triangles``, and its lattice
    ``points`` (boundary filled, interior hollow, by y then x) as
    standalone SVG text.  The points are the triangles' vertices, since
    the triangles tile the polygon and hold no other lattice point:
    every corner of a triangle must be one of them.  All emitted
    coordinates are integers, so output is byte-stable."""
    xs, ys = zip(*poly.ring)
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    width = (xmax - xmin + 2 * _SVG_MARGIN) * _SVG_SCALE
    height = (ymax - ymin + 2 * _SVG_MARGIN) * _SVG_SCALE
    radius = max(2, _SVG_SCALE // 6)
    # each point is a vertex of many triangles and the centre of one
    # circle: scale and format its coordinates once, and sort its circle
    # into boundary or interior in the same pass
    on_edge = {p for points in _edge_lattice_points(poly.ring) for p in points}
    text: dict[Point, str] = {}
    circles: tuple[list[str], list[str]] = ([], [])
    for p in sorted(points, key=lambda p: (p[1], p[0])):
        x = str((p[0] - xmin + _SVG_MARGIN) * _SVG_SCALE)
        y = str((ymax - p[1] + _SVG_MARGIN) * _SVG_SCALE)
        text[p] = f"{x},{y}"
        circles[p not in on_edge].append(
            f'    <circle cx="{x}" cy="{y}" r="{radius}"/>')
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        '  <g fill="none" stroke="#999999" stroke-width="1">',
    ]
    for a, b, c, _ in triangles:
        lines.append(f'    <polygon points="{text[a]} {text[b]} {text[c]}"/>')
    lines.append("  </g>")
    outline = " ".join(text[p] for p in poly.ring)
    lines.append(f'  <polygon points="{outline}" fill="none" '
                 f'stroke="#000000" stroke-width="2"/>')
    for style, group in zip(('fill="#000000"', 'fill="#ffffff" stroke="#000000" '
                             'stroke-width="1"'), circles):
        lines.append(f"  <g {style}>")
        lines += group
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_svg(args: argparse.Namespace, _out: TextIO) -> int:
    poly = _load(args.file, args.format)
    # the only guard: it bounds the i + u <= 2A + 2 points drawn too
    _guard_triangles(poly)
    # the points drawn are the ring and the split points; every check
    # runs before the file is opened
    done: list[TriangleTuple] = []
    points = set(poly.ring)
    points.update(d for _, _, d, _ in _refinement(poly, done))
    _check_point_count(poly, len(points))
    text = render_svg(poly, done, points)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return EXIT_OK


def _positive_int(text: str) -> int:
    # what a coordinate may be: ASCII digits, no spaces or underscores
    value = 0
    if _INT_TOKEN.match(text) and len(text.lstrip("+-")) <= _MAX_DIGITS:
        value = int(text)
    if value <= 0:
        # a value too long to read would flood stderr: name its length
        shown = repr(text) if len(text) <= _MAX_DIGITS + 1 \
            else f"a value of {len(text)} characters"
        raise argparse.ArgumentTypeError(f"{shown} is not a positive integer")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and reused: parse_args keeps no
    # state between calls, and each subcommand looks up its
    # collaborators as module globals when it runs
    parser = argparse.ArgumentParser(
        prog="latticepick",
        description="Exact lattice-polygon areas, point counts, and "
                    "primitive triangulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="polygon file")
        p.add_argument("--format", choices=("auto", "plain", "structured"),
                       default="auto", help="input format (default: auto-detect)")
        p.set_defaults(func=func)
        return p

    def add_guard(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-box-points", type=_positive_int,
                       default=_MAX_BOX_POINTS,
                       help="bounding-box size guard for point enumeration")

    add("area", "print the doubled and exact rational area", _cmd_area)
    add_guard(add("count", "print interior and boundary lattice-point counts",
                  _cmd_count))
    add_guard(add("pick", "verify the area identity and print the counts",
                  _cmd_pick))
    tri = add("triangulate", "print the primitive triangulation, one "
              "triangle per line", _cmd_triangulate)
    tri.add_argument("--events", action="store_true",
                     help="append the split-event log")
    svg = add("svg", "render polygon, triangulation, and lattice points",
              _cmd_svg)
    svg.add_argument("-o", "--output", required=True, help="output SVG file")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when argv is None) and
    return its exit code; output goes to sys.stdout and sys.stderr.

    It may be called any number of times in one process: the argument
    parser is built on the first call and reused, and no state carries
    over from one call to the next.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_PARSE
    try:
        return args.func(args, sys.stdout)
    except PolygonParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PolygonError as exc:
        print(f"error: invalid polygon: {exc}", file=sys.stderr)
        return EXIT_INVALID_POLYGON
    except _GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
