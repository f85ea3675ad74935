"""Command-line interface tests: parsing, exit codes, output formats,
and golden-file comparisons for every subcommand."""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from latticepick import (
    LatticePoint,
    LatticePolygon,
    cli,
    polygon_lattice_points,
    triangulate,
    verify_pick,
)
from latticepick.cli import (
    EXIT_GUARD,
    EXIT_INTERNAL,
    EXIT_INVALID_POLYGON,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    PolygonParseError,
    _sniff_format,
    main,
    parse_polygon,
    render_svg,
)

from tests.conftest import crossed_star_ring, edges_touch
from tests.regen_golden import COMMANDS as GOLDEN_COMMANDS, check, error_contract

P = LatticePoint
DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"
GOLDEN = DATA / "golden"


# inputs that must end in a parse error, not a traceback
MALFORMED = {
    "non_utf8.txt": b"0 0\n4 0\n0 4\n# \xff\xfe\n",
    "huge_int.txt": b"0 0\n" + b"7" * 4400 + b" 0\n0 4\n",
    "huge_int.json": b"[[0, 0], [" + b"7" * 4400 + b", 0], [0, 4]]",
    "deep.json": b"[" * 200_000,
}


def polygon_files() -> list[Path]:
    files = sorted(DATA.glob("*.txt")) + sorted(DATA.glob("*.json"))
    assert len(files) >= 10
    return files


class TestParsePlain:
    def test_basic(self):
        text = "0 0\n2 0\n2 2\n0 2\n"
        assert _sniff_format(text, "<input>") == "plain"
        assert parse_polygon(text) == \
            LatticePolygon((P(0, 0), P(2, 0), P(2, 2), P(0, 2)))

    def test_comments_and_blank_lines(self):
        text = "# a square\n\n0 0\n2 0  # bottom right\n\n2 2\n0 2\n"
        assert len(parse_polygon(text)) == 4

    def test_negative_coordinates(self):
        assert parse_polygon("-1 -1\n1 -1\n0 1\n").vertices[0] == P(-1, -1)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="'xml'"):
            parse_polygon("0 0\n1 0\n0 1\n", fmt="xml")

    def test_wrong_token_count(self):
        with pytest.raises(PolygonParseError) as exc_info:
            parse_polygon("0 0\n1 2 3\n0 1\n")
        assert exc_info.value.line == 2

    def test_non_integer_token(self):
        with pytest.raises(PolygonParseError) as exc_info:
            parse_polygon("0 0\n1 2.5\n0 1\n")
        assert exc_info.value.line == 2
        assert exc_info.value.column == 3
        # the column is where the token is, not where its text first
        # occurs on the line
        for line in ("-5 -", "+1 +"):
            with pytest.raises(PolygonParseError) as exc_info:
                parse_polygon(f"0 0\n{line}\n0 1\n")
            assert (exc_info.value.line, exc_info.value.column) == (2, 4)

    def test_reports_position_in_message(self):
        with pytest.raises(PolygonParseError, match=r"line 2"):
            parse_polygon("0 0\nx 0\n0 1\n")

    def test_lines_break_only_at_newlines(self):
        # a form feed is whitespace inside a line, not a line break
        with pytest.raises(PolygonParseError) as exc_info:
            parse_polygon("0 0\f\n4 x\n0 4\n")
        assert (exc_info.value.line, exc_info.value.column) == (2, 3)
        for newline in ("\r\n", "\r"):
            with pytest.raises(PolygonParseError) as exc_info:
                parse_polygon(newline.join(["0 0", "4 x", "0 4"]))
            assert exc_info.value.line == 2

    def test_line_separator_stays_in_comment(self):
        poly = parse_polygon("0 0\n4 0  # note\u2028 9 9\n0 4\n")
        assert poly.vertices == (P(0, 0), P(4, 0), P(0, 4))


class TestParseStructured:
    def test_basic(self):
        text = "[[0, 0], [2, 0], [2, 2], [0, 2]]"
        assert _sniff_format(text, "<input>") == "structured"
        assert parse_polygon(text) == \
            LatticePolygon((P(0, 0), P(2, 0), P(2, 2), P(0, 2)))

    def test_rejects_floats(self):
        with pytest.raises(PolygonParseError, match="element 1"):
            parse_polygon("[[0, 0], [1.5, 0], [0, 1]]", fmt="structured")

    def test_rejects_booleans(self):
        with pytest.raises(PolygonParseError, match="element 0"):
            parse_polygon("[[true, 0], [1, 0], [0, 1]]", fmt="structured")

    def test_rejects_non_pairs(self):
        with pytest.raises(PolygonParseError, match="element 2"):
            parse_polygon("[[0, 0], [1, 0], [0, 1, 7]]", fmt="structured")

    def test_rejects_non_array_top_level(self):
        with pytest.raises(PolygonParseError, match="top-level"):
            parse_polygon('{"vertices": []}', fmt="structured")

    def test_syntax_error_carries_position(self):
        with pytest.raises(PolygonParseError) as exc_info:
            parse_polygon("[[0, 0], [1, 0],", fmt="structured")
        assert exc_info.value.line is not None

    def test_auto_sniffs_bracket(self):
        assert _sniff_format("  [[0,0],[1,0],[0,1]]", "<input>") == \
            "structured"

    def test_auto_sniffs_json_extension(self):
        assert _sniff_format("[[0,0],[1,0],[0,1]]", "poly.json") == \
            "structured"
        # the source picks the format even for text that is not JSON
        with pytest.raises(PolygonParseError):
            parse_polygon("0 0\n1 0\n0 1\n", source="poly.json")


def moved(ear: tuple, dx: int, dy: int) -> tuple:
    *corners, s = ear
    return (*((x + dx, y + dy) for x, y in corners), s)


def faulty_ears(corrupt):
    """A wrapper for the ear kernel _ears that corrupts its ears, the
    (a, b, c, twice_area) tuples."""
    return lambda ears: lambda poly: corrupt(ears(poly))


def shifted_split_offset(split_offset):
    # the split point moved by (a - c) + (b - c), past the edge ab: its
    # weight on the pivot c turns negative
    def shifted(ax, ay, bx, by, s):
        dx, dy = split_offset(ax, ay, bx, by, s)
        return dx + ax + bx, dy + ay + by
    return shifted


def wrong_edge_gcd(gcd):
    # an edge's deltas floor-divided by k + 1, not by their gcd k > 1:
    # on the pentagon's first edge, (5, 0), that is no step at all
    return lambda p, q: k + 1 if (k := gcd(p, q)) > 1 else k


#: a fault in the ear list or in the refinement kernel, as (name in
#: latticepick.triangulate, wrapper of what the name holds, the message
#: that catches it)
FAULTS = {
    "ear_off_polygon": ("_ears", faulty_ears(
        lambda ts: [moved(ts[0], 40, 40)] + ts[1:]), "polygon boundary"),
    "duplicated_ear": ("_ears", faulty_ears(
        lambda ts: ts + ts[:1]), "directed edge"),
    "dropped_ear": ("_ears", faulty_ears(
        lambda ts: ts[:-1]), "polygon boundary"),
    "reversed_ear": ("_ears", faulty_ears(
        lambda ts: [(ts[0][0], ts[0][2], ts[0][1], ts[0][3])] + ts[1:]),
        "not counterclockwise"),
    "shifted_split_point": ("_split_offset", shifted_split_offset,
                            "clockwise or degenerate"),
    "wrong_edge_step": ("gcd", wrong_edge_gcd, "clockwise or degenerate"),
}


class TestExitCodes:
    def test_ok(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n1 0\n0 1\n")
        assert main(["area", str(f)]) == EXIT_OK

    def test_missing_file(self, capsys):
        assert main(["area", "/nonexistent/poly.txt"]) == EXIT_IO

    def test_svg_into_missing_directory(self, tmp_path, capsys):
        out_file = tmp_path / "no_such_dir" / "p.svg"
        assert main(["svg", str(DATA / "unit_square.txt"),
                     "-o", str(out_file)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out_file.parent.exists()

    @pytest.mark.parametrize("command", [["area"], ["svg", "-o"]])
    def test_directory_as_file(self, command, tmp_path, capsys):
        out_file = tmp_path / "p.svg"
        argv = command[:1] + [str(tmp_path)] + command[1:]
        if command[0] == "svg":
            argv.append(str(out_file))
        assert main(argv) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["unit_square.txt",
                                      "square_structured.json"])
    @pytest.mark.parametrize("command", ["area", "count", "triangulate"])
    def test_byte_order_mark_is_skipped(self, name, command, tmp_path,
                                        capsys):
        f = tmp_path / name
        f.write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
        with_bom = main([command, str(f)]), capsys.readouterr()
        without = main([command, str(DATA / name)]), capsys.readouterr()
        assert with_bom[0] == without[0] == EXIT_OK
        assert with_bom[1].out == without[1].out
        assert with_bom[1].err == without[1].err == ""

    def test_byte_order_mark_keeps_byte_offsets(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_bytes(b"\xef\xbb\xbf" + MALFORMED["non_utf8.txt"])
        assert main(["area", str(f)]) == EXIT_PARSE
        # the bad byte is counted from the file's first byte, BOM included
        bad = 3 + MALFORMED["non_utf8.txt"].index(b"\xff")
        assert f"at byte {bad}" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\nbad line here\n")
        assert main(["area", str(f)]) == EXIT_PARSE

    def test_invalid_polygon(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n2 2\n2 0\n0 2\n")
        assert main(["pick", str(f)]) == EXIT_INVALID_POLYGON

    @pytest.mark.parametrize("ring,message", [
        # a repeated vertex, a vertex out of range, a fold-back and a
        # crossing, each in a clockwise ring
        ([(0, 0), (0, 4), (0, 4), (4, 4), (4, 0)],
         "vertices 1 and 2 coincide"),
        ([(0, 0), (0, 4), (4, 4), (2**31 + 1, 0)],
         "vertex 3 at LatticePoint(x=2147483649, y=0) exceeds "
         "|coordinate| <= 2**31"),
        ([(0, 0), (0, 4), (4, 4), (4, 0), (6, 0)],
         "edge 4 folds back onto edge 3"),
        ([(0, 0), (0, 4), (4, 4), (4, 0), (-1, 2)],
         "edges 0 and 3 intersect"),
    ])
    def test_clockwise_fault_named_by_file_order(self, ring, message,
                                                 tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("".join(f"{x} {y}\n" for x, y in ring))
        assert main(["area", str(f)]) == EXIT_INVALID_POLYGON
        assert capsys.readouterr().err == \
            f"error: invalid polygon: {message}\n"

    def test_crossed_star_is_rejected_fast(self, tmp_path, capsys):
        # ROADMAP known defect 7: naming the first contact in (i, j)
        # order took 6-9 s on this star; the sweep names the one it meets
        ring = crossed_star_ring(4000)
        f = tmp_path / "star.txt"
        f.write_text("".join(f"{x} {y}\n" for x, y in ring))
        start = time.perf_counter()
        code = main(["area", str(f)])
        elapsed = time.perf_counter() - start
        assert code == EXIT_INVALID_POLYGON
        named = re.fullmatch(r"error: invalid polygon: edges (\d+) and "
                             r"(\d+) intersect\n", capsys.readouterr().err)
        i, j = map(int, named.groups())
        assert edges_touch([P(x, y) for x, y in ring], i, j)
        assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"

    def test_guard(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n1000 0\n0 1000\n")
        assert main(["count", str(f), "--max-box-points", "100"]) == EXIT_GUARD

    @pytest.mark.parametrize("command", ["count", "pick"])
    def test_guard_on_the_coordinate_box(self, command, tmp_path, capsys):
        # the default limit refuses the box, before any work; raised, it
        # lets the floor sums count the 1.8e19 points
        side = 2**31
        f = tmp_path / "p.txt"
        f.write_text(f"{-side} {-side + 3}\n{side - 5} {-side}\n"
                     f"{side} {side - 7}\n{-side + 11} {side}\n")
        assert main([command, str(f)]) == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bounding box holds 18446744082299486209 lattice "
            "points, over the limit of 100000000\n")
        assert main([command, str(f), "--max-box-points",
                     "20000000000000000000"]) == EXIT_OK
        assert capsys.readouterr().out.startswith(
            "interior=18446744017874976844 boundary=10")

    @pytest.mark.parametrize("value,code", [
        ("-5", EXIT_PARSE), ("0", EXIT_PARSE), ("1", EXIT_GUARD),
        ("abc", EXIT_PARSE), ("1e3", EXIT_PARSE), ("+3", EXIT_GUARD),
        # spelled as int() reads it, but not as a coordinate may be
        ("1_000", EXIT_PARSE), ("\u0661\u0660", EXIT_PARSE),
        (" 7", EXIT_PARSE),
        pytest.param("9" * 5000, EXIT_PARSE, id="5000_digits-2")])
    def test_guard_must_be_positive(self, value, code, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n1 0\n0 1\n")
        assert main(["count", str(f), "--max-box-points", value]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        # a value too long to be read is not echoed back
        assert len(captured.err.encode()) < 400

    def test_unknown_command(self, capsys):
        assert main(["frobnicate", "x.txt"]) == EXIT_PARSE

    def test_missing_argument(self, capsys):
        assert main(["area"]) == EXIT_PARSE

    def test_format_mismatch(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n1 0\n0 1\n")
        assert main(["area", str(f), "--format", "structured"]) == EXIT_PARSE

    def test_distinct_codes(self):
        codes = {EXIT_OK, EXIT_IO, EXIT_PARSE, EXIT_INVALID_POLYGON,
                 EXIT_GUARD, EXIT_INTERNAL}
        assert codes == {0, 1, 2, 3, 4, 5}

    @pytest.mark.parametrize("name,code", [
        ("bowtie.txt", EXIT_INVALID_POLYGON),
        ("repeated.txt", EXIT_INVALID_POLYGON),
        ("bad_number.txt", EXIT_PARSE),
    ])
    def test_invalid_fixtures(self, name, code, capsys):
        assert main(["pick", str(DATA / "invalid" / name)]) == code

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_input_is_parse_error(self, name, tmp_path, capsys):
        f = tmp_path / name
        f.write_bytes(MALFORMED[name])
        assert main(["pick", str(f)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")

    def test_svg_guard_before_triangulating(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n20000 0\n20000 20000\n0 20000\n")
        out_file = tmp_path / "p.svg"
        assert main(["svg", str(f), "-o", str(out_file)]) == EXIT_GUARD
        assert not out_file.exists()

    @pytest.mark.parametrize("command,side", [
        (["triangulate"], 20000),
        (["triangulate", "--events"], 20000),
        (["svg", "-o"], 9999),
    ])
    def test_triangle_guard_before_any_work(self, command, side, tmp_path,
                                            monkeypatch, capsys):
        # each square is over the triangle guard, which runs before any
        # work; for svg it is the only guard
        def unreachable(*args):
            raise AssertionError("work started past the triangle guard")

        # both commands read cli._refinement; neither may reach the
        # library's primitive_triangulation either
        monkeypatch.setattr(cli, "_refinement", unreachable)
        monkeypatch.setattr(cli, "primitive_triangulation", unreachable)
        f = tmp_path / "p.txt"
        f.write_text(f"0 0\n{side} 0\n{side} {side}\n0 {side}\n")
        out_file = tmp_path / "p.svg"
        argv = command[:1] + [str(f)] + command[1:]
        if command[0] == "svg":
            argv.append(str(out_file))
        assert main(argv) == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"2A = {2 * side * side}" in captured.err
        assert str(cli._MAX_TRIANGLES) in captured.err
        assert not out_file.exists()

    @pytest.mark.parametrize("name", ["pentagon.txt", "square_structured.json"])
    @pytest.mark.parametrize("command", [["area"], ["count"], ["pick"],
                                         ["triangulate", "--events"],
                                         ["svg", "-o"]])
    def test_input_size_guard_before_any_read(self, command, name, tmp_path,
                                              monkeypatch, capsys):
        data = (DATA / name).read_bytes()
        f = tmp_path / name
        out_file = tmp_path / "p.svg"
        argv = command[:1] + [str(f)] + command[1:]
        if command[0] == "svg":
            argv.append(str(out_file))
        monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", len(data))
        # a file at the limit is read and runs as ever
        f.write_bytes(data)
        assert main(argv) == EXIT_OK
        golden = GOLDEN / f.stem / ("render.svg" if command[0] == "svg"
                                    else f"{command[0]}.txt")
        written = out_file.read_text() if command[0] == "svg" \
            else capsys.readouterr().out
        assert written == golden.read_text()
        out_file.unlink(missing_ok=True)

        # one byte over, it is refused before a byte is read or parsed
        def unreachable(*args):
            raise AssertionError("input read past the size guard")

        def unread(*args, **kwargs):
            fh = open(*args, **kwargs)
            fh.read = unreachable
            return fh

        monkeypatch.setattr(cli, "open", unread, raising=False)
        monkeypatch.setattr(cli, "parse_polygon", unreachable)
        f.write_bytes(data + b"\n")
        assert main(argv) == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: input of {len(data) + 1} bytes is "
                                f"over the limit of {len(data)}\n")
        assert not out_file.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/zero"),
                        reason="no /dev/zero")
    @pytest.mark.parametrize("command", [["area"], ["count"], ["pick"],
                                         ["triangulate", "--events"],
                                         ["svg", "-o"]])
    def test_endless_device_is_refused(self, command, tmp_path, monkeypatch,
                                       capsys):
        # a device has no size to check before the read, and /dev/zero
        # has no end: it was read until memory ran out (defect 13)
        out_file = tmp_path / "p.svg"
        argv = command[:1] + ["/dev/zero"] + command[1:]
        if command[0] == "svg":
            argv.append(str(out_file))
        monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", 1024)
        assert main(argv) == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input is over the limit of 1024 bytes\n"
        assert not out_file.exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("over", [False, True])
    def test_pipe_is_read_up_to_the_limit(self, over, monkeypatch, capsys):
        data = (DATA / "pentagon.txt").read_bytes()
        monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", len(data))
        r, w = os.pipe()
        try:
            os.write(w, data + b"\n" * over)
            os.close(w)
            code = main(["area", f"/dev/fd/{r}"])
        finally:
            os.close(r)
        captured = capsys.readouterr()
        if over:
            assert code == EXIT_GUARD
            assert captured.out == ""
            assert captured.err == ("error: input is over the limit of "
                                    f"{len(data)} bytes\n")
        else:
            assert code == EXIT_OK
            assert captured.out == (GOLDEN / "pentagon" / "area.txt").read_text()

    def test_triangle_guard_admits_the_limit(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setattr(cli, "_MAX_TRIANGLES", 8)
        f = tmp_path / "p.txt"
        f.write_text("0 0\n2 0\n2 2\n0 2\n")
        assert main(["triangulate", str(f)]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 8
        f.write_text("0 0\n3 0\n3 3\n0 3\n")
        assert main(["triangulate", str(f)]) == EXIT_GUARD

    def test_svg_has_no_box_guard(self, tmp_path, capsys):
        # 2A = 1, so one triangle, in a box of about 10^10 points
        f = tmp_path / "p.txt"
        f.write_text("0 0\n1 1\n100000 100001\n")
        out_file = tmp_path / "p.svg"
        assert main(["svg", str(f), "-o", str(out_file)]) == EXIT_OK
        assert out_file.read_text().count("<circle") == 3

    def test_svg_refuses_box_option(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n2 0\n2 2\n0 2\n")
        out_file = tmp_path / "p.svg"
        assert main(["svg", str(f), "-o", str(out_file),
                     "--max-box-points", "5"]) == EXIT_PARSE
        assert capsys.readouterr().out == ""
        assert not out_file.exists()

    @pytest.mark.parametrize("fault,command", [
        pytest.param(fault, command, id=fault + suffix)
        for suffix, command in (("", ["triangulate", "--events"]),
                                ("-no_events", ["triangulate"]),
                                ("-svg", ["svg", "-o"]))
        for fault in FAULTS])
    def test_certificate_failure_is_internal_error(self, fault, command,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        # nothing stands between the kernel's finished triangles and the
        # output, so each fault goes in where the library could be wrong:
        # the ear list, or one step of the kernel.  Each command reads
        # the kernel's events as they come, triangulate with or without
        # --events, and must still write nothing, svg no file
        name, wrong, caught_by = FAULTS[fault]
        monkeypatch.setattr(triangulate, name,
                            wrong(getattr(triangulate, name)))
        f = tmp_path / "p.txt"
        # edge splits and interior splits both
        f.write_text("0 0\n5 0\n6 4\n2 7\n-2 3\n")
        out_file = tmp_path / "p.svg"
        argv = command[:1] + [str(f)] + command[1:]
        if command[0] == "svg":
            argv.append(str(out_file))
        assert main(argv) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match(f"internal error: .*({caught_by})", captured.err)
        assert not out_file.exists()

    @pytest.mark.parametrize("command", ["triangulate", "svg"])
    def test_lost_split_point_is_internal_error(self, command, tmp_path,
                                                monkeypatch, capsys):
        # the triangles still pass the certificate, but the point text
        # is built from the ring and the split log, which now lacks the
        # side-2 square's edge midpoints and centre.  Both commands read
        # the stream through cli, and the library's name is withheld too
        stream = triangulate._refinement

        def withheld(poly, done):
            for _ in stream(poly, done):
                pass
            yield from ()

        for module in (cli, triangulate):
            monkeypatch.setattr(module, "_refinement", withheld)
        f = tmp_path / "p.txt"
        f.write_text("0 0\n2 0\n2 2\n0 2\n")
        out_file = tmp_path / "p.svg"
        argv = [command, str(f)] + (["-o", str(out_file)]
                                    if command == "svg" else ["--events"])
        assert main(argv) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("internal error: 4 ring and split points, "
                                "not Pick's i + u = 9\n")
        assert not out_file.exists()


class TestOutputs:
    def run(self, capsys, *argv) -> str:
        assert main(list(argv)) == EXIT_OK
        return capsys.readouterr().out

    def test_area_even(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n2 0\n2 2\n0 2\n")
        assert self.run(capsys, "area", str(f)) == "twice_area=8\narea=4\n"

    def test_area_half_integral(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n1 0\n0 1\n")
        assert self.run(capsys, "area", str(f)) == "twice_area=1\narea=1/2\n"

    def test_count(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n2 0\n2 2\n0 2\n")
        assert self.run(capsys, "count", str(f)) == "interior=1 boundary=8\n"

    def test_pick(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n2 0\n2 2\n0 2\n")
        assert self.run(capsys, "pick", str(f)) == \
            "interior=1 boundary=8 twice_area=8 OK\n"

    def test_triangulate_line_count(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n2 0\n2 2\n0 2\n")
        out = self.run(capsys, "triangulate", str(f))
        lines = out.splitlines()
        assert len(lines) == 8
        for line in lines:
            assert len(line.split()) == 6
            int_coords = [int(tok) for tok in line.split()]
            assert all(-4 <= v <= 4 for v in int_coords)

    def test_triangulate_events(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n2 0\n2 2\n0 2\n")
        plain = self.run(capsys, "triangulate", str(f))
        with_events = self.run(capsys, "triangulate", str(f), "--events")
        assert with_events.startswith(plain)
        assert "event 1 " in with_events
        assert "  parent " in with_events
        assert "  child " in with_events

    def test_pick_output_matches_library(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n5 0\n6 4\n2 7\n-2 3\n")
        out = self.run(capsys, "pick", str(f))
        counts = verify_pick(parse_polygon(f.read_text()))
        assert out == (f"interior={counts.interior} "
                       f"boundary={counts.boundary} "
                       f"twice_area={counts.twice_area} OK\n")

    def test_svg_structure(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n2 0\n2 2\n0 2\n")
        out_file = tmp_path / "p.svg"
        assert main(["svg", str(f), "-o", str(out_file)]) == EXIT_OK
        text = out_file.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        # 8 primitive triangles plus the outline
        assert text.count("<polygon") == 9
        # 8 boundary markers (filled) + 1 interior marker (hollow)
        assert text.count("<circle") == 9

    def test_svg_points_match_row_scan(self, triangulated_corpus):
        # the circles, boundary group then interior group, in file
        # order, are the row scan's lists in SVG coordinates
        for poly, result in zip(triangulated_corpus.polygons,
                                triangulated_corpus.results):
            xmin = min(v.x for v in poly.vertices)
            ymax = max(v.y for v in poly.vertices)
            interior, boundary = polygon_lattice_points(poly)
            points = set(poly.ring)
            points.update(d for _, _, d, _ in result.event_tuples)
            filled, hollow = render_svg(poly, result.triangle_tuples,
                                        points).split('<g fill="#ffffff"')
            for drawn, expected in ((filled, boundary), (hollow, interior)):
                assert re.findall(r'<circle cx="(\d+)" cy="(\d+)"', drawn) == [
                    (str((p.x - xmin + cli._SVG_MARGIN) * cli._SVG_SCALE),
                     str((ymax - p.y + cli._SVG_MARGIN) * cli._SVG_SCALE))
                    for p in expected]

    def test_svg_collects_no_event_log(self, tmp_path, monkeypatch):
        # svg reads the refinement stream; the library's collected log
        # is never built
        def unreachable(*args):
            raise AssertionError("svg collected the split-event log")

        monkeypatch.setattr(cli, "primitive_triangulation", unreachable)
        out_file = tmp_path / "p.svg"
        assert main(["svg", str(DATA / "pentagon.txt"),
                     "-o", str(out_file)]) == EXIT_OK
        assert out_file.read_bytes() == \
            (GOLDEN / "pentagon" / "render.svg").read_bytes()

    def test_svg_deterministic(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n5 0\n6 4\n2 7\n-2 3\n")
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert main(["svg", str(f), "-o", str(out1)]) == EXIT_OK
        assert main(["svg", str(f), "-o", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_svg_coordinates_are_integers(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0 0\n5 0\n6 4\n2 7\n-2 3\n")
        out_file = tmp_path / "p.svg"
        assert main(["svg", str(f), "-o", str(out_file)]) == EXIT_OK
        assert "." not in out_file.read_text().replace(
            "http://www.w3.org/2000/svg", "")


class TestRepeatedCalls:
    """main() builds its argument parser once per process and reuses
    it; every call must still give what a fresh process gives."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        # help text wraps to the same width here and in the child
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def child(*args: str) -> subprocess.CompletedProcess:
        """Run Python with these arguments in a fresh process."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env)

    def fresh(self, argv: list[str]) -> tuple[int, str, str]:
        proc = self.child("-m", "latticepick.cli", *argv)
        return proc.returncode, proc.stdout, proc.stderr

    def same(self, capsys, *argv: str) -> tuple[int, str, str]:
        """Run argv in this process and in a fresh one; both must give
        the same exit code, stdout and stderr."""
        code = main(list(argv))
        captured = capsys.readouterr()
        got = (code, captured.out, captured.err)
        assert got == self.fresh(list(argv)), argv
        return got

    def test_events_do_not_carry_over(self, capsys):
        square = str(DATA / "square_side2.txt")
        code, out, _ = self.same(capsys, "triangulate", square, "--events")
        assert code == EXIT_OK and "event 1 " in out
        code, out, _ = self.same(capsys, "triangulate", square)
        assert code == EXIT_OK and "event" not in out
        assert len(out.splitlines()) == 8

    def test_guard_does_not_carry_over(self, capsys):
        square = str(DATA / "square_side2.txt")
        code, out, err = self.same(capsys, "count", square,
                                   "--max-box-points", "1")
        assert (code, out) == (EXIT_GUARD, "")
        assert "limit of 1" in err
        assert self.same(capsys, "count", square) == \
            (EXIT_OK, "interior=1 boundary=8\n", "")

    def test_format_does_not_carry_over(self, capsys):
        code, out, _ = self.same(capsys, "area",
                                 str(DATA / "square_structured.json"),
                                 "--format", "structured")
        assert code == EXIT_OK and out.startswith("twice_area=")
        code, out, _ = self.same(capsys, "area", str(DATA / "unit_square.txt"))
        assert (code, out) == (EXIT_OK, "twice_area=2\narea=1\n")

    @pytest.mark.parametrize("bad", [
        ["frobnicate"],
        ["area"],
        ["count", "p.txt", "--max-box-points", "-5"],
        ["triangulate", "p.txt", "--format", "xml"],
    ])
    def test_bad_command_line_then_good(self, bad, capsys):
        code, out, err = self.same(capsys, *bad)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("usage: latticepick")
        assert self.same(capsys, "area", str(DATA / "unit_square.txt"))[0] \
            == EXIT_OK

    def test_help_is_stable(self, capsys):
        first = self.same(capsys, "--help")
        assert first[0] == EXIT_OK and first[1].startswith("usage: latticepick")
        self.same(capsys, "svg", "--help")
        assert self.same(capsys, "--help") == first

    def test_parser_built_once(self):
        # in a fresh process, so that no earlier call has built it
        script = """
import argparse, contextlib, io, sys
from latticepick.cli import main
built = []
init = argparse.ArgumentParser.__init__
def counting(parser, *args, **kwargs):
    init(parser, *args, **kwargs)
    built.append(parser.prog)
argparse.ArgumentParser.__init__ = counting
square = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["area", square], ["count", square], ["frobnicate"],
                 ["triangulate", square], ["--help"]):
        main(argv)
print(built.count("latticepick"), len(built))
"""
        proc = self.child("-c", script, str(DATA / "square_side2.txt"))
        assert proc.returncode == 0, proc.stderr
        # the top-level parser once, with its five subcommands
        assert proc.stdout.split() == ["1", "6"]


class TestTracerPath:
    """bench/tracing.py times each layer by swapping a wrapper in for a
    name in the module that calls it, so the calls must look those
    names up as module globals, and every name it wraps must exist."""

    def test_triangulate_calls_through_module_globals(self, monkeypatch,
                                                      tmp_path, capsys):
        # triangulate and svg both
        calls = []
        for module, name in ((cli, "_refinement"), (triangulate, "_ears")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        assert main(["triangulate", str(DATA / "pentagon.txt"),
                     "--events"]) == EXIT_OK
        assert calls == ["_refinement", "_ears"]
        assert capsys.readouterr().out == \
            (GOLDEN / "pentagon" / "triangulate.txt").read_text()
        calls.clear()
        out_file = tmp_path / "p.svg"
        assert main(["svg", str(DATA / "pentagon.txt"),
                     "-o", str(out_file)]) == EXIT_OK
        assert calls == ["_refinement", "_ears"]
        assert out_file.read_bytes() == \
            (GOLDEN / "pentagon" / "render.svg").read_bytes()

    def test_every_traced_name_exists(self):
        path = Path(__file__).parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module_name, name, span in tracing.PATCHES:
            assert hasattr(importlib.import_module(module_name), name), span


class TestGoldenCorpus:
    """Byte-exact comparison against checked-in outputs for the whole
    sample corpus; regenerate with tests/regen_golden.py after any
    intentional output change."""

    @pytest.mark.parametrize("path", polygon_files(),
                             ids=lambda p: p.stem)
    def test_stdout_commands(self, path, capsys):
        for command, argv in [
            ("area", ["area", str(path)]),
            ("count", ["count", str(path)]),
            ("pick", ["pick", str(path)]),
            ("triangulate", ["triangulate", str(path), "--events"]),
        ]:
            assert main(argv) == EXIT_OK
            out = capsys.readouterr().out
            expected = (GOLDEN / path.stem / f"{command}.txt").read_text()
            assert out == expected, f"{command} output drifted for {path.name}"

    @pytest.mark.parametrize("path", polygon_files(),
                             ids=lambda p: p.stem)
    def test_svg_command(self, path, tmp_path):
        out_file = tmp_path / "render.svg"
        assert main(["svg", str(path), "-o", str(out_file)]) == EXIT_OK
        expected = (GOLDEN / path.stem / "render.svg").read_bytes()
        assert out_file.read_bytes() == expected

    @pytest.mark.parametrize("path", sorted((DATA / "invalid").glob("*")),
                             ids=lambda p: p.stem)
    def test_error_contract(self, path, tmp_path):
        # exit code and stderr; stdout and the svg file stay empty
        for command in GOLDEN_COMMANDS:
            expected = GOLDEN / "invalid" / path.stem / f"{command}.txt"
            assert error_contract(path, command, str(tmp_path)) == \
                expected.read_text(), f"{command} drifted for {path.name}"

    @pytest.mark.parametrize("path", polygon_files(),
                             ids=lambda p: p.stem)
    def test_plain_triangulate_is_the_golden_triangle_lines(self, path,
                                                            capsys):
        # without --events, triangulate prints the first 2A lines of
        # the golden, its triangles, and nothing else
        golden = GOLDEN / path.stem
        twice_area = int((golden / "area.txt").read_text().splitlines()[0]
                         .removeprefix("twice_area="))
        lines = (golden / "triangulate.txt").read_text().splitlines(True)
        assert main(["triangulate", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "".join(lines[:twice_area])

    @pytest.mark.parametrize("path", polygon_files(),
                             ids=lambda p: p.stem)
    def test_triangle_count_matches_area(self, path, capsys):
        assert main(["area", str(path)]) == EXIT_OK
        twice_area = int(capsys.readouterr().out.splitlines()[0]
                         .removeprefix("twice_area="))
        assert main(["triangulate", str(path)]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == twice_area


class TestGoldenCheck:
    def test_goldens_are_current(self):
        assert check() == []

    def test_names_each_differing_missing_and_extra_file(self, tmp_path):
        golden = tmp_path / "golden"
        shutil.copytree(GOLDEN, golden)
        (golden / "pentagon" / "area.txt").write_text("twice_area=0\n")
        (golden / "sliver" / "render.svg").unlink()
        (golden / "star" / "stray.txt").write_text("")
        assert check(golden) == [
            f"differs: {golden / 'pentagon' / 'area.txt'}",
            f"missing: {golden / 'sliver' / 'render.svg'}",
            f"extra: {golden / 'star' / 'stray.txt'}",
        ]


README = Path(__file__).parents[1] / "README.md"


def readme_blocks(section: str, language: str) -> list[str]:
    """The ``language`` code blocks of README's ``## section``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", body, re.S)


def readme_examples() -> list[tuple[str, str]]:
    """Each ``$ latticepick ...`` line of the Command line section with
    the output lines under it."""
    examples = []
    for block in readme_blocks("Command line", "sh"):
        for chunk in block.strip().split("\n\n"):
            command, *output = chunk.splitlines()
            examples.append((command, "".join(f"{line}\n" for line in output)))
    return examples


class TestReadme:
    @pytest.mark.parametrize("command,expected", readme_examples(),
                             ids=[c for c, _ in readme_examples()])
    def test_command_line_example(self, command, expected, monkeypatch,
                                  capsys):
        assert command.startswith("$ latticepick ")
        monkeypatch.chdir(README.parent)
        assert main(command.split()[2:]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_command_line_examples_found(self):
        assert len(readme_examples()) >= 3

    def test_library_snippet_values(self):
        [block] = readme_blocks("Library", "python")
        lines = block.splitlines()
        namespace: dict = {}
        checked = 0
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                value = eval(ast.unparse(stmt), namespace)
            else:
                exec(ast.unparse(stmt), namespace)
                value = (namespace[stmt.targets[0].id]
                         if isinstance(stmt, ast.Assign) else None)
            _, hash_, comment = lines[stmt.end_lineno - 1].partition("# ")
            if hash_:
                shown = repr(value)
                assert comment == shown or comment.startswith(shown + ","), \
                    comment
                checked += 1
        assert checked == 2
