"""The one-regex fast path of the plain-format reader against the
tokenizing reader it falls back to, and the work done once per polygon
on the way in."""

from __future__ import annotations

import json
import random
import time
import traceback
from collections import Counter
from pathlib import Path

import pytest

import latticepick.cli as cli
import latticepick.core as core
from latticepick import LatticePoint, LatticeTriangle
from latticepick.cli import PolygonParseError, main

from tests.conftest import tokenizing_parse_plain

DATA = Path(__file__).parent / "data"
COMMANDS = (["area"], ["count"], ["pick"], ["triangulate", "--events"],
            ["svg"])
INGEST_SEED = 20261019
INGEST_CASES = 3000

# every whitespace class that splits a token but not a line
UNICODE_SPACES = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
                  "\xa0", "\u2028")
SIGNS = ("", "", "", "", "+", "-", "-", "+-", "--")  # the last two refused


def random_digits(rng: random.Random, clean: bool) -> str:
    """An ASCII number, sometimes of 4300 digits; unless ``clean``, also
    one of 4301 digits, one of the digit strings that int() reads but
    the plain format refuses, or no number at all."""
    kind = rng.randrange(6 if clean else 12)
    digits = str(rng.randint(0, 10 ** rng.randint(1, 12)))
    if kind == 0:
        return "7" * (4300 if clean else rng.choice((4300, 4301)))
    if kind == 6:
        return "1_0"
    if kind == 7:  # Arabic-Indic digits
        return "".join(chr(0x660 + int(d)) for d in digits)
    if kind == 8:  # fullwidth digits
        return "".join(chr(0xFF10 + int(d)) for d in digits)
    if kind == 9:
        return rng.choice(("1.5", "1e3", "0x10", "x", "", "4 2"))
    return digits


def random_space(rng: random.Random, at_least_one: bool) -> str:
    pieces = [rng.choice((" ", " ", "\t", "  ", " \t"))
              for _ in range(rng.randint(1 if at_least_one else 0, 2))]
    if rng.random() < 0.15:
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(UNICODE_SPACES))
    return "".join(pieces)


def random_line(rng: random.Random, clean: bool) -> str:
    """A vertex line, a blank line or a comment; unless ``clean``, the
    vertex line may have a bad token, a bad sign or one token too few or
    too many."""
    roll = rng.random()
    if roll < 0.08:
        return random_space(rng, False)
    if roll < 0.12:
        return "#" + random_space(rng, False) + random_digits(rng, False)
    count = 2 if clean else rng.choice((2, 2, 2, 1, 3))
    line = random_space(rng, False)
    for k in range(count):
        if k:
            line += random_space(rng, True)
        line += rng.choice(SIGNS[:7] if clean else SIGNS)
        line += random_digits(rng, clean)
    line += random_space(rng, False)
    if rng.random() < 0.2:
        line += "#" + rng.choice(("", " comment", "1 2", "\xa0x", "#"))
    return line


def random_text(rng: random.Random) -> str:
    """One to six lines, half the time all of them readable."""
    clean = rng.random() < 0.5
    lines = [random_line(rng, clean) for _ in range(rng.randint(1, 6))]
    breaks = [rng.choice(("\n", "\n", "\n", "\r\n", "\r")) for _ in lines]
    return "".join(line + end for line, end in zip(lines, breaks))


def outcome(parse, text: str):
    """The vertices read, or the class, message, line and column of the
    parse error raised."""
    try:
        return ("ok", parse(text))
    except PolygonParseError as exc:
        return (type(exc), str(exc), exc.line, exc.column)


class TestFastPathDifferential:
    def test_generated_lines(self):
        rng = random.Random(INGEST_SEED)
        kinds = Counter()
        for _ in range(INGEST_CASES):
            text = random_text(rng)
            got = outcome(cli._parse_plain, text)
            assert got == outcome(tokenizing_parse_plain, text), repr(text)
            kinds[got[0] == "ok"] += 1
        # both verdicts are common, so both paths are exercised
        assert kinds[True] >= INGEST_CASES // 5
        assert kinds[False] >= INGEST_CASES // 5

    @pytest.mark.parametrize("line,fast", [
        ("1 2", True), ("\t-1\t+2  ", True), ("007 -0", True),
        ("1\x0b2", False), ("1\xa02", False), ("1\u20282", False),
        ("1.5 2", False), ("1_0 2", False), ("\u0661 2", False),
        ("\uff11 2", False), ("+-1 2", False), ("--1 2", False),
        ("1" * 4300 + " 2", True), ("1" * 4301 + " 2", False),
    ])
    def test_fast_path_takes_only_plain_ascii(self, line, fast):
        spans = [m.span() for m in cli._PLAIN_LINE.finditer(line)]
        assert (spans == [(0, len(line))]) is fast
        assert outcome(cli._parse_plain, line) == \
            outcome(tokenizing_parse_plain, line)

    def test_long_bad_line_is_refused_fast(self):
        # the whole-text pattern searches past a line it does not match;
        # anchored at line starts, that costs O(1) per position
        text = "0 0\n" + "7" * 10**6 + "\n0 4\n"
        start = time.perf_counter()
        with pytest.raises(PolygonParseError, match=r"got 1 tokens \(line 2\)"):
            cli._parse_plain(text)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.txt"))
                             + sorted(DATA.glob("*.json"))
                             + sorted((DATA / "invalid").glob("*")),
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_every_command_on_every_data_file(self, path, capsys, tmp_path,
                                              monkeypatch):
        def run(argv: list[str]) -> tuple:
            svg = tmp_path / "out.svg"
            svg.unlink(missing_ok=True)
            extra = ["-o", str(svg)] if argv[0] == "svg" else []
            code = main(argv[:1] + [str(path)] + argv[1:] + extra)
            out, err = capsys.readouterr()
            return code, out, err, svg.read_bytes() if svg.exists() else None

        for argv in COMMANDS:
            fast = run(argv)
            with monkeypatch.context() as patched:
                patched.setattr(cli, "_parse_plain", tokenizing_parse_plain)
                assert run(argv) == fast, argv


class TestShoelaceEvaluations:
    """The doubled area is summed once, on the ring as read, to choose
    the orientation; the polygon built keeps it, and it is only read
    from then on."""

    @pytest.mark.parametrize("name", ["star.txt", "clockwise_square.txt"])
    def test_pick_sums_the_area_once(self, name, monkeypatch, capsys):
        callers = []
        original = core._twice_area

        def counting(ring):
            callers.append({frame.name for frame in traceback.extract_stack()})
            return original(ring)

        monkeypatch.setattr(core, "_twice_area", counting)
        assert main(["pick", str(DATA / name)]) == 0
        assert capsys.readouterr().out.endswith(" OK\n")
        assert len(callers) == 1
        assert not any("twice_polygon_area" in names for names in callers)


class TestNoObjectsOnTheWay:
    """The command line keeps int pairs from the file to the output: it
    builds no LatticePoint and no LatticeTriangle, which only a caller
    of the library asks for."""

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.txt"))
                             + sorted(DATA.glob("*.json")),
                             ids=lambda p: p.name)
    def test_commands_build_no_point_and_no_triangle(self, path, tmp_path,
                                                     monkeypatch, capsys):
        if path.suffix == ".json":
            ring = json.loads(path.read_text())
            other = tmp_path / f"{path.stem}.txt"
            other.write_text("".join(f"{x} {y}\n" for x, y in ring))
        else:
            ring = tokenizing_parse_plain(path.read_text())
            other = tmp_path / f"{path.stem}.json"
            other.write_text(json.dumps(ring))
        built = Counter()
        for cls in (LatticePoint, LatticeTriangle):
            def counting(obj, _check=cls.__post_init__):
                built[type(obj).__name__] += 1
                _check(obj)
            monkeypatch.setattr(cls, "__post_init__", counting)
        out_file = tmp_path / "p.svg"
        for source in (path, other):
            for argv in (["area"], ["count"], ["pick"], ["triangulate"],
                         ["triangulate", "--events"], ["svg", "-o"]):
                argv = argv[:1] + [str(source)] + argv[1:]
                if argv[0] == "svg":
                    argv.append(str(out_file))
                assert main(argv) == 0, argv
        capsys.readouterr()
        assert built == Counter()
        # the counting reaches the objects that a library call builds
        cli.parse_polygon(path.read_text(), source=str(path)).vertices
        assert built["LatticePoint"] == len(ring)
