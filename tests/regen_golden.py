"""Regenerate the golden CLI outputs for every corpus polygon, and the
exit code and stderr of every subcommand on every invalid input.

Run from the repository root after an intentional output change:

    python3 tests/regen_golden.py

Review the diff before committing; these files pin the CLI's exact
bytes, its error messages included.  To check the goldens instead,
writing nothing:

    python3 tests/regen_golden.py --check

regenerates them into a temporary directory, compares it with
tests/data/golden byte for byte, and exits 1 naming each file that
differs, is missing or is extra.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from latticepick.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
COMMANDS = ("area", "count", "pick", "triangulate", "svg")


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def capture(argv: list[str]) -> str:
    code, out, _ = run(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return out


def error_contract(path: Path, command: str, scratch: str) -> str:
    """``exit <code>`` and then the stderr of ``command`` on the invalid
    input ``path``; an svg goes to a file in the directory ``scratch``
    and must not be written."""
    argv = [command, str(path)]
    if command == "svg":
        argv += ["-o", str(Path(scratch) / "out.svg")]
    code, out, err = run(argv)
    if code == 0 or out or list(Path(scratch).iterdir()):
        raise SystemExit(f"{argv} exited {code} with output")
    return f"exit {code}\n{err}"


def regen(golden: Path) -> list[Path]:
    """Write every golden file under ``golden``; return the directories
    written."""
    written = []
    files = sorted(DATA.glob("*.txt")) + sorted(DATA.glob("*.json"))
    for path in files:
        out_dir = golden / path.stem
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "area.txt").write_text(capture(["area", str(path)]))
        (out_dir / "count.txt").write_text(capture(["count", str(path)]))
        (out_dir / "pick.txt").write_text(capture(["pick", str(path)]))
        (out_dir / "triangulate.txt").write_text(
            capture(["triangulate", str(path), "--events"]))
        svg_path = out_dir / "render.svg"
        code = main(["svg", str(path), "-o", str(svg_path)])
        if code != 0:
            raise SystemExit(f"svg on {path} exited {code}")
        written.append(out_dir)
    with tempfile.TemporaryDirectory() as scratch:
        for path in sorted((DATA / "invalid").glob("*")):
            out_dir = golden / "invalid" / path.stem
            out_dir.mkdir(parents=True, exist_ok=True)
            for command in COMMANDS:
                (out_dir / f"{command}.txt").write_text(
                    error_contract(path, command, scratch))
            written.append(out_dir)
    return written


def files_under(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def check(golden: Path = GOLDEN) -> list[str]:
    """Regenerate into a temporary directory and compare it with
    ``golden`` byte for byte; one line per differing, missing or extra
    file, none if they agree."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        regen(fresh)
        want, have = files_under(fresh), files_under(golden)
        problems = []
        for rel in sorted(want | have):
            if rel not in have:
                problems.append(f"missing: {golden / rel}")
            elif rel not in want:
                problems.append(f"extra: {golden / rel}")
            elif (fresh / rel).read_bytes() != (golden / rel).read_bytes():
                problems.append(f"differs: {golden / rel}")
    return problems


def main_cli(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate or check the golden CLI outputs.")
    parser.add_argument("--check", action="store_true",
                        help="compare with the goldens instead; write nothing")
    if parser.parse_args(argv).check:
        problems = check()
        for line in problems:
            print(line)
        print(f"{len(problems)} golden files out of date" if problems
              else "goldens unchanged")
        return 1 if problems else 0
    for out_dir in regen(GOLDEN):
        print(f"regenerated {out_dir.relative_to(DATA.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main_cli(sys.argv[1:]))
