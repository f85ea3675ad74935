"""Regenerate the golden CLI outputs for every corpus polygon, and the
exit code and stderr of every subcommand on every invalid input.

Run from the repository root after an intentional output change:

    python3 tests/regen_golden.py

Review the diff before committing; these files pin the CLI's exact
bytes, its error messages included.
"""

from __future__ import annotations

import contextlib
import io
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


def regen() -> None:
    files = sorted(DATA.glob("*.txt")) + sorted(DATA.glob("*.json"))
    for path in files:
        out_dir = GOLDEN / path.stem
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
        print(f"regenerated {out_dir.relative_to(DATA.parent)}")
    with tempfile.TemporaryDirectory() as scratch:
        for path in sorted((DATA / "invalid").glob("*")):
            out_dir = GOLDEN / "invalid" / path.stem
            out_dir.mkdir(parents=True, exist_ok=True)
            for command in COMMANDS:
                (out_dir / f"{command}.txt").write_text(
                    error_contract(path, command, scratch))
            print(f"regenerated {out_dir.relative_to(DATA.parent)}")


if __name__ == "__main__":
    regen()
