"""Smoke test of the benchmark: every workload once at a tiny size, plain
and traced, with all output checks passing and every metric that
BENCHMARK.json names reported.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from oracles import CheckError, Polygon, check_svg, check_triangulate  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_checks(workload, trace, capsys):
    result = run.benchmark(workload, seed=1, seconds=0.0, trace=trace, scale=0.05)
    assert result["correct"] and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    # at most the three known error-contract defects fail, once per
    # subcommand and pass; a fix of any of them may only lower the count
    known_failures = 15 * (2 if trace else 1) if workload == "small_mixed" else 0
    assert result["failed"] <= known_failures
    failed_labels = [line.split(": ", 1)[1].split(":", 1)[0]
                     for line in capsys.readouterr().out.splitlines()
                     if line.startswith("# failed ")]
    assert all(label.split()[1].startswith("defects/") for label in failed_labels)
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
        assert layers <= m["trace.wall_s"] <= 1.05 * layers


def test_seed_fixes_the_inputs(tmp_path):
    def files(seed, where):
        run.workloads.build("small_mixed", seed, where, run.ROOT, scale=0.05)
        return {p.name: p.read_bytes() for p in where.iterdir() if p.is_file()}

    assert files(3, tmp_path / "a") == files(3, tmp_path / "b")
    assert files(3, tmp_path / "a") != files(4, tmp_path / "c")


UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.mark.parametrize("text", [
    "0 0 1 0 1 1\n0 0 1 1 0 1\n",
    "0 0 1 0 0 1\n1 0 1 1 0 1\n",            # along the other diagonal
])
def test_tiling_oracle_accepts_a_tiling(text):
    check_triangulate(text, UNIT_SQUARE, events=False)


@pytest.mark.parametrize("text", [
    "0 0 1 0 1 1\n",                         # a piece missing
    "0 0 1 0 1 1\n0 0 1 0 1 1\n",            # the same piece twice
    "0 0 1 1 1 0\n0 0 1 1 0 1\n",            # a clockwise piece
    "0 0 1 0 1 1\n0 0 1 1 0 1\nevent 1\n",   # trailing junk
])
def test_tiling_oracle_rejects(text):
    with pytest.raises(CheckError):
        check_triangulate(text, UNIT_SQUARE, events=False)


def test_event_log_must_account_for_every_triangle():
    square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    tiles = ("0 0 1 0 0 1", "1 0 1 1 0 1", "1 0 2 0 1 1", "2 0 2 1 1 1",
             "2 1 2 2 1 1", "2 2 1 2 1 1", "0 1 1 1 0 2", "1 1 1 2 0 2")
    text = "\n".join(tiles) + "\n"
    check_triangulate(text, square, events=False)
    with pytest.raises(CheckError):
        check_triangulate(text, square, events=True)   # the log is missing


def test_svg_oracle_counts_points_and_triangles():
    svg = ('<svg>\n' + '<polygon points=""/>\n' * 3
           + '<circle cx="0" cy="0" r="4"/>\n' * 4 + '</svg>\n').encode()
    check_svg(svg, UNIT_SQUARE)
    with pytest.raises(CheckError):
        check_svg(svg.replace(b"<circle ", b"<rect ", 1), UNIT_SQUARE)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
