"""Closed-loop benchmark of the latticepick command line, in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client calls ``latticepick.cli.main(argv)`` on seeded, generated
polygon files, waiting for each call before the next, so every op goes
through parse, validate, compute and format.  Every output is checked
against the integer oracles in ``oracles.py``; a wrong answer ends the
run with ``"correct": false`` and exit code 1.  An op that raises or
returns another exit code than its expected one counts as failed.

``--trace 0`` reports the end-to-end metrics.  Their times are quoted
at a fixed speed of the machine: a reference loop of pure Python, timed
between ops and between set-up repetitions, says how fast the machine
ran just then, and each time is scaled by ``REFERENCE_S`` over the
loop's median time around it (see ``Pace``).  The times as measured
are printed on ``# raw:`` lines.  ``--trace 1`` runs every
op twice per pass, once plain and once with the spans of ``tracing.py``
installed, and reports per-layer self times and work counts per pass
over the workload's inputs, plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it that start
with ``#`` record the machine, the tail percentile and failed ops.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# set-up repeats at least SETUP_REPS times and for SETUP_MIN_S before
# the measurement, and as often after it
SETUP_REPS = 4
SETUP_MIN_S = 1.5
# the reference loop runs once per REFERENCE_EVERY_S of op time (about
# 8 % more time) and REFERENCE_MIN times around each set-up repetition;
# a time is scaled by the median of the PACE_WINDOW loops before and as
# many after it, to a machine speed at which one loop takes REFERENCE_S,
# about its median on the baseline's machine
REFERENCE_S = 0.0037
REFERENCE_EVERY_S = 0.05
REFERENCE_MIN = 5
PACE_WINDOW = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from oracles import CheckError  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def import_program():
    """Import the CLI afresh from this checkout's ``src``, never an
    installed copy; a copy imported before is dropped first."""
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for module in [m for m in sys.modules if m.split(".")[0] == "latticepick"]:
        del sys.modules[module]
    import latticepick.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"latticepick was imported from {cli.__file__}, not {src}")
    return cli


def run_op(cli, op: workloads.Op) -> tuple[float, str | None]:
    """Time one ``main(argv)`` call and check it.  Returns the latency and
    why the op failed, or None; raises CheckError on a wrong answer."""
    if op.svg_path is not None:
        op.svg_path.unlink(missing_ok=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception as exc:  # a traceback: the op failed, the run goes on
            code = exc
        dt = perf_counter() - t0
    if isinstance(code, Exception):
        return dt, f"raised {type(code).__name__}"
    if code != op.expect_code:
        return dt, f"exit {code}, expected {op.expect_code}"
    svg = op.svg_path.read_bytes() if op.svg_path is not None and code == 0 else None
    try:
        op.verify(out.getvalue(), svg)
    except CheckError as exc:
        raise CheckError(f"{op.label}: {exc}") from None
    return dt, None


def reference() -> int:
    """Fixed pure-Python work of the program's kind: integer cross
    products and gcds over a grid, tuples, a dict, a list and text."""
    seen: dict[tuple[int, int], int] = {}
    out = []
    for x in range(-28, 28):
        for y in range(-28, 28):
            cross = (3 * x - 7) * (5 * y + 2) - (11 * x + 1) * (2 * y - 9)
            key = (cross % 13, gcd(x * 101 + 7, y * 37 + 5))
            seen[key] = seen.get(key, 0) + 1
            if cross > 0:
                out.append(f"{x} {y}")
    return len(seen) + len(" ".join(out))


def time_reference() -> float:
    gc.collect()
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


class Pace:
    """How fast the machine ran, from the reference loop timed between
    ops and around each set-up repetition.  The machine is shared, and
    its speed drifts by 10-80 % over seconds to minutes for any Python
    code, the loop included.  A time multiplied by ``factor(mark)`` is
    about what it would have been at the fixed speed at which the loop
    takes ``REFERENCE_S``, so most of the drift within and between runs
    cancels (NOTES.md says how much), while a change of the program's
    own speed shows in full."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.owed = 0.0

    def after_op(self, dt: float) -> None:
        self.owed += dt
        while self.owed >= REFERENCE_EVERY_S:
            self.owed -= REFERENCE_EVERY_S
            self.samples.append(time_reference())

    def sample(self) -> None:
        self.samples += [time_reference() for _ in range(REFERENCE_MIN)]

    def mark(self) -> int:
        """Where the next loop time will go: the mark of a time taken now."""
        return len(self.samples)

    def factor(self, mark: int | None = None) -> float:
        """REFERENCE_S over the median of the loop times around ``mark``,
        or of the whole run."""
        window = self.samples if mark is None else \
            self.samples[max(0, mark - PACE_WINDOW):mark + PACE_WINDOW]
        return REFERENCE_S / statistics.median(window)


def set_up(name: str, seed: int, work: Path, scale: float, pace: Pace):
    """Import the program, generate and write the inputs and run the
    warm-up ops, at least SETUP_REPS times and for SETUP_MIN_S, with the
    reference loop before and after each.  Returns the CLI module of the
    last import, the workload and the time of each repetition with its
    pace mark."""
    reps = []
    if not pace.samples:
        pace.sample()
    end = perf_counter() + SETUP_MIN_S
    while len(reps) < SETUP_REPS or perf_counter() < end:
        gc.collect()
        t0 = perf_counter()
        cli = import_program()
        wl = workloads.build(name, seed, work, ROOT, scale)
        for op in wl.warmup:
            run_op(cli, op)
        reps.append((perf_counter() - t0, pace.mark()))
        pace.sample()
    # what the harness holds is not the program's heap: keep it out of
    # every later collection, so gc.collect() before an op is cheap
    gc.collect()
    gc.freeze()
    return cli, wl, reps


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(0, -(-len(sorted_values) * pct // 100) - 1)
    return sorted_values[int(k)]


def tail(latencies: list[float], highest: float) -> tuple[float, float]:
    """The workload's tail percentile ``highest``, or the next lower one
    on the ladder while fewer than ten samples lie beyond it (the
    maximum when there are fewer than twenty samples)."""
    ordered = sorted(latencies)
    for pct in (p for p in TAIL_LADDER if p <= highest):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return pct, nearest_rank(ordered, pct)
    return 100.0, ordered[-1]


def measure(cli, ops, seconds: float, pace: Pace):
    """Whole passes over the ops until ``seconds`` have gone by, so every
    run sees the same mix; at least one pass.  The reference loop runs
    between ops.  Returns each latency with its pace mark."""
    latencies: list[tuple[float, int]] = []
    failures: Counter[str] = Counter()
    end = perf_counter() + seconds
    while not latencies or perf_counter() < end:
        for op in ops:
            dt, why = run_op(cli, op)
            latencies.append((dt, pace.mark()))
            pace.after_op(dt)
            if why:
                failures[f"{op.label}: {why}"] += 1
    return latencies, failures


def end_to_end(latencies, failures, wl: workloads.Workload, pace: Pace,
               peak_rss_mb: float) -> dict:
    """Throughput and the median are taken from each op's median latency
    across passes, which discounts a pass slowed by a burst of load on
    the machine: throughput is a pass's ops over their sum, the median
    latency is their median.  The median of every call would be the
    slowest call of one size of input or the fastest of the next, so it
    jumps.  The tail is over every call.  Each latency is scaled by the
    pace around it; the ``# raw:`` line gives the figures unscaled."""
    ops_per_pass = len(wl.ops)
    attempted = len(latencies)
    failed = sum(failures.values())

    def figures(times: list[float]) -> tuple[float, float, float, float]:
        pct, tail_s = tail(times, wl.tail_pct)
        typical = [statistics.median(times[i::ops_per_pass]) for i in range(ops_per_pass)]
        return pct, ops_per_pass / sum(typical), statistics.median(typical), tail_s

    _, raw_ops_per_s, raw_p50, raw_tail = figures([dt for dt, _ in latencies])
    pct, ops_per_s, p50, tail_s = figures([dt * pace.factor(m) for dt, m in latencies])
    print(f"# tail: p{pct:g} of {attempted} ops")
    print(f"# raw: ops_per_s {raw_ops_per_s:.6g} 1/s, op_p50_ms {raw_p50 * 1e3:.6g} ms, "
          f"op_tail_ms {raw_tail * 1e3:.6g} ms; reference loop median "
          f"{REFERENCE_S / pace.factor() * 1e3:.6g} ms")
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ops_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def measure_traced(cli, ops, seconds: float):
    """Whole passes over the ops, each op run plain and traced back to
    back, which one first alternating from op to op and pass to pass;
    at least one pass."""
    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}
    work: Counter[str] = Counter()
    failures: Counter[str] = Counter()
    attempted = passes = 0
    scan_spans = ("pick.interior_scan", "pick.lattice_points")
    end = perf_counter() + seconds
    while passes == 0 or perf_counter() < end:
        for i, op in enumerate(ops):
            for traced in ((False, True) if (i + passes) % 2 == 0 else (True, False)):
                calls = tracer.calls.copy()
                if traced:
                    with tracer.installed():
                        dt, why = run_op(cli, op)
                else:
                    dt, why = run_op(cli, op)
                wall[traced] += dt
                attempted += 1
                if why:
                    failures[f"{op.label}: {why}"] += 1
                if not traced or op.poly is None:
                    continue
                poly = op.poly
                scans = sum(tracer.calls[s] - calls[s] for s in scan_spans)
                work["box_points"] += scans * poly.box
                work["hits"] += scans * (poly.interior + poly.boundary)
                validations = tracer.calls["core.validate"] - calls["core.validate"]
                n = len(poly.vertices)
                work["vertices"] += validations * n
                work["edge_pairs"] += validations * n * (n - 3) // 2
                if why is None and op.triangulates:
                    work["triangles"] += poly.twice_area
                if why is None and op.events:
                    work.update(op.info)
        passes += 1
    return tracer, wall, work, passes, attempted, failures


def per_layer(tracer: Tracer, wall, work, passes: int) -> dict:
    """Per-pass figures; a metric whose spans are all gone is omitted."""
    m: dict[str, tuple[float, str]] = {}

    def self_s(name: str, span: str) -> None:
        if span in tracer.present:
            m[name] = (tracer.self_s[span] / passes, "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    self_s("cli.main_self_s", "cli.main")
    self_s("cli.parse_s", "cli.parse")
    self_s("cli.render_svg_s", "cli.render_svg")
    self_s("core.validate_s", "core.validate")
    if "core.validate" in tracer.present:
        m["core.vertices"] = (work["vertices"] / passes, "count")
        m["core.edge_pairs"] = (work["edge_pairs"] / passes, "count")
    self_s("triangulate.refine_self_s", "triangulate.refine")
    self_s("triangulate.ear_clip_s", "triangulate.ear_clip")
    self_s("triangulate.edge_split_s", "triangulate.edge_split")
    self_s("triangulate.interior_split_s", "triangulate.interior_split")
    for rule, name in (("edge-gcd-split", "edge_gcd"),
                       ("interior-point-split", "interior"),
                       ("degenerate-three-way", "degenerate")):
        m[f"triangulate.splits_{name}"] = (work[rule] / passes, "count")
    m["triangulate.triangles"] = (work["triangles"] / passes, "count")
    if "triangulate.refine" in tracer.present:
        m["triangulate.us_per_triangle"] = (
            ratio(tracer.total_s["triangulate.refine"] * 1e6, work["triangles"]), "us")
    self_s("bezout.normalize_s", "bezout.normalize")
    self_s("bezout.split_point_s", "bezout.split_point")
    self_s("pick.interior_scan_s", "pick.interior_scan")
    self_s("pick.boundary_count_s", "pick.boundary_count")
    self_s("pick.lattice_points_s", "pick.lattice_points")
    if {"pick.interior_scan", "pick.lattice_points"} & tracer.present:
        scan_s = tracer.total_s["pick.interior_scan"] + tracer.total_s["pick.lattice_points"]
        m["pick.box_points"] = (work["box_points"] / passes, "count")
        m["pick.ns_per_box_point"] = (ratio(scan_s * 1e9, work["box_points"]), "ns")
        m["pick.hit_ratio"] = (ratio(work["hits"], work["box_points"]), "ratio")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer_self_s(layer) / passes, "s")
    m["trace.wall_s"] = (wall[True] / passes, "s")
    m["trace.overhead_ratio"] = (wall[True] / wall[False], "ratio")
    layer_sum = sum(tracer.layer_self_s(layer) for layer in LAYERS) / passes
    print(f"# trace: {passes} passes; layer self times sum to {layer_sum:.6f} s "
          f"of {wall[True] / passes:.6f} s traced wall per pass")
    return m


def machine() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg()}


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              scale: float = 1.0) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    work = WORK / f"{name}-{os.getpid()}"
    try:
        pace = Pace()
        cli, wl, setup_reps = set_up(name, seed, work, scale, pace)
        if trace:
            tracer, wall, work_done, passes, attempted, failures = \
                measure_traced(cli, wl.ops, seconds)
            metrics = per_layer(tracer, wall, work_done, passes)
        else:
            latencies, failures = measure(cli, wl.ops, seconds, pace)
            attempted = len(latencies)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # set-up time is the median repetition, taken from both ends
            # of the run
            setup_reps += set_up(name, seed, work, scale, pace)[2]
            setup_s = statistics.median(dt * pace.factor(m) for dt, m in setup_reps)
            print(f"# raw: setup_s {statistics.median(dt for dt, _ in setup_reps):.6g} s")
            metrics = {"setup_s": (setup_s, "s"),
                       **end_to_end(latencies, failures, wl, pace, peak_rss_mb)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(f"# machine: {json.dumps(machine())}")
    for what, k in sorted(failures.items()):
        print(f"# failed {k}x: {what}")
    return {"correct": True, "attempted": attempted,
            "failed": sum(failures.values()),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot set up the inputs: {exc}", file=sys.stderr)
        return 2
    except CheckError as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
