"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/report.py --seeds 1 2 [--trace 0 1] [--out FILE]

Each run is its own process, started as ``python3 bench/run.py
--workload W --seed S --seconds <run_seconds> --trace T`` from the
repository root, with ``run_seconds`` from BENCHMARK.json.  Prints every
metric with its unit for each workload, trace mode and seed and, with
four or more seeds, the median and the quartile spread (Q3 - Q1) /
median as ``statistics.quantiles(values, n=4)`` gives them.  ``--out``
writes the same summary as JSON.  Stops with exit code 1 at the first
run that fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: wrong output")
    return result, lines[:-1]


def summarise(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "values": values}
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / out["median"] if out["median"] else 0.0)
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0, 1])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
                     "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in args.trace:
            per_metric: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            tails: list[str] = []
            for seed in args.seeds:
                result, notes = run_once(workload, seed, spec["run_seconds"], trace)
                print(f"{workload} seed={seed} trace={trace} attempted={result['attempted']} "
                      f"failed={result['failed']} "
                      + " ".join(n for n in notes if n.startswith(("# tail", "# trace"))))
                for name, m in result["metrics"].items():
                    print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
                    per_metric.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                tails += [n[len("# tail: "):] for n in notes if n.startswith("# tail: ")]
                summary["machine"] = json.loads(
                    next(n for n in notes if n.startswith("# machine:")).split(":", 1)[1])
            table = {name: dict(unit=units[name], **summarise(v))
                     for name, v in per_metric.items()}
            if tails:
                table["op_tail_ms"]["percentile_of_ops"] = tails
            summary["workloads"].setdefault(workload, {})[f"trace{trace}"] = table
            if len(args.seeds) >= 4:
                print(f"{workload} trace={trace}: median and quartile spread over "
                      f"{len(args.seeds)} seeds")
                for name, t in table.items():
                    bound = bounds.get(name)
                    flag = "" if bound is None or t["spread"] < bound / 3 \
                        else "  <-- spread over bound/3"
                    print(f"  {name:32s} {t['median']:.6g} {t['unit']} "
                          f"spread={t['spread']:.4f}"
                          + (f" bound={bound}" if bound is not None else "") + flag)
            sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
