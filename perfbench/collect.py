"""Repeat benchmark runs over seeds and summarize each metric's spread.

    python3 perfbench/collect.py --workloads long-t1000 wide-p50 \
        --seeds 1000 2000 3000 4000 5000 --seconds 30 [--trace] [--out FILE]

Runs `perfbench/run.py` once per (workload, seed), one at a time, and prints
for every metric the median, the quartiles and the spread (q3 - q1) / median,
with quartiles from `statistics.quantiles(values, n=4)`.  Metrics printed
but kept off the JSON line (failed_frac, exact_count_rate, break_error_max)
are summarized too, from their printed six-digit values.  `--out` also
writes every run's result and the summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+) \(n=\d+\)$")


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    result = json.loads(lines[-1])
    for match in filter(None, map(METRIC_LINE.match, lines)):
        name, value, unit = match.groups()
        result["metrics"].setdefault(name, {"value": float(value), "unit": unit})
    return {**result, "wall_s": wall}, env


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    doc = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "env": env, **result})
            print(f"{workload} seed={seed} wall={result['wall_s']:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} " +
                  " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        names = runs[0]["metrics"]
        summary = {name: {"unit": runs[0]["metrics"][name]["unit"],
                          **summarize([r["metrics"][name]["value"] for r in runs])}
                   for name in names}
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {workload} {name}: median {s['median']:.5g} {s['unit']} "
                  f"[{s['q1']:.5g}, {s['q3']:.5g}] spread {spread}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
