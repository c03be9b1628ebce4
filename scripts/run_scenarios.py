#!/usr/bin/env python3
"""Replicate study across the benchmark scenarios.

Runs the full two-stage detector on seeded replicates of each requested
scenario (plus an optional no-break control) and prints one summary row
per true break.  With --out, the per-scenario summary JSON/CSV artifacts
land in that directory, same formats as `varseg evaluate`.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from varseg.pipeline import run_replicates
from varseg.serialize import dump_json, summary_to_dict, write_summary_csv
from varseg.simulate import scenario_preset


def fmt(x, width=8, prec=4):
    if x != x:      # NaN: break never selected
        return "-".rjust(width)
    return f"{x:{width}.{prec}f}"


def run(name, preset, args):
    t0 = time.perf_counter()
    summary = run_replicates(preset, args.replicates, args.seed, jobs=args.jobs)
    elapsed = time.perf_counter() - t0

    for k, t in enumerate(summary.truth):
        print(f"{name:<10} {t:>6} {fmt(summary.truth_rel[k])}"
              f" {fmt(summary.mean_rel[k])} {fmt(summary.std_rel[k])}"
              f" {summary.selection_rate[k]:>5.2f}")
    if not summary.truth:
        empties = sum(1 for r in summary.records if r.get("m_final") == 0)
        print(f"{name:<10} {'none':>6} {'':>8} {'':>8} {'':>8}"
              f" {empties / args.replicates:>5.2f}")
    print(f"{'':<10} exact-count={summary.exact_count_rate:.2f}"
          f" failed={summary.n_failed}"
          f" hausdorff-final-max={fmt(summary.hausdorff_final_max, 1, 1)}"
          f" time={elapsed:.0f}s")

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        dump_json(out / f"{name}_summary.json", summary_to_dict(summary))
        if summary.truth:
            write_summary_csv(out / f"{name}_summary.csv", summary)
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", default="all",
                    help="1, 2, 3, or 'all' (default all)")
    ap.add_argument("--replicates", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--with-null", action="store_true",
                    help="also run the single-regime control")
    ap.add_argument("--out", help="directory for summary artifacts")
    args = ap.parse_args(argv)

    which = (1, 2, 3) if args.scenario == "all" else (int(args.scenario),)
    print(f"{'scenario':<10} {'break':>6} {'truth':>8} {'mean':>8}"
          f" {'std':>8} {'sel':>5}   (relative locations, "
          f"R={args.replicates}, seed={args.seed})")
    for w in which:
        preset = scenario_preset(w)
        run(preset.name, preset, args)
    if args.with_null:
        base = scenario_preset(1)
        run("null", dataclasses.replace(base, breaks=()), args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
