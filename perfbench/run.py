"""Run one varseg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload s1-detect --seed 0 --seconds 20 --trace 0

Run from the root of a varseg checkout; the package is imported from its
`src/` directory, so nothing needs installing.  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run of the
same series.  Every line names a metric with its unit and sample count; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.  Scratch files go to `.perfbench_out/` in the checkout, and a
traced run leaves its spans there.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads; pool workers inherit it.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    if not (SRC / "varseg" / "__init__.py").is_file():
        print(f"perfbench: no varseg sources at {SRC / 'varseg'}; "
              "run from the root of a varseg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = bench.WORKLOADS[args.workload]
    workdir = OUT / f"run-{wl.name}-{args.seed}-{os.getpid()}"
    try:
        report = bench.run(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if report.trace:
        spans_path = OUT / f"spans-{wl.name}-{args.seed}.json"
        spans_path.write_text(json.dumps({"env": report.env, "spans": report.spans}))
    for line in bench.report_lines(report):
        print(line)
    print(bench.result_line(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
