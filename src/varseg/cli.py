"""Command-line front end: simulate / detect / evaluate / plot.

Exit codes: 0 success, 1 usage error, 2 malformed data,
3 solver non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import plots, serialize
from .pipeline import PipelineError, detect, run_replicates, schedule_for_data
from .serialize import DataError
from .simulate import make_scenario, scenario_preset, simulate

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NOCONV = 0, 1, 2, 3


def _add_scenario(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--scenario", type=int, choices=(1, 2, 3), default=1)
    sp.add_argument("--seed", type=int, default=0)


def _add_penalties(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--lambda-c", dest="lambda_c", type=float,
                    help="override the stage-1 penalty constant C")
    sp.add_argument("--eta", type=float, help="override the stage-2 level eta_n")
    sp.add_argument("--omega-v", dest="omega_v", type=float,
                    help="exponent v in the break charge omega_n "
                         "(default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser (subparsers do not inherit it), so
    # a flag prefix such as --rep is a usage error, not --replicates
    ap = argparse.ArgumentParser(prog="varseg", allow_abbrev=False,
                                 description="Structural break detection for "
                                             "high-dimensional VAR series")
    sub = ap.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add_parser("simulate", help="generate a benchmark scenario")
    sp.set_defaults(run=_cmd_simulate)
    sp.add_argument("--out", required=True, help="output directory")
    _add_scenario(sp)

    sp = add_parser("detect", help="detect breaks in a CSV series")
    sp.set_defaults(run=_cmd_detect)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--input", required=True, help="input series CSV")
    sp.add_argument("--d", type=int, default=1, help="lag order")
    _add_penalties(sp)
    sp.add_argument("--strict", action="store_true",
                    help="exit 3 when the stage-1 solver or a fit of the "
                         "returned segmentation fails to converge (it is "
                         "reported on stderr either way)")

    sp = add_parser("evaluate", help="replicate study on a scenario")
    sp.set_defaults(run=_cmd_evaluate)
    sp.add_argument("--out", required=True, help="output directory")
    _add_scenario(sp)
    sp.add_argument("--replicates", type=int, default=20)
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers")
    _add_penalties(sp)
    sp.add_argument("--strict", action="store_true",
                    help="exit 3 when a replicate fails, or its stage-1 solver "
                         "or a fit of its returned segmentation fails to "
                         "converge (it is reported on stderr either way)")

    sp = add_parser("plot", help="render a saved plot bundle to SVG")
    sp.set_defaults(run=_cmd_plot)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--input", required=True, help="plot bundle JSON")
    return ap


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _schedule(data, d: int, args: argparse.Namespace):
    """schedule_for_data with the run's overrides; 0.5 is the default v."""
    return schedule_for_data(data, d, lambda_c=args.lambda_c, eta=args.eta,
                             v=0.5 if args.omega_v is None else args.omega_v)


def _cmd_simulate(args: argparse.Namespace) -> int:
    out = _outdir(args)
    config = make_scenario(scenario_preset(args.scenario), args.seed)
    serialize.write_csv(out / "data.csv", simulate(config))
    serialize.dump_json(out / "model.json", serialize.model_to_dict(config.model))
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    out = _outdir(args)
    data = serialize.ingest_csv(args.input)
    schedule = _schedule(data, args.d, args)
    result = detect(data, args.d, schedule)
    serialize.dump_json(out / "result.json", serialize.detection_to_dict(result))
    bundle = plots.make_plot_bundle(data, result)
    serialize.dump_json(out / "plot_bundle.json", plots.bundle_to_dict(bundle))
    plots.render_svg(bundle, out / "plot.svg")
    print("breaks:", " ".join(str(b) for b in result.final_breaks) or "(none)")
    # reported either way; --strict only turns it into the exit code
    failed = False
    if not result.stage1_estimate.converged:
        print("stage-1 solver did not converge", file=sys.stderr)
        failed = True
    if not all(f.converged for f in result.stage2.fits):
        print("stage-2 segment fit did not converge", file=sys.stderr)
        failed = True
    return EXIT_NOCONV if args.strict and failed else EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    out = _outdir(args)
    preset = scenario_preset(args.scenario)
    schedule = None
    # any override fixes one schedule for all replicates; without one,
    # each replicate derives its own from its data
    if any(v is not None for v in (args.lambda_c, args.eta, args.omega_v)):
        probe = simulate(make_scenario(preset, args.seed))
        schedule = _schedule(probe, preset.d, args)
    summary = run_replicates(preset, args.replicates, args.seed, schedule,
                             jobs=args.jobs)
    serialize.dump_json(out / "summary.json", serialize.summary_to_dict(summary))
    serialize.write_summary_csv(out / "summary.csv", summary)
    for k, t in enumerate(summary.truth):
        print(f"break {t}: selection_rate={summary.selection_rate[k]:.2f} "
              f"mean_rel={summary.mean_rel[k]:.4f} std_rel={summary.std_rel[k]:.4f}")
    print(f"exact_count_rate={summary.exact_count_rate:.2f}")
    # reported either way; --strict only turns it into the exit code
    records = summary.records
    counts = {
        "failed": summary.n_failed,
        "stage-1 solver did not converge":
            sum(1 for r in records if not r.get("stage1_converged", True)),
        "stage-2 segment fit did not converge":
            sum(1 for r in records if not r.get("stage2_converged", True)),
    }
    for what, count in counts.items():
        if count:
            print(f"{count} of {len(records)} replicates: {what}", file=sys.stderr)
    return EXIT_NOCONV if args.strict and any(counts.values()) else EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    out = _outdir(args)
    try:
        bundle = plots.bundle_from_dict(serialize.load_json(args.input))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed plot bundle: {exc}") from exc
    plots.render_svg(bundle, out / "plot.svg")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.run(args)
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PipelineError as exc:
        if exc.stage == "input":
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
