"""Command-line front end: simulate / detect / evaluate / plot.

Exit codes: 0 success, 1 usage or configuration error, 2 malformed data,
3 solver non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

from . import plots, serialize
from .model import validate_model
from .pipeline import PipelineError, detect, run_replicates, schedule_for_data
from .serialize import DataError
from .simulate import make_scenario, scenario_preset, simulate

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NOCONV = 0, 1, 2, 3


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Merged run options; precedence is flag > config file > default."""

    input: str | None = None
    out: str | None = None
    d: int = 1
    lambda_c: float | None = None
    eta: float | None = None
    omega_v: float | None = None    # None: the default exponent 0.5
    seed: int = 0
    replicates: int = 20
    scenario: int = 1
    difference: bool = False
    downsample: int = 1
    center: bool = False
    jobs: int = 1
    strict: bool = False


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    if args.config is not None:
        doc = serialize.load_json(args.config)
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(doc) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, val in doc.items():
            _check_config_value(key, val)
            setattr(cfg, key, val)
    for name in known:
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    return cfg


def _check_config_value(name: str, val) -> None:
    """Reject a config-file value that does not fit its RunConfig field.

    An int passes for a float field, a bool only for a bool field, and
    null only where the field defaults to None.
    """
    hint = get_type_hints(RunConfig)[name]
    kind = next(t for t in get_args(hint) or (hint,) if t is not type(None))
    if val is None:
        ok = getattr(RunConfig, name) is None
    elif isinstance(val, bool):
        ok = kind is bool
    else:
        ok = isinstance(val, (int, float) if kind is float else kind)
    if not ok:
        raise UsageError(f"config key {name!r} needs {kind.__name__}, got {val!r}")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON file with RunConfig fields")
    sp.add_argument("--out", help="output directory")


def _add_scenario(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--scenario", type=int, choices=(1, 2, 3))
    sp.add_argument("--seed", type=int)


def _add_penalties(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--lambda-c", dest="lambda_c", type=float,
                    help="override the stage-1 penalty constant C")
    sp.add_argument("--eta", type=float, help="override the stage-2 level eta_n")
    sp.add_argument("--omega-v", dest="omega_v", type=float,
                    help="exponent v in the break charge omega_n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="varseg",
                                 description="Structural break detection for "
                                             "high-dimensional VAR series")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate a benchmark scenario")
    _add_common(sp)
    _add_scenario(sp)

    sp = sub.add_parser("detect", help="detect breaks in a CSV series")
    _add_common(sp)
    sp.add_argument("--input", help="input series CSV")
    sp.add_argument("--d", type=int, help="lag order")
    _add_penalties(sp)
    sp.add_argument("--difference", action="store_true", default=None,
                    help="first-difference the series after downsampling")
    sp.add_argument("--downsample", type=int, help="keep every k-th row")
    sp.add_argument("--center", action="store_true", default=None,
                    help="subtract column means")
    sp.add_argument("--strict", action="store_true", default=None,
                    help="exit 3 when the stage-1 solver or a fit of the "
                         "returned segmentation fails to converge (it is "
                         "reported on stderr either way)")

    sp = sub.add_parser("evaluate", help="replicate study on a scenario")
    _add_common(sp)
    _add_scenario(sp)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--jobs", type=int, help="parallel workers")
    _add_penalties(sp)
    sp.add_argument("--strict", action="store_true", default=None,
                    help="exit 3 when a replicate fails, or its stage-1 solver "
                         "or a fit of its returned segmentation fails to "
                         "converge (it is reported on stderr either way)")

    sp = sub.add_parser("plot", help="render a saved plot bundle to SVG")
    _add_common(sp)
    sp.add_argument("--input", help="plot bundle JSON")
    return ap


def _outdir(cfg: RunConfig) -> Path:
    if cfg.out is None:
        raise UsageError("--out is required")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _schedule(data, d: int, cfg: RunConfig):
    """schedule_for_data with the run's overrides; 0.5 is the default v."""
    return schedule_for_data(data, d, lambda_c=cfg.lambda_c, eta=cfg.eta,
                             v=0.5 if cfg.omega_v is None else cfg.omega_v)


def _cmd_simulate(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    preset = scenario_preset(cfg.scenario)
    config = make_scenario(preset, cfg.seed)
    report = validate_model(config.model)
    if not report.ok:
        raise DataError("; ".join(report.messages()))
    data = simulate(config)
    serialize.write_csv(out / "data.csv", data)
    serialize.dump_json(out / "model.json", serialize.model_to_dict(config.model))
    return EXIT_OK


def _cmd_detect(cfg: RunConfig) -> int:
    if cfg.input is None:
        raise UsageError("--input is required")
    out = _outdir(cfg)
    data = serialize.ingest_csv(cfg.input, downsample=cfg.downsample,
                                difference=cfg.difference, center=cfg.center)
    schedule = _schedule(data, cfg.d, cfg)
    result = detect(data, cfg.d, schedule)
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
    return EXIT_NOCONV if cfg.strict and failed else EXIT_OK


def _cmd_evaluate(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    preset = scenario_preset(cfg.scenario)
    schedule = None
    # any override fixes one schedule for all replicates; without one,
    # each replicate derives its own from its data
    if any(v is not None for v in (cfg.lambda_c, cfg.eta, cfg.omega_v)):
        probe = simulate(make_scenario(preset, cfg.seed))
        schedule = _schedule(probe, preset.d, cfg)
    summary = run_replicates(preset, cfg.replicates, cfg.seed, schedule,
                             jobs=cfg.jobs)
    serialize.dump_json(out / "summary.json", serialize.summary_to_dict(summary))
    serialize.write_summary_csv(out / "summary.csv", summary)
    for k, t in enumerate(summary.truth):
        print(f"break {t}: selection_rate={summary.selection_rate[k]:.2f} "
              f"mean_rel={summary.mean_rel[k]:.4f} std_rel={summary.std_rel[k]:.4f}")
    print(f"exact_count_rate={summary.exact_count_rate:.2f}")
    # reported either way; --strict only turns it into the exit code
    records = summary.records
    counts = {
        "failed": sum(1 for r in records if r.get("error")),
        "stage-1 solver did not converge":
            sum(1 for r in records if not r.get("stage1_converged", True)),
        "stage-2 segment fit did not converge":
            sum(1 for r in records if not r.get("stage2_converged", True)),
    }
    for what, count in counts.items():
        if count:
            print(f"{count} of {len(records)} replicates: {what}", file=sys.stderr)
    return EXIT_NOCONV if cfg.strict and any(counts.values()) else EXIT_OK


def _cmd_plot(cfg: RunConfig) -> int:
    if cfg.input is None:
        raise UsageError("--input is required")
    out = _outdir(cfg)
    try:
        bundle = plots.bundle_from_dict(serialize.load_json(cfg.input))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed plot bundle: {exc}") from exc
    plots.render_svg(bundle, out / "plot.svg")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "detect": _cmd_detect,
    "evaluate": _cmd_evaluate,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
