"""Command-line surface: run, suite, calibrate, report."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .config import (
    SuiteConfig,
    calibration_record,
    emit_config,
    expand_scenarios,
    parse_config,
)
from .harness import run_suite, run_training
from .report import (
    perplexity,
    read_suite_csv,
    render_report_from_csv,
    result_csv_row,
    write_csv_rows,
    write_suite_csv,
)


class CliError(RuntimeError):
    pass


def _print_error(error: str, message: str, **context) -> None:
    """One JSON error line on stderr: {"error", "message"} plus context."""
    print(json.dumps({"error": error, "message": message, **context}), file=sys.stderr)


def _load_config(args) -> SuiteConfig:
    if not args.config:
        raise CliError("--config PATH is required for this subcommand")
    path = Path(args.config)
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    return parse_config(path)


def _out_dir(args, cfg: Optional[SuiteConfig]) -> Path:
    if args.out:
        return Path(args.out)
    if cfg is not None:
        return Path(cfg.out_dir)
    raise CliError("--out DIR is required")


def _echo_config(cfg: SuiteConfig, out: Path, quiet: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    echo_path = out / "config_echo.json"
    with open(echo_path, "w", encoding="utf-8") as fh:
        json.dump(emit_config(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"configuration (defaults applied) echoed to {echo_path}")


def _write_report(out: Path) -> Path:
    """Render out/report.md from out/suite.csv."""
    report_path = out / "report.md"
    text = render_report_from_csv(read_suite_csv(out / "suite.csv"))
    report_path.write_text(text, encoding="utf-8")
    return report_path


def cmd_run(args) -> int:
    """One arm of one scenario, as the suite builds it, at --seed (default the
    config's first seed): its JSONL, summary and one-row CSV."""
    cfg = _load_config(args)
    scenarios = {scen.name: scen for scen in cfg.scenarios}
    if args.scenario not in scenarios:
        raise CliError(f"run needs --scenario, one of {list(scenarios)}; got {args.scenario!r}")
    # Cut to that scenario, the config calibrates only its preset probes,
    # on every seed, so the arm runs at the rate the suite gives it.
    pairs = expand_scenarios(replace(cfg, scenarios=(scenarios[args.scenario],)))
    arms = {run.label: run for _, *pair in pairs for run in pair}
    arm = args.arm or "guard"
    label = f"{args.scenario}-{arm}"
    if label not in arms:
        names = [name[len(args.scenario) + 1:] for name in arms]
        raise CliError(f"scenario {args.scenario!r} has no arm {arm!r}; its arms are {names}")
    run_cfg = replace(arms[label], seed=cfg.seeds[0] if args.seed is None else args.seed)
    out = _out_dir(args, cfg)
    _echo_config(cfg, out, args.quiet)
    result = run_training(run_cfg, out_dir=out)
    write_csv_rows([result_csv_row(args.scenario, arm, result)],
                   out / f"{label}_seed{result.seed}.csv")
    if not args.quiet:
        print(f"{label} at lr {run_cfg.opt.lr:g}, seed {result.seed}")
        print(f"{'step':>6} {'eval loss':>10}")
        for step, loss in result.eval_trace:
            print(f"{step:>6} {loss:>10.4f}")
        print(json.dumps({"label": label, "seed": result.seed, "final_loss": result.final_loss,
                          "final_perplexity": perplexity(result.final_loss),
                          "control_active_steps": result.summary.control_active_steps}))
    return 0


def cmd_suite(args) -> int:
    cfg = _load_config(args)
    if not cfg.scenarios:
        raise CliError("config defines no scenarios")
    out = _out_dir(args, cfg)
    _echo_config(cfg, out, args.quiet)
    ladders: dict = {}
    pairs = expand_scenarios(cfg, ladders)
    with open(out / "calibration.json", "w", encoding="utf-8") as fh:
        json.dump(calibration_record(cfg, ladders), fh, indent=2)
        fh.write("\n")
    # On disk now, the ladders are dropped before run_suite forks its workers.
    del ladders
    if not args.quiet:
        print(f"running {len(pairs)} comparison pairs")
    rows = run_suite(pairs, out_dir=out / "runs")
    csv_path = out / "suite.csv"
    write_suite_csv(rows, csv_path)
    report_path = _write_report(out)
    if not args.quiet:
        print(f"wrote {csv_path} and {report_path}")
    failed = [row for row in rows if row.error is not None]
    for row in failed:
        _print_error("PairFailed", row.error, scenario=row.scenario, seed=row.seed)
    return 1 if failed else 0


def cmd_calibrate(args) -> int:
    """Print the lr each scenario's pairs run at, keyed by suite.csv scenario id."""
    cfg = _load_config(args)
    if not cfg.scenarios:
        raise CliError("config defines no scenarios")
    rates = {scenario: base.opt.lr for scenario, base, _ in expand_scenarios(cfg)}
    print(json.dumps(rates))
    return 0


def cmd_report(args) -> int:
    out = _out_dir(args, None)
    csv_path = out / "suite.csv"
    if not csv_path.exists():
        raise CliError(f"no suite.csv found in {out}")
    report_path = _write_report(out)
    if not args.quiet:
        print(f"wrote {report_path}")
    return 0


# The flags, each with its argparse keywords.
_FLAGS = {
    "config": dict(metavar="PATH", help="suite configuration JSON"),
    "out": dict(metavar="DIR", help="output directory"),
    "scenario": dict(metavar="NAME", help="the scenario whose arm run runs"),
    "arm": dict(metavar="ARM", help="the arm run runs, a suite run-file suffix: "
                                    "guard (default), baseline, clip1.0, ..."),
    "seed": dict(type=int, metavar="N", help="the seed run runs at (default the config's first)"),
}
# Each subcommand, its help and the flags it reads; it rejects the others
# rather than ignore them. --quiet only silences progress, so all take it.
_COMMANDS = {
    "run": (cmd_run, "run one arm of one scenario as the suite does",
            ("config", "out", "scenario", "arm", "seed")),
    "suite": (cmd_suite, "execute every scenario in the config", ("config", "out")),
    "calibrate": (cmd_calibrate, "print the learning rate each scenario runs at", ("config",)),
    "report": (cmd_report, "re-render the markdown report from an existing CSV", ("out",)),
}


def build_parser() -> argparse.ArgumentParser:
    """Every flag goes before the subcommand, and each flag a subcommand
    takes also after it."""
    parser = argparse.ArgumentParser(
        prog="guardlab",
        description="Bounded training-control governance stress laboratory",
    )
    for flag, kwargs in _FLAGS.items():
        parser.add_argument(f"--{flag}", **kwargs)
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, takes) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in takes:
            # SUPPRESS: a flag not given here keeps its value from before the name.
            command.add_argument(f"--{flag}", default=argparse.SUPPRESS, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, _, takes = _COMMANDS[args.command]
    try:
        ignored = [f"--{flag}" for flag in _FLAGS
                   if getattr(args, flag) is not None and flag not in takes]
        if ignored:
            raise CliError(f"{args.command!r} does not take {', '.join(ignored)}")
        return command(args)
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        _print_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
