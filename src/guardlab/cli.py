"""Command-line surface: run, suite, calibrate, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .config import (
    SuiteConfig,
    calibration_record,
    emit_config,
    expand_scenarios,
    parse_config,
    run_config,
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
    cfg = _load_config(args)
    if cfg.run is None:
        raise CliError("config has no 'run' section for the run subcommand")
    out = _out_dir(args, cfg)
    _echo_config(cfg, out, args.quiet)
    run_cfg = run_config(cfg, cfg.seeds[0] if args.seed is None else args.seed)
    result = run_training(run_cfg, out_dir=out)
    write_csv_rows(
        [result_csv_row(run_cfg.label, cfg.run.arm, result)],
        out / f"{run_cfg.label}_seed{result.seed}.csv",
    )
    if not args.quiet:
        print(
            json.dumps(
                {
                    "label": run_cfg.label,
                    "seed": result.seed,
                    "final_loss": result.final_loss,
                    "final_perplexity": perplexity(result.final_loss),
                    "control_active_steps": result.summary.control_active_steps,
                }
            )
        )
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
    if not args.quiet:
        print(f"running {len(pairs)} comparison pairs")
    rows = run_suite(pairs, out_dir=out / "runs", ladders=ladders)
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


# Each subcommand, its help and the global flags it reads; it rejects the
# others rather than ignore them. --quiet only silences progress, so all take it.
_COMMANDS = {
    "run": (cmd_run, "execute the config's single-run section", ("config", "out", "seed")),
    "suite": (cmd_suite, "execute every scenario in the config", ("config", "out")),
    "calibrate": (cmd_calibrate, "print the learning rate each scenario runs at", ("config",)),
    "report": (cmd_report, "re-render the markdown report from an existing CSV", ("out",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guardlab",
        description="Bounded training-control governance stress laboratory",
    )
    parser.add_argument("--config", metavar="PATH", help="suite configuration JSON")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="N", help="seed override for run")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, _, takes = _COMMANDS[args.command]
    try:
        ignored = [f"--{flag}" for flag in ("config", "out", "seed")
                   if getattr(args, flag) is not None and flag not in takes]
        if ignored:
            raise CliError(f"{args.command!r} does not take {', '.join(ignored)}")
        return command(args)
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        _print_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
