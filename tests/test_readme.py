"""Every name README.md cites as `module.attr` exists in guardlab, and every
`guardlab` command line in its code blocks is one the CLI takes.

The README names the lab's functions and constants, and a rename or a
deletion that misses it leaves a stale name behind. This reads each
backticked span of the README for `<module>.<attr>` references to the
guardlab modules (file names such as `governor.py` or `report.md` aside)
and resolves each by getattr on guardlab.<module>.
"""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

from guardlab import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cli", "config", "governor", "harness", "optim", "report", "rngstream", "tasks")
FILE_SUFFIXES = {"py", "md", "json", "jsonl", "csv"}
REFERENCE = re.compile(rf"(?<![\w./])(?:guardlab\.)?({'|'.join(MODULES)})\.([A-Za-z_]\w*)")


def module_references(text: str) -> list:
    """The distinct (module, attr) pairs that text's backticked spans cite, sorted."""
    refs = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        refs.update(m.groups() for m in REFERENCE.finditer(span)
                    if m.group(2) not in FILE_SUFFIXES)
    return sorted(refs)


def unresolved(refs) -> list:
    """The "module.attr" of each reference that guardlab.<module> lacks."""
    return [f"{mod}.{attr}" for mod, attr in refs
            if not hasattr(importlib.import_module(f"guardlab.{mod}"), attr)]


def test_the_check_sees_a_stale_name():
    assert sorted(path.stem for path in (ROOT / "src" / "guardlab").glob("*.py")
                  if path.stem != "__init__") == list(MODULES)
    text = ("`governor.select_posture` and `x = harness.probe_config(cfg)`; "
            "`governor.py`, `report.md`, `perfbench/tracing.py`, plain governor.GONE,\n"
            "`optim.GONE`, `guardlab.tasks.strict_int` and `guardlab.optim.GONE_TOO`\n")
    refs = module_references(text)
    assert refs == [("governor", "select_posture"), ("harness", "probe_config"),
                    ("optim", "GONE"), ("optim", "GONE_TOO"), ("tasks", "strict_int")]
    assert unresolved(refs) == ["optim.GONE", "optim.GONE_TOO"]


def test_every_module_name_the_readme_cites_exists():
    refs = module_references((ROOT / "README.md").read_text(encoding="utf-8"))
    assert refs
    assert unresolved(refs) == []


def command_errors(text: str) -> list:
    """Each `guardlab ...` line of text's fenced code blocks that build_parser
    rejects, or that passes a flag its subcommand does not take, with why."""
    errors = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.S | re.M):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] != ["guardlab"]:
                continue
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    args = cli.build_parser().parse_args(argv[1:])
            except SystemExit:
                errors.append((line, "does not parse"))
                continue
            takes = cli._COMMANDS[args.command][2]
            errors += [(line, f"{args.command} does not take {arg}") for arg in argv
                       if arg.startswith("--") and arg != "--quiet"
                       and arg[2:].split("=")[0] not in takes]
    return errors


def test_the_check_sees_a_stale_command():
    text = ("```bash\nguardlab --config c.json run --scenario s  # a comment\n"
            "guardlab --seed 3 suite\nguardlab --config c.json run --label demo\n```\n"
            "guardlab --bogus report\n")
    assert command_errors(text) == [
        ("guardlab --seed 3 suite", "suite does not take --seed"),
        ("guardlab --config c.json run --label demo", "does not parse"),
    ]


def test_every_readme_command_parses_with_flags_its_subcommand_takes():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "\nguardlab " in text
    assert command_errors(text) == []
