#!/usr/bin/env python3
"""Run the full stress suite from a config and write CSV + markdown report.

Usage:
    python scripts/run_suite.py [--config configs/default_suite.json] [--out results] [--quiet]

The flags are guardlab's own, and the config defaults to configs/default_suite.json.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from guardlab.cli import main  # noqa: E402


if __name__ == "__main__":
    # A --config among the arguments comes after the default one and overrides it.
    raise SystemExit(main(["--config", "configs/default_suite.json", *sys.argv[1:], "suite"]))
