#!/usr/bin/env python3
"""Print a digest of every CLI subcommand on every shipped config.

One line per (config, subcommand): the exit code and sha256 digests of the
CSV payload and of the console summary.  The package is imported from this
checkout's ``src/``, so two checkouts compare with one ``diff``:

    python scripts/cli_digest.py > after.txt
    python /path/to/other/checkout/scripts/cli_digest.py > before.txt
    diff before.txt after.txt

Extra arguments replace the default ``configs/*.yaml``.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from grasspin.cli import main  # noqa: E402

COMMANDS = ("simulate-bmt", "simulate-super", "compare", "verify")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run(config: Path, command: str, tmp: Path) -> str:
    out = tmp / f"{config.stem}.{command}.csv"
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary), contextlib.redirect_stderr(summary):
        code = main([command, "--config", str(config), "--out", str(out)])
    csv = digest(out.read_bytes()) if out.exists() else "-"
    return f"{config.name} {command} exit={code} csv={csv} summary={digest(summary.getvalue().encode())}"


if __name__ == "__main__":
    configs = [Path(p) for p in sys.argv[1:]] or sorted((ROOT / "configs").glob("*.yaml"))
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            for command in COMMANDS:
                print(run(config, command, Path(tmp)), flush=True)
