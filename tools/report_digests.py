"""Print a digest of every default ``fockcalc verify`` report.

Runs ``fockcalc verify --suite NAME --seed SEED`` at the default config for
each suite name and seeds 0-2, and prints one line per report::

    NAME SEED SHA256

The digest is the sha256 of the report with its ``created`` timestamp
removed, serialized with sorted keys, so two trees print the same lines
exactly when their default reports agree bit for bit.  It reads the package
under ``src`` next to this file::

    python3 tools/report_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fockcalc import cli  # noqa: E402
from fockcalc.suite_names import SUITE_NAMES  # noqa: E402

SEEDS = (0, 1, 2)


def report_digest(argv: list[str]) -> str:
    """sha256 of the report ``fockcalc.cli.main(argv)`` prints, less its ``created`` field."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code not in (0, 1):
        raise SystemExit(f"fockcalc {' '.join(argv)} exited {code}")
    report = json.loads(out.getvalue())
    report.pop("created", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def main() -> None:
    for name in SUITE_NAMES:
        for seed in SEEDS:
            digest = report_digest(["verify", "--suite", name, "--seed", str(seed)])
            print(name, seed, digest, flush=True)


if __name__ == "__main__":
    main()
