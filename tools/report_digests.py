"""Print a digest of every default ``fockcalc verify`` report and of seeded
``fockcalc cov`` and ``fockcalc decompose`` reports.

Runs ``fockcalc verify --suite NAME --seed SEED`` at the default config for
each suite name and seeds 0-2, and prints one line per report::

    NAME SEED SHA256

Then, for each document shape and seeds 0-2, it writes a seeded pair of
functional documents and prints one line each for ``fockcalc cov`` on the
pair at ``--p 1`` and ``fockcalc decompose`` of the second member at its
default levels::

    cov-SHAPE SEED SHA256
    decompose-SHAPE SEED SHA256

The shapes are ``sparse`` (one to four sets of one to three sites up to
1000, the second member holding one of the first's sets), ``dense`` (two
independent draws of up to 200 sets over sites 0-10, which share some) and
``mixed`` (a draw of up to 24 sets over sites 0-10 and a combination of it
with another, so the two share every set of the first).

The digest is the sha256 of the report with its ``created`` timestamp
removed, serialized with sorted keys, so two trees print the same lines
exactly when their reports agree bit for bit.  It reads the package under
``src`` next to this file::

    python3 tools/report_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fockcalc import (  # noqa: E402
    SubsetIndex, cli, linear_combine, make_functional, random_functionals
)
from fockcalc.serialization import functional_to_obj, to_json  # noqa: E402
from fockcalc.suite_names import SUITE_NAMES  # noqa: E402

SEEDS = (0, 1, 2)
SHAPES = ("sparse", "dense", "mixed")


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


def _sparse_sets(rng: random.Random) -> dict:
    sets = (tuple(sorted(rng.sample(range(1001), rng.randint(1, 3))))
            for _ in range(rng.randint(1, 4)))
    return {s: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for s in sets}


def document_pair(shape: str, seed: int) -> tuple:
    """The seeded functional pair of one document shape."""
    if shape == "sparse":
        rng = random.Random(seed)
        first, second = _sparse_sets(rng), _sparse_sets(rng)
        second[rng.choice(sorted(first))] = complex(rng.uniform(-1, 1), 0.5)
        return tuple(make_functional((SubsetIndex(s), c) for s, c in terms.items())
                     for terms in (first, second))
    if shape == "dense":
        return tuple(random_functionals(2, seed, support_max=10, max_terms=200))
    a, b = random_functionals(2, seed, support_max=10, max_terms=24)
    return a, linear_combine(1.0 - 0.5j, a, 1.0, b)


def main() -> None:
    for name in SUITE_NAMES:
        for seed in SEEDS:
            digest = report_digest(["verify", "--suite", name, "--seed", str(seed)])
            print(name, seed, digest, flush=True)
    with tempfile.TemporaryDirectory() as work:
        for shape in SHAPES:
            for seed in SEEDS:
                paths = []
                for i, phi in enumerate(document_pair(shape, seed)):
                    paths.append(str(Path(work) / f"{shape}-{seed}-{i}.json"))
                    Path(paths[-1]).write_text(to_json(functional_to_obj(phi)))
                for argv in (["cov", *paths, "--p", "1"], ["decompose", paths[1]]):
                    print(f"{argv[0]}-{shape}", seed, report_digest(argv), flush=True)


if __name__ == "__main__":
    main()
