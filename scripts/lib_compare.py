#!/usr/bin/env python3
"""Compare the library cases of ``cli_digest.py`` with another checkout, by
tolerance instead of by hash.

    python scripts/lib_compare.py OTHER_CHECKOUT

Each side runs the library grid of this checkout's ``cli_digest.py`` in a
fresh interpreter that imports the package and ``tests/conftest.py`` from
that side's own ``src/`` and ``tests/``.  For every case and array it prints
the largest absolute difference divided by the array's largest |coeff| over
both sides.  It exits 1 if any ratio exceeds 1e-15 or an array is missing or
changed shape, and 0 otherwise.  Use it where a change may move results by
roundoff, so that the hash lines of ``cli_digest.py`` differ.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 1e-15

# Run in the child: load the checkout's package and conftest first, so that
# cli_digest's own path entries find them already imported.
CHILD = """
import pickle, sys
root, scripts = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/tests"]
import conftest, grasspin, grasspin.cli
sys.path.insert(0, scripts)
import cli_digest
pickle.dump(list(cli_digest.library_grid()), sys.stdout.buffer)
"""


def grid(root: Path) -> list:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(root.resolve()), str(ROOT / "scripts")],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    return pickle.loads(out)


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return np.inf
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    gap = np.max(np.abs(a - b), initial=0.0)
    return gap / scale if scale > 0.0 else gap


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/lib_compare.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    mine, theirs = grid(ROOT), grid(Path(argv[0]))
    worst = 0.0
    for (case, arrays), (other_case, other) in zip(mine, theirs, strict=True):
        if case != other_case or arrays.keys() != other.keys():
            print(f"{case}: cases differ ({other_case}, {sorted(other)})")
            worst = np.inf
            continue
        for name, a in arrays.items():
            gap = relative_gap(np.asarray(a), np.asarray(other[name]))
            worst = max(worst, gap)
            print(f"{case} {name} {gap:.3e}")
    print(f"max {worst:.3e} (limit {LIMIT:.0e})")
    return 1 if worst > LIMIT else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
