#!/usr/bin/env python3
"""Wall time of one CLI call in fresh processes, this checkout against
another one.

    python scripts/cli_timings.py OTHER_CHECKOUT [ROUNDS] [-- CLI ARGS]

The default call is ``compare --config configs/constant_b.yaml``, the
slowest CLI call on the shipped configs.  Each round starts one fresh
interpreter per checkout, which side goes first alternating, and times the
whole process: start-up, imports, the run and its CSV, written to a
temporary file.  Each side imports the package from its own ``src/`` and
runs in its own root, so relative config paths resolve there, with BLAS
pinned to one thread.  The script prints the median and quartiles of each
side over ``ROUNDS`` rounds (default 9) and the ratio of the medians,
this/other.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_ARGS = ["compare", "--config", "configs/constant_b.yaml"]


def wall_s(root: Path, args: list[str], out: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "grasspin.cli", *args, "--out", out], cwd=root,
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    args = DEFAULT_ARGS
    if "--" in argv:
        argv, args = argv[: argv.index("--")], argv[argv.index("--") + 1:]
    if len(argv) not in (1, 2):
        print("usage: python scripts/cli_timings.py OTHER_CHECKOUT [ROUNDS] [-- CLI ARGS]",
              file=sys.stderr)
        return 2
    sides = {"this": ROOT, "other": Path(argv[0]).resolve()}
    rounds = int(argv[1]) if len(argv) == 2 else 9
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out.csv")
        for r in range(rounds):
            for side in (("this", "other") if r % 2 == 0 else ("other", "this")):
                runs[side].append(wall_s(sides[side], args, out))
    print(f"grasspin {' '.join(args)}: {rounds} rounds")
    for side, times in runs.items():
        q1, med, q3 = statistics.quantiles(times, n=4)
        print(f"{side:<6} median {med:.3f} s  quartiles {q1:.3f}-{q3:.3f} s")
    ratio = statistics.median(runs["this"]) / statistics.median(runs["other"])
    print(f"ratio this/other {ratio:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
