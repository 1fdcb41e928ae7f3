#!/usr/bin/env python3
"""Wall time and peak memory of ``verify`` by generator count.

    python scripts/verify_scaling.py CHECKOUT N [N ...]

For each N it runs ``grasspin.cli verify`` from CHECKOUT's ``src/`` on
``configs/constant_b.yaml`` with ``integrator.steps: 200`` and
``algebra.n_generators: N``, in a fresh interpreter with BLAS on one thread.
It prints one line per N: the exit code, the wall time, the child's peak
RSS and a digest of its console summary.  Equal digests mean equal maxwell,
constraint and stationarity lines.  The peak RSS is the child's own, from
``os.wait4``; ``RUSAGE_CHILDREN`` would keep the largest over all children.

Uses the standard library only, so it runs against any checkout.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = 200


def config_text(n: int) -> str:
    """constant_b.yaml with the step count and the generator count replaced."""
    text = (ROOT / "configs" / "constant_b.yaml").read_text(encoding="utf-8")
    for key, value in (("steps", STEPS), ("n_generators", n)):
        text, hits = re.subn(rf"^(\s*{key}:\s*)\d+", rf"\g<1>{value}", text, flags=re.M)
        if hits != 1:
            raise SystemExit(f"constant_b.yaml: expected one {key} line, found {hits}")
    return text


def run(checkout: Path, n: int, tmp: Path) -> str:
    config = tmp / f"n{n}.yaml"
    config.write_text(config_text(n), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with open(tmp / f"n{n}.out", "w+b") as out:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "grasspin.cli", "verify", "--config", str(config)],
            stdout=out, stderr=subprocess.STDOUT, env=env, cwd=tmp,
        )
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        code = child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        summary = out.read()
    rss_mb = usage.ru_maxrss / 1024.0   # kilobytes on Linux
    digest = hashlib.sha256(summary).hexdigest()[:16]
    return f"{n:>2} {code:>4} {wall:>8.2f} {rss_mb:>8.0f} {digest}"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python scripts/verify_scaling.py CHECKOUT N [N ...]", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    counts = [int(n) for n in argv[1:]]
    print(" N exit   wall_s   rss_mb summary")
    with tempfile.TemporaryDirectory() as tmp:
        for n in counts:
            print(run(checkout, n, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
