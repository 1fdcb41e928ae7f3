#!/usr/bin/env python3
"""Print a digest of every CLI subcommand on every shipped config, then of
the library on soul-carrying paths and on the reduced BMT system.

One line per (config, subcommand): the exit code and sha256 digests of the
CSV payload and of the console summary.  Then one line per library case,
over ``field_corpus()`` x N in {2, 3, 4, 5, 6} x mu' in {0, 1, 1.2, 2}: every
generator loaded, so x and v pick up souls.  Each line hashes the
``integrate_super`` arrays and monitors, and at N = 4 also the action, the
even and odd stationarity probes and the Euler-Lagrange residuals.  Last,
one line per ``integrate_bmt`` case over ``field_corpus()`` x mu' in
{0, 1.2, 2}, hashing the recorded states and their invariants.  No shipped
config reaches these paths: the shipped configs run ``integrate_bmt``'s
invariant columns on a constant field only.

The package is imported from this checkout's ``src/``, so two checkouts
compare with one ``diff``:

    python scripts/cli_digest.py > after.txt
    python /path/to/other/checkout/scripts/cli_digest.py > before.txt
    diff before.txt after.txt

Extra arguments replace the default ``configs/*.yaml``.  Where a change may
move the library arrays by roundoff, ``scripts/lib_compare.py`` compares them
by tolerance.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from conftest import boosted_velocity, field_corpus, loaded_state  # noqa: E402
from grasspin import (  # noqa: E402
    BMTState, DiscretePath, ModelParams, PathVariation, action, euler_lagrange_residual,
    integrate_bmt, integrate_super, stationarity_residual,
)
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


def library_arrays(fld, n: int, mu_prime: float) -> dict[str, np.ndarray]:
    """The arrays of one library case, by name, in hashing order."""
    par = ModelParams(mass=1.0, charge=1.0, mu_prime=mu_prime)
    traj = integrate_super(loaded_state(n), fld, par, h=0.05, steps=16)
    arrays = {"s": traj.s, "x": traj.x, "v": traj.v, "xi": traj.xi,
              "constraint_max": traj.constraint_max, "lambda_max": traj.lambda_max,
              "vv_body": traj.vv_body}
    if n == 4:
        path = DiscretePath.from_trajectory(traj)
        t = (path.s - path.s[0]) / (path.s[-1] - path.s[0])
        prof = np.sin(np.pi * t)[:, None] * np.array([0.3, 1.0, -0.5, 0.7])
        prof[[0, -1]] = 0.0
        arrays["action"] = action(path, fld, par).coeffs
        arrays["stationarity"] = np.array([
            stationarity_residual(path, fld, par, PathVariation(dx=prof)),
            stationarity_residual(path, fld, par, PathVariation(dxi=prof))])
        el = euler_lagrange_residual(path, fld, par)
        arrays["el_x"] = el.x_residual
        arrays["el_xi"] = el.xi_residual
    return arrays


def bmt_arrays(fld, mu_prime: float) -> dict[str, np.ndarray]:
    """The arrays of one ``integrate_bmt`` case.  The spin tensor has every
    pair loaded and u.S != 0, so each invariant column is nonzero."""
    par = ModelParams(mass=1.0, charge=1.0, mu_prime=mu_prime)
    st = BMTState.from_pairs([0.0, 0.1, -0.2, 0.3], boosted_velocity(1.5),
                             [0.1, -0.2, 0.05, 0.5, -0.3, 0.4])
    traj = integrate_bmt(st, fld, par, h=0.05, steps=16, record_every=3)
    return {"s": traj.s, "x": traj.x, "u": traj.u, "spin": traj.spin,
            "uu": traj.uu, "us_max": traj.us_max, "ss": traj.ss}


def library_grid():
    """(case label, arrays) for every library case."""
    for name, fld in field_corpus():
        for n in (2, 3, 4, 5, 6):
            for mu_prime in (0.0, 1.0, 1.2, 2.0):
                yield f"library {name} n={n} mu'={mu_prime:g}", library_arrays(fld, n, mu_prime)
    for name, fld in field_corpus():
        for mu_prime in (0.0, 1.2, 2.0):
            yield f"library bmt {name} mu'={mu_prime:g}", bmt_arrays(fld, mu_prime)


if __name__ == "__main__":
    configs = [Path(p) for p in sys.argv[1:]] or sorted((ROOT / "configs").glob("*.yaml"))
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            for command in COMMANDS:
                print(run(config, command, Path(tmp)), flush=True)
    for case, arrays in library_grid():
        data = b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays.values())
        print(f"{case} sha256={digest(data)}", flush=True)
