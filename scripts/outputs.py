#!/usr/bin/env python3
"""Results of this checkout against another one, by tolerance.

    python scripts/outputs.py OTHER_CHECKOUT

Each checkout runs in one fresh interpreter, BLAS on one thread, with its
own ``src/`` and ``tests/conftest.py`` (about 15 s on a 2-core host).  It
runs its own ``configs/*.yaml`` x the four CLI subcommands, then the
library grid, which no shipped config reaches: ``field_corpus()`` x N in
{2, ..., 6} x mu' in {0, 1, 1.2, 2} through ``integrate_super``, every
generator loaded so x and v pick up souls, adding at N = 4 the action, both
stationarity probes and the Euler-Lagrange residuals; then ``integrate_bmt``
over ``field_corpus()`` x mu' in {0, 1.2, 2}, every invariant nonzero.

Per CLI call it prints both exit codes, then ``identical``, or the largest
gap of each CSV column that moved, and whether the summary differs.  A
column formed from the state is judged against the state's scale, the
larger side's, read off the call's x, u and S columns (for ``compare``,
which writes none, off ``simulate-super`` on the same config): ``uu``
max|u|**2, ``us_max`` max|u| * max|S|, ``ss`` max|S|**2, and
``constraint``, ``lambda`` and ``dev_*`` the largest |x|, |u| or |S|.  Any
other column is judged against its own largest |value|.

Per library array it prints the largest gap over the roundoff floor of the
stencil that formed it, the larger side's: ``constraint_max[i]``:
max|xi_i| * max|v_i|; ``el_x`` at a node: m * max|x|
over its three stencil nodes / h**2; ``el_xi`` at a node: max|xi| over its
two stencil nodes / h; ``stationarity_even`` and ``_odd``: max|action| / h;
the BMT invariants at a record, quadratic forms whose terms cancel (u.u = 1
from u0**2 near 4): ``uu`` max|u|**2, ``us_max`` max|u| * max|S|, ``ss``
max|S|**2; every other array: its largest |coeff|.  It exits 1 if an exit
code, a CSV header or row count differs, or a library gap exceeds 1e-15
(CSV columns and summaries are reported, not judged), 2 on bad usage, and
0 otherwise.
"""

import contextlib
import io
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from timings import child_env  # noqa: E402

LIMIT = 1e-15
MASS = 1.0
COMMANDS = ("simulate-bmt", "simulate-super", "compare", "verify")
MISSING = (None, None, b"")   # a CLI call that one side did not make
# Run in each checkout, whose package and conftest come first on the path.
CHILD = ("import outputs as o, pickle, sys; pickle.dump("
         "{'cli': o.cli_results(), 'library': o.library_grid()}, sys.stdout.buffer)")


def cli_results() -> dict:
    """(config, command) -> (exit code, CSV bytes or None, summary bytes)."""
    from grasspin.cli import main
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(Path("configs").glob("*.yaml")):
            for command in COMMANDS:
                csv, summary = Path(tmp) / f"{config.stem}.{command}.csv", io.StringIO()
                with contextlib.redirect_stdout(summary), contextlib.redirect_stderr(summary):
                    code = main([command, "--config", str(config), "--out", str(csv)])
                out[config.name, command] = (
                    code, csv.read_bytes() if csv.exists() else None, summary.getvalue().encode())
    return out


def library_grid() -> list:
    """(case label, {name: array}) for every library case."""
    from conftest import boosted_velocity, field_corpus, loaded_state
    from grasspin import (
        BMTState, DiscretePath, ModelParams, PathVariation, action, euler_lagrange_residual,
        integrate_bmt, integrate_super, stationarity_residual,
    )
    grid = []
    for name, fld in field_corpus():
        for n in (2, 3, 4, 5, 6):
            for mu_prime in (0.0, 1.0, 1.2, 2.0):
                par = ModelParams(mass=MASS, charge=1.0, mu_prime=mu_prime)
                traj = integrate_super(loaded_state(n), fld, par, h=0.05, steps=16)
                arrays = {k: getattr(traj, k) for k in
                          ("s", "x", "v", "xi", "constraint_max", "lambda_max", "vv_body")}
                if n == 4:
                    path = DiscretePath.from_trajectory(traj)
                    t = (path.s - path.s[0]) / (path.s[-1] - path.s[0])
                    prof = np.sin(np.pi * t)[:, None] * np.array([0.3, 1.0, -0.5, 0.7])
                    prof[[0, -1]] = 0.0
                    arrays["action"] = action(path, fld, par).coeffs
                    arrays["stationarity_even"], arrays["stationarity_odd"] = (np.array(
                        [stationarity_residual(path, fld, par, PathVariation(**{d: prof}))])
                        for d in ("dx", "dxi"))
                    el = euler_lagrange_residual(path, fld, par)
                    arrays["el_x"], arrays["el_xi"] = el.x_residual, el.xi_residual
                grid.append((f"library {name} n={n} mu'={mu_prime:g}", arrays))
    # every spin pair loaded and u.S != 0, so each invariant column is nonzero
    state = BMTState.from_pairs([0.0, 0.1, -0.2, 0.3], boosted_velocity(1.5),
                                [0.1, -0.2, 0.05, 0.5, -0.3, 0.4])
    for name, fld in field_corpus():
        for mu_prime in (0.0, 1.2, 2.0):
            par = ModelParams(mass=MASS, charge=1.0, mu_prime=mu_prime)
            traj = integrate_bmt(state, fld, par, h=0.05, steps=16, record_every=3)
            grid.append((f"library bmt {name} mu'={mu_prime:g}", dict(vars(traj))))
    return grid


def floors(arrays: dict) -> dict:
    """The roundoff floor of each stencil-formed array and each BMT invariant
    of a library case."""
    if "spin" in arrays:
        u = np.max(np.abs(arrays["u"]), axis=-1)
        spin = np.max(np.abs(arrays["spin"]), axis=(-2, -1))
        return {"uu": u * u, "us_max": u * spin, "ss": spin * spin}
    if "xi" not in arrays:
        return {}
    x, v, xi = (np.max(np.abs(arrays[k]), axis=(-2, -1)) for k in ("x", "v", "xi"))
    out = {"constraint_max": xi * v}
    if "action" in arrays:
        h = arrays["s"][1] - arrays["s"][0]
        out["el_x"] = MASS * np.maximum.reduce([x[:-2], x[1:-1], x[2:]]) / h**2
        out["el_xi"] = np.maximum(xi[:-2], xi[2:]) / h
        out["stationarity_even"] = out["stationarity_odd"] = np.max(np.abs(arrays["action"])) / h
    return out


def gap(a, b, scale=None) -> float:
    """Largest |a - b| over ``scale`` where positive (default: the largest
    |value| of both); inf if the shapes differ or one side alone is NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf
    with np.errstate(invalid="ignore"):
        d = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
    scale = np.nanmax(np.abs([a, b]), initial=0.0) if scale is None else scale
    d /= np.where(np.asarray(scale) > 0, scale, 1.0)
    return float(np.max(np.nan_to_num(d, nan=np.inf), initial=0.0))


def columns(csv: bytes) -> dict:
    """A CSV payload's columns by name."""
    names = csv.split(b"\n", 1)[0].decode().split(",")
    return dict(zip(names, np.loadtxt(io.BytesIO(csv), delimiter=",", skiprows=1, ndmin=2).T))


def csv_floors(state: bytes | None) -> dict:
    """The roundoff floor of each CSV column formed from the state, read off
    the x, u and S columns of the CSV ``state`` (module docstring)."""
    if not state:
        return {}
    cols = columns(state)
    big = {k: max((np.max(np.abs(v)) for name, v in cols.items() if re.fullmatch(rf"{k}\d+", name)),
                  default=0.0) for k in ("x", "u", "S")}
    u, s, scale = big["u"], big["S"], max(big.values())
    return {"uu": u * u, "us_max": u * s, "ss": s * s, "constraint": scale, "lambda": scale,
            "dev_x": scale, "dev_u": scale, "dev_spin": scale}


def state_csv(cli: dict, key: tuple) -> bytes | None:
    """The CSV whose state scales the columns of CLI call ``key``."""
    return cli.get((key[0], "simulate-super") if key[1] == "compare" else key, MISSING)[1]


def cli_line(mine: tuple, theirs: tuple, states: list) -> tuple[str, bool]:
    """One CLI call's report, and whether the two sides differ past it;
    ``states`` are the two sides' CSVs whose state scales its columns."""
    (code, csv, summary), (other_code, other_csv, other_summary) = mine, theirs
    words, failed = [f"exit {code}/{other_code}"], code != other_code
    heads = [(c.split(b"\n", 1)[0], c.count(b"\n")) if c else None for c in (csv, other_csv)]
    if heads[0] != heads[1]:
        words.append("header or row count differs")
        failed = True
    elif csv != other_csv:
        a, b = columns(csv), columns(other_csv)
        mine_floor, other_floor = map(csv_floors, states)
        scales = {name: max(mine_floor.get(name, 0.0), other_floor.get(name, 0.0)) or None
                  for name in a}
        gaps = ((name, gap(a[name], b[name], scales[name])) for name in a)
        words += [f"{name} {g:.1e}" for name, g in gaps if g]
    if summary != other_summary:
        words.append("summary differs")
    elif csv == other_csv:
        words.append("identical")
    return " ".join(words), failed


def judge(mine: dict, theirs: dict) -> int:
    """Print the two sides' results compared; 1 if they differ past roundoff."""
    failed = False
    for key in sorted(mine["cli"].keys() | theirs["cli"].keys()):
        line, bad = cli_line(mine["cli"].get(key, MISSING), theirs["cli"].get(key, MISSING),
                             [state_csv(side["cli"], key) for side in (mine, theirs)])
        failed |= bad
        print(" ".join(key), line)
    worst, over = 0.0, []
    for (case, arrays), (other_case, other) in zip(mine["library"], theirs["library"], strict=True):
        if case != other_case or arrays.keys() != other.keys():
            raise SystemExit(f"library cases differ: {case}, {other_case}")
        other_floor = floors(other)
        scales = {name: np.maximum(f, other_floor[name]) for name, f in floors(arrays).items()
                  if np.shape(f) == np.shape(other_floor[name])}
        for name, a in arrays.items():
            g = gap(a, other[name], scales.get(name))
            worst = max(worst, g)
            if g > LIMIT:
                over.append(f"  {case} {name}")
            print(f"{case} {name} {g:.3e}")
    print(f"library max {worst:.3e} (limit {LIMIT:.0e}); {len(over)} arrays over it",
          *over, sep="\n")
    return 1 if failed or worst > LIMIT else 0


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/outputs.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    children = [subprocess.Popen([sys.executable, "-c", CHILD], cwd=root, stdout=subprocess.PIPE,
                                 env=dict(child_env(root), PYTHONPATH=os.pathsep.join(
                                     [f"{root}/src", f"{root}/tests", f"{ROOT}/scripts"])))
                for root in (ROOT, Path(argv[0]).resolve())]
    sides = [child.communicate()[0] for child in children]
    if any(child.returncode for child in children):
        raise SystemExit("a child failed")
    return judge(*map(pickle.loads, sides))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
