#!/usr/bin/env python3
"""Per-call timings of ``super_dynamics._rhs`` and of the products and even
inverses it makes, of the rate that ``integrate_super`` steps, and of the
BMT rate and RK4 step, in this checkout against another one.

    python scripts/rhs_timings.py OTHER_CHECKOUT

``_rhs`` cases: N in {2, 4, 6} x the fields ``constant_eb`` and
``gradient_b`` of ``tests/conftest.py``, with mu' = 1.2.  The state is the
last record of four RK4 steps (h = 0.05) from ``loaded_state(N)``, so x and
v carry souls.  Each case times one ``_rhs`` call, then replays the ``mul``
calls and the ``invert_even`` calls that one ``_rhs`` makes, with the
operands it passed, and times each replay.  Products made inside
``invert_even`` count under ``invert_even`` only.

Field cases: ``gradient_b`` at N in {4, 6}, from the same state as the
``_rhs`` cases.  Each times ``super_dynamics._field(..., grad=True)`` at the
state's x, whose souls carry every even degree the algebra has: F and dF
at a soul-carrying point, as one ``_rhs`` call forms them.

Rate cases: ``constant_eb`` at N = 2 and ``gradient_b`` at N = 4, mu' =
1.2, from ``loaded_state(N)``.  Each case records the rate function and
initial state that ``integrate_super`` hands to ``rk4`` and times one call
of that rate.  At N = 2 on a constant field that is the rate program, on
checkouts that have one; the N = 4 ``gradient_b`` case steps ``_rhs`` on
every checkout.

Probe cases: ``gradient_b`` at N = 4, mu' = 1.2, in the job shape of the
``full_load_poly_n4`` benchmark workload: the path of 16 RK4 steps (h =
0.005, every state recorded) from ``loaded_state(4)``, and a sin profile.
Each times one even and one odd ``stationarity_residual`` on that path.

BMT cases: the same two fields, mu' = 1.2, in the job shape of the
``bmt_sweep`` benchmark workload (100 steps, h = 0.005, every 10th state
recorded).  Each case records the rate function and initial state that
``integrate_bmt`` hands to ``rk4``, times one call of that rate, and times
the whole run divided by its 100 steps ("rk4 step", which includes the
run's set-up and records).  Recording at ``rk4`` keeps the cases the same
on checkouts whose rate functions differ.

A figure is the median over five repeats of the mean time per call, in
microseconds, with each repeat about 50 ms long.

Every case runs in a fresh interpreter that imports the package and
``tests/conftest.py`` from its checkout's ``src/`` and ``tests/``, with BLAS
pinned to one thread.  The two checkouts alternate case by case, which side
goes first alternating too, for ``ROUNDS`` rounds, because a shared host's
speed drifts over seconds.  The script prints, per case and layer, the
median over rounds on both sides and the ratio this/other.  A run takes
about four minutes on a 2-core host.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 11
CASES = [("rhs", n, name) for n in (2, 4, 6) for name in ("constant_eb", "gradient_b")]
CASES += [("field", n, "gradient_b") for n in (4, 6)]
CASES += [("rate", 2, "constant_eb"), ("rate", 4, "gradient_b")]
CASES += [("probe", 4, "gradient_b")]
CASES += [("bmt", 0, name) for name in ("constant_eb", "gradient_b")]

PRELUDE = """
import json, statistics, sys, time
root, n, name = sys.argv[1], sys.argv[2], sys.argv[3]
sys.path[:0] = [root + "/src", root + "/tests"]

def median_us(call, target_s=0.05, repeat=5):
    t0 = time.perf_counter()
    call()
    number = max(1, int(target_s / max(time.perf_counter() - t0, 1e-9)))
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - t0) / number)
    return 1e6 * statistics.median(times)
"""

CHILD_RHS = PRELUDE + """
from conftest import field_corpus, loaded_state
from grasspin import ModelParams, integrate_super
from grasspin.grassmann import GrassmannAlgebra
from grasspin.super_dynamics import _rhs

fld = dict(field_corpus())[name]
par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)
traj = integrate_super(loaded_state(int(n)), fld, par, h=0.05, steps=4)
args = (traj.alg, fld, par, traj.x[-1], traj.v[-1], traj.xi[-1])

# record the calls of one _rhs; products inside invert_even are its own
mul, inv = GrassmannAlgebra.mul, GrassmannAlgebra.invert_even
muls, invs, depth = [], [], [0]
def rec_mul(alg, *a):
    if not depth[0]:
        muls.append((alg, a))
    return mul(alg, *a)
def rec_inv(alg, *a):
    invs.append((alg, a))
    depth[0] += 1
    try:
        return inv(alg, *a)
    finally:
        depth[0] -= 1
GrassmannAlgebra.mul, GrassmannAlgebra.invert_even = rec_mul, rec_inv
_rhs(*args)
GrassmannAlgebra.mul, GrassmannAlgebra.invert_even = mul, inv

def run_muls():
    for alg, a in muls:
        mul(alg, *a)
def run_invs():
    for alg, a in invs:
        inv(alg, *a)
print(json.dumps({
    "_rhs": median_us(lambda: _rhs(*args)),
    f"mul x{len(muls)}": median_us(run_muls),
    f"invert_even x{len(invs)}": median_us(run_invs),
}))
"""

CHILD_FIELD = PRELUDE + """
from conftest import field_corpus, loaded_state
from grasspin import ModelParams, integrate_super
from grasspin.super_dynamics import _field

fld = dict(field_corpus())[name]
par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)
traj = integrate_super(loaded_state(int(n)), fld, par, h=0.05, steps=4)
print(json.dumps({"F and dF": median_us(lambda: _field(traj.alg, fld, traj.x[-1], grad=True))}))
"""

CHILD_RATE = PRELUDE + """
from conftest import field_corpus, loaded_state
from grasspin import ModelParams, integrate_super
import grasspin.super_dynamics as sd

fld = dict(field_corpus())[name]
par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)

# the rate and initial state integrate_super hands to rk4
rk4, seen = sd.rk4, []
def rec_rk4(rates, y, *a):
    seen.append((rates, y))
    return rk4(rates, y, *a)
sd.rk4 = rec_rk4
integrate_super(loaded_state(int(n)), fld, par, h=0.05, steps=4)
sd.rk4 = rk4
rates, y0 = seen[0]
print(json.dumps({"rate": median_us(lambda: rates(y0, None))}))
"""

CHILD_PROBE = PRELUDE + """
import numpy as np
from conftest import field_corpus, loaded_state
from grasspin import DiscretePath, ModelParams, PathVariation, integrate_super
from grasspin import stationarity_residual as probe

fld = dict(field_corpus())[name]
par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)
path = DiscretePath.from_trajectory(
    integrate_super(loaded_state(int(n)), fld, par, h=0.005, steps=16, record_every=1))
t = (path.s - path.s[0]) / (path.s[-1] - path.s[0])
prof = np.sin(np.pi * t)[:, None] * np.array([0.3, 1.0, -0.5, 0.7])
prof[[0, -1]] = 0.0
even, odd = PathVariation(dx=prof), PathVariation(dxi=prof)
print(json.dumps({
    "even probe": median_us(lambda: probe(path, fld, par, even)),
    "odd probe": median_us(lambda: probe(path, fld, par, odd)),
}))
"""

CHILD_BMT = PRELUDE + """
from conftest import boosted_velocity, field_corpus
from grasspin import BMTState, ModelParams, integrate_bmt
import grasspin.bmt as bmt

fld = dict(field_corpus())[name]
par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)
state = BMTState.from_pairs([0.0, 0.1, -0.2, 0.3], boosted_velocity(1.5),
                            [0.1, -0.2, 0.05, 0.5, -0.3, 0.4])
steps, h, record_every = 100, 0.005, 10

# the rate and initial state integrate_bmt hands to rk4
rk4, seen = bmt.rk4, []
def rec_rk4(rates, y, *a):
    seen.append((rates, y))
    return rk4(rates, y, *a)
bmt.rk4 = rec_rk4
integrate_bmt(state, fld, par, h, steps, record_every)
bmt.rk4 = rk4
rates, y0 = seen[0]
print(json.dumps({
    "rate": median_us(lambda: rates(y0, None)),
    "rk4 step": median_us(lambda: integrate_bmt(state, fld, par, h, steps, record_every)) / steps,
}))
"""


CHILDREN = {"rhs": CHILD_RHS, "field": CHILD_FIELD, "rate": CHILD_RATE, "probe": CHILD_PROBE,
            "bmt": CHILD_BMT}


def timings(root: Path, kind: str, n: int, name: str) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CHILDREN[kind], str(root.resolve()), str(n), name],
                         check=True, stdout=subprocess.PIPE, env=env).stdout
    return json.loads(out)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/rhs_timings.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    sides = {"this": ROOT, "other": Path(argv[0])}
    runs = {(side, case): [] for side in sides for case in CASES}
    for r in range(ROUNDS):
        for c, case in enumerate(CASES):
            for side in (("this", "other") if (r + c) % 2 == 0 else ("other", "this")):
                runs[side, case].append(timings(sides[side], *case))
    print(f"{'case':<21} {'layer':<16} {'this_us':>9} {'other_us':>9} {'ratio':>6}")
    for case in CASES:
        mine, theirs = runs["this", case], runs["other", case]
        kind, n, name = case
        label = {"rhs": f"n={n} ", "field": f"field n={n} ", "rate": f"rate n={n} ",
                 "probe": f"probe n={n} ", "bmt": "bmt "}[kind] + name
        # a layer's label holds its call count, which the two sides may differ in
        for layer, other_layer in zip(mine[0], theirs[0]):
            a = statistics.median(run[layer] for run in mine)
            b = statistics.median(run[other_layer] for run in theirs)
            layer_label = layer if layer == other_layer else f"{layer} ({other_layer})"
            print(f"{label:<21} {layer_label:<16} {a:>9.1f} {b:>9.1f} {a / b:>6.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
