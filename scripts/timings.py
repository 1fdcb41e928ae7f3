#!/usr/bin/env python3
"""Timings of the library's layers and of whole CLI calls, in this checkout
against another one.

    python scripts/timings.py OTHER_CHECKOUT [KIND ...] [-- CLI ARGS]

KIND is one of ``rhs``, ``field``, ``build``, ``rate``, ``run``, ``probe``,
``bmt``, ``oracle``, ``cli`` and ``main``, the case kinds below; given one
or more, only cases of those kinds run, and with none every case runs.  An
unknown kind prints the usage and exits 2.
``python scripts/timings.py OTHER probe`` runs its 11 rounds in about 15 s
on a 2-core host, so a claim about one layer can be timed alone, or timed
again, in little time.

``_rhs`` cases: N in {2, 4, 6} x the fields ``constant_eb`` and
``gradient_b`` of ``tests/conftest.py``, with mu' = 1.2.  The state is the
last record of four RK4 steps (h = 0.05) from ``loaded_state(N)``, so x and
v carry souls.  Each case times one ``_rhs`` call, then replays the ``mul``
calls and the even inverses that one ``_rhs`` makes, with the operands it
passed, and times each replay.  An inverse is the private
``GrassmannAlgebra._inverse_series`` on checkouts that have it, else
``invert_even``; products made inside it count under "inverse" only.  The
row "products" is a count, not a time: every product one ``_rhs`` call
makes, those inside inverses and field evaluation included.

Field cases: ``gradient_b`` at N in {4, 6}, from the same state as the
``_rhs`` cases.  Each times ``super_dynamics._field(..., grad=True)`` at the
state's x, whose souls carry every even degree the algebra has: F and dF
at a soul-carrying point, as one ``_rhs`` call forms them.  Each also
times ``f_and_potential_coeffs`` at the 16 midpoints of the probe cases'
path, run from ``loaded_state(N)``: F and A in one batched read, as one
chunk of the discrete action forms them.

Build case: constructing ``constant_field(E, B)`` with ``constant_eb``'s E
and B, and constructing ``gradient_b``; then the first soul-point read of a
constant field, ``f_and_df_coeffs`` at the field cases' soul-carrying x at
N = 4, on fresh ``constant_field(E, B)`` built before the clock starts.  A
constant field builds its Taylor program on that read, so the read carries
the build that its construction no longer makes.

Rate case: ``gradient_b`` at N = 4, mu' = 1.2, from ``loaded_state(4)``.
It records the rate function and initial state that ``integrate_super``
hands to ``rk4`` and times one call of that rate, which steps ``_rhs``.

Run case: ``constant_eb`` at N = 2, mu' = 1.2, in the run shape of a
``sweep_const_n6`` benchmark job: 24 RK4 steps (h = 0.01, every 4th state
recorded) from ``loaded_state(2)``.  It times the whole ``integrate_super``
call divided by its 24 steps ("step", which includes the run's set-up,
records and monitors), so it compares checkouts whatever form their
constant-field runs take.

Probe cases: ``gradient_b`` at N = 4, mu' = 1.2, in the job shape of the
``full_load_poly_n4`` benchmark workload: the path of 16 RK4 steps (h =
0.005, every state recorded) from ``loaded_state(4)``, and a sin profile.
Each times one even and one odd ``stationarity_residual`` on that path.

BMT cases: ``constant_eb``, ``gradient_b`` and ``random_cubic``, mu' = 1.2,
in the job shape of the ``bmt_sweep`` benchmark workload (100 steps, h =
0.005, every 10th state recorded).  Each times the whole ``integrate_bmt``
call divided by its 100 steps ("step", which includes the run's set-up and
records), so it compares checkouts whatever form their runs take, and the
body alone ("body"): the ``run`` that ``super_dynamics._body_run`` returns,
for the same 100 steps from the same (x, u), divided by them.

Oracle case: ``ConstantFieldOracle(...).sample`` on ``constant_eb``, mu' =
1.2, from the BMT cases' state, at the 11 record times of a ``bmt_sweep``
job (0, 0.05, ..., 0.5).  It reports the first call in ms, which includes
any import the call makes, the median call in microseconds, and the
child's peak RSS in MB, which sees every module the oracle loads.

A layer figure is the median over five repeats of the mean time per call,
in microseconds, with each repeat about 50 ms long.  Each layer case runs in
a fresh interpreter that imports the package and ``tests/conftest.py`` from
its checkout's ``src/`` and ``tests/``.

CLI case: one call of ``grasspin.cli``, by default ``compare --config
configs/constant_b.yaml``; the arguments after ``--`` replace it.  Each call
is a fresh interpreter with ``PYTHONPATH`` set to its checkout's ``src/``
and that checkout as its working directory, so relative paths resolve
there.  The case times the whole process (start-up, imports, the run and
its output, which goes to a temporary file) in ms, and reads the child's
own peak RSS in MB from ``os.wait4``.  It also prints each side's exit
codes and whether the output of every call, on both sides, was
byte-identical.  To time ``verify`` at N generators, write a config with
that N and pass it after ``--``.

Main case: the same call, as one in-process ``grasspin.cli.main`` call,
in a fresh interpreter per side and round with the same environment and
working directory as the CLI case.  The child makes one call to warm up
(imports, tables, caches), then six more with stdout and stderr
discarded, and reports the median of their wall times in ms and their
exit code.  This is the fixed cost of each call in a process that makes
many, as a sweep does, without the interpreter's start-up.

Every child runs with BLAS pinned to one thread.  The two checkouts
alternate case by case, which side goes first alternating too, for 11
rounds, because a shared host's speed drifts over seconds.  Per case and
layer the script prints the median over rounds on both sides, as context
only, and as the ratio this/other the median over rounds of each round's
ratio, the figure a claim quotes: host drift moves both sides of a round
together, so their ratio holds while either median may read the higher.
Compare checkouts whose paths have equal length, since the path length
alone has moved timings of one commit by several percent.  A run takes
about four minutes on a 2-core host with every case.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 11
CLI_ARGS = ["compare", "--config", "configs/constant_b.yaml"]
CASES = [("rhs", n, name) for n in (2, 4, 6) for name in ("constant_eb", "gradient_b")]
CASES += [("field", n, "gradient_b") for n in (4, 6)]
CASES += [("build", 4, "constant_eb")]
CASES += [("rate", 4, "gradient_b"), ("run", 2, "constant_eb")]
CASES += [("probe", 4, "gradient_b")]
CASES += [("bmt", 0, name) for name in ("constant_eb", "gradient_b", "random_cubic")]
CASES += [("oracle", 0, "constant_eb")]
CASES += [("cli", 0, ""), ("main", 0, "")]
LABELS = {"rhs": "n={n} ", "field": "field n={n} ", "build": "build n={n} ",
          "rate": "rate n={n} ", "run": "run n={n} ", "probe": "probe n={n} ", "bmt": "bmt ",
          "oracle": "oracle ", "cli": "cli", "main": "main"}

PRELUDE = """
import json, statistics, sys, time
root, n, name = sys.argv[1], int(sys.argv[2]), sys.argv[3]
sys.path[:0] = [root + "/src", root + "/tests"]
from conftest import boosted_velocity, field_corpus, loaded_state
from grasspin import ModelParams

fld = dict(field_corpus())[name]
par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)

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

def handed_to_rk4(module, run):
    # the rate and initial state that run() hands to module.rk4
    rk4, seen = module.rk4, []
    module.rk4 = lambda rates, y, *a: seen.append((rates, y)) or rk4(rates, y, *a)
    run()
    module.rk4 = rk4
    return seen[0]
"""

CHILD_RHS = PRELUDE + """
from grasspin import integrate_super
from grasspin.grassmann import GrassmannAlgebra
from grasspin.super_dynamics import _rhs

traj = integrate_super(loaded_state(n), fld, par, h=0.05, steps=4)
args = (traj.alg, fld, par, traj.x[-1], traj.v[-1], traj.xi[-1])

# record the calls of one _rhs; products inside an inverse are its own.
# The inverse is the private series where a checkout has one, else invert_even.
name_inv = "_inverse_series" if hasattr(GrassmannAlgebra, "_inverse_series") else "invert_even"
mul, inv = GrassmannAlgebra.mul, getattr(GrassmannAlgebra, name_inv)
muls, invs, depth, products = [], [], [0], [0]
def rec_mul(alg, *a):
    products[0] += 1
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
GrassmannAlgebra.mul = rec_mul
setattr(GrassmannAlgebra, name_inv, rec_inv)
_rhs(*args)
GrassmannAlgebra.mul = mul
setattr(GrassmannAlgebra, name_inv, inv)

def run_muls():
    for alg, a in muls:
        mul(alg, *a)
def run_invs():
    for alg, a in invs:
        inv(alg, *a)
print(json.dumps({
    "_rhs": median_us(lambda: _rhs(*args)),
    f"mul x{len(muls)}": median_us(run_muls),
    f"inverse x{len(invs)}": median_us(run_invs),
    "products": products[0],
}))
"""

CHILD_FIELD = PRELUDE + """
from grasspin import integrate_super
from grasspin.super_dynamics import _field, _split_even

traj = integrate_super(loaded_state(n), fld, par, h=0.05, steps=4)
path = integrate_super(loaded_state(n), fld, par, h=0.005, steps=16, record_every=1)
bodies, souls = _split_even(0.5 * (path.x[:-1] + path.x[1:]))
print(json.dumps({
    "F and dF": median_us(lambda: _field(traj.alg, fld, traj.x[-1], grad=True)),
    "F and A x16": median_us(lambda: fld.f_and_potential_coeffs(bodies, souls, path.alg)),
}))
"""

CHILD_BUILD = PRELUDE + """
from conftest import gradient_b_field
from grasspin import constant_field, integrate_super
from grasspin.super_dynamics import _split_even

e_field, b_field = [0.3, -0.1, 0.2], [0.5, 0.2, 1.0]   # constant_eb's
traj = integrate_super(loaded_state(n), fld, par, h=0.05, steps=4)
bodies, souls = _split_even(traj.x[-1])

def first_read_us(count=200, repeat=5):
    # each read is the first one on its field, built before the clock starts
    times = []
    for _ in range(repeat):
        fields = [constant_field(e_field, b_field) for _ in range(count)]
        t0 = time.perf_counter()
        for built in fields:
            built.f_and_df_coeffs(bodies, souls, traj.alg)
        times.append((time.perf_counter() - t0) / count)
    return 1e6 * statistics.median(times)

print(json.dumps({
    "constant_field": median_us(lambda: constant_field(e_field, b_field)),
    "gradient_b": median_us(gradient_b_field),
    "first soul read": first_read_us(),
}))
"""

CHILD_RATE = PRELUDE + """
import grasspin.super_dynamics as sd

rates, y0 = handed_to_rk4(sd, lambda: sd.integrate_super(loaded_state(n), fld, par, h=0.05, steps=4))
print(json.dumps({"rate": median_us(lambda: rates(y0, None))}))
"""

CHILD_RUN = PRELUDE + """
from grasspin import integrate_super

steps, state = 24, loaded_state(n)
print(json.dumps({"step": median_us(
    lambda: integrate_super(state, fld, par, h=0.01, steps=steps, record_every=4)) / steps}))
"""

CHILD_PROBE = PRELUDE + """
import numpy as np
from grasspin import DiscretePath, PathVariation, integrate_super
from grasspin import stationarity_residual as probe

path = DiscretePath.from_trajectory(
    integrate_super(loaded_state(n), fld, par, h=0.005, steps=16, record_every=1))
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
import numpy as np
import grasspin.bmt as bmt
from grasspin.super_dynamics import _body_run

state = bmt.BMTState.from_pairs([0.0, 0.1, -0.2, 0.3], boosted_velocity(1.5),
                                [0.1, -0.2, 0.05, 0.5, -0.3, 0.4])
steps = 100
run = lambda: bmt.integrate_bmt(state, fld, par, 0.005, steps, 10)
body, z0 = _body_run(fld, par, 0.005), np.concatenate((state.x, state.u))
print(json.dumps({"step": median_us(run) / steps,
                  "body": median_us(lambda: body(z0, steps)) / steps}))
"""

CHILD_ORACLE = PRELUDE + """
import resource
import numpy as np
from grasspin import BMTState, ConstantFieldOracle

state = BMTState.from_pairs([0.0, 0.1, -0.2, 0.3], boosted_velocity(1.5),
                            [0.1, -0.2, 0.05, 0.5, -0.3, 0.4])
oracle = ConstantFieldOracle(state, fld.f_lower_real(np.zeros(4)), par)
times = 0.005 * np.arange(0, 101, 10)
t0 = time.perf_counter()
oracle.sample(times)
first = time.perf_counter() - t0
print(json.dumps({"first call ms": 1e3 * first, "call": median_us(lambda: oracle.sample(times)),
                  "peak rss MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""

CHILD_MAIN = """
import contextlib, json, os, statistics, sys, time
from grasspin.cli import main

null = open(os.devnull, "w")
def call():
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
        try:
            code = main(sys.argv[4:])
        except SystemExit as exc:
            code = exc.code
    return code, time.perf_counter() - t0

call()
runs = [call() for _ in range(6)]
print(json.dumps({"wall ms": 1e3 * statistics.median(t for _, t in runs), "exit": runs[-1][0]}))
"""

CHILDREN = {"rhs": CHILD_RHS, "field": CHILD_FIELD, "build": CHILD_BUILD, "rate": CHILD_RATE,
            "run": CHILD_RUN, "probe": CHILD_PROBE, "bmt": CHILD_BMT, "oracle": CHILD_ORACLE,
            "main": CHILD_MAIN}


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def cli_call(root: Path, args: list[str], log: Path) -> tuple[int, float, float, str]:
    """Run ``grasspin.cli ARGS`` in ``root``, its stdout and stderr written
    to ``log``: its exit code, wall time in s, peak RSS in MB and a digest
    of its output."""
    with open(log, "w+b") as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "grasspin.cli", *args], cwd=root,
                                 env=child_env(root), stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()[:16]
    return child.returncode, wall, usage.ru_maxrss / 1024.0, digest   # ru_maxrss in KiB


def measure(root: Path, case: tuple, cli_args: list[str], log: Path) -> dict:
    kind, n, name = case
    if kind == "cli":
        code, wall, rss, digest = cli_call(root, cli_args, log)
        return {"wall ms": 1e3 * wall, "peak rss MB": rss, "exit": code, "digest": digest}
    extra = cli_args if kind == "main" else []
    out = subprocess.run([sys.executable, "-c", CHILDREN[kind], str(root), str(n), name, *extra],
                         check=True, stdout=subprocess.PIPE, env=child_env(root), cwd=root).stdout
    return json.loads(out)


def main(argv: list[str]) -> int:
    cli_args = CLI_ARGS
    if "--" in argv:
        argv, cli_args = argv[: argv.index("--")], argv[argv.index("--") + 1:]
    kinds = argv[1:]
    if not argv or any(kind not in LABELS for kind in kinds):
        print(f"usage: python scripts/timings.py OTHER_CHECKOUT [KIND ...] [-- CLI ARGS], "
              f"KIND in {', '.join(LABELS)}", file=sys.stderr)
        return 2
    cases = [case for case in CASES if not kinds or case[0] in kinds]
    sides = {"this": ROOT, "other": Path(argv[0]).resolve()}
    runs = {(side, case): [] for side in sides for case in cases}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(ROUNDS):
            for c, case in enumerate(cases):
                for side in (("this", "other") if (r + c) % 2 == 0 else ("other", "this")):
                    runs[side, case].append(measure(sides[side], case, cli_args, Path(tmp) / "log"))
    print(f"{'case':<21} {'layer':<16} {'this':>9} {'other':>9} {'ratio':>6}")
    for case in cases:
        mine, theirs = runs["this", case], runs["other", case]
        kind, n, name = case
        label = LABELS[kind].format(n=n) + name
        # a layer's label holds its call count, which the two sides may differ in
        for layer, other_layer in zip(mine[0], theirs[0]):
            if layer in ("exit", "digest"):
                continue
            a = statistics.median(run[layer] for run in mine)
            b = statistics.median(run[other_layer] for run in theirs)
            ratio = statistics.median(x[layer] / y[other_layer] for x, y in zip(mine, theirs))
            layer_label = layer if layer == other_layer else f"{layer} ({other_layer})"
            print(f"{label:<21} {layer_label:<16} {a:>9.1f} {b:>9.1f} {ratio:>6.2f}", flush=True)
        if kind in ("cli", "main"):
            codes = [sorted({run["exit"] for run in side}) for side in (mine, theirs)]
            line = f"exit codes this {codes[0]}, other {codes[1]}"
            if kind == "cli":
                equal = len({run["digest"] for run in mine + theirs}) == 1
                line += f"; every output equal: {'yes' if equal else 'NO'}"
            print(f"{label:<21} grasspin {' '.join(cli_args)}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
