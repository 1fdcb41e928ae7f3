"""The three benchmark workloads: how one job runs and how it is checked.

A job is one unit of user work on one generated input.  ``run`` is the
timed part; ``check`` runs afterwards, untimed, and verifies the job's
output against tolerances fixed here.  A job whose check fails is counted
as failed, never dropped.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

import inputs

# Correctness tolerances.  Each sits well above what the seed code reaches
# on these inputs and far below what a real defect produces.
LEVEL_TOL = 1e-6          # compare: leading order of the Grassmann run vs BMT (criterion 06)
CONSTRAINT_TOL = 1e-7     # max |xi.v| along a Grassmann trajectory
MAXWELL_TOL = 1e-10       # homogeneous Maxwell identity at soul-carrying points
STATIONARITY_CAP = 1e-2   # odd first variation of the discrete action
DRIFT_TOL = 1e-7          # u.u, u.S and S.S drift along a BMT run
ORACLE_TOL = 1e-8         # BMT integrator vs constant-field oracle


@dataclass
class Outcome:
    """Result of checking one job."""

    ok: bool
    steps: int                                   # RK4 steps of all integrators
    checks: dict = field(default_factory=dict)   # named deviations and timings
    detail: str = ""
    csv: bytes | None = None


def _cli(argv: list[str]) -> int:
    """Call ``grasspin.cli.main``; its console summary is discarded."""
    from grasspin import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_csv(path: str) -> tuple[bytes, list[str], np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return raw, header, rows


def _record_count(steps: int, every: int) -> int:
    return len(range(0, steps + 1, every)) + (1 if steps % every else 0)


def _fail(steps: int, detail: str) -> Outcome:
    return Outcome(False, steps, {}, detail)


class Workload:
    name = ""
    algebras: tuple[int, ...] = ()   # generator counts built during set-up
    is_cli = False

    def generate(self, rng: np.random.Generator, count: int) -> list[inputs.JobInput]:
        raise NotImplementedError

    def run(self, job: inputs.JobInput, out_path: str):
        raise NotImplementedError

    def check(self, job: inputs.JobInput, result, out_path: str) -> Outcome:
        raise NotImplementedError


class SweepConstN6(Workload):
    """CLI ``compare`` on constant fields at N = 6 with theta1 theta2 loaded."""

    name = "sweep_const_n6"
    algebras = (6,)
    is_cli = True
    steps, h, record_every = 24, 0.01, 4

    def generate(self, rng, count):
        jobs = []
        for i in range(count):
            cfg, xi = inputs.make_config(
                rng, field_kind="constant", n_generators=6, steps=self.steps, h=self.h,
                record_every=self.record_every, xi_rows=2, spin_as_tensor=False,
                compare_threshold=LEVEL_TOL,
            )
            jobs.append(inputs.JobInput(i, cfg, "constant", xi))
        return jobs

    def run(self, job, out_path):
        return _cli(["compare", "--config", job.path, "--out", out_path])

    def check(self, job, result, out_path):
        steps = 2 * job.steps   # integrate_super and integrate_bmt
        if result != 0:
            return _fail(steps, f"exit code {result}")
        raw, header, rows = _read_csv(out_path)
        if header != ["s", "dev_x", "dev_u", "dev_spin"]:
            return _fail(steps, f"unexpected CSV header {header}")
        if rows.shape[0] != _record_count(job.steps, self.record_every):
            return _fail(steps, f"{rows.shape[0]} CSV rows")
        level = float(np.max(rows[:, 1:])) if np.all(np.isfinite(rows)) else math.inf
        ok = level <= LEVEL_TOL
        return Outcome(ok, steps, {"level_dev_max": level},
                       "" if ok else f"level deviation {level:.3e}", raw)


class FullLoadPolyN4(Workload):
    """Library API at N = 4 with every generator loaded, polynomial field."""

    name = "full_load_poly_n4"
    algebras = (4, 5)   # the odd stationarity probe appends one generator
    steps, h = 16, 0.005

    def generate(self, rng, count):
        jobs = []
        for i in range(count):
            cfg, xi = inputs.make_config(
                rng, field_kind="polynomial", n_generators=4, steps=self.steps, h=self.h,
                record_every=1, xi_rows=4, spin_as_tensor=False,
            )
            probe = rng.normal(size=(2, 4))
            jobs.append(inputs.JobInput(i, cfg, "polynomial", xi,
                                        probe=probe / np.max(np.abs(probe), axis=1, keepdims=True)))
        return jobs

    def run(self, job, out_path):
        from grasspin import (DiscretePath, FieldConfig, GrassmannNumber, ModelParams,
                              PathVariation, SuperState, action, algebra,
                              euler_lagrange_residual, integrate_super, maxwell_residual,
                              stationarity_residual)

        c = job.config
        fld = FieldConfig.from_entries(
            (t["component"], tuple(t["exponents"]), t["coefficient"]) for t in c["field"]["terms"]
        )
        par = ModelParams(**c["params"])
        alg = algebra(4)
        state = SuperState.from_real(c["initial"]["x0"], job.loaded.u0, job.xi, alg)
        traj = integrate_super(state, fld, par, self.h, self.steps, record_every=1)

        maxwell = 0.0
        for node in (self.steps // 2, self.steps):   # soul-carrying positions
            point = [GrassmannNumber(alg, traj.x[node, mu]) for mu in range(4)]
            maxwell = max(maxwell, max(r.max_abs() for r in maxwell_residual(fld, point)))

        path = DiscretePath.from_trajectory(traj)
        t = (path.s - path.s[0]) / (path.s[-1] - path.s[0])
        bump = np.sin(np.pi * t)[:, None]
        bump[0] = bump[-1] = 0.0
        even = stationarity_residual(path, fld, par, PathVariation(dx=bump * job.probe[0]))
        odd = stationarity_residual(path, fld, par, PathVariation(dxi=bump * job.probe[1]))
        el = euler_lagrange_residual(path, fld, par)
        return {
            "constraint_max": float(np.max(traj.constraint_max)),
            "maxwell_max": maxwell,
            "action": action(path, fld, par).coeffs,
            "stationarity_max": odd,
            "stationarity_even_max": even,
            "el_max": float(max(np.max(el.x_residual), np.max(el.xi_residual))),
            "souls": bool(np.any(traj.x[-1, :, 1:])),
        }

    def check(self, job, result, out_path):
        # The even probe is reported, not gated: its theta1 theta2
        # coefficient does not shrink under step refinement when mu' is
        # neither 0 nor e (a defect of the seed code, not of these inputs).
        checks = {k: result[k] for k in ("constraint_max", "maxwell_max", "stationarity_max",
                                         "stationarity_even_max")}
        problems = []
        if not all(np.all(np.isfinite(v)) for v in result.values()):
            problems.append("non-finite output")
        if not result["souls"]:
            problems.append("trajectory carries no soul, field evaluation untested")
        for name, tol in (("constraint_max", CONSTRAINT_TOL), ("maxwell_max", MAXWELL_TOL),
                          ("stationarity_max", STATIONARITY_CAP)):
            if not result[name] <= tol:
                problems.append(f"{name} {result[name]:.3e} > {tol:.1e}")
        return Outcome(not problems, job.steps, checks, "; ".join(problems))


class BmtSweep(Workload):
    """CLI ``simulate-bmt``; jobs alternate between a constant field and a
    polynomial potential."""

    name = "bmt_sweep"
    algebras = ()
    is_cli = True
    steps, h, record_every = 100, 0.005, 10

    def generate(self, rng, count):
        jobs = []
        for i in range(count):
            kind = "polynomial" if i % 2 else "constant"
            cfg, xi = inputs.make_config(
                rng, field_kind=kind, n_generators=4, steps=self.steps, h=self.h,
                record_every=self.record_every, xi_rows=2, spin_as_tensor=True,
                drift_threshold=DRIFT_TOL,
            )
            jobs.append(inputs.JobInput(i, cfg, kind, xi))
        return jobs

    def run(self, job, out_path):
        return _cli(["simulate-bmt", "--config", job.path, "--out", out_path])

    def check(self, job, result, out_path):
        from grasspin.bmt import PAIRS, BMTState, ConstantFieldOracle
        from grasspin.fields import constant_f_lower

        steps = job.steps
        if result != 0:
            return _fail(steps, f"exit code {result}")
        raw, header, rows = _read_csv(out_path)
        if len(header) != 18 or header[0] != "s" or header[-3:] != ["uu", "us_max", "ss"]:
            return _fail(steps, f"unexpected CSV header {header}")
        if rows.shape[0] != _record_count(steps, self.record_every):
            return _fail(steps, f"{rows.shape[0]} CSV rows")
        if not np.all(np.isfinite(rows)):
            return _fail(steps, "non-finite CSV values")
        inv = rows[:, -3:]
        drift = float(np.max(np.abs(inv - inv[0])))
        checks = {"invariant_drift_max": drift}
        problems = [] if drift <= DRIFT_TOL else [f"invariant drift {drift:.3e}"]
        if job.kind == "constant":
            cfg = job.loaded
            state0 = BMTState(cfg.x0, cfg.u0, cfg.spin_tensor_matrix())
            f_lo = constant_f_lower(cfg.field.e_field, cfg.field.b_field)
            t0 = time.perf_counter()
            ref = ConstantFieldOracle(state0, f_lo, cfg.params).sample(rows[:, 0], h_ref=cfg.h)
            checks["oracle_s"] = time.perf_counter() - t0
            ref_spin = np.stack([ref.spin[:, m, n] for m, n in PAIRS], axis=1)
            dev = float(max(np.max(np.abs(rows[:, 1:5] - ref.x)),
                            np.max(np.abs(rows[:, 5:9] - ref.u)),
                            np.max(np.abs(rows[:, 9:15] - ref_spin))))
            checks["oracle_dev_max"] = dev
            if not dev <= ORACLE_TOL:
                problems.append(f"oracle deviation {dev:.3e}")
        return Outcome(not problems, steps, checks, "; ".join(problems), raw)


WORKLOADS = {w.name: w for w in (SweepConstN6(), FullLoadPolyN4(), BmtSweep())}
