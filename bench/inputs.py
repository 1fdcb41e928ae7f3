"""Seeded inputs for the benchmark workloads.

Every job input is derived from the benchmark seed alone, so the same seed
always yields the same configs and arrays.  Generated states meet the
physics preconditions of the model: the 4-velocity is normalized
(u.u = 1) and every loaded xi row is Minkowski-orthogonal to u0.  Each input
is also written as a YAML config and read back through
``grasspin.config.load_config`` before any timing starts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import yaml

SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

# Relative tolerance of the generated preconditions (u.u = 1, xi.u0 = 0).
PRECONDITION_TOL = 1e-13


class PreconditionError(ValueError):
    """A generated input violates a physics precondition of the model."""


def mdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(np.asarray(a) * np.asarray(b) * SIGNS, axis=-1)


@dataclass
class JobInput:
    """One job's generated input; ``config`` is the YAML document as a dict."""

    index: int
    config: dict
    kind: str                      # "constant" or "polynomial" field
    xi: np.ndarray                 # (k, 4) generator loadings, k >= 2
    probe: np.ndarray | None = None  # variation directions, library jobs only
    path: str = ""                 # YAML file written for the job
    loaded: object = None          # the RunConfig read back from ``path``

    @property
    def steps(self) -> int:
        return int(self.config["integrator"]["steps"])


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def boosted_velocity(rng: np.random.Generator, gamma_lo: float, gamma_hi: float) -> np.ndarray:
    """Random-direction 4-velocity with gamma in [gamma_lo, gamma_hi]."""
    gamma = rng.uniform(gamma_lo, gamma_hi)
    spatial = np.sqrt(gamma * gamma - 1.0) * _unit(rng)
    return np.concatenate([[np.sqrt(1.0 + spatial @ spatial)], spatial])


def orthogonal_rows(rng: np.random.Generator, u0: np.ndarray, count: int, scale: float) -> np.ndarray:
    """``count`` random spacelike rows of Minkowski norm ``scale``,
    orthogonal to the unit timelike vector u0."""
    rows = rng.normal(size=(count, 4))
    for _ in range(2):  # the second pass removes the roundoff of the first
        rows = rows - mdot(rows, u0)[:, None] * u0[None, :]
    return scale * rows / np.sqrt(-mdot(rows, rows))[:, None]


def spin_pairs(xi: np.ndarray) -> list[float]:
    """Covariant S_{mu nu} pair components of the theta1 theta2 block."""
    c1 = SIGNS * xi[0]
    c2 = SIGNS * xi[1]
    spin = 0.5 * (np.outer(c1, c2) - np.outer(c2, c1))
    return [float(spin[m, n]) for m, n in PAIRS]


def check_preconditions(u0: np.ndarray, xi: np.ndarray) -> None:
    uu = float(mdot(u0, u0))
    if abs(uu - 1.0) > PRECONDITION_TOL:
        raise PreconditionError(f"u0 not normalized: u.u - 1 = {uu - 1.0:.3e}")
    for a, row in enumerate(xi):
        scale = float(np.max(np.abs(row)) * np.max(np.abs(u0)))
        if abs(float(mdot(row, u0))) > PRECONDITION_TOL * max(scale, 1.0):
            raise PreconditionError(f"xi row {a} is not orthogonal to u0")


def _floats(values) -> list:
    return [float(v) for v in np.ravel(values)]


def constant_field_spec(rng: np.random.Generator) -> dict:
    b = rng.uniform(0.5, 1.5) * _unit(rng)
    e = rng.uniform(0.0, 0.3) * _unit(rng)
    return {"kind": "constant", "E": _floats(e), "B": _floats(b)}


def polynomial_field_spec(rng: np.random.Generator) -> dict:
    """B along x3 with a gradient along x2, plus random quadratic terms in A_mu.

    The field is given by its potential, so it satisfies the homogeneous
    Maxwell identity by construction.
    """
    b0 = rng.uniform(0.5, 1.5)
    g = rng.uniform(0.02, 0.08)
    terms = [
        {"component": 1, "exponents": [0, 0, 1, 0], "coefficient": 0.5 * b0},
        {"component": 1, "exponents": [0, 0, 2, 0], "coefficient": g / 4.0},
        {"component": 2, "exponents": [0, 1, 0, 0], "coefficient": -0.5 * b0},
        {"component": 2, "exponents": [0, 1, 1, 0], "coefficient": -g / 2.0},
    ]
    for _ in range(3):
        exps = [0, 0, 0, 0]
        for axis in rng.integers(0, 4, size=2):
            exps[int(axis)] += 1
        sign = 1.0 if rng.random() < 0.5 else -1.0
        terms.append({
            "component": int(rng.integers(0, 4)),
            "exponents": exps,
            "coefficient": float(sign * rng.uniform(0.005, 0.02)),
        })
    return {"kind": "polynomial", "terms": terms}


def make_config(
    rng: np.random.Generator,
    *,
    field_kind: str,
    n_generators: int,
    steps: int,
    h: float,
    record_every: int,
    xi_rows: int,
    spin_as_tensor: bool,
    perturbation_scale: float = 0.05,
    compare_threshold: float | None = None,
    drift_threshold: float | None = None,
) -> tuple[dict, np.ndarray]:
    """One config document plus the full (xi_rows, 4) xi loading.

    Rows 0 and 1 carry the spin block; further rows are small odd
    perturbations.  The YAML holds rows 0 and 1 (the only load a config
    accepts), or their spin tensor when ``spin_as_tensor`` is set.
    """
    fld = constant_field_spec(rng) if field_kind == "constant" else polynomial_field_spec(rng)
    u0 = boosted_velocity(rng, 1.2, 3.0)
    x0 = np.concatenate([[0.0], rng.uniform(-0.5, 0.5, size=3)])
    xi = orthogonal_rows(rng, u0, xi_rows, 1.0)
    if xi_rows > 2:
        xi[2:] *= perturbation_scale
    check_preconditions(u0, xi)
    spin = {"s_tensor": spin_pairs(xi)} if spin_as_tensor else {"xi": [_floats(r) for r in xi[:2]]}
    cfg = {
        "params": {"mass": 1.0, "charge": 1.0, "mu_prime": float(rng.uniform(0.8, 1.6))},
        "field": fld,
        "initial": {"x0": _floats(x0), "u0": _floats(u0), "spin": spin},
        "integrator": {"h": float(h), "steps": int(steps), "record_every": int(record_every)},
        "algebra": {"n_generators": int(n_generators)},
        "seed": int(rng.integers(0, 2**31 - 1)),
    }
    if compare_threshold is not None:
        cfg["compare"] = {"threshold": float(compare_threshold), "enforce": True}
    if drift_threshold is not None:
        cfg["thresholds"] = {k: float(drift_threshold) for k in ("uu_drift", "us_drift", "ss_drift")}
    return cfg, xi


def write_and_validate(jobs: list[JobInput], workdir: str) -> None:
    """Write each job's YAML into ``workdir`` and load it back (untimed)."""
    from grasspin.config import load_config

    os.makedirs(workdir, exist_ok=True)
    for job in jobs:
        job.path = os.path.join(workdir, f"job{job.index:04d}.yaml")
        with open(job.path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(job.config, fh, sort_keys=True)
        job.loaded = load_config(job.path)
        check_preconditions(job.loaded.u0, job.xi)
