"""Run configuration: a single YAML document describing one simulation.

See ``configs/constant_b.yaml`` for an annotated example.  Validation
errors name the offending field; the command-line front end maps them to
exit code 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .fields import DirectField, FieldConfig, constant_field
from .grassmann import MAX_GENERATORS, algebra
from .minkowski import minkowski_dot, unpack_pairs
from .polynomials import Polynomial
from .super_dynamics import ModelParams, SuperState, spin_block

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Configuration file is invalid; message names the field."""


def _need(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"missing field {context}.{key}" if context else f"missing field {key}")
    return mapping[key]


def _mapping(value, name: str) -> dict:
    """A section's value, which must be a mapping (not empty, not a list)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping")
    return value


def _no_text(value, name: str, what: str) -> None:
    """Reject YAML strings and booleans, which float() and int() would take."""
    if isinstance(value, list):
        for v in value:
            _no_text(v, name, what)
    elif isinstance(value, (str, bool)):
        raise ConfigError(
            f"{name} must be {what}, got {value!r} (YAML reads quoted values, and "
            "exponents without a decimal point such as 1e-8, as text)"
        )


def _finite(value, name: str) -> np.ndarray:
    _no_text(value, name, "numeric")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name} must be numeric") from err
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite")
    return arr


def _number(value, name: str) -> float:
    arr = _finite(value, name)
    if arr.shape != ():
        raise ConfigError(f"{name} must be a number")
    return float(arr)


def _count(value, name: str) -> int:
    _no_text(value, name, "an integer")
    try:
        count = int(value)
        whole = count == float(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{name} must be an integer") from err
    if not whole:
        raise ConfigError(f"{name} must be an integer")
    return count


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false")
    return value


def _positive(value, name: str) -> float:
    number = _number(value, name)
    if number <= 0:
        raise ConfigError(f"{name} must be a positive number")
    return number


def _section(raw: dict, key: str, defaults: dict) -> dict:
    """An all-optional section with its ``defaults`` filled in.

    ``defaults`` names every key the section has, so a misspelt key is an
    error instead of a silent fall back to its default.
    """
    value = _mapping(raw.get(key, {}), key)
    for name in value:
        if name not in defaults:
            raise ConfigError(f"unknown field {key}.{name}")
    return {**defaults, **value}


_THRESHOLD_DEFAULTS = {"uu_drift": 1e-8, "us_drift": 1e-8, "ss_drift": 1e-8, "constraint": 1e-9}

_VERIFY_DEFAULTS = {
    "points": 100,
    "maxwell_tol": 1e-12,
    "expect_maxwell_fail": False,
    "constraint_tol": 1e-9,
    "variations": 4,
    "ratio_band": [2.5, 6.0],
    "stationarity_cap": 1e-2,
}


def _parse_verify(raw: dict) -> dict:
    """Check every key that the verify command reads."""
    out = dict(raw)
    for key in ("maxwell_tol", "constraint_tol", "stationarity_cap"):
        out[key] = _positive(raw[key], f"verify.{key}")
    for key in ("points", "variations"):
        out[key] = _count(raw[key], f"verify.{key}")
        if out[key] < 1:
            raise ConfigError(f"verify.{key} must be >= 1")
    out["expect_maxwell_fail"] = _flag(raw["expect_maxwell_fail"], "verify.expect_maxwell_fail")
    band = _finite(raw["ratio_band"], "verify.ratio_band")
    if band.shape != (2,) or band[0] > band[1]:
        raise ConfigError("verify.ratio_band must be [low, high] with low <= high")
    out["ratio_band"] = [float(b) for b in band]
    return out


def _vec4(value, name: str) -> np.ndarray:
    arr = _finite(value, name)
    if arr.shape != (4,):
        raise ConfigError(f"{name} must be a 4-vector")
    return arr


@dataclass
class FieldSpec:
    kind: str
    e_field: np.ndarray | None = None
    b_field: np.ndarray | None = None
    terms: list | None = None
    f_terms: list | None = None

    def build(self):
        """The field; a term whose derivatives overflow is a ConfigError."""
        try:
            return self._build()
        except ValueError as err:
            raise ConfigError(f"field: {err}") from err

    def _build(self):
        if self.kind == "constant":
            return constant_field(self.e_field, self.b_field)
        if self.kind == "polynomial":
            entries = []
            for t in self.terms:
                entries.append((t["component"], tuple(t["exponents"]), t["coefficient"]))
            return FieldConfig.from_entries(entries)
        comps: dict[tuple[int, int], Polynomial] = {}
        for t in self.f_terms:
            m, n = (int(v) for v in t["pair"])
            poly = comps.get((m, n), Polynomial.zero())
            comps[(m, n)] = poly + Polynomial.from_entries(
                [(tuple(t["exponents"]), t["coefficient"])]
            )
        return DirectField(comps)


@dataclass
class RunConfig:
    params: ModelParams
    field: FieldSpec
    x0: np.ndarray
    u0: np.ndarray
    spin_tensor: np.ndarray | None    # six covariant pair components
    xi_coeffs: np.ndarray | None      # (2, 4) generator loadings
    h: float
    steps: int
    record_every: int
    n_generators: int
    seed: int
    coefficient_masks: list[int] = field(default_factory=list)
    thresholds: dict = field(default_factory=dict)
    compare_threshold: float = 1e-6
    compare_enforce: bool = True
    verify: dict = field(default_factory=dict)

    def build_field(self):
        return self.field.build()

    def build_super_state(self) -> SuperState:
        if self.xi_coeffs is None:
            raise ConfigError("initial.spin.xi is required for the full dynamics")
        return SuperState.from_real(self.x0, self.u0, self.xi_coeffs, algebra(self.n_generators))

    def spin_tensor_matrix(self) -> np.ndarray:
        """Covariant S_{mu nu} from whichever spin specification is present."""
        if self.spin_tensor is not None:
            return unpack_pairs(self.spin_tensor)
        return spin_block(self.xi_coeffs[0], self.xi_coeffs[1])


# Largest total degree of one written field term.  The field's evaluator
# forms Taylor orders only up to MAX_GENERATORS // 2, so a term's build cost
# follows its multi-indices alpha <= e of order at most 8, not its degree: a
# (3, 3, 3, 3) potential term builds in about 0.2 s, (0, 0, 0, 12) in 10 ms.
MAX_TERM_DEGREE = 12


def _term_list(raw: dict, key: str, fields: tuple[str, ...]) -> list:
    """Check ``field.<key>``: mappings with ``fields``, whole non-negative
    exponents of total degree at most ``MAX_TERM_DEGREE`` and a finite
    coefficient."""
    terms = _need(raw, key, "field")
    if not isinstance(terms, list) or not all(isinstance(t, dict) for t in terms):
        raise ConfigError(f"field.{key} must be a list of mappings")
    for i, t in enumerate(terms):
        name = f"field.{key}[{i}]"
        if not set(fields) <= set(t):
            raise ConfigError(f"{name} needs {', '.join(fields)}")
        exps = t["exponents"]
        if not isinstance(exps, list) or len(exps) != 4:
            raise ConfigError(f"{name}.exponents must have 4 entries")
        exps = [_count(e, f"{name}.exponents") for e in exps]
        if any(e < 0 for e in exps):
            raise ConfigError(f"{name}.exponents must be >= 0")
        if sum(exps) > MAX_TERM_DEGREE:
            raise ConfigError(
                f"{name} has total degree {sum(exps)}, above the maximum {MAX_TERM_DEGREE}"
            )
        _number(t["coefficient"], f"{name}.coefficient")
    return terms


def _parse_field(raw: dict) -> FieldSpec:
    kind = _need(raw, "kind", "field")
    if kind == "constant":
        e = _finite(raw.get("E", [0.0, 0.0, 0.0]), "field.E")
        b = _finite(raw.get("B", [0.0, 0.0, 0.0]), "field.B")
        if e.shape != (3,) or b.shape != (3,):
            raise ConfigError("field.E and field.B must be 3-vectors")
        return FieldSpec(kind="constant", e_field=e, b_field=b)
    if kind == "polynomial":
        terms = _term_list(raw, "terms", ("component", "exponents", "coefficient"))
        for i, t in enumerate(terms):
            if not 0 <= _count(t["component"], f"field.terms[{i}].component") <= 3:
                raise ConfigError(f"field.terms[{i}].component must be 0..3")
        return FieldSpec(kind="polynomial", terms=terms)
    if kind == "direct":
        f_terms = _term_list(raw, "f_terms", ("pair", "exponents", "coefficient"))
        for i, t in enumerate(f_terms):
            name = f"field.f_terms[{i}].pair"
            if not isinstance(t["pair"], list) or len(t["pair"]) != 2:
                raise ConfigError(f"{name} must be [m, n]")
            m, n = (_count(v, name) for v in t["pair"])
            if not 0 <= m < n <= 3:
                raise ConfigError(f"{name} must satisfy 0 <= m < n <= 3")
        return FieldSpec(kind="direct", f_terms=f_terms)
    raise ConfigError(f"field.kind must be constant, polynomial or direct, got {kind!r}")


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration document must be a mapping")

    p = _mapping(_need(raw, "params", ""), "params")
    try:
        params = ModelParams(
            mass=_number(_need(p, "mass", "params"), "params.mass"),
            charge=_number(_need(p, "charge", "params"), "params.charge"),
            mu_prime=_number(_need(p, "mu_prime", "params"), "params.mu_prime"),
        )
    except ValueError as err:
        raise ConfigError(f"params: {err}") from err

    fieldspec = _parse_field(_mapping(_need(raw, "field", ""), "field"))

    init = _mapping(_need(raw, "initial", ""), "initial")
    x0 = _vec4(_need(init, "x0", "initial"), "initial.x0")
    u0 = _vec4(_need(init, "u0", "initial"), "initial.u0")
    uu = float(minkowski_dot(u0, u0))
    if abs(uu - 1.0) >= 1e-6:
        raise ConfigError(
            f"initial.u0 is not normalized: u.u = {uu!r} (|u.u - 1| must be < 1e-6)"
        )
    if uu != 1.0:
        if abs(uu - 1.0) > 1e-13:  # silent below roundoff scale
            warnings.warn(f"initial.u0 rescaled: u.u = {uu!r}", stacklevel=2)
        u0 = u0 / np.sqrt(uu)

    spin = _mapping(_need(init, "spin", "initial"), "initial.spin")
    s_tensor = spin.get("s_tensor")
    xi = spin.get("xi")
    if (s_tensor is None) == (xi is None):
        raise ConfigError("initial.spin must give exactly one of s_tensor, xi")
    if s_tensor is not None:
        s_tensor = _finite(s_tensor, "initial.spin.s_tensor")
        if s_tensor.shape != (6,):
            raise ConfigError("initial.spin.s_tensor must list 6 components")
    if xi is not None:
        xi = _finite(xi, "initial.spin.xi")
        if xi.shape != (2, 4):
            raise ConfigError("initial.spin.xi must be a (2, 4) coefficient array")

    integ = _mapping(_need(raw, "integrator", ""), "integrator")
    h = _number(_need(integ, "h", "integrator"), "integrator.h")
    steps = _count(_need(integ, "steps", "integrator"), "integrator.steps")
    record_every = _count(integ.get("record_every", 1), "integrator.record_every")
    if h <= 0:
        raise ConfigError("integrator.h must be positive")
    if steps < 1:
        raise ConfigError("integrator.steps must be >= 1")
    if record_every < 1:
        raise ConfigError("integrator.record_every must be >= 1")

    alg_raw = _section(raw, "algebra", {"n_generators": 4})
    n_gen = _count(alg_raw["n_generators"], "algebra.n_generators")
    if not 2 <= n_gen <= MAX_GENERATORS:
        raise ConfigError(f"algebra.n_generators must be in [2, {MAX_GENERATORS}]")

    seed = _count(raw.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError("seed must be >= 0")

    mask_raw = _section(raw, "output", {"coefficient_masks": []})["coefficient_masks"]
    if not isinstance(mask_raw, list):
        raise ConfigError("output.coefficient_masks must be a list")
    masks = [_count(m, "output.coefficient_masks") for m in mask_raw]
    if any(not 0 <= m < (1 << n_gen) for m in masks):
        raise ConfigError("output.coefficient_masks entries must be valid subset masks")

    thresholds = {
        name: _positive(value, f"thresholds.{name}")
        for name, value in _section(raw, "thresholds", _THRESHOLD_DEFAULTS).items()
    }
    cmp_raw = _section(raw, "compare", {"threshold": 1e-6, "enforce": True})
    return RunConfig(
        params=params,
        field=fieldspec,
        x0=x0,
        u0=u0,
        spin_tensor=s_tensor,
        xi_coeffs=xi,
        h=h,
        steps=steps,
        record_every=record_every,
        n_generators=n_gen,
        seed=seed,
        coefficient_masks=masks,
        thresholds=thresholds,
        compare_threshold=_positive(cmp_raw["threshold"], "compare.threshold"),
        compare_enforce=_flag(cmp_raw["enforce"], "compare.enforce"),
        verify=_parse_verify(_section(raw, "verify", _VERIFY_DEFAULTS)),
    )


def load_config(path: str) -> RunConfig:
    """Read and validate one YAML config.

    The document is parsed with libyaml's ``yaml.CSafeLoader``, or with the
    pure-Python ``yaml.SafeLoader`` where PyYAML was built without libyaml.
    Both share the safe resolver and constructor, so they return equal
    documents; only the wording of a parse error differs.
    """
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=loader)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse config: {err}") from err
    return parse_config(raw)
