"""Command-line behavior: exit codes, determinism, golden regression."""

import argparse
import copy
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import grasspin.cli as cli
from grasspin.cli import _check_finite, main
from grasspin.config import ConfigError, load_config, parse_config
from grasspin.minkowski import SIGNS
from grasspin.polynomials import PolyVectorEvaluator
from grasspin.super_dynamics import LightlikeVelocityError, NumericalAbortError

from conftest import load_script

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "bmt_regression.csv"


BASE = {
    "params": {"mass": 1.0, "charge": 1.0, "mu_prime": 1.2},
    "field": {"kind": "constant", "E": [0.0, 0.0, 0.0], "B": [0.0, 0.0, 1.0]},
    "initial": {
        "x0": [0.0, 0.0, 0.0, 0.0],
        "u0": [2.0, 1.7320508075688772, 0.0, 0.0],
        "spin": {"xi": [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]},
    },
    "integrator": {"h": 2 * np.pi / 1000, "steps": 300, "record_every": 50},
    "algebra": {"n_generators": 4},
    "seed": 4242,
}


def write_cfg(tmp_path, overrides=None, name="cfg.yaml"):
    cfg = copy.deepcopy(BASE)
    for path, value in (overrides or {}).items():
        node = cfg
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return str(p)


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestExitCodes:
    def test_config_error_names_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"initial.u0": [2.0, 1.0, 0.0, 0.0]})
        code = main(["simulate-super", "--config", cfg])
        assert code == 2
        assert "initial.u0" in capsys.readouterr().err

    def test_missing_section(self, tmp_path, capsys):
        raw = copy.deepcopy(BASE)
        del raw["integrator"]
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(raw))
        assert main(["simulate-bmt", "--config", str(p)]) == 2
        assert "integrator" in capsys.readouterr().err

    def test_bmt_requires_tensor_spin(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["simulate-bmt", "--config", cfg]) == 2
        assert "s_tensor" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate-super", "compare"])
    def test_grassmann_run_requires_xi(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, {"initial.spin": {"s_tensor": [0, 0, 0, 0, 0, 0.5]}})
        assert main([command, "--config", cfg]) == 2
        assert "initial.spin.xi is required" in capsys.readouterr().err

    def test_direct_field_only_for_verify(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {"field": {"kind": "direct",
                       "f_terms": [{"pair": [1, 2], "exponents": [0, 0, 0, 1],
                                    "coefficient": 1.0}]}},
        )
        assert main(["simulate-super", "--config", cfg]) == 2

    def test_overflow_is_numerical_abort(self, tmp_path, capsys):
        # finite input whose run overflows: u grows like exp(1000 s)
        cfg = write_cfg(tmp_path, {
            "field": {"kind": "constant", "E": [1000.0, 0.0, 0.0], "B": [0.0, 0.0, 0.0]},
            "initial.spin": {"s_tensor": [0, 0, 0, 0, 0, 0.5]},
        })
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate-bmt", "--config", cfg, "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate-super", "compare", "verify"])
    def test_grassmann_overflow_is_numerical_abort(self, tmp_path, capsys, command):
        # finite input whose Grassmann run overflows: B = 1e200 at h = 1
        cfg = write_cfg(tmp_path, {
            "field": {"kind": "constant", "E": [0.0, 0.0, 0.0], "B": [0.0, 0.0, 1e200]},
            "integrator": {"h": 1.0, "steps": 8, "record_every": 1},
            "verify": {"points": 4},
        })
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "numerical abort: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "simulate-super", "verify"])
    def test_overflowing_potential_term_is_config_error(self, tmp_path, capsys, command):
        # finite coefficient whose derivative 3e308 x1^2 overflows
        cfg = write_cfg(tmp_path, {"field": {"kind": "polynomial", "terms": [
            {"component": 1, "exponents": [0, 3, 0, 0], "coefficient": 1e308}]}})
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: field: potential component 1, term (0, 3, 0, 0)" in err

    @pytest.mark.parametrize("command", ["simulate-bmt", "simulate-super", "compare", "verify"])
    @pytest.mark.parametrize("key, term", [
        ("terms", {"component": 1}), ("f_terms", {"pair": [1, 2]}),
    ])
    @pytest.mark.parametrize("degree", [13, 200])
    def test_term_degree_above_maximum_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                       command, key, term, degree):
        """Rejected at parse time, before any field evaluator is built."""
        built = []
        init = PolyVectorEvaluator.__init__
        monkeypatch.setattr(PolyVectorEvaluator, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        kind = "polynomial" if key == "terms" else "direct"
        entry = {**term, "exponents": [0, 0, 0, degree], "coefficient": 1.0}
        cfg = write_cfg(tmp_path, {"field": {"kind": kind, key: [entry]}})
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"field.{key}[0] has total degree {degree}, above the maximum 12" in err
        assert not built

    def test_term_degree_at_maximum_is_accepted(self):
        raw = copy.deepcopy(BASE)
        raw["field"] = {"kind": "polynomial", "terms": [
            {"component": 1, "exponents": [3, 3, 3, 3], "coefficient": 1.0}]}
        assert parse_config(raw).field.terms[0]["exponents"] == [3, 3, 3, 3]

    @pytest.mark.parametrize("path", [
        "thresholds.uu_drfit", "compare.treshold", "verify.point",
        "output.coefficient_mask", "algebra.n_generator",
    ])
    def test_unknown_section_key_rejected(self, tmp_path, capsys, path):
        # a misspelt optional key must not fall back to its default silently
        cfg = write_cfg(tmp_path, {path: 1})
        assert main(["simulate-super", "--config", cfg]) == 2
        assert path in capsys.readouterr().err

    def test_non_finite_is_not_a_lightlike_velocity(self):
        with pytest.raises(NumericalAbortError, match="non-finite") as info:
            _check_finite(np.zeros(3), np.array([1.0, np.inf]))
        assert not isinstance(info.value, LightlikeVelocityError)

    @pytest.mark.parametrize("path, value, name", [
        ("params.mass", float("nan"), "mass"),
        ("params.charge", float("inf"), "charge"),
        ("params.mu_prime", float("nan"), "mu_prime"),
        ("integrator.h", float("nan"), "integrator.h"),
        ("integrator.h", float("inf"), "integrator.h"),
        ("integrator.steps", float("nan"), "integrator.steps"),
        ("integrator.record_every", float("inf"), "integrator.record_every"),
        ("initial.x0", [0.0, float("nan"), 0.0, 0.0], "initial.x0"),
        ("initial.u0", [float("nan"), 0.0, 0.0, 0.0], "initial.u0"),
        ("initial.x0", ["a", 0.0, 0.0, 0.0], "initial.x0"),
        ("initial.spin", {"xi": [[0.0, 0.0, float("inf"), 0.0], [0.0, 0.0, 0.0, 1.0]]},
         "initial.spin.xi"),
        ("initial.spin", {"s_tensor": [0, 0, 0, 0, 0, float("nan")]}, "initial.spin.s_tensor"),
        ("field.E", [float("nan"), 0.0, 0.0], "field.E"),
        ("field.B", [0.0, 0.0, float("-inf")], "field.B"),
        ("field", {"kind": "polynomial",
                   "terms": [{"component": 1, "exponents": [0, 0, 1, 0],
                              "coefficient": float("nan")}]},
         "field.terms[0].coefficient"),
        ("field", {"kind": "direct",
                   "f_terms": [{"pair": [1, 2], "exponents": [0, 0, 0, 0],
                                "coefficient": float("inf")}]},
         "field.f_terms[0].coefficient"),
        ("algebra.n_generators", float("nan"), "algebra.n_generators"),
        ("seed", float("nan"), "seed"),
        ("seed", -1, "seed"),
        ("output.coefficient_masks", [float("nan")], "output.coefficient_masks"),
        ("compare.threshold", "abc", "compare.threshold"),
        ("compare.threshold", 0.0, "compare.threshold"),
        ("thresholds.uu_drift", float("nan"), "thresholds.uu_drift"),
        ("thresholds.constraint", -1e-9, "thresholds.constraint"),
        ("verify.maxwell_tol", "abc", "verify.maxwell_tol"),
        ("verify.constraint_tol", float("inf"), "verify.constraint_tol"),
        ("verify.stationarity_cap", -1.0, "verify.stationarity_cap"),
        ("verify.points", float("nan"), "verify.points"),
        ("verify.variations", 0, "verify.variations"),
        ("verify.ratio_band", [float("nan"), 6.0], "verify.ratio_band"),
        ("integrator.steps", 2.5, "integrator.steps"),
        ("thresholds", [1e-9], "thresholds"),
        ("field", {"kind": "polynomial",
                   "terms": [{"component": 1, "exponents": [0, 0, -1, 0],
                              "coefficient": 0.5}]},
         "field.terms[0].exponents"),
        ("field", {"kind": "polynomial",
                   "terms": [{"component": 1, "exponents": [0, 0, 1.5, 0],
                              "coefficient": 0.5}]},
         "field.terms[0].exponents"),
        ("field", {"kind": "polynomial",
                   "terms": [{"component": 1.5, "exponents": [0, 0, 1, 0],
                              "coefficient": 0.5}]},
         "field.terms[0].component"),
        ("field", {"kind": "polynomial",
                   "terms": [{"component": "x", "exponents": [0, 0, 1, 0],
                              "coefficient": 0.5}]},
         "field.terms[0].component"),
        ("field", {"kind": "polynomial",
                   "terms": [{"component": 1, "exponents": [0, 0, 1, 0],
                              "coefficient": [0.5]}]},
         "field.terms[0].coefficient"),
        ("field", {"kind": "polynomial", "terms": 5}, "field.terms"),
        ("field", {"kind": "direct",
                   "f_terms": [{"pair": [1.5, 2], "exponents": [0, 0, 0, 0],
                                "coefficient": 1.0}]},
         "field.f_terms[0].pair"),
        ("field", {"kind": "direct",
                   "f_terms": [{"pair": [1, 2], "exponents": [0, 0, 0, -1],
                                "coefficient": 1.0}]},
         "field.f_terms[0].exponents"),
        ("compare.enforce", "false", "compare.enforce"),
        ("verify.expect_maxwell_fail", "yes", "verify.expect_maxwell_fail"),
        ("integrator.steps", "300", "integrator.steps"),
        ("integrator.h", "0.01", "integrator.h"),
        ("params.mass", True, "params.mass"),
        ("initial.x0", ["0", 0, 0, 0], "initial.x0"),
        ("algebra.n_generators", "4", "algebra.n_generators"),
        ("seed", True, "seed"),
        ("field.B", [0, 0, True], "field.B"),
        ("thresholds.uu_drift", "1e-8", "thresholds.uu_drift"),
        ("verify.points", "10", "verify.points"),
        ("initial.x0", {"a": 1.0}, "initial.x0 must be numeric"),
        ("verify.ratio_band", [2.5], "verify.ratio_band must be [low, high]"),
        ("verify.ratio_band", [6.0, 2.5], "verify.ratio_band must be [low, high]"),
        ("initial.x0", [0.0, 0.0, 0.0], "initial.x0 must be a 4-vector"),
        ("field", {"kind": "polynomial", "terms": [{"component": 1, "exponents": [0, 0, 1, 0]}]},
         "field.terms[0] needs component, exponents, coefficient"),
        ("field", {"kind": "polynomial",
                   "terms": [{"component": 1, "exponents": [0, 1, 0], "coefficient": 0.5}]},
         "field.terms[0].exponents must have 4 entries"),
        ("field.E", [0.0, 0.0], "field.E and field.B must be 3-vectors"),
        ("field.B", [0.0, 0.0, 1.0, 0.0], "field.E and field.B must be 3-vectors"),
        ("field", {"kind": "polynomial",
                   "terms": [{"component": 4, "exponents": [0, 0, 1, 0], "coefficient": 0.5}]},
         "field.terms[0].component must be 0..3"),
        ("field", {"kind": "direct",
                   "f_terms": [{"pair": [1], "exponents": [0, 0, 0, 0], "coefficient": 1.0}]},
         "field.f_terms[0].pair must be [m, n]"),
        ("field", {"kind": "direct",
                   "f_terms": [{"pair": [2, 1], "exponents": [0, 0, 0, 0], "coefficient": 1.0}]},
         "field.f_terms[0].pair must satisfy 0 <= m < n <= 3"),
        ("field.kind", "uniform", "field.kind must be constant, polynomial or direct"),
        ("initial.spin", {"xi": [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
                          "s_tensor": [0, 0, 0, 0, 0, 0.5]},
         "initial.spin must give exactly one of s_tensor, xi"),
        ("initial.spin", {}, "initial.spin must give exactly one of s_tensor, xi"),
        ("initial.spin", {"s_tensor": [0, 0, 0, 0, 0.5]},
         "initial.spin.s_tensor must list 6 components"),
        ("initial.spin", {"xi": [[0.0, 0.0, 1.0, 0.0]]},
         "initial.spin.xi must be a (2, 4) coefficient array"),
        ("integrator.h", 0.0, "integrator.h must be positive"),
        ("integrator.h", -0.01, "integrator.h must be positive"),
        ("integrator.steps", 0, "integrator.steps must be >= 1"),
        ("integrator.record_every", 0, "integrator.record_every must be >= 1"),
        ("algebra.n_generators", 1, "algebra.n_generators must be in [2, 16]"),
        ("algebra.n_generators", 17, "algebra.n_generators must be in [2, 16]"),
        ("output.coefficient_masks", 3, "output.coefficient_masks must be a list"),
        ("output.coefficient_masks", [3, 16],
         "output.coefficient_masks entries must be valid subset masks"),
        ("output.coefficient_masks", [-1],
         "output.coefficient_masks entries must be valid subset masks"),
    ])
    def test_bad_number_rejected(self, tmp_path, capsys, path, value, name):
        cfg = write_cfg(tmp_path, {path: value})
        assert main(["simulate-super", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: " in err and name in err

    @pytest.mark.parametrize("option, value", [
        ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "-0.5"),
        ("--seed", "-1"),
    ])
    def test_bad_option_number_rejected(self, tmp_path, capsys, option, value):
        cfg = write_cfg(tmp_path)
        command = "verify" if option == "--seed" else "compare"
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg, option, value])
        assert info.value.code == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("command, option, value", [
        ("simulate-bmt", "--threshold", "0.1"), ("simulate-bmt", "--seed", "3"),
        ("simulate-super", "--threshold", "0.1"), ("simulate-super", "--seed", "3"),
        ("compare", "--seed", "3"), ("verify", "--threshold", "0.1"),
    ])
    def test_option_of_another_subcommand_rejected(self, tmp_path, capsys, command, option,
                                                   value):
        cfg = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg, option, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "simulate-bmt"])
    @pytest.mark.parametrize("path", ["params", "field", "initial", "initial.spin", "integrator"])
    @pytest.mark.parametrize("value", [None, [1.0]], ids=["empty", "list"])
    def test_section_not_a_mapping_rejected(self, tmp_path, capsys, command, path, value):
        cfg = write_cfg(tmp_path, {path: value})
        assert main([command, "--config", cfg]) == 2
        assert f"{path} must be a mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [1, 3])
    def test_verify_rejects_too_few_steps(self, tmp_path, capsys, steps):
        cfg = write_cfg(tmp_path, {"integrator.steps": steps, "integrator.record_every": 1,
                                   "verify": {"points": 1}})
        assert main(["verify", "--config", cfg]) == 2
        assert "integrator.steps" in capsys.readouterr().err

    def test_threshold_fail_exit(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "initial.spin": {"s_tensor": [0, 0, 0, 0, 0, 0.5]},
            "thresholds": {"uu_drift": 1e-30},
        })
        assert main(["simulate-bmt", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1


class TestConfigBoundaries:
    """Config reading and output routing that the field checks above do not
    reach."""

    @pytest.mark.parametrize("text, message", [
        ("- 1\n- 2\n", "configuration document must be a mapping"),
        (None, "cannot read config"),
    ], ids=["list-document", "missing-file"])
    def test_unreadable_document(self, tmp_path, capsys, text, message):
        p = tmp_path / "cfg.yaml"
        if text is not None:
            p.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(str(p))
        assert main(["simulate-super", "--config", str(p)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_u0_rescale_warns(self):
        raw = copy.deepcopy(BASE)
        u0 = np.array(raw["initial"]["u0"])
        raw["initial"]["u0"] = list(u0 * (1.0 + 1e-8))
        with pytest.warns(UserWarning, match="initial.u0 rescaled"):
            cfg = parse_config(raw)
        assert abs(float(cfg.u0 @ (SIGNS * cfg.u0)) - 1.0) < 1e-15

    @pytest.mark.parametrize("command, header, summary", [
        ("simulate-bmt", "s,x0,", "uu_drift:"),
        ("simulate-super", "s,x0,", "constraint_max:"),
        ("compare", "s,dev_x,", "max deviation x:"),
    ])
    def test_csv_to_stdout_without_out(self, tmp_path, capsys, command, header, summary):
        spin = {"s_tensor": [0, 0, 0, 0, 0, 0.5]} if command == "simulate-bmt" else BASE[
            "initial"]["spin"]
        cfg = write_cfg(tmp_path, {"initial.spin": spin})
        assert main([command, "--config", cfg]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(header) and len(out.splitlines()) == 8   # header + 7 records
        assert summary in err and summary not in out


class TestRecordBudget:
    """simulate-super, compare and verify run in algebra(2), and refuse,
    before they build a state, a run whose records and monitors would
    exceed ``cli.MAX_RECORD_BYTES``; verify counts both its runs at once."""

    @pytest.fixture
    def no_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no state is built or integrated")
        monkeypatch.setattr(cli, "integrate_super", refuse)
        monkeypatch.setattr(cli.SuperState, "from_real", refuse)

    def test_estimate_at_sixteen_generators(self, tmp_path):
        # N = 16 does not size the run: 2001 records of x, v and xi, (4, 4)
        # float64 each, and the monitors of 2001 states, 6 x 4 float64 each;
        # lifted into algebra(16) the records took 12.6 GB
        assert cli._record_bytes(2000, 1) == 2001 * 3 * 4 * 4 * 8 + 2001 * 6 * 4 * 8
        cfg = write_cfg(tmp_path, {"algebra.n_generators": 16,
                                   "output.coefficient_masks": [3],
                                   "integrator.steps": 2000, "integrator.record_every": 1})
        out = tmp_path / "o.csv"
        assert main(["simulate-super", "--config", cfg, "--out", str(out)]) == 0
        data = read_csv(out)
        assert len(data) == 2001

    @pytest.mark.parametrize("steps, every, records", [(300, 50, 7), (301, 50, 8), (1, 1, 2)])
    def test_estimate_counts_records_as_the_run_does(self, tmp_path, monkeypatch, steps, every,
                                                     records):
        runs, integrate = [], cli.integrate_super
        monkeypatch.setattr(cli, "integrate_super",
                            lambda *a: runs.append(integrate(*a)) or runs[0])
        cfg = write_cfg(tmp_path, {"integrator.steps": steps, "integrator.record_every": every,
                                   "integrator.h": 1e-3})
        out = tmp_path / "o.csv"
        assert main(["simulate-super", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == records + 1
        (traj,) = runs
        assert traj.alg.n == 2 and len(traj) == records
        assert traj.constraint_max.size == traj.lambda_max.size == steps + 1
        assert cli._record_bytes(steps, every) == records * 3 * 4 * 4 * 8 + (steps + 1) * 192

    @pytest.mark.parametrize("command", ["simulate-super", "compare", "verify"])
    def test_oversized_records_exit_2_before_the_run(self, tmp_path, capsys, no_run, command):
        cfg = write_cfg(tmp_path, {"integrator.steps": 2 * 10**6, "integrator.record_every": 1,
                                   "verify": {"points": 1}})
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        if command == "verify":
            # both runs, of 2e6 and 4e6 steps, every step recorded: one check
            assert "verify's two runs would take 3.5 GB" in err
            assert "lower integrator.steps (2000000)" in err and "record_every" not in err
        else:
            assert "records of 2000000 steps would take 1.2 GB" in err
            for name in ("integrator.steps", "integrator.record_every"):
                assert name in err

    VERIFY_20 = {"integrator.steps": 20, "integrator.record_every": 1,
                 "verify": {"points": 1, "variations": 1}}

    def test_verify_estimate_counts_what_verify_keeps(self, tmp_path, monkeypatch):
        size = cli._record_bytes(40, 1) + cli._record_bytes(20, 1)
        monkeypatch.setattr(cli, "MAX_RECORD_BYTES", size)
        runs, paths = [], []
        integrate, path_type = cli.integrate_super, cli.DiscretePath
        monkeypatch.setattr(cli, "integrate_super",
                            lambda *a: runs.append(integrate(*a)) or runs[-1])
        monkeypatch.setattr(cli, "DiscretePath",
                            lambda *a: paths.append(path_type(*a)) or paths[-1])
        cfg = write_cfg(tmp_path, self.VERIFY_20)
        assert main(["verify", "--config", cfg]) != 2
        assert [len(t) for t in runs] == [21, 41] and len(paths) == 2
        assert sum(t.x.nbytes + t.v.nbytes + t.xi.nbytes + t.constraint_max.size * 192
                   for t in runs) == size
        for t, path in zip(runs, paths):
            # the paths keep no copy of their own
            assert np.shares_memory(path.x, t.x) and np.shares_memory(path.xi, t.xi)

    def test_verify_refused_before_either_run(self, tmp_path, monkeypatch, capsys, no_run):
        monkeypatch.setattr(cli, "MAX_RECORD_BYTES",
                            cli._record_bytes(40, 1) + cli._record_bytes(20, 1) - 1)
        cfg = write_cfg(tmp_path, self.VERIFY_20)
        assert main(["verify", "--config", cfg]) == 2
        assert "verify's two runs would take" in capsys.readouterr().err

    @pytest.mark.parametrize("spare, code", [(0, 0), (-1, 2)])
    def test_budget_is_inclusive(self, tmp_path, monkeypatch, spare, code):
        monkeypatch.setattr(cli, "MAX_RECORD_BYTES", cli._record_bytes(300, 50) + spare)
        cfg = write_cfg(tmp_path)
        assert main(["simulate-super", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == code


class TestParserReuse:
    """``main`` builds its parser once per process; a call's options do not
    leak into the next call."""

    def test_one_parser_per_process(self, tmp_path, monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        cfg = write_cfg(tmp_path)
        for command in ("compare", "simulate-super", "compare"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        assert progs.count("grasspin") == 1
        assert len(progs) == 5      # the parser and its four subcommands, once

    def test_calls_in_one_process_match_lone_calls(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "integrator": {"h": 2 * np.pi / 1000, "steps": 150, "record_every": 1},
            "verify": {"points": 8, "variations": 2},
        })
        calls = [["compare", "--threshold", "1e-30"], ["compare"],
                 ["verify", "--seed", "7"], ["verify"]]
        together = []
        for k, call in enumerate(calls):
            out = tmp_path / f"together{k}.csv"
            code = main([*call, "--config", cfg, "--out", str(out)])
            together.append((code, out.read_bytes(), capsys.readouterr().out))
        assert [t[0] for t in together] == [1, 0, 0, 0]
        for k, call in enumerate(calls):
            out = tmp_path / f"alone{k}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "grasspin.cli", *call, "--config", cfg, "--out", str(out)],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
            assert (proc.returncode, out.read_bytes(), proc.stdout) == together[k], call

    def test_bad_option_after_good_calls_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "o.csv")
        assert main(["compare", "--config", cfg, "--out", out, "--threshold", "0.5"]) == 0
        assert main(["verify", "--config", cfg, "--seed", "3"]) == 0
        for bad in (["compare", "--config", cfg, "--seed", "3"],
                    ["compare", "--config", cfg, "--threshold", "nan"],
                    ["simulate-bmt", "--config", cfg, "--threshold", "0.5"]):
            with pytest.raises(SystemExit) as info:
                main(bad)
            assert info.value.code == 2
        assert "--threshold" in capsys.readouterr().err
        assert main(["compare", "--config", cfg, "--out", out]) == 0


class TestLoading:
    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
    @pytest.mark.parametrize("text", [
        "params: {mass: 1.0, charge: 1.0, mu_prime: 1.2}\ninitial:\n  x0: [0.0, 0.0, 0.0\n",
        "params:\n\tmass: 1.0\n",
    ], ids=["unclosed-bracket", "tab-indent"])
    def test_unparseable_config(self, tmp_path, capsys, monkeypatch, text, libyaml):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        assert main(["simulate-bmt", "--config", str(p)]) == 2
        assert "cannot parse config" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                             ids=lambda p: p.name)
    def test_shipped_config_parses_alike_under_both_loaders(self, path):
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_import_leaves_scipy_unloaded(self):
        # neither the package, its CLI nor the constant-field oracle loads
        # scipy, whose import costs more than the rest of the package
        code = "\n".join([
            "import sys; sys.path.insert(0, sys.argv[1]); import grasspin, grasspin.cli",
            "from grasspin import BMTState, ConstantFieldOracle, ModelParams, constant_f_lower",
            "state = BMTState([0, 0, 0, 0], [1.25, 0.75, 0, 0], [[0, 0, 0, 0]] * 4)",
            "f = constant_f_lower([0.3, -0.1, 0.2], [0.5, 0.2, 1.0])",
            "oracle = ConstantFieldOracle(state, f, ModelParams(1.0, 1.0, 1.2))",
            "oracle.sample([0.0, 0.25, 0.5]); oracle.state_at(1.0)",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


class TestSimulateBmt:
    def test_golden_regression(self, tmp_path):
        out = tmp_path / "reg.csv"
        code = main([
            "simulate-bmt",
            "--config", str(ROOT / "configs" / "bmt_regression.yaml"),
            "--out", str(out),
        ])
        assert code == 0
        got = read_csv(out)
        want = read_csv(GOLDEN)
        assert got.dtype.names == want.dtype.names
        for name in got.dtype.names:
            assert np.max(np.abs(got[name] - want[name])) < 1e-10

    def test_golden_matches_oracle(self):
        # rebuild the golden rows in memory; the file itself is never rewritten
        rebuilt = load_script("make_golden").golden_lines()
        committed = GOLDEN.read_text(encoding="utf-8").splitlines()
        assert rebuilt[0] == committed[0]
        assert len(rebuilt) == len(committed)
        got = np.array([[float(v) for v in line.split(",")] for line in rebuilt[1:]])
        want = np.array([[float(v) for v in line.split(",")] for line in committed[1:]])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_timings_cli_case(self, tmp_path):
        # one fresh CLI process, measured as the timing tool's cli case does
        timings = load_script("timings")
        code, wall, rss, digest = timings.cli_call(
            ROOT, ["simulate-bmt", "--config", "configs/bmt_regression.yaml"], tmp_path / "log")
        assert code == 0 and wall > 0 and rss > 0
        assert re.fullmatch("[0-9a-f]{16}", digest)
        assert timings.main([str(ROOT), "bogus"]) == 2

    def test_timings_oracle_case(self, tmp_path):
        # the oracle's first and median sample calls and its child's peak RSS
        got = load_script("timings").measure(ROOT, ("oracle", 0, "constant_eb"), [],
                                             tmp_path / "log")
        assert set(got) == {"first call ms", "call", "peak rss MB"}
        assert all(value > 0 for value in got.values())

    def test_timings_bmt_case(self, tmp_path):
        # a whole integrate_bmt call and its body alone, per step
        got = load_script("timings").measure(ROOT, ("bmt", 0, "gradient_b"), [], tmp_path / "log")
        assert set(got) == {"step", "body"}
        assert all(value > 0 for value in got.values())

    def test_timings_main_case(self, tmp_path):
        # in-process cli.main calls in one child, measured as the timing tool's main case does
        timings = load_script("timings")
        cfg = write_cfg(tmp_path, {"initial.spin": {"s_tensor": [0, 0, 0, 0, 0, 0.5]}})
        got = timings.measure(ROOT, ("main", 0, ""), ["simulate-bmt", "--config", cfg],
                              tmp_path / "log")
        assert got["exit"] == 0 and got["wall ms"] > 0
        got = timings.measure(ROOT, ("main", 0, ""), ["simulate-bmt", "--bogus"], tmp_path / "log")
        assert got["exit"] == 2

    def test_zero_field_no_drift(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "field": {"kind": "constant", "E": [0, 0, 0], "B": [0, 0, 0]},
            "initial.spin": {"s_tensor": [0, 0, 0, 0, 0, 0.5]},
        })
        out = tmp_path / "o.csv"
        assert main(["simulate-bmt", "--config", cfg, "--out", str(out)]) == 0
        data = read_csv(out)
        assert np.max(np.abs(data["uu"] - data["uu"][0])) == 0.0
        assert np.max(np.abs(data["ss"] - data["ss"][0])) == 0.0


class TestSimulateSuper:
    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate-super", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate-super", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_anomaly_lambda_column_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, {"params.mu_prime": 1.0})
        out = tmp_path / "o.csv"
        assert main(["simulate-super", "--config", cfg, "--out", str(out)]) == 0
        data = read_csv(out)
        assert np.max(np.abs(data["lambda"])) == 0.0

    def test_orthogonal_init_constraint_small(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o.csv"
        assert main(["simulate-super", "--config", cfg, "--out", str(out)]) == 0
        data = read_csv(out)
        assert np.max(np.abs(data["constraint"])) < 1e-9

    def test_zero_spin_matches_bmt(self, tmp_path):
        cfg_s = write_cfg(tmp_path, {"initial.spin": {"xi": [[0.0] * 4, [0.0] * 4]}},
                          name="super.yaml")
        cfg_b = write_cfg(tmp_path, {"initial.spin": {"s_tensor": [0.0] * 6}},
                          name="bmt.yaml")
        out_s, out_b = tmp_path / "s.csv", tmp_path / "b.csv"
        assert main(["simulate-super", "--config", cfg_s, "--out", str(out_s)]) == 0
        assert main(["simulate-bmt", "--config", cfg_b, "--out", str(out_b)]) == 0
        ds, db = read_csv(out_s), read_csv(out_b)
        for col in ["x0", "x1", "x2", "x3", "u0", "u1", "u2", "u3"]:
            assert np.max(np.abs(ds[col] - db[col])) == 0.0

    def test_coefficient_mask_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, {"output": {"coefficient_masks": [1, 3]}})
        out = tmp_path / "o.csv"
        assert main(["simulate-super", "--config", cfg, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert "xi2_c1" in header and "x0_c3" in header


class TestCompare:
    def test_constant_field_within_threshold(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "dev.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        data = read_csv(out)
        assert np.max(data["dev_spin"]) < 1e-6

    def test_zero_field_exact(self, tmp_path):
        cfg = write_cfg(tmp_path, {"field": {"kind": "constant", "E": [0, 0, 0],
                                             "B": [0, 0, 0]}})
        out = tmp_path / "dev.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        data = read_csv(out)
        for col in ("dev_x", "dev_u", "dev_spin"):
            assert np.max(data[col]) == 0.0

    def test_tight_threshold_fails(self, tmp_path):
        cfg = write_cfg(tmp_path)
        code = main(["compare", "--config", cfg, "--out", str(tmp_path / "d.csv"),
                     "--threshold", "1e-30"])
        assert code == 1

    def test_gradient_field_report_only(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "field": {
                "kind": "polynomial",
                "terms": [
                    {"component": 1, "exponents": [0, 0, 1, 0], "coefficient": 0.5},
                    {"component": 1, "exponents": [0, 0, 2, 0], "coefficient": 0.0125},
                    {"component": 2, "exponents": [0, 1, 0, 0], "coefficient": -0.5},
                    {"component": 2, "exponents": [0, 1, 1, 0], "coefficient": -0.025},
                ],
            },
            "compare": {"threshold": 1e-30, "enforce": False},
        })
        out = tmp_path / "dev.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert "not enforced" in capsys.readouterr().out


class TestVerify:
    def test_potential_field_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "integrator": {"h": 2 * np.pi / 1000, "steps": 200, "record_every": 1},
            "verify": {"points": 40, "variations": 2},
        })
        out = tmp_path / "resid.csv"
        code = main(["verify", "--config", cfg, "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0, text
        assert "maxwell: PASS" in text
        assert "constraint: PASS" in text
        assert "stationarity: PASS" in text
        data = read_csv(out)
        assert data["x_residual"].max() < 1e-2

    def test_result_independent_of_generator_count(self, tmp_path, capsys):
        """The Grassmann runs use theta1 and theta2, which initial.spin.xi
        loads; algebra.n_generators sets only the Maxwell points' algebra, so
        verify's Maxwell line is left out."""
        for command in ("simulate-super", "compare", "verify"):
            # 201 records lifted into algebra(16) would take 1.3 GB, but the
            # runs stay in algebra(2)
            lines, csvs = [], []
            for n in (2, 4, 16):
                cfg = write_cfg(tmp_path, {
                    "integrator": {"h": 2 * np.pi / 1000, "steps": 200, "record_every": 1},
                    "verify": {"points": 8, "variations": 2},
                    "output": {"coefficient_masks": [3]},
                    "algebra.n_generators": n,
                }, name=f"n{n}.yaml")
                out = tmp_path / f"n{n}.csv"
                code = main([command, "--config", cfg, "--out", str(out)])
                text = capsys.readouterr().out
                assert code == 0, (command, n, text)
                lines.append([line for line in text.splitlines()
                              if not line.startswith("maxwell:")])
                csvs.append(out.read_bytes())
            assert len(lines[0]) == {"simulate-super": 4, "compare": 4, "verify": 2}[command]
            assert lines[0] == lines[1] == lines[2], command
            assert csvs[0] == csvs[1] == csvs[2], command
            # mask 5 names theta1 theta3, past the theta1 theta2 block that a
            # run reaches, at any N
            cfg = write_cfg(tmp_path, {"output": {"coefficient_masks": [3, 5]},
                                       "algebra.n_generators": 16}, name="mask5.yaml")
            assert main([command, "--config", cfg]) == 2
            assert "output.coefficient_masks" in capsys.readouterr().err

    def test_nonclosed_expected_fail(self, capsys):
        code = main(["verify", "--config", str(ROOT / "configs" / "nonclosed_f.yaml")])
        text = capsys.readouterr().out
        assert code == 0
        assert "maxwell: PASS" in text and "expected" in text

    def test_nonclosed_without_expectation_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "field": {"kind": "direct",
                      "f_terms": [{"pair": [1, 2], "exponents": [0, 0, 0, 1],
                                   "coefficient": 1.0}]},
            "verify": {"points": 20},
        })
        code = main(["verify", "--config", cfg])
        text = capsys.readouterr().out
        assert code == 1
        assert "maxwell: FAIL" in text

    def test_seed_override_changes_nothing_material(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"verify": {"points": 30, "variations": 2},
                                   "integrator": {"h": 2 * np.pi / 1000, "steps": 150,
                                                  "record_every": 1}})
        assert main(["verify", "--config", cfg, "--seed", "1"]) == 0
        assert main(["verify", "--config", cfg, "--seed", "2"]) == 0


class TestOutputs:
    """The judgement of ``scripts/outputs.py`` on synthetic results of the
    shape its child returns; no child process starts."""

    CSV = b"s,dev\n0.0,1.0\n0.05,2.0\n"

    @pytest.fixture(scope="class")
    def outputs(self):
        return load_script("outputs")

    def side(self):
        rng = np.random.default_rng(2200)
        x, v, xi = (rng.normal(size=(6, 4, 4)) for _ in range(3))
        xi /= np.max(np.abs(xi), axis=(-2, -1))[:, None, None]
        v /= np.max(np.abs(v), axis=(-2, -1))[:, None, None]   # |xi| * |v| = 1 at each record
        arrays = {"s": 0.05 * np.arange(6), "x": x, "v": v, "xi": xi,
                  "constraint_max": 1e-3 * rng.random(6)}
        return {"cli": {("a.yaml", "compare"): (0, self.CSV, b"ok\n"),
                        ("a.yaml", "verify"): (2, None, b"config error\n")},
                "library": [("library f n=2 mu'=0", arrays)]}

    def test_identical(self, outputs, capsys):
        assert outputs.judge(self.side(), self.side()) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["a.yaml compare exit 0/0 identical", "a.yaml verify exit 2/2 identical"]
        assert all(line.endswith(" 0.000e+00") for line in out[2:-1])

    def test_moved_array_is_named(self, outputs, capsys):
        other = self.side()
        other["library"][0][1]["x"] *= 1 + 1e-12
        assert outputs.judge(self.side(), other) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["library max 1.000e-12 (limit 1e-15); 1 arrays over it",
                            "  library f n=2 mu'=0 x"]

    def test_constraint_scaled_by_xi_times_v(self, outputs, capsys):
        # 1e-13 of its own value, far below |xi| * |v| = 1; scaled by its
        # largest value, as every array once was, it reads 1e-13
        mine, other = self.side(), self.side()
        a, b = mine["library"][0][1]["constraint_max"], other["library"][0][1]["constraint_max"]
        b *= 1 + 1e-13
        assert outputs.gap(a, b) > outputs.LIMIT
        assert outputs.judge(mine, other) == 0
        assert "0 arrays over it" in capsys.readouterr().out

    @staticmethod
    def bmt_side():
        """A BMT library case with max|u| = 2 at each record, so |u|**2 = 4
        there while u.u = 1."""
        rng = np.random.default_rng(2300)
        u = rng.normal(size=(5, 4))
        u *= 2.0 / np.max(np.abs(u), axis=-1, keepdims=True)
        spin = rng.normal(size=(5, 4, 4))
        arrays = {"s": 0.05 * np.arange(5), "x": rng.normal(size=(5, 4)), "u": u, "spin": spin,
                  "uu": np.ones(5), "us_max": rng.random(5), "ss": rng.random(5)}
        return {"cli": {}, "library": [("library bmt f mu'=0", arrays)]}

    @pytest.mark.parametrize("moved, code", [(2e-15, 0), (1e-12, 1)])
    def test_bmt_uu_scaled_by_u_squared(self, outputs, capsys, moved, code):
        # 2e-15 over |u|**2 = 4 is within the limit; over max|uu| = 1, the
        # scale the invariants once had, it is not
        mine, other = self.bmt_side(), self.bmt_side()
        uu = other["library"][0][1]["uu"]
        uu += moved
        assert outputs.gap(mine["library"][0][1]["uu"], uu) > outputs.LIMIT
        assert outputs.judge(mine, other) == code
        assert f"{code} arrays over it" in capsys.readouterr().out

    @pytest.mark.parametrize("key, moved", [
        (("a.yaml", "verify"), (0, None, b"config error\n")),
        (("a.yaml", "compare"), (0, b"s,dev_x\n0.0,1.0\n0.05,2.0\n", b"ok\n")),
        (("a.yaml", "compare"), (0, b"s,dev\n0.0,1.0\n", b"ok\n")),
    ], ids=["exit code", "header", "rows"])
    def test_cli_mismatch_fails(self, outputs, key, moved):
        other = self.side()
        other["cli"][key] = moved
        assert outputs.judge(self.side(), other) == 1

    def test_moved_column_reported_not_judged(self, outputs, capsys):
        other = self.side()
        other["cli"]["a.yaml", "compare"] = (0, self.CSV.replace(b"2.0", b"2.000000002"), b"ok\n")
        assert outputs.judge(self.side(), other) == 0
        assert "a.yaml compare exit 0/0 dev 1.0e-09" in capsys.readouterr().out.splitlines()

    # a state with max|x| = 3, max|u| = 2 and max|S| = 0.5 at its second row
    STATE = "s,x0,x1,x2,x3,u0,u1,u2,u3,S01,S02,S03,S12,S13,S23,{}\n"
    STATE_ROWS = ("0.0,0,0,0,0,1,0,0,0,0,0,0,0.25,0,0,{}\n"
                  "0.05,3,0,-1,0,2,-1.7,0,0,0,0,0,0.5,0,0,{}\n")

    @pytest.mark.parametrize("command, column, scale", [
        ("simulate-bmt", "us_max", 2.0 * 0.5),
        ("simulate-super", "constraint", 3.0),
        ("compare", "dev_spin", 3.0),
    ])
    def test_state_column_scaled_by_state(self, outputs, capsys, command, column, scale):
        # values of 1e-12 that move by 1e-16: 1e-4 of their own size, but
        # roundoff on the state's scale
        def side(last):
            state = self.STATE.format(column) + self.STATE_ROWS.format("1e-12", last)
            own = f"s,{column}\n0.0,1e-12\n0.05,{last}\n" if command == "compare" else state
            return {"cli": {("a.yaml", "simulate-super"): (0, state.encode(), b"ok\n"),
                            ("a.yaml", command): (0, own.encode(), b"ok\n")},
                    "library": []}

        assert outputs.judge(side("1e-12"), side("1.0001e-12")) == 0
        line = [x for x in capsys.readouterr().out.splitlines() if x.startswith(f"a.yaml {command}")]
        assert line == [f"a.yaml {command} exit 0/0 {column} {1e-16 / scale:.1e}"]

    @pytest.mark.parametrize("argv", [[], ["a", "b"]])
    def test_usage(self, outputs, argv):
        assert outputs.main(argv) == 2
