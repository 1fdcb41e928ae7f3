"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import quantiles  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    wl = WORKLOADS[name]
    first = wl.generate(np.random.default_rng(5), 6)
    again = wl.generate(np.random.default_rng(5), 6)
    other = wl.generate(np.random.default_rng(6), 6)
    assert [j.config for j in first] == [j.config for j in again]
    assert all(np.array_equal(a.xi, b.xi) for a, b in zip(first, again))
    assert [j.config for j in first] != [j.config for j in other]

    inputs.write_and_validate(first, str(tmp_path))
    for job in first:
        u0 = job.loaded.u0
        assert abs(inputs.mdot(u0, u0) - 1.0) < 1e-13
        assert np.all(np.abs(inputs.mdot(job.xi, u0)) < 1e-12)


def test_generated_yaml_is_byte_identical_per_seed(tmp_path):
    wl = WORKLOADS["sweep_const_n6"]
    for sub in ("a", "b"):
        inputs.write_and_validate(wl.generate(np.random.default_rng(9), 3), str(tmp_path / sub))
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_precondition_violation_is_refused():
    u0 = np.array([2.0, np.sqrt(3.0), 0.0, 0.0])
    inputs.check_preconditions(u0, np.array([[0.0, 0.0, 1.0, 0.0]]))
    with pytest.raises(inputs.PreconditionError):
        inputs.check_preconditions(u0, np.array([[0.0, 1.0, 0.0, 0.0]]))
    with pytest.raises(inputs.PreconditionError):
        inputs.check_preconditions(1.001 * u0, np.zeros((1, 4)))


def test_p90_refused_with_fewer_than_ten_samples_beyond():
    rng = np.random.default_rng(0)
    n = quantiles.min_samples_for(90)
    assert n == 92
    with pytest.raises(quantiles.TooFewSamples):
        quantiles.tail_percentile(rng.random(n - 1), 90)
    values = rng.random(n)
    p90 = quantiles.tail_percentile(values, 90)
    assert np.count_nonzero(values > p90) == 10
    # ties at the top leave too few samples strictly beyond the percentile
    with pytest.raises(quantiles.TooFewSamples):
        quantiles.tail_percentile(np.r_[rng.random(90), np.ones(20)], 90)


def test_self_times_of_a_synthetic_nested_trace(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    tracer = spans.Tracer()

    inner = tracer.wrap(lambda: None, "inner")          # 1 tick each

    def middle():
        inner()
        inner()

    middle = tracer.wrap(middle, "middle")
    outer = tracer.wrap(lambda: (middle(), inner()), "outer")
    _, root = tracer.call("job", outer)
    # clock: job 0, outer 1, middle 2, inner 3-4, inner 5-6, middle end 7,
    # inner 8-9, outer end 10, job end 11
    totals = tracer.totals()
    assert totals["job"] == (1, 2.0)
    assert totals["outer"] == (1, 9.0 - 5.0 - 1.0)
    assert totals["middle"] == (1, 5.0 - 2.0)
    assert totals["inner"] == (3, 3.0)
    assert sum(secs for _, secs in totals.values()) == 11.0
    name, parent, t0, t1 = tracer.arrays()
    assert t1[root] - t0[root] == 11.0
    assert spans.in_subtrees(parent, [root]).all()
    middle_tree = spans.in_subtrees(parent, [2])
    assert [tracer.names[name[i]] for i in np.flatnonzero(middle_tree)] == ["middle", "inner", "inner"]


def _bindings():
    import grasspin
    from grasspin import cli, grassmann, super_dynamics, variational

    return {
        "mul": grassmann.GrassmannAlgebra.__dict__["mul"],
        "sd.integrate_super": super_dynamics.integrate_super,
        "cli.integrate_super": cli.integrate_super,
        "pkg.integrate_super": grasspin.integrate_super,
        "variational._rhs": variational._rhs,
        "cli.main": cli.main,
    }


def test_wrappers_are_installed_everywhere_and_removed_after():
    from grasspin import algebra

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert during["sd.integrate_super"] is during["cli.integrate_super"]
        assert during["sd.integrate_super"] is during["pkg.integrate_super"]
        alg = algebra(2)
        alg.mul(np.ones(4), np.ones(4))
        assert tracer.totals()["grassmann.mul"][0] == 1
        assert tracer.counts["grassmann.mul.pair_products"] == 9
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    n = tracer.n_spans
    algebra(2).mul(np.ones(4), np.ones(4))
    assert tracer.n_spans == n


def test_oracle_fine_step_count():
    # two gaps of 0.1 at h_ref 0.01 and refine 10: 100 fine steps each
    assert spans.oracle_fine_steps([0.0, 0.1, 0.2], 0.0, 0.01, 10) == 200


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_normalized_time_scales_inversely_with_the_reference_kernel():
    import hostspeed

    assert hostspeed.normalize(0.2, hostspeed.REF_S, hostspeed.REF_S) == pytest.approx(0.2)
    # a host half as fast doubles both the job and the kernel time
    assert hostspeed.normalize(0.4, 2 * hostspeed.REF_S, 2 * hostspeed.REF_S) == pytest.approx(0.2)
    assert hostspeed.normalize(0.2, 1.0 * hostspeed.REF_S, 3.0 * hostspeed.REF_S) == pytest.approx(0.1)
    assert hostspeed.kernel_time(3) > 0.0
