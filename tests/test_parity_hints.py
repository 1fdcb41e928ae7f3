"""Audit of the operand parity hints that the dynamics passes to the product.

A wrong hint makes ``GrassmannAlgebra.mul`` drop terms silently, and nothing
checks hints at run time.  Here every product of a run is intercepted, and
each hinted operand must have exactly the hinted parity or be zero.  The
dynamics also runs the even inverse's series without ``invert_even``'s
checks, so every operand that reaches the series must be even with a
nonzero body.
"""

import numpy as np
import pytest

from grasspin import (
    DiscretePath,
    ModelParams,
    PathVariation,
    action,
    euler_lagrange_residual,
    integrate_super,
    stationarity_residual,
)
from grasspin.grassmann import EVEN, ODD, GrassmannAlgebra, Parity, _DualAlgebra

from conftest import field_corpus, loaded_state

ALLOWED = {EVEN: (Parity.EVEN, Parity.ZERO), ODD: (Parity.ODD, Parity.ZERO)}


@pytest.fixture
def audited(monkeypatch):
    """Counts of hinted operands seen, by hint, of products made in a dual
    algebra and of operands that reached the inverse series; a mismatch
    fails the call."""
    seen = {EVEN: 0, ODD: 0, "dual": 0, "series": 0}
    mul, series = GrassmannAlgebra.mul, GrassmannAlgebra._inverse_series

    def checked_series(alg, a):
        assert alg.parity_of(a, tol=0.0) == Parity.EVEN, "odd coefficient in a series operand"
        assert (a[..., 0] != 0.0).all(), "zero body in a series operand"
        seen["series"] += 1
        return series(alg, a)

    def checked(alg, a, b, pa=None, pb=None):
        seen["dual"] += isinstance(alg, _DualAlgebra)
        for operand, hint in ((a, pa), (b, pb)):
            if hint is not None:
                parity = alg.parity_of(operand, tol=0.0)
                assert parity in ALLOWED[hint], f"hint {hint} on a {parity} operand"
                seen[hint] += 1
        return mul(alg, a, b, pa, pb)

    monkeypatch.setattr(GrassmannAlgebra, "mul", checked)
    monkeypatch.setattr(GrassmannAlgebra, "_inverse_series", checked_series)
    return seen


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("name,fld", field_corpus(), ids=[name for name, _ in field_corpus()])
def test_hints_match_operand_parities(audited, name, fld, n):
    par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)
    traj = integrate_super(loaded_state(n), fld, par, h=0.05, steps=16)
    path = DiscretePath.from_trajectory(traj)
    t = (path.s - path.s[0]) / (path.s[-1] - path.s[0])
    prof = np.sin(np.pi * t)[:, None] * np.array([0.3, 1.0, -0.5, 0.7])
    prof[[0, -1]] = 0.0
    action(path, fld, par)
    stationarity_residual(path, fld, par, PathVariation(dx=prof))
    stationarity_residual(path, fld, par, PathVariation(dxi=prof))
    euler_lagrange_residual(path, fld, par)
    assert audited[EVEN] > 0 and audited[ODD] > 0
    assert audited["dual"] > 0   # the even probe's products are audited too
    assert audited["series"] > 0
