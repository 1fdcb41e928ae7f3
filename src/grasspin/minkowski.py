"""Fixed spacetime conventions.

Signature (+,-,-,-), fully contravariant Levi-Civita tensor with
eps^{0123} = +1, natural units c = 1.  Because the metric is diagonal,
raising or lowering an index multiplies the component by the entry of
``SIGNS`` for that index.  An antisymmetric tensor is stored as its six
independent components in ``PAIRS`` order.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "SIGNS",
    "EPS_UPPER",
    "PAIRS",
    "minkowski_dot",
    "pack_pairs",
    "unpack_pairs",
]

SIGNS = np.array([1.0, -1.0, -1.0, -1.0])

# Independent index pairs of an antisymmetric 4x4 tensor, in storage order.
PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_ROWS, _COLS = (np.array(idx) for idx in zip(*PAIRS))

# T_{mn} is slot _PAIR_SLOT[m, n] of (the six components, their negatives, 0)
_PAIR_SLOT = np.full((4, 4), 12)
_PAIR_SLOT[_ROWS, _COLS] = np.arange(6)
_PAIR_SLOT[_COLS, _ROWS] = np.arange(6, 12)


def _levi_civita() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        sign = 1
        p = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    sign = -sign
        eps[perm] = sign
    return eps


# eps^{mu nu rho sigma}; the all-lower version is -EPS_UPPER for this signature.
EPS_UPPER = _levi_civita()


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^mu b_mu for real 4-vectors on the last axis."""
    return np.sum(np.asarray(a) * np.asarray(b) * SIGNS, axis=-1)


def pack_pairs(mat: np.ndarray) -> np.ndarray:
    """The six components T_{mn}, (m, n) in ``PAIRS``, of tensors (..., 4, 4)."""
    return np.asarray(mat)[..., _ROWS, _COLS]


def unpack_pairs(vals, axis: int = -1) -> np.ndarray:
    """Antisymmetric tensors from their six ``PAIRS`` components.

    The pair axis ``axis`` of ``vals`` is replaced by two axes of length 4.
    """
    vals = np.asarray(vals, dtype=float)
    axis %= vals.ndim
    zero = np.zeros(vals.shape[:axis] + (1,) + vals.shape[axis + 1:])
    return np.concatenate((vals, -vals, zero), axis=axis).take(_PAIR_SLOT, axis=axis)


def _real_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array of ``shape``; a ValueError naming ``name``
    if it does not hold that many real numbers."""
    try:
        return np.asarray(value, dtype=float).reshape(shape)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must hold {np.prod(shape)} real numbers, got {value!r}") from None
