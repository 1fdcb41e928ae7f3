"""In-memory span tracer that wraps grasspin's layer functions from outside.

``Tracer.install`` replaces each target function or method with a wrapper
that records a span (name, start, end, parent span) and, for some targets,
exact work counts taken from the arguments or the result.  A function is
replaced under every name that binds it in any ``grasspin`` module, so
``from .super_dynamics import integrate_super`` in ``cli`` is traced too.
``Tracer.uninstall`` puts every original object back, so code run after it
pays nothing.  No file of the package is touched.

Spans stay in memory; ``Tracer.save`` writes them out at the end of a run.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_mul(counts, args, kwargs, out) -> None:
    alg, a, b = args[0], _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")
    sa, sb = np.shape(a)[:-1], np.shape(b)[:-1]
    batch = math.prod(sa if sa == sb else np.broadcast_shapes(sa, sb))
    counts["grassmann.mul.pair_products"] += batch * 3**alg.n


def _count_eval_even(counts, args, kwargs, out) -> None:
    souls = _arg(args, kwargs, 2, "souls")
    if souls is not None and np.any(souls):
        counts["polynomials.eval_even.soul_calls"] += 1


def _count_integrate_super(counts, args, kwargs, out) -> None:
    counts["super_dynamics.integrate_super.steps"] += _arg(args, kwargs, 4, "steps")
    for arr in (out.x, out.v, out.xi):
        slots = np.any(arr != 0.0, axis=0)       # (component, mask) ever nonzero
        counts["super_dynamics.active_slots"] += int(np.count_nonzero(slots))
        counts["super_dynamics.all_slots"] += slots.size


def _count_integrate_bmt(counts, args, kwargs, out) -> None:
    counts["bmt.integrate_bmt.steps"] += _arg(args, kwargs, 4, "steps")


def oracle_fine_steps(times, s0: float, h_ref: float, refine: int) -> int:
    """Fine RK4 steps ``ConstantFieldOracle.sample`` takes for these times."""
    h_fine = float(h_ref) / refine
    rel = np.asarray(times, dtype=float) - s0
    gaps = np.diff(np.concatenate([[0.0], rel]))
    gaps = gaps[gaps > 0]
    return int(np.sum(np.maximum(1, np.ceil(gaps / h_fine - 1e-12))))


def _count_oracle(counts, args, kwargs, out) -> None:
    oracle = args[0]
    counts["bmt.oracle.fine_steps"] += oracle_fine_steps(
        _arg(args, kwargs, 1, "times"), oracle.state0.s,
        _arg(args, kwargs, 2, "h_ref"), oracle.refine,
    )


@dataclass(frozen=True)
class Target:
    """A function (``owner`` None) or method of class ``owner`` to trace."""

    module: str
    owner: str | None
    attr: str
    span: str
    counter: Callable | None = None


def _fn(module, attr, span=None, counter=None):
    layer = module.rsplit(".", 1)[-1]
    return Target(module, None, attr, span or f"{layer}.{attr}", counter)


def _method(module, owner, attr, span=None, counter=None):
    layer = module.rsplit(".", 1)[-1]
    return Target(module, owner, attr, span or f"{layer}.{attr}", counter)


G, P, F = "grasspin.grassmann", "grasspin.polynomials", "grasspin.fields"
S, B, V = "grasspin.super_dynamics", "grasspin.bmt", "grasspin.variational"

# One entry per layer boundary the workloads cross.  ``minkowski`` holds
# only constants and is not measured.
TARGETS = (
    _method(G, "GrassmannAlgebra", "mul", counter=_count_mul),
    _method(G, "GrassmannAlgebra", "invert_even"),
    _method(P, "PolyVectorEvaluator", "eval_even", counter=_count_eval_even),
    _method(P, "PolyVectorEvaluator", "eval_real"),
    _method(F, "_FieldBase", "f_lower_coeffs"),
    _method(F, "_FieldBase", "df_lower_coeffs"),
    _method(F, "_FieldBase", "f_lower_real"),
    _method(F, "FieldConfig", "potential_coeffs"),
    _method(F, "FieldConfig", "__init__", span="fields.FieldConfig"),
    _fn(F, "maxwell_residual"),
    _fn(F, "constant_field"),
    _fn(S, "integrate_super", counter=_count_integrate_super),
    _fn(S, "leading_order"),
    _fn(S, "_rhs", span="super_dynamics.rhs"),
    _fn(B, "integrate_bmt", counter=_count_integrate_bmt),
    _method(B, "ConstantFieldOracle", "sample", span="bmt.oracle", counter=_count_oracle),
    _fn(V, "action"),
    _fn(V, "stationarity_residual"),
    _fn(V, "even_directional_quotient"),
    _fn(V, "euler_lagrange_residual"),
    _fn("grasspin.config", "load_config"),
    _fn("grasspin.config", "parse_config"),
    _fn("grasspin.cli", "main"),
)


class Tracer:
    """Records nested spans in flat arrays; one instance per run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, counter: Callable | None = None) -> Callable:
        nid = self._id(name)
        names, parents, t0s, t1s, stack = self._name, self._parent, self._t0, self._t1, self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0s)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of its own; returns (result, span index)."""
        idx = len(self._t0)
        out = self.wrap(fn, name)(*args, **kwargs)
        return out, idx

    @property
    def n_spans(self) -> int:
        return len(self._t0)

    # -- patching --------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for t in targets:
            importlib.import_module(t.module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "grasspin" or n.startswith("grasspin."))]
        for t in targets:
            mod = sys.modules[t.module]
            if t.owner is not None:
                cls = getattr(mod, t.owner)
                orig = cls.__dict__[t.attr]
                self._patch(cls, t.attr, orig, self.wrap(orig, t.span, t.counter))
                continue
            orig = getattr(mod, t.attr)
            wrapped = self.wrap(orig, t.span, t.counter)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, attr, orig, wrapped)

    def _patch(self, owner, attr: str, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis --------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self._name, dtype=np.int32),
                np.frombuffer(self._parent, dtype=np.int32),
                np.frombuffer(self._t0), np.frombuffer(self._t1))

    def totals(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, summed self time)} over all recorded spans."""
        name, parent, t0, t1 = self.arrays()
        selft = self_times(parent, t1 - t0)
        calls = np.bincount(name, minlength=len(self.names))
        secs = np.bincount(name, weights=selft, minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        name, parent, t0, t1 = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            t0=t0, t1=t1)


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Span duration minus the summed durations of its direct children."""
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


def in_subtrees(parent: np.ndarray, roots: list[int]) -> np.ndarray:
    """Mask of spans that are one of ``roots`` or descend from one.

    Children are always recorded after their parent, so one forward pass
    settles every span.
    """
    mask = np.zeros(parent.size, dtype=bool)
    mask[np.asarray(roots, dtype=np.int64)] = True
    for i in range(parent.size):
        p = parent[i]
        if p >= 0 and mask[p]:
            mask[i] = True
    return mask
