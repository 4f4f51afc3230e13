"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import GradCheckError, ShapeError
from .tensor import Graph, Tensor, backward

DENOM_FLOOR = 1e-6   # smallest relative-error denominator: an absolute scale near 0


@dataclass
class CoordinateError:
    param: int
    index: tuple
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    checked: int
    passed: bool
    worst: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed


def _rel_err(a: float, n: float) -> float:
    denom = max(abs(a), abs(n), DENOM_FLOOR)
    return abs(a - n) / denom


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5,
               tol: float = 1e-4, max_coords_per_param: int = 50,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` takes no arguments and returns a scalar Tensor computed from
    ``params``; it must be deterministic (run any dropout in inference mode)
    and run in float64, as must ``params``: a central difference at
    ``eps=1e-5`` is below float32 resolution.
    Large tensors are subsampled to at most ``max_coords_per_param``
    coordinates each. Relative error uses max(|analytic|, |numeric|,
    ``DENOM_FLOOR``) as the denominator so dead coordinates compare against
    an absolute scale instead of dividing by ~0.
    """
    if eps <= 0:
        raise GradCheckError(f"eps must be positive, got {eps}")
    params = list(params)
    if not all(p.requires_grad for p in params):
        raise GradCheckError("all checked params must have requires_grad=True")
    if any(p.data.dtype != np.float64 for p in params):
        raise GradCheckError("all checked params must be float64")

    # Determinism gate: two silent evaluations must agree bit for bit.
    probe_a = f()
    probe_b = f()
    if probe_a.data.size != 1:
        raise ShapeError(f"grad_check needs a scalar function, got shape {probe_a.shape}")
    if probe_a.data.dtype != np.float64:
        raise GradCheckError(f"grad_check needs a float64 function, got {probe_a.data.dtype}")
    if probe_a.data.tobytes() != probe_b.data.tobytes():
        raise GradCheckError("nondeterministic function: two evaluations differ "
                             "(disable dropout or fix its seed)")

    for p in params:
        p.zero_grad()
    with Graph() as g:
        loss = f()
    backward(loss, g)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    rng = np.random.default_rng(seed)
    worst: list[CoordinateError] = []
    max_err = 0.0
    checked = 0
    for pi, p in enumerate(params):
        n = p.data.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for c in coords:
            # index p.data itself: a reshape of a non-contiguous array is a copy
            idx = np.unravel_index(c, p.shape)
            orig = p.data[idx]
            p.data[idx] = orig + eps
            f_plus = f().item()
            p.data[idx] = orig - eps
            f_minus = f().item()
            p.data[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[pi][idx])
            err = _rel_err(a, numeric)
            checked += 1
            if err > max_err:
                max_err = err
            worst.append(CoordinateError(pi, idx, a, numeric, err))

    worst.sort(key=lambda ce: -ce.rel_err)
    return GradCheckReport(max_rel_err=max_err, tol=tol, checked=checked,
                           passed=max_err < tol, worst=worst[:5])
