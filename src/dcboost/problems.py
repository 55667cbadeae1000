"""Registered test problems.

Two closed-form 2-D instances with known optima and critical sets, plus a
seeded family of random separable instances.  Problem names double as the
command-line vocabulary: ``ex1``, ``ex2``, and ``random-sep(dim=D,seed=S)``.
"""

from __future__ import annotations

import re

import numpy as np

from .convex import L1, Linear, Quadratic
from .core import (
    DcProblem,
    EpsSchedule,
    InexactMode,
    LambdaBarRule,
    RatioNu,
    SolverConfig,
)

__all__ = ["resolve", "registered_names", "random_separable",
           "experiment_config", "sample_starts"]


def _ex1() -> DcProblem:
    # phi(x,y) = x^2 + y^2 + x + y - |x| - |y|; minimum -2 at (-1,-1);
    # per-coordinate critical values {-1, 0} (solve 2t + 1 in d|t|)
    g = Quadratic(1.5) + Linear([1.0, 1.0])
    h = Quadratic(0.5) + L1(1.0)
    return DcProblem.from_components(
        "ex1", g, h, dim=2, phi_lower_bound=-2.0,
        known_critical_points=(
            (-1.0, -1.0), (-1.0, 0.0), (0.0, -1.0), (0.0, 0.0),
        ),
    )


def _ex2() -> DcProblem:
    # phi(x,y) = (x^2+y^2)/2 + |x| + |y| - 2.5x; unique critical point
    # (1.5, 0) with value -1.125
    g = Quadratic(1.0) + L1(1.0) + Linear([-2.5, 0.0])
    h = Quadratic(0.5)
    return DcProblem.from_components(
        "ex2", g, h, dim=2, phi_lower_bound=-1.125,
        known_critical_points=((1.5, 0.0),),
    )


def random_separable(dim: int, seed: int) -> DcProblem:
    """Seeded random instance within the separable atom class.

    Coefficients are drawn so that phi = g - h stays bounded below (the
    quadratic weight of g strictly exceeds that of h).  When a draw leaves a
    component without enough curvature, the same quadratic term is added to
    both sides, which preserves the difference while restoring a shared
    modulus of at least 0.5.
    """
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    rng = np.random.default_rng(seed)
    a_h = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.25, 1.0))
    a_g = a_h + float(rng.uniform(0.25, 1.0))
    shift = max(0.0, 0.25 - min(a_g, a_h))
    a_g, a_h = a_g + shift, a_h + shift
    g = Quadratic(a_g) + Linear(rng.uniform(-2.0, 2.0, dim)) + L1(float(rng.uniform(0.0, 1.5)))
    h = Quadratic(a_h) + Linear(rng.uniform(-2.0, 2.0, dim)) + L1(float(rng.uniform(0.0, 1.5)))
    return DcProblem.from_components(
        f"random-sep(dim={dim},seed={seed})", g, h, dim=dim
    )


_RANDOM_SEP = re.compile(r"random-sep\(dim=(\d+),seed=(\d+)\)\Z")

_REGISTRY = {"ex1": _ex1, "ex2": _ex2}


def registered_names() -> list:
    return sorted(_REGISTRY) + ["random-sep(dim=D,seed=S)"]


def resolve(name: str) -> DcProblem:
    """Parse a full problem string, e.g. 'ex1' or 'random-sep(dim=5,seed=7)'."""
    if name in _REGISTRY:
        return _REGISTRY[name]()
    m = _RANDOM_SEP.match(name)
    if m:
        return random_separable(int(m.group(1)), int(m.group(2)))
    raise ValueError(f"unknown problem {name!r}; known: {registered_names()}")


def experiment_config(
    nu_omega: float = 0.01,
    mode: InexactMode = InexactMode.INNER_SOLVER,
    max_iter: int = 500,
) -> SolverConfig:
    """Reference configuration for the benchmark study on ex1/ex2:
    rho = 0.6, beta = 0.1, trial step 1, theta = 0.2, allowance
    omega ||d||^2 / (k+1), stop when the step norm drops below 1e-5."""
    return SolverConfig(
        rho=0.6,
        beta=0.1,
        theta=0.2,
        lambda_bar=LambdaBarRule.constant(1.0),
        eps=EpsSchedule.zero(),
        nu=RatioNu(omega=nu_omega),
        stop_step_tol=1e-5,
        d_zero_tol=1e-12,
        max_iter=max_iter,
        max_backtracks=60,
        inexact_mode=mode,
    )


def sample_starts(count: int, box, seed: int, dim: int) -> np.ndarray:
    """Uniform per-coordinate starts in [lo, hi]^dim with the given seed."""
    lo, hi = float(box[0]), float(box[1])
    if hi < lo:
        raise ValueError("box upper bound below lower bound")
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(count, dim))
