"""Evolution of the nonmonotonicity allowance nu_k.

Configuration dataclasses live in ``core``; this module carries strategy
state through the solver loop and provides a post-hoc verifier for the
step-domination property a finished trace may be expected to satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .certificates import square
from .core import (
    DirectNu,
    GrippoNu,
    NuStrategy,
    RatioNu,
    ZeroNu,
    ZhangHagerNu,
)

__all__ = [
    "DirectState",
    "ZhangHagerState",
    "GrippoState",
    "NuState",
    "nu_init",
    "first_step_nu",
    "nu_next",
    "step_domination_start",
]

@dataclass(frozen=True)
class DirectState:
    nu_prev: float


@dataclass(frozen=True)
class ZhangHagerState:
    q: float
    c: float


@dataclass(frozen=True)
class GrippoState:
    window: tuple


NuState = Optional[Union[DirectState, ZhangHagerState, GrippoState]]


def nu_init(spec: NuStrategy, phi_x0: float):
    """Initial state and nu_0.

    Returns nu_0 = None for the ratio schedule, whose first value needs the
    first step's ||d||^2 (see ``first_step_nu``).
    """
    if isinstance(spec, DirectNu):
        return DirectState(nu_prev=spec.nu0), spec.nu0
    if isinstance(spec, ZhangHagerNu):
        # C_0 = phi(x^0) + offset and Q_0 = 1, so nu_0 is the offset itself
        return ZhangHagerState(q=1.0, c=phi_x0 + spec.c0_offset), spec.c0_offset
    if isinstance(spec, GrippoNu):
        return GrippoState(window=(phi_x0,)), 0.0
    if isinstance(spec, RatioNu):
        return None, None
    if isinstance(spec, ZeroNu):
        return None, 0.0
    raise TypeError(f"unknown nu strategy {type(spec)!r}")


def first_step_nu(spec: NuStrategy, nu0, d_norm_sq: float) -> float:
    """Resolve nu_0 once the first direction is known."""
    if nu0 is not None:
        return float(nu0)
    assert isinstance(spec, RatioNu)
    return spec.omega * d_norm_sq  # the divisor k + 1 is 1 at k = 0


def nu_next(spec: NuStrategy, state: NuState, k: int, phi_prev: float,
            phi_curr: float, eps_k: float, d_norm_sq: float):
    """Allowance for step k+1 after the step k -> k+1 completed.

    phi_prev / phi_curr are phi(x^k) and phi(x^{k+1}); eps_k is the budget
    used at step k; d_norm_sq is ||d^{k+1}||^2 of the upcoming step (only the
    ratio schedule reads it).
    """
    if isinstance(spec, DirectNu):
        # the step's descent inequality (checked by the caller) makes the
        # budget nonnegative up to rounding
        budget = max(phi_prev - phi_curr + state.nu_prev + eps_k, 0.0)
        nu = spec.fraction * (1.0 - spec.delta_used) * budget
        return DirectState(nu_prev=nu), nu
    if isinstance(spec, ZhangHagerNu):
        eta = spec.eta_used
        q_next = eta * state.q + 1.0
        c_next = (eta * state.q * state.c + phi_curr) / q_next
        return ZhangHagerState(q=q_next, c=c_next), max(0.0, c_next - phi_curr)
    if isinstance(spec, GrippoNu):
        window = (state.window + (phi_curr,))[-(spec.m + 1):]
        return GrippoState(window=window), max(window) - phi_curr
    if isinstance(spec, RatioNu):
        return None, spec.omega * d_norm_sq / (k + 2)
    if isinstance(spec, ZeroNu):
        return None, 0.0
    raise TypeError(f"unknown nu strategy {type(spec)!r}")


def step_domination_start(trace, delta: float) -> Optional[int]:
    """Smallest k0 with nu_k <= delta * ||d^k||^2 for every recorded k >= k0,
    or None when even the final record violates the bound."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    records = trace.records
    k0 = None
    for idx in range(len(records) - 1, -1, -1):
        r = records[idx]
        if r.nu_k <= delta * square(r.d_norm):
            k0 = idx
        else:
            break
    return k0
