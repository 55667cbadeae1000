"""The certified inequalities, each written once.

Every inequality the solver certifies per iteration is named here, with its
slack as a function of one ``IterationRecord``, the problem and the
configuration.  ``run_inmbdca`` checks the slacks of each record as it builds
it; ``dcboost check`` and the ``complexity`` gate replay them from a stored
trace.  With d = y - x, c = sigma/2 - theta and phi_bar the problem's
declared lower bound (-inf when none is declared), the slacks are

    eps_certificate     eps_k - eps_certified
    subgrad_membership  -(distance of xi from the subdifferential bounds of g at y)
    inexact_bound       theta ||y - x|| - ||w - xi||   (as the solver recorded them)
    descent_y           phi(x) - c ||d||^2 + eps_k - phi(y)
    linesearch          phi(y) - rho lambda^2 ||d||^2 + nu_k - phi(x+)
    descent_step        phi(x) - (c + rho lambda^2) ||d||^2 + nu_k + eps_k - phi(x+)
    phi_lower_bound     min(phi(x), phi(y), phi(x+)) - phi_bar

and, over a whole trace, ``reconstruction``: -||x+ - (y + lambda d)||, where
x+ is the next record's x or the trace's final point.  An inequality fails
when ``not slack >= -tol``, so a NaN slack fails.
"""

from __future__ import annotations

import math

from .convex import l2_norm, membership_gap

__all__ = ["CERTIFICATES", "TOLERANCE", "holds", "slacks", "replay"]

# (name, tolerance), in the order slacks() returns them.  Membership
# balances closed-form exactness against interval-arithmetic rounding; the
# relative-error and eps tests compare values the solver computed the same
# way; the phi-based lines absorb rounding in objective differences.
CERTIFICATES = (
    ("eps_certificate", 1e-15),
    ("subgrad_membership", 1e-10),
    ("inexact_bound", 1e-12),
    ("descent_y", 1e-9),
    ("linesearch", 1e-9),
    ("descent_step", 1e-9),
    ("phi_lower_bound", 1e-9),
)

TOLERANCE = dict(CERTIFICATES, reconstruction=1e-9)


def holds(name: str, slack: float) -> bool:
    """Whether a slack passes its inequality's tolerance; NaN never does."""
    return slack >= -TOLERANCE[name]


def slacks(record, problem, config) -> dict:
    """Slack of every catalogue inequality on one record, by name."""
    r = record
    d_sq = r.d_norm**2
    coef = problem.sigma / 2 - config.theta
    step = config.rho * r.lambda_k**2 * d_sq
    floor = problem.phi_lower_bound
    lowest = min(r.phi_x, r.phi_y, r.phi_next)
    if math.isnan(r.phi_x + r.phi_y + r.phi_next):
        lowest = math.nan  # min() drops NaN depending on argument order
    return {
        "eps_certificate": r.eps_k - r.eps_certified,
        "subgrad_membership":
            -membership_gap(*problem.g.subdiff_box(r.y), r.xi),
        "inexact_bound": r.inexact_rhs - r.inexact_lhs,
        "descent_y": (r.phi_x - coef * d_sq + r.eps_k) - r.phi_y,
        "linesearch": (r.phi_y - step + r.nu_k) - r.phi_next,
        "descent_step":
            (r.phi_x - coef * d_sq - step + r.nu_k + r.eps_k) - r.phi_next,
        "phi_lower_bound": lowest - (-math.inf if floor is None else floor),
    }


def _note(worst: dict, name: str, slack: float, k: int) -> None:
    # the first NaN stays the worst value; nothing finite replaces it
    old = worst.get(name)
    if old is None or not (slack >= old[0] or math.isnan(old[0])):
        worst[name] = (slack, k)


def replay(trace, problem) -> dict:
    """Worst slack and its iteration, ``{name: (slack, k)}``, over every
    record of a stored trace; a name with no record to check is absent."""
    worst = {}
    for r in trace.records:
        for name, slack in slacks(r, problem, trace.config).items():
            _note(worst, name, slack, r.k)
    ends = [r.x for r in trace.records[1:]] + [trace.final_x]
    for r, end in zip(trace.records, ends):
        err = l2_norm(end - (r.y + r.lambda_k * (r.y - r.x)))
        _note(worst, "reconstruction", -err, r.k)
    return worst
