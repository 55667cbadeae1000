"""The certified inequalities, each written once.

Every inequality the solver certifies per iteration is named here, with its
slack as a function of a record, the problem and the configuration.
``slack_columns`` evaluates each formula once over a run's records stacked
into float64 columns: ``run_inmbdca`` checks the trace it has just built,
and ``dcboost check`` and the ``complexity`` gate replay a stored one; no
inequality is checked elsewhere.  With d = y - x, c = sigma/2 - theta and
phi_bar the problem's declared lower bound (-inf when none is declared),
the slacks are

    eps_certificate     eps_k - eps_certified
    subgrad_membership  -(distance of xi from the subdifferential bounds of g at y)
    inexact_bound       theta ||y - x|| - ||w - xi||
    g_linearization     g(x) - g(y) + <w, d> - c ||d||^2
    h_eps_subgradient   (g(y) - phi(y)) - (g(x) - phi(x)) - <w, d> + eps_k
    linesearch          phi(y) - rho lambda^2 ||d||^2 + nu_k - phi(x+)
    phi_lower_bound     min(phi(x), phi(y), phi(x+)) - phi_bar
    reconstruction      -||x+ - (y + lambda d)||

where x+ is the next record's x or the run's final point, g is the
oracle's and phi the recorded value.  The middle two are the halves of the
descent lemma: strong convexity of g and the relative test give the g
half, and w in the eps_k-subdifferential of h at x the h half, h read as
g - phi.  They sum to phi(x) - c ||d||^2 + eps_k - phi(y), the descent to
y, and a failure names the oracle at fault.  An inequality fails when
``not slack >= -tol``, so a NaN slack fails.  The descent of a whole step
is the sum of both halves and linesearch and is not checked on its own.
"""

from __future__ import annotations

import math
import operator
import types

import numpy as np

from .convex import membership_gap, row_norms, subdiff_bounds, value_rows
from .core import RECORD_ARRAYS, RECORD_SCALARS, next_x

__all__ = ["CERTIFICATES", "TOLERANCE", "holds", "slacks", "slack_columns",
           "replay"]

# (name, tolerance), in the order slacks() returns them.  Membership
# balances closed-form exactness against interval-arithmetic rounding; the
# relative-error and eps tests compare values the solver computed the same
# way; the phi-based lines absorb rounding in objective differences.
CERTIFICATES = (
    ("eps_certificate", 1e-15),
    ("subgrad_membership", 1e-10),
    ("inexact_bound", 1e-12),
    ("g_linearization", 1e-9),
    ("h_eps_subgradient", 1e-9),
    ("linesearch", 1e-9),
    ("phi_lower_bound", 1e-9),
)

TOLERANCE = dict(CERTIFICATES, reconstruction=1e-9)


def holds(name: str, slack):
    """Whether a slack, or each of an array of them, passes its inequality's
    tolerance; NaN never does."""
    return slack >= -TOLERANCE[name]


def slacks(record, problem, config) -> dict:
    """Slack of every catalogue inequality by name.  ``record`` is one
    record, or a run's records stacked by ``_columns``, for which each slack
    is an array with one value per record; each value takes the same float
    operations either way.  g at x and y comes from one ``value_rows``
    call, whose h values go unused: the h half reads h as g - phi."""
    r, g = record, problem.g
    g_x, g_y = value_rows(g, problem.h, np.stack((r.x, r.y)))[0]
    w_d = np.vecdot(r.w, r.y - r.x)
    d_sq = r.d_norm * r.d_norm
    decrease = (problem.sigma / 2 - config.theta) * d_sq
    step = config.rho * (r.lambda_k * r.lambda_k) * d_sq
    floor = problem.phi_lower_bound
    lowest = np.minimum(np.minimum(r.phi_x, r.phi_y), r.phi_next)
    return {
        "eps_certificate": r.eps_k - r.eps_certified,
        "subgrad_membership":
            -membership_gap(*subdiff_bounds(g.quad, g.lin, g.l1, r.y), r.xi),
        "inexact_bound": config.theta * r.d_norm - r.inexact_lhs,
        "g_linearization": (g_x - g_y + w_d) - decrease,
        "h_eps_subgradient": (g_y - r.phi_y) - (g_x - r.phi_x) - w_d + r.eps_k,
        "linesearch": (r.phi_y - step + r.nu_k) - r.phi_next,
        "phi_lower_bound": lowest - (-math.inf if floor is None else floor),
    }


_SCALARS = operator.attrgetter(*RECORD_SCALARS)
_ARRAYS = operator.attrgetter(*RECORD_ARRAYS)


def _columns(records):
    """A nonempty list of records stacked, one row per record: x, w, y and
    xi as 2-D float arrays, each scalar field a float64 array of the
    records' own values, and the derived norms ``d_norm`` and
    ``inexact_lhs`` taken by ``row_norms``, so each equals the record's
    own."""
    table = np.array(list(map(_SCALARS, records)), float)
    cols = {name: table[:, j] for j, name in enumerate(RECORD_SCALARS)}
    stacked = np.array(list(map(_ARRAYS, records)))
    cols.update(zip(RECORD_ARRAYS, stacked.transpose(1, 0, 2)))
    cols["d_norm"] = row_norms(cols["y"] - cols["x"])
    cols["inexact_lhs"] = row_norms(cols["w"] - cols["xi"])
    return types.SimpleNamespace(**cols)


def slack_columns(records, problem, config, final_x) -> dict:
    """Every slack of a run, ``reconstruction`` included, in ``TOLERANCE``
    order: a float64 array with one value per record of a nonempty list,
    whose last record moves to ``final_x``.  Overflow and invalid operations
    give inf and NaN slacks, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = _columns(records)
        found = slacks(r, problem, config)
        misses = (np.vstack((r.x[1:], final_x))
                  - next_x(r.y, r.x, r.lambda_k[:, None]))
        found["reconstruction"] = -row_norms(misses)
    return found


def replay(trace, problem) -> dict:
    """Worst slack and its iteration, ``{name: (slack, k)}``, over every
    record of a stored trace; a name with no record to check is absent.
    The worst is the first NaN, else the first minimum, as a scan record by
    record keeps it."""
    records = trace.records
    if not records:
        return {}
    found = slack_columns(records, problem, trace.config, trace.final_x)
    table = np.array(list(found.values()))
    nan = np.isnan(table)
    first = np.where(nan.any(axis=1, keepdims=True), nan,
                     table == table.min(axis=1, keepdims=True))
    return {name: (float(table[j, i]), records[i].k)
            for j, (name, i) in enumerate(zip(found, first.argmax(axis=1)))}
